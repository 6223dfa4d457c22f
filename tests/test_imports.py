"""Lint: every module of the package uses what it imports, defines what
it exports, and reads every parameter its functions take.

No linter ships with the test dependencies, so this reads each module with
the standard-library `ast`.  Package `__init__.py` files only re-export, and
a name listed in a module's `__all__` counts as used.
"""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tvewd"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that nothing in the module reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport sys\nfrom json import dumps as d\n"
    assert unused_imports(source + "print(sys.argv)\n") == ["os (line 2)", "d (line 4)"]
    assert unused_imports(source + "__all__ = ['os', 'd']\nprint(sys)\n") == []


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_module_has_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def unread_parameters(source: str) -> list[str]:
    """Parameters of functions and lambdas that their own body never reads
    (a read in a nested function counts)."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg) if p]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id
                for stmt in body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            name = getattr(node, "name", "lambda")
            unread += [f"{name}({p}) (line {node.lineno})" for p in params if p not in read]
    return unread


def test_the_check_finds_an_unread_parameter():
    source = (
        "def f(a, b, *args, c=1, **kw):\n    def g():\n        return a\n    b = 2\n    return g, kw\n"
        "h = lambda x, y: x\n"
    )
    assert unread_parameters(source) == ["f(b) (line 1)", "f(args) (line 1)", "f(c) (line 1)", "lambda(y) (line 6)"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_reads_every_parameter(module):
    assert unread_parameters((PACKAGE / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "module", sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("__"))
)
def test_module_defines_every_exported_name(module):
    """A stale `__all__` entry breaks `from tvewd.<module> import *` only."""
    mod = importlib.import_module(f"tvewd.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def private_definitions(source: str) -> list[tuple[str, int]]:
    """Module-level functions, classes and assignments whose name starts
    with one underscore."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
    return [(name, line) for name, line in names if name.startswith("_") and not name.startswith("__")]


def read_names(source: str) -> set[str]:
    """Names a module reads, bare or as an attribute."""
    tree = ast.parse(source)
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} | {
        n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
    }


def test_the_check_finds_an_unread_private_name():
    source = "_A = 1\n_B: int = 2\ndef _f():\n    return _A\nclass _C:\n    pass\ndef g(x):\n    return x._C\n"
    assert private_definitions(source) == [("_A", 1), ("_B", 2), ("_f", 3), ("_C", 5)]
    assert {"_A", "_C"} <= read_names(source) and not {"_B", "_f"} & read_names(source)


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_private_names_are_read_in_the_package(module):
    """A private helper or constant that nothing under src/tvewd/ reads is
    dead code, whatever the tests still call."""
    read = set().union(*(read_names(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")))
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert [f"{name} (line {line})" for name, line in private_definitions(source) if name not in read] == []
