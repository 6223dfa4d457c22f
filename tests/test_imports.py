"""Lint: every module of the package uses what it imports and defines
what it exports.

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


@pytest.mark.parametrize(
    "module", sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("__"))
)
def test_module_defines_every_exported_name(module):
    """A stale `__all__` entry breaks `from tvewd.<module> import *` only."""
    mod = importlib.import_module(f"tvewd.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
