"""Outside-in tracer for the tvewd layers.

`Tracer.install()` replaces every public function of the layer modules
with a timing wrapper at every place the function is bound: the defining
module, each module that bound it with `from .x import ...`, the package
namespace, and module-level dicts such as the CLI's command table.
`ModelSpec.forecast_all` is wrapped on the class and reports one span name
per model.  No source file changes.

Spans nest and stay in memory until the run ends.  A span's self time is
its duration minus the durations of its direct children; since calls are
single-threaded the children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import Counter

PACKAGE = "tvewd"
LAYERS = ("series", "rv", "sim", "locreg", "wold", "forecast", "benchmarks", "evaluate", "cli")

# Per-value helpers.  A wrapper costs about 1 us a call, as much as one of
# their calls (wrapping format_value doubled store_beta_surface's time), so
# they stay unwrapped.  Their call counts are derived from the sizes of what
# the traced calls wrote (WRITERS below) or from their callers' counts.
UNWRAPPED = frozenset({"series.format_value", "locreg.kernel_weights", "benchmarks.har_terms"})


def _path_arg(args, kwargs, position):
    return kwargs["path"] if "path" in kwargs else args[position]


def _count_writer(name, position, values_written):
    """Hook for a CSV writer: bytes of the file it wrote and values it formatted."""

    def hook(counters, args, kwargs, result):
        counters[f"{name}.bytes"] += os.path.getsize(_path_arg(args, kwargs, position))
        counters["series.format_value.calls"] += values_written(*args[:position])

    return hook


def _report_values(report):
    return sum(2 * (2 + 3 * (e.dm_sq is not None)) for e in report.entries.values())


def _beta_values(decomp):
    cfg = decomp.config
    return decomp.n_rows * (1 + sum(cfg.n_translates(j) for j in range(1, cfg.J + 1)))


def _ar_rows(counters, args, kwargs, result):
    phi = args[0] if args else kwargs["phi"]
    counters["wold.ar_to_ma.rows"] += 1 if getattr(phi, "ndim", 1) == 1 else len(phi)


def _ticks(counters, args, kwargs, result):
    counters["rv.ticks"] += len(result[0])


def _days_kept(counters, args, kwargs, result):
    counters["rv.days_kept"] += len(result[1])


def _bytes_written(counters, args, kwargs, result):
    counters["series.bytes_written"] += os.path.getsize(_path_arg(args, kwargs, 0))


# CSV writers: the position of the path argument, and how many values the
# writer passes through format_value, from the arguments before the path.
WRITERS = {
    "series.store_series": (1, len),
    "rv.store_rv": (2, lambda dates, rv: len(rv)),
    "wold.store_beta_surface": (1, _beta_values),
    "wold.store_shares": (1, lambda shares: shares.shares.size),
    "locreg.export_curves": (1, lambda fit: len(fit.grid) * (fit.p + 2)),
    "evaluate.store_report": (1, _report_values),
    "evaluate.store_forecast_records": (1, lambda report: len(report.records)),
    "forecast.store_forecasts": (1, len),
}

# Exact work counts taken at the layer boundary from a call's arguments or result.
HOOKS = {
    "rv.load_ticks": _ticks,
    "rv.realized_variance": _days_kept,
    "wold.ar_to_ma": _ar_rows,
    "series.atomic_write": _bytes_written,
    **{name: _count_writer(name, *spec) for name, spec in WRITERS.items()},
}

# Counter names the hooks can produce; absent from a run means zero.
COUNTED = frozenset(
    {"rv.ticks", "rv.days_kept", "wold.ar_to_ma.rows", "series.bytes_written",
     "series.format_value.calls"}
    | {f"{name}.bytes" for name in WRITERS}
)


class Tracer:
    """Records nested spans around the tvewd layer functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # (name id, parent span index or -1, start, end, unit index)
        self.spans: list[tuple | None] = []
        self.counters: Counter = Counter()
        self.unit = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _record(self, nid, fn, args, kwargs):
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index] = (nid, parent, start, end, self.unit)

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        hook = HOOKS.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self._record(nid, fn, args, kwargs)
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return wrapper

    def _modules(self):
        return [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]

    def install(self) -> None:
        modules = self._modules()
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                    or name in UNWRAPPED
                ):
                    continue
                wrappers[obj] = self._wrap(name, obj)
        for namespace in [importlib.import_module(PACKAGE), *modules]:
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((namespace, attr, obj, True))
                    setattr(namespace, attr, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrappers:
                            self._patches.append((obj, key, value, False))
                            obj[key] = wrappers[value]
        model_spec = importlib.import_module(f"{PACKAGE}.benchmarks").ModelSpec
        original = model_spec.forecast_all
        ids = {}

        @functools.wraps(original)
        def forecast_all(spec, values, horizons):
            if spec.name not in ids:
                ids[spec.name] = self._name_id(f"benchmarks.forecast_all.{spec.name}")
            return self._record(ids[spec.name], original, (spec, values, horizons), {})

        self._patches.append((model_spec, "forecast_all", original, True))
        model_spec.forecast_all = forecast_all

    def uninstall(self) -> None:
        for owner, key, original, is_attr in reversed(self._patches):
            if is_attr:
                setattr(owner, key, original)
            else:
                owner[key] = original
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s and total_s.

        total_s counts a span only when no ancestor has the same name, so a
        function that re-enters itself is not counted twice.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for nid, parent, start, end, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in self.names}
        for index, (nid, parent, start, end, _) in enumerate(spans):
            entry = stats[self.names[nid]]
            entry["calls"] += 1
            entry["self_s"] += end - start - child_time[index]
            while parent >= 0 and spans[parent][0] != nid:
                parent = spans[parent][1]
            if parent < 0:
                entry["total_s"] += end - start
        return stats

    def root_time(self) -> float:
        """Summed duration of top-level spans, which equals the sum of all self times."""
        return sum(end - start for _, parent, start, end, _ in self.spans if parent < 0)

    def write(self, path: str) -> None:
        """Write the raw spans as JSON: names, then [name, parent, start, end, unit] rows."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))
