"""The metric catalogue, read from BENCHMARK.json at the root of the checkout.

End-to-end metrics come from untraced runs, per-layer metrics from traced
runs.  Which end-to-end figure each per-layer metric should move is listed
in README.md.
"""

import json
import os
from dataclasses import dataclass

PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


@dataclass(frozen=True)
class Catalogue:
    workloads: tuple[str, ...]
    run_seconds: int
    end_to_end: dict[str, dict]  # name: the metric's entry in BENCHMARK.json
    per_layer: dict[str, dict]

    @property
    def exact(self) -> tuple[str, ...]:
        """Per-layer metrics that must repeat exactly for a given seed."""
        return tuple(n for n, m in self.per_layer.items() if m["unit"] in ("count", "bytes", "share"))


def load() -> Catalogue:
    with open(PATH, encoding="utf-8") as fh:
        bench = json.load(fh)
    return Catalogue(
        workloads=tuple(w["name"] for w in bench["workloads"]),
        run_seconds=bench["run_seconds"],
        end_to_end={m["name"]: m for m in bench["end_to_end"]},
        per_layer={m["name"]: m for m in bench["per_layer"]},
    )
