"""One run of one workload, in a fresh interpreter started by `run.py`.

Untraced (`--trace 0`): set up several times and keep the median, then
repeat the workload's unit, each time on a new input, until `--seconds` is
spent, checking each unit's outputs, and report throughput from the
median time of each of the unit's steps.

Traced (`--trace 1`): after the same set-up, run input generation plus a
fixed number of units three times, untraced, under the tracer and untraced
again, each pass on units of its own, and report the per-layer metrics.
The work is fixed, so exact counts repeat for a seed; the traced pass
minus the mean of the untraced ones is the tracing overhead.

The last line of standard output is the JSON result; the exit code is
non-zero when any output check failed.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402, F401
import tvewd  # noqa: E402, F401

IMPORT_S = time.perf_counter() - _START

import metrics  # noqa: E402
from tracer import COUNTED, Tracer  # noqa: E402
from workloads import WORKLOADS, Tally  # noqa: E402

SETUP_REPEATS = 3
MIN_UNITS = 3


def set_up(workload) -> float:
    """Median time of input generation plus warm-up, plus the one-off import."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.generate()
        workload.warm_up()
        times.append(time.perf_counter() - start)
    return IMPORT_S + statistics.median(times)


def measure(workload, seconds: float, tally: Tally) -> dict:
    """Repeat the unit until `seconds` is spent; throughput from the median steps.

    A unit's time is the sum of the median time of each of its steps over
    the run.  On a shared two-vCPU machine, ten runs of rolling-2010 spread
    by 0.083 (interquartile range over median) with the median unit, and by
    0.198 with the fastest.
    """
    steps = []
    start = time.perf_counter()
    while len(steps) < workload.MAX_UNITS:
        k = len(steps)
        workload.prepare(k)
        steps.append(workload.unit(k))
        workload.check_unit(k, tally)
        elapsed = time.perf_counter() - start
        if len(steps) >= MIN_UNITS and elapsed + statistics.median(map(sum, steps)) > seconds:
            break
    workload.check_deep(tally)
    typical = sum(statistics.median(column) for column in zip(*steps))
    return {
        "origins_per_s": workload.origins / typical,
        "days_per_s": workload.days / typical,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def timed_pass(workload, units: range, tally: Tally | None, tracer: Tracer | None = None) -> float:
    """Input generation plus the given units; returns their summed time, checks excluded."""
    with tracer if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        workload.generate()
        wall = time.perf_counter() - start
        for k in units:
            if tracer is not None:
                tracer.unit = k
            start = time.perf_counter()
            workload.prepare(k)
            workload.unit(k)
            wall += time.perf_counter() - start
            if tally is not None:
                workload.check_unit(k, tally)
    return wall


def per_layer(names, workload, tracer: Tracer, stats: dict, tally: Tally, wall: float, untraced: float) -> dict:
    def stat(name: str, kind: str) -> float:
        return stats.get(name, {}).get(kind, 0)

    cells = workload.scores_forecasts
    values = {
        "locreg.kernel_weights.calls": stat("locreg.local_linear", "calls"),
        "benchmarks.har_terms.calls": stat("benchmarks.har_fit_forecast", "calls")
        + stat("benchmarks.tvhar_fit_forecast", "calls"),
        "evaluate.cells.attempted": tally.attempted if cells else 0,
        "evaluate.cells.failed": tally.failed if cells else 0,
        "failed_share": tally.failed / tally.attempted,
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": wall - untraced,
        "trace.unattributed_s": wall - tracer.root_time(),
    }
    for name in names:
        if name in values:
            continue
        head, kind = name.rsplit(".", 1)
        if name in COUNTED:
            values[name] = tracer.counters.get(name, 0)
        elif head.startswith("layer."):
            layer = head[len("layer."):] + "."
            values[name] = sum(s["self_s"] for n, s in stats.items() if n.startswith(layer))
        else:
            values[name] = stat(head, kind)
    return values


def report_layers(stats: dict, wall: float) -> None:
    print(f"{'span':<44}{'calls':>9}{'self_s':>10}{'total_s':>10}{'self%':>7}")
    for name, s in sorted(stats.items(), key=lambda kv: -kv[1]["self_s"]):
        if not s["calls"]:
            continue
        share = 100.0 * s["self_s"] / wall
        print(f"{name:<44}{s['calls']:>9}{s['self_s']:>10.4f}{s['total_s']:>10.4f}{share:>7.1f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    catalogue = metrics.load()
    parser.add_argument("--workload", required=True, choices=catalogue.workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="file to write the traced run's spans to")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.workdir, args.seed)
    setup_s = set_up(workload)
    tally = Tally()
    if args.trace:
        # untraced passes on both sides of the traced one, so that drift in
        # machine speed during the run does not read as tracing overhead;
        # each pass runs units of its own, of the same size
        n = workload.traced_units
        before = timed_pass(workload, range(0, n), None)
        tracer = Tracer()
        wall = timed_pass(workload, range(n, 2 * n), tally, tracer)
        workload.check_deep(tally)
        untraced = (before + timed_pass(workload, range(2 * n, 3 * n), None)) / 2.0
        stats = tracer.summary()
        report_layers(stats, wall)
        if args.spans:
            tracer.write(args.spans)
        values = per_layer(catalogue.per_layer, workload, tracer, stats, tally, wall, untraced)
        chosen = catalogue.per_layer
    else:
        values = measure(workload, args.seconds, tally)
        values["setup_s"] = setup_s
        chosen = catalogue.end_to_end
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": m["unit"]} for name, m in chosen.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
