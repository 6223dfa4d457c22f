"""Self-checks of the benchmark, and the recorded baseline.

    python3 bench/selfcheck.py counts [--seed N] [--fresh-seed M] [--record FILE]
        Two traced runs on one seed must give identical exact counts, and an
        untraced run on a fresh seed must pass every output check.
    python3 bench/selfcheck.py spread [--runs 10] [--first-seed N] [--record FILE]
        Untraced runs on distinct seeds per workload; prints each end-to-end
        metric's median and quartile spread against its bound.

Each run goes through bench/run.py exactly as documented there.  `--record`
merges the results, with the environment they were measured in, into a
JSON file such as bench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-1])


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,
    }


def record(path: str, key: str, payload: dict) -> None:
    data = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    data["environment"] = environment()
    data[key] = payload
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def check_counts(args) -> bool:
    catalogue = metrics.load()
    seconds = catalogue.run_seconds
    ok = True
    per_layer = {}
    for workload in catalogue.workloads:
        first, second = (run(workload, args.seed, seconds, 1) for _ in range(2))
        a, b = first["metrics"], second["metrics"]
        differ = [n for n in catalogue.exact if a[n]["value"] != b[n]["value"]]
        fresh = run(workload, args.fresh_seed, seconds, 0)
        passed = fresh["correct"] and fresh["failed"] == 0 and first["correct"] and second["correct"]
        print(f"{workload}: exact counts {'repeat' if not differ else 'differ: ' + ', '.join(differ)}; "
              f"fresh seed {args.fresh_seed} {'passes' if passed else 'FAILS'} "
              f"({fresh['attempted']} outputs checked)")
        ok = ok and not differ and passed
        per_layer[workload] = {n: a[n]["value"] for n in catalogue.per_layer}
        per_layer[workload]["per_model_ms"] = {
            m: 1e3 * a[f"benchmarks.forecast_all.{m}.total_s"]["value"] / a[f"benchmarks.forecast_all.{m}.calls"]["value"]
            for m in ("HAR", "TVHAR", "TVAR", "EWD", "TVEWD")
            if a[f"benchmarks.forecast_all.{m}.calls"]["value"]
        }
    if args.record:
        record(args.record, "per_layer", {"seed": args.seed, "runs": per_layer})
    return ok


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def check_spread(args) -> bool:
    catalogue = metrics.load()
    seconds = catalogue.run_seconds
    ok = True
    results = {}
    for workload in catalogue.workloads:
        values = {name: [] for name in catalogue.end_to_end}
        for i in range(args.runs):
            out = run(workload, args.first_seed + i, seconds, 0)
            ok = ok and out["correct"]
            for name in catalogue.end_to_end:
                values[name].append(out["metrics"][name]["value"])
        results[workload] = {}
        for name, metric in catalogue.end_to_end.items():
            unit, bound = metric["unit"], metric["bound"]
            median, rel = spread(values[name])
            steady = rel < bound / 3
            if name != "setup_s":
                ok = ok and rel <= bound
            print(f"{workload:<16}{name:<15}median {median:12.4f} {unit:<4} spread {rel:7.4f} "
                  f"(bound {bound}) {'steady' if steady else 'NOT below bound/3'}")
            results[workload][name] = {"median": median, "spread": rel, "values": values[name]}
    if args.record:
        record(args.record, "end_to_end", {"seconds": seconds, "first_seed": args.first_seed,
                                           "runs": args.runs, "workloads": results})
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    counts = sub.add_parser("counts")
    counts.add_argument("--seed", type=int, default=7)
    counts.add_argument("--fresh-seed", type=int, default=20261018)
    counts.add_argument("--record")
    runs = sub.add_parser("spread")
    runs.add_argument("--runs", type=int, default=10)
    runs.add_argument("--first-seed", type=int, default=100)
    runs.add_argument("--record")
    args = parser.parse_args()
    check = {"counts": check_counts, "spread": check_spread}[args.command]
    return 0 if check(args) else 1


if __name__ == "__main__":
    sys.exit(main())
