"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout.  The workload runs in a fresh
interpreter that imports tvewd from `src/`, with BLAS and OpenMP pinned to
one thread.  Inputs are generated from the seed into a scratch directory
inside the checkout, which is removed afterwards.  The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the exit code is non-zero when the run failed or
an output check did not pass.  See bench/README.md for the metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 170
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one tvewd benchmark workload.")
    parser.add_argument("--workload", required=True, choices=metrics.load().workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "tvewd", "__init__.py")):
        print(f"bench: no tvewd sources under {src}; run from a source checkout", file=sys.stderr)
        return 2

    scratch_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(scratch_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root)
    env = dict(os.environ, PYTHONPATH=src, **PINNED)
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir,
    ]
    if args.trace:
        spans = os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-seed{args.seed}.json")
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"bench: {args.workload} did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch_root)  # only when no other run is using it
        except OSError:
            pass
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
