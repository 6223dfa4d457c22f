"""The benchmark's three workloads: inputs from a seed, one unit of work, checks.

Every workload drives the public tvewd entry points exactly as a user
would, the CLI through `tvewd.cli.main` and the library through
`tvewd.evaluate.rolling_evaluate`, and then checks the outputs against an
independent route.  Functions are looked up on their modules at call time
so that a traced run sees the wrappers.

rolling-2010     `tvewd evaluate --preset period-2010 --series CL --jobs 1`
                 with all five models: the paper's headline use, and the only
                 workload running TVAR, EWD and the CLI's grouping by AR order.
sweep-c08        the criterion-08 sweep through `rolling_evaluate` (TVEWD and
                 TVHAR, window 300): small windows where per-solve overhead
                 dominates; the control for changes to TVAR, EWD, CLI or CSV.
ticks-to-shares  `tvewd rv` then `tvewd decompose` on 2000 sessions of ticks:
                 the only workload exercising `rv` and the large CSV writers,
                 with one large local linear fit instead of many.

No unit repeats the input of another unit or of the warm-up, so a cache
kept across calls cannot make a measured unit cheaper than a one-off call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from tvewd import cli, evaluate, series, sim
from tvewd.benchmarks import ModelSpec
from tvewd.locreg import KernelSpec
from tvewd.wold import MultiscaleConfig

from ticks import BINS, SESSIONS

EPA = KernelSpec("epanechnikov", 0.3)
# criterion-08 curves: slowly drifting persistence and level
PHI_C08 = sim.Curve("sinusoid", {"base": 0.775, "amplitude": 0.175, "frequency": 0.75})
ICPT_C08 = sim.Curve("sinusoid", {"base": 2.25, "amplitude": -1.75, "frequency": 0.75})
TOL = 1e-9
DEEP_ORIGINS = 2  # seed-chosen origins re-forecast directly per check
DEEP_ROWS = 3  # seed-chosen decompose rows recomputed per ticks-to-shares unit


@dataclass
class Tally:
    """Outputs checked and outputs missing or wrong; these feed failed_share."""

    attempted: int = 0
    failed: int = 0

    def add(self, ok: bool, n: int = 1) -> None:
        self.attempted += n
        if not ok:
            self.failed += n


def _cli(argv: list[str]) -> tuple[float]:
    """Run one tvewd command in-process; returns its duration as a one-step tuple."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"tvewd {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return (elapsed,)


def _write_json(path: str, payload: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def _close(a: float, b: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= TOL * max(1.0, abs(b))


def _c08_series(T: int, seed: int) -> series.VolatilitySeries:
    scenario = sim.TvpArScenario(
        p=1, T=T, coefficients=(PHI_C08,), intercept=ICPT_C08, seed=seed, label="c08"
    )
    return sim.simulate(scenario).series


class Workload:
    """Inputs from a seed, a repeatable unit of work, and checks of its outputs.

    `origins` and `days` count what one unit gets done; `traced_units` is
    the fixed amount of work a traced pass measures; `scores_forecasts`
    says whether the checked outputs are forecast cells.  A run measures at
    most MAX_UNITS units, numbered from 0; the warm-up uses the input of
    unit MAX_UNITS, which is never measured.
    """

    name = ""
    origins = days = 0
    traced_units = 1
    scores_forecasts = True
    MAX_UNITS = 400

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.seed = seed

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def generate(self) -> None:
        """Inputs and state shared by all units."""
        raise NotImplementedError

    def prepare(self, k: int) -> None:
        """Make unit k's own input; not part of the unit's time."""

    def warm_up(self) -> None:
        raise NotImplementedError

    def unit(self, k: int) -> tuple[float, ...]:
        """Run unit k on the input prepare(k) made; returns the durations of its steps."""
        raise NotImplementedError

    def check_unit(self, k: int, tally: Tally) -> None:
        """Checks of unit k's outputs, run after every unit."""
        raise NotImplementedError

    def check_deep(self, tally: Tally) -> None:
        """Recompute a seed-chosen sample of outputs by an independent route.

        The default does nothing, for workloads whose per-unit checks already
        recompute a sample of every unit's outputs.
        """


class Rolling2010(Workload):
    """`tvewd evaluate` at period-2010 settings on a simulated CL-like series.

    A unit scores one origin through the CLI.  Unit k reads the series
    shifted by k days, so successive units score successive origins of one
    sweep.
    """

    name = "rolling-2010"
    origins = days = 1  # the window slides one day per origin
    traced_units = 4
    WINDOW = 700
    HORIZONS = (1, 5, 22)
    LAGS = {1: 2, 5: 6, 22: 6}  # the CL row of the period-2010 preset
    MODELS = ("TVEWD", "TVHAR", "TVAR", "HAR", "EWD")
    SCALES = MultiscaleConfig(J=7, N=4)

    def generate(self) -> None:
        span = self.WINDOW + max(self.HORIZONS)
        self.series = _c08_series(span + self.MAX_UNITS, self.seed)
        # max_origins 1 puts the p=2 group (h=1) and the p=6 group (h=5, 22)
        # on the same origin
        self.config = _write_json(
            self.path("evaluate.json"),
            {"max_origins": 1, "forecasts_output": self.path("forecasts.csv")},
        )
        self.cells: dict[int, dict] = {}

    def prepare(self, k: int) -> None:
        # written here rather than by tvewd.series, so that a traced run
        # counts only the program's own writes
        span = self.WINDOW + max(self.HORIZONS)
        window = self.series.slice(k, k + span)
        lines = ["date,value"] + [f"{d},{v!r}" for d, v in zip(window.dates, window.values.tolist())]
        with open(self.path("vol.csv"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    def unit(self, k: int) -> tuple[float, ...]:
        return _cli(["evaluate", "--input", self.path("vol.csv"), "--output", self.path("report.csv"),
                     "--preset", "period-2010", "--series", "CL", "--jobs", "1", "--config", self.config])

    def warm_up(self) -> None:
        self.prepare(self.MAX_UNITS)
        self.unit(self.MAX_UNITS)

    def check_unit(self, k: int, tally: Tally) -> None:
        with open(self.path("forecasts.csv"), encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        cells = {(int(h), m): (origin, target, float(v)) for origin, target, h, m, v in rows}
        self.cells[k] = cells
        T0 = self.WINDOW + k  # in-sample observations of the full series
        dates = self.series.dates
        for h in self.HORIZONS:
            for m in self.MODELS:
                cell = cells.get((h, m))
                tally.add(
                    cell is not None
                    and cell[:2] == (str(dates[T0 - 1]), str(dates[T0 + h - 1]))
                    and math.isfinite(cell[2])
                )
        tally.add(len(rows) == len(self.HORIZONS) * len(self.MODELS))
        with open(self.path("report.csv"), encoding="utf-8") as fh:
            report = [line.split(",") for line in fh.read().splitlines()[1:]]
        keys = {(row[0], int(row[1]), row[2]) for row in report if math.isfinite(float(row[5]))}
        expected = {(m, h, loss) for m in self.MODELS for h in self.HORIZONS for loss in ("rmse", "mae")}
        tally.add(keys == expected)

    def check_deep(self, tally: Tally) -> None:
        rng = np.random.default_rng(self.seed)
        units = sorted(self.cells)
        for k in rng.choice(units, size=min(DEEP_ORIGINS, len(units)), replace=False):
            T0 = self.WINDOW + int(k)
            window = self.series.values[T0 - self.WINDOW : T0]
            for p in sorted(set(self.LAGS.values())):
                hs = tuple(h for h in self.HORIZONS if self.LAGS[h] == p)
                for m in self.MODELS:
                    spec = ModelSpec(name=m, p=p, kernel=EPA, scales=self.SCALES)
                    direct = spec.forecast_all(window, hs)
                    for h in hs:
                        cell = self.cells[int(k)].get((h, m))
                        tally.add(cell is not None and _close(cell[2], direct[h]))


class SweepC08(Workload):
    """The criterion-08 replication loop through the library API.

    A replication scores origins 300..419 of its series, which is simulated
    from seed + r.  It runs as four units of 30 origins each (the fewest a
    DM test takes), each a `rolling_evaluate` call on the slice of the
    series those origins need, so that units are short next to swings in
    machine speed.
    """

    name = "sweep-c08"
    CHUNK = 30
    origins = days = CHUNK
    traced_units = 4  # one replication
    WINDOW = 300
    CHUNKS = 4  # 120 origins per replication
    HORIZONS = (1, 22)
    DEEP_POOL = 8  # units whose reports are kept for check_deep
    MODELS = ("TVEWD", "TVHAR")
    SCALES = MultiscaleConfig(J=5, N=4)

    def _models(self) -> list:
        return [ModelSpec(name="TVEWD", p=1, kernel=EPA, scales=self.SCALES),
                ModelSpec(name="TVHAR", kernel=EPA)]

    def _plan(self):
        return evaluate.RollingPlan(
            window=self.WINDOW, step=1, horizons=self.HORIZONS, max_origins=self.CHUNK
        )

    def generate(self) -> None:
        self.replication: tuple = (None, None)  # (r, series) of the latest unit
        self.reports: dict[int, tuple] = {}

    def prepare(self, k: int) -> None:
        """Unit k's slice: chunk k % CHUNKS of replication k // CHUNKS."""
        r = k // self.CHUNKS
        if self.replication[0] != r:
            T = self.WINDOW + self.CHUNK * self.CHUNKS + max(self.HORIZONS)
            self.replication = (r, _c08_series(T, self.seed + r))
        start = self.CHUNK * (k % self.CHUNKS)
        self.chunk = self.replication[1].slice(start, start + self.WINDOW + self.CHUNK + max(self.HORIZONS) - 1)

    def warm_up(self) -> None:
        self.prepare(self.MAX_UNITS)
        evaluate.rolling_evaluate(self.chunk, self._models(), self._plan(), benchmark="TVHAR", jobs=1)

    def unit(self, k: int) -> tuple[float, ...]:
        start = time.perf_counter()
        report = evaluate.rolling_evaluate(
            self.chunk, self._models(), self._plan(), benchmark="TVHAR", jobs=1
        )
        elapsed = time.perf_counter() - start
        self.reports[k] = (self.chunk, report)
        return (elapsed,)

    def check_unit(self, k: int, tally: Tally) -> None:
        chunk, report = self.reports[k]
        cells = {(r.origin, r.model, r.horizon): r for r in report.records}
        for T0 in range(self.WINDOW, self.WINDOW + self.CHUNK):
            for m in self.MODELS:
                for h in self.HORIZONS:
                    r = cells.get((T0, m, h))
                    tally.add(
                        r is not None
                        and math.isfinite(r.forecast)
                        and r.realized == float(chunk.values[T0 + h - 1])
                    )
        entries = report.entries
        tally.add(
            all(
                (m, h) in entries
                and math.isfinite(entries[(m, h)].rmse_ratio)
                and entries[(m, h)].dm_sq is not None
                for m in self.MODELS
                for h in self.HORIZONS
            )
        )
        if k >= self.DEEP_POOL:
            del self.reports[k]

    def check_deep(self, tally: Tally) -> None:
        rng = np.random.default_rng(self.seed)
        ks = sorted(self.reports)
        for _ in range(DEEP_ORIGINS):
            chunk, report = self.reports[ks[int(rng.integers(len(ks)))]]
            T0 = self.WINDOW + int(rng.integers(self.CHUNK))
            cells = {(r.model, r.horizon): r.forecast for r in report.records if r.origin == T0}
            for spec in self._models():
                direct = spec.forecast_all(chunk.values[T0 - self.WINDOW : T0], self.HORIZONS)
                for h in self.HORIZONS:
                    tally.add((spec.name, h) in cells and _close(cells[(spec.name, h)], direct[h]))


def _local_linear_ar1(v: np.ndarray, g: int, bandwidth: float) -> np.ndarray:
    """Epanechnikov local linear AR(1) coefficients (phi0, phi1) at grid row g.

    Row g is observation t = g + 2 of v (1-based), at u = t / T.  Solved by
    QR of the weighted design [1, v_{t-1}, (t/T - u), (t/T - u) v_{t-1}].
    """
    T = len(v)
    tau = np.arange(2, T + 1) / T
    x = (tau - tau[g]) / bandwidth
    w = np.where(np.abs(x) <= 1.0, 0.75 * (1.0 - x * x), 0.0)
    a = w > 0.0
    d, lag = (tau - tau[g])[a], v[:-1][a]
    Z = np.column_stack([np.ones_like(d), lag, d, d * lag]) * np.sqrt(w[a])[:, None]
    q, r = np.linalg.qr(Z)
    return np.linalg.solve(r, q.T @ (v[1:][a] * np.sqrt(w[a])))[:2]


def _haar_betas(phi1: float, J: int, N: int) -> list[np.ndarray]:
    """Haar detail coefficients of the AR(1) MA weights phi1^h, h < N 2^J, per scale."""
    H = N << J
    alpha = phi1 ** np.arange(H)
    betas = []
    for j in range(1, J + 1):
        blocks = alpha.reshape(-1, 1 << j)
        half = 1 << (j - 1)
        betas.append((blocks[:, :half].sum(axis=1) - blocks[:, half:].sum(axis=1)) / math.sqrt(1 << j))
    return betas


class TicksToShares(Workload):
    """Raw ticks to annualized volatility, then to persistence shares.

    Each unit's ticks come from `ticks.py`, run in a process of its own, so
    that generating them costs the measured process neither time nor memory.
    """

    name = "ticks-to-shares"
    # decompose fits one local linear origin per session
    origins = days = SESSIONS
    scores_forecasts = False
    WARM_SESSIONS = 150
    SCALES = MultiscaleConfig(J=7, N=4)  # the decompose defaults: p=1, Epanechnikov 0.3

    def generate(self) -> None:
        self.rv_config = _write_json(self.path("rv.json"), {"session_cutoff": "18:00", "bins_per_day": BINS})
        self.decompose_config = _write_json(
            self.path("decompose.json"),
            {"shares_output": self.path("shares.csv"), "curves_output": self.path("curves.csv")},
        )

    def prepare(self, k: int, sessions: int = SESSIONS) -> None:
        subprocess.run(
            [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "ticks.py"),
             "--seed", str(self.seed), "--unit", str(k), "--sessions", str(sessions), "--out", self.workdir],
            check=True,
        )

    def unit(self, k: int) -> tuple[float, ...]:
        vol = self.path("vol.csv")
        return (
            _cli(["rv", "--input", self.path("ticks.csv"), "--output", vol, "--config", self.rv_config])
            + _cli(["decompose", "--input", vol, "--output", self.path("beta.csv"),
                    "--config", self.decompose_config])
        )

    def warm_up(self) -> None:
        self.prepare(self.MAX_UNITS, self.WARM_SESSIONS)
        self.unit(self.MAX_UNITS)

    def check_unit(self, k: int, tally: Tally) -> None:
        with np.load(self.path("expected.npz")) as expected:
            dates, want = expected["dates"].tolist(), expected["vol"]
        with open(self.path("vol.csv"), encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        got = {d: float(v) for d, v in rows}
        for d, w in zip(dates, want):
            value = got.get(d)
            tally.add(value is not None and abs(value - w) <= 1e-12 * w)
        tally.add(len(got) == SESSIONS and [r[0] for r in rows] == dates)
        v = np.array([float(r[1]) for r in rows])

        G = SESSIONS - 1
        J, N = self.SCALES.J, self.SCALES.N
        per_row = N * ((1 << J) - 1)
        rng = np.random.default_rng([self.seed, k])
        sample = sorted(rng.choice(G, size=DEEP_ROWS, replace=False).tolist())
        wanted = {1 + g * per_row + i for g in sample for i in range(per_row)}
        beta_lines = {}
        with open(self.path("beta.csv"), encoding="utf-8") as fh:
            n_lines = 0
            for n_lines, line in enumerate(fh, start=1):
                if n_lines - 1 in wanted:
                    beta_lines[n_lines - 1] = line
        tally.add(n_lines - 1 == G * per_row)
        with open(self.path("curves.csv"), encoding="utf-8") as fh:
            curves = [line.split(",") for line in fh.read().splitlines()[1:]]
        tally.add(len(curves) == G)
        with open(self.path("shares.csv"), encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        if len(rows) != G * J or len(curves) != G:
            tally.add(False, G + DEEP_ROWS)
            return
        shares = np.array([float(r[2]) for r in rows]).reshape(G, J)
        # every row is defined: a NaN share needs a zero denominator
        for row in shares:
            tally.add(bool(np.all(np.isfinite(row))) and abs(row.sum() - 1.0) <= 1e-12)

        # seed-chosen rows recomputed from vol.csv without tvewd
        for g in sample:
            phi = _local_linear_ar1(v, g, EPA.bandwidth)
            betas = _haar_betas(phi[1], J, N)
            u = (g + 2) / SESSIONS
            got_curve = [float(x) for x in curves[g]]
            ok = len(got_curve) == 3 and all(_close(a, b) for a, b in zip(got_curve, (u, *phi)))
            flat = [(j, kk, b) for j, bj in enumerate(betas, start=1) for kk, b in enumerate(bj)]
            for i, (j, kk, b) in enumerate(flat):
                fields = beta_lines.get(1 + g * per_row + i, "").split(",")
                ok = ok and len(fields) == 4 and fields[1:3] == [str(j), str(kk)] \
                    and _close(float(fields[0]), u) and _close(float(fields[3]), b)
            first = np.abs([bj[0] for bj in betas])
            ok = ok and all(_close(a, b) for a, b in zip(shares[g], first / first.sum()))
            tally.add(ok)


WORKLOADS = {cls.name: cls for cls in (Rolling2010, SweepC08, TicksToShares)}
