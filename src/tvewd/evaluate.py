"""Rolling out-of-sample evaluation with Diebold-Mariano comparisons.

Each model is re-fit on a sliding in-sample window of fixed length; the
h-step-ahead forecast at origin T0 targets observation T0 + h and is scored
against the realized value.  Losses are summarized as RMSE and MAE, reported
relative to a benchmark model, and equal-predictive-accuracy is tested with
a Diebold-Mariano statistic using a Bartlett-kernel long-run variance with
lag truncation h - 1.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .benchmarks import ModelSpec
from .forecast import FORECAST_COLUMNS
from .series import VolatilitySeries, _check_integer, format_value, write_csv

__all__ = [
    "RollingPlan",
    "DMResult",
    "EvaluationEntry",
    "EvaluationReport",
    "rmse",
    "mae",
    "dm_test",
    "significance_marks",
    "check_evaluation",
    "rolling_evaluate",
    "format_report",
    "store_report",
    "store_forecast_records",
    "grid_search",
]

MIN_DM_OBS = 30
P_THRESHOLDS = (0.10, 0.05, 0.01)
# Most consecutive origins scored as one block, whose windows a ModelSpec
# receives as one stack.
BLOCK_ORIGINS = 32


def rmse(errors: np.ndarray) -> float:
    """Root mean squared error of forecast errors (forecast - realized)."""
    errors = np.asarray(errors, dtype=float)
    if len(errors) == 0:
        raise ValueError("rmse of an empty error vector")
    return float(np.sqrt(np.mean(errors * errors)))


def mae(errors: np.ndarray) -> float:
    """Mean absolute error of forecast errors."""
    errors = np.asarray(errors, dtype=float)
    if len(errors) == 0:
        raise ValueError("mae of an empty error vector")
    return float(np.mean(np.abs(errors)))


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


@dataclass
class DMResult:
    """Diebold-Mariano test of loss_a vs loss_b (negative stat favors a)."""

    stat: float
    p_better: float
    p_worse: float
    n: int
    lrv: float


def dm_test(loss_a: np.ndarray, loss_b: np.ndarray, h: int) -> DMResult:
    """DM test on the loss differential d = loss_a - loss_b.

    The long-run variance of d uses Bartlett weights 1 - l/h for lags
    l = 1..h-1 on demeaned autocovariances (so h = 1 reduces to the plain
    variance).  p_better is the one-sided p-value for "a beats b", p_worse
    for the opposite direction.  A zero-variance differential returns
    statistic 0 and p-values 1 by decision.
    """
    a = np.asarray(loss_a, dtype=float)
    b = np.asarray(loss_b, dtype=float)
    if len(a) != len(b):
        raise ValueError("loss vectors must have equal length")
    n = len(a)
    if n < MIN_DM_OBS:
        raise ValueError(f"DM test needs at least {MIN_DM_OBS} paired losses, got {n}")
    if h < 1:
        raise ValueError(f"horizon must be >= 1, got {h}")
    d = a - b
    dbar = float(np.mean(d))
    dc = d - dbar
    lrv = float(np.dot(dc, dc)) / n
    for lag in range(1, h):
        gamma = float(np.dot(dc[lag:], dc[:-lag])) / n
        lrv += 2.0 * (1.0 - lag / h) * gamma
    if lrv <= 0.0:
        return DMResult(stat=0.0, p_better=1.0, p_worse=1.0, n=n, lrv=max(lrv, 0.0))
    stat = dbar / math.sqrt(lrv / n)
    return DMResult(stat=stat, p_better=_norm_cdf(stat), p_worse=1.0 - _norm_cdf(stat), n=n, lrv=lrv)


def significance_marks(p_better: float, p_worse: float) -> str:
    """Render DM p-values as marks: * for better, dagger for worse.

    One symbol per crossed threshold in (0.10, 0.05, 0.01).
    """
    stars = sum(1 for thr in P_THRESHOLDS if p_better < thr)
    daggers = sum(1 for thr in P_THRESHOLDS if p_worse < thr)
    if stars and daggers:  # cannot happen with one-sided pair, defensive
        return "?"
    return "*" * stars + "†" * daggers


@dataclass(frozen=True)
class RollingPlan:
    """Rolling evaluation layout."""

    window: int = 700
    step: int = 1
    horizons: tuple[int, ...] = (1, 5, 22)
    max_origins: int | None = None

    def __post_init__(self):
        _check_integer(self.window, "window")
        _check_integer(self.step, "step")
        if self.max_origins is not None:
            _check_integer(self.max_origins, "max_origins")
        for h in self.horizons:
            _check_integer(h, "horizon")
        if self.window < 100:
            raise ValueError("window must be >= 100")
        if self.step < 1:
            raise ValueError("step must be >= 1")
        if self.max_origins is not None and self.max_origins < 1:
            raise ValueError("max_origins must be >= 1")
        if not self.horizons or any(h < 1 for h in self.horizons):
            raise ValueError("horizons must be positive")
        if len(set(self.horizons)) != len(self.horizons):
            raise ValueError("horizons must be distinct")


@dataclass
class ForecastRecord:
    origin: int  # number of in-sample observations (origin index, 1-based)
    origin_date: str
    target_date: str
    horizon: int
    model: str
    forecast: float
    realized: float


@dataclass
class EvaluationEntry:
    """Summary for one (model, horizon) cell."""

    model: str
    horizon: int
    n: int
    n_paired: int
    rmse: float
    mae: float
    rmse_ratio: float
    mae_ratio: float
    dm_sq: DMResult | None
    dm_abs: DMResult | None
    marks_sq: str
    marks_abs: str


@dataclass
class EvaluationReport:
    benchmark: str
    plan: RollingPlan
    entries: dict[tuple[str, int], EvaluationEntry]
    records: list[ForecastRecord]
    failures: dict[str, int] = field(default_factory=dict)
    n_origins: int = 0


def _origin_blocks(T: int, plan: RollingPlan) -> list[tuple[list[int], tuple[int, ...]]]:
    """The plan's origins, up to its cap, as runs of at most BLOCK_ORIGINS
    consecutive origins that keep the same horizons."""
    blocks: list[tuple[list[int], tuple[int, ...]]] = []
    for T0 in range(plan.window, T - min(plan.horizons) + 1, plan.step)[: plan.max_origins]:
        horizons = tuple(h for h in plan.horizons if T0 + h <= T)
        if blocks and blocks[-1][1] == horizons and len(blocks[-1][0]) < BLOCK_ORIGINS:
            blocks[-1][0].append(T0)
        else:
            blocks.append(([T0], horizons))
    return blocks


def _forecast_block(args) -> tuple[list[int], list[dict[tuple[str, int], float]], list[str]]:
    origins, span, window, step, models, horizons = args
    windows = sliding_window_view(span, window)[::step]  # one row per origin
    outs: list[dict[tuple[str, int], float]] = [{} for _ in origins]
    failures: list[str] = []
    for model in models:
        for out, (forecasts, fails) in zip(outs, model.forecast_all(windows, horizons)):
            out.update(((model.display, h), value) for h, value in forecasts.items())
            failures.extend(f"{model.display}: {type(exc).__name__}: {exc}" for exc in fails)
    return origins, outs, failures


def check_evaluation(
    n_obs: int, models: list[ModelSpec], plan: RollingPlan, benchmark: str, jobs: int
) -> None:
    """Raise ValueError unless the models' display names are distinct and
    include the benchmark, a series of n_obs observations holds the plan's
    window plus its shortest horizon, the window is deep enough for every
    `ModelSpec` (`ModelSpec.check_window`), and jobs is an integer of at
    least 1."""
    names = [m.display for m in models]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate model names: {names}")
    if benchmark not in names:
        raise ValueError(f"benchmark {benchmark!r} not among models {names}")
    if n_obs < plan.window + min(plan.horizons):
        raise ValueError(
            f"series of {n_obs} observations cannot support window {plan.window} "
            f"with horizons {plan.horizons}"
        )
    for m in models:
        if isinstance(m, ModelSpec):  # duck-typed models are not checked
            m.check_window(plan.window, plan.horizons)
    _check_integer(jobs, "jobs")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")


def rolling_evaluate(
    series: VolatilitySeries,
    models: list[ModelSpec],
    plan: RollingPlan,
    benchmark: str = "TVHAR",
    jobs: int = 1,
) -> EvaluationReport:
    """Run the rolling-origin evaluation.

    Args:
        series: full dated series; in-sample windows are positional slices
            (T0 - window, T0], so later observations never enter the fit.
        models: model specs; display names must be unique and include the
            benchmark.
        plan: window length, step, horizons, optional origin cap.
        benchmark: display name of the ratio/DM reference model.
        jobs: at least 1.  Origins are independent; jobs > 1 evaluates
            blocks of them in parallel processes with a deterministic,
            order-independent reduction.

    Origins are scored in blocks of up to BLOCK_ORIGINS consecutive origins
    with the same horizons; the blocks do not depend on `jobs`.  Each model
    is called once per block, with the block's windows as one strided stack
    of the series and the horizons every origin of the block can score
    (`ModelSpec.forecast_all`).  It returns one `(forecasts, failures)`
    pair per window, bit for bit what one-window calls per fit give.

    Model failures at an origin (EstimationError, LinAlgError,
    FloatingPointError or ValueError) are recorded and the affected
    forecasts are treated as missing.  A model fails or succeeds once per
    fit: per AR order of its horizons for TVAR, EWD and TVEWD, and per
    horizon for HAR and TVHAR.  So a failing fit costs only its own
    horizons and counts once; a fit with no horizon left at an origin is
    not run.  Ratio and DM columns pair each model
    with the benchmark on origins where both produced a forecast; with no
    such origin the ratios are NaN and no DM test is run.  Any other
    exception propagates.
    """
    T = len(series)
    check_evaluation(T, models, plan, benchmark, jobs)
    names = [m.display for m in models]
    values = series.values
    blocks = _origin_blocks(T, plan)
    tasks = [
        (block, values[block[0] - plan.window : block[-1]].copy(), plan.window, plan.step,
         tuple(models), horizons)
        for block, horizons in blocks
    ]

    # records are ordered by origin, then horizon, then model name
    records: list[ForecastRecord] = []
    errors: dict[tuple[str, int], dict[int, float]] = {}  # forecast - realized per cell and origin
    failures: dict[str, int] = {}
    with contextlib.ExitStack() as stack:
        mapped = map(_forecast_block, tasks)
        if jobs > 1:
            pool = stack.enter_context(concurrent.futures.ProcessPoolExecutor(max_workers=jobs))
            mapped = pool.map(_forecast_block, tasks)
        for block, outs, fails in mapped:
            for msg in fails:
                failures[msg] = failures.get(msg, 0) + 1
            for T0, out in zip(block, outs):
                for name, h in sorted(out, key=lambda key: (key[1], key[0])):
                    fc, realized = out[(name, h)], float(values[T0 + h - 1])
                    errors.setdefault((name, h), {})[T0] = fc - realized
                    records.append(
                        ForecastRecord(
                            origin=T0,
                            origin_date=str(series.dates[T0 - 1]),
                            target_date=str(series.dates[T0 + h - 1]),
                            horizon=h,
                            model=name,
                            forecast=fc,
                            realized=realized,
                        )
                    )

    entries: dict[tuple[str, int], EvaluationEntry] = {}
    for h in plan.horizons:
        bench_cell = errors.get((benchmark, h), {})
        for name in names:
            cell = errors.get((name, h), {})
            if not cell:
                continue
            own_err = np.array(list(cell.values()))
            paired = sorted(set(cell) & set(bench_cell))
            e_model = np.array([cell[T0] for T0 in paired])
            e_bench = np.array([bench_cell[T0] for T0 in paired])
            rmse_ratio = mae_ratio = float("nan")
            if paired:
                r_bench, m_bench = rmse(e_bench), mae(e_bench)
                if r_bench > 0:
                    rmse_ratio = rmse(e_model) / r_bench
                if m_bench > 0:
                    mae_ratio = mae(e_model) / m_bench
            dm_sq = dm_abs = None
            marks_sq = marks_abs = ""
            if len(paired) >= MIN_DM_OBS:
                dm_sq = dm_test(e_model**2, e_bench**2, h)
                dm_abs = dm_test(np.abs(e_model), np.abs(e_bench), h)
                marks_sq = significance_marks(dm_sq.p_better, dm_sq.p_worse)
                marks_abs = significance_marks(dm_abs.p_better, dm_abs.p_worse)
            entries[(name, h)] = EvaluationEntry(
                model=name,
                horizon=h,
                n=len(cell),
                n_paired=len(paired),
                rmse=rmse(own_err),
                mae=mae(own_err),
                rmse_ratio=rmse_ratio,
                mae_ratio=mae_ratio,
                dm_sq=dm_sq,
                dm_abs=dm_abs,
                marks_sq=marks_sq,
                marks_abs=marks_abs,
            )

    return EvaluationReport(
        benchmark=benchmark,
        plan=plan,
        entries=entries,
        records=records,
        failures=failures,
        n_origins=sum(len(block) for block, _ in blocks),
    )


def format_report(report: EvaluationReport) -> str:
    """Text table: loss ratios relative to the benchmark with DM marks."""
    horizons = report.plan.horizons
    names = []
    for name, _ in report.entries:
        if name not in names:
            names.append(name)
    width = max([len(n) for n in names] + [8])
    header_cells = [f"h={h}" for h in horizons]
    lines = [
        f"rolling out-of-sample evaluation  (benchmark: {report.benchmark}, "
        f"window {report.plan.window}, step {report.plan.step}, origins {report.n_origins})",
        "",
        f"{'':<{width}}  {'RMSE ratio':^{12 * len(horizons)}}  {'MAE ratio':^{12 * len(horizons)}}",
        f"{'model':<{width}}  " + "".join(f"{c:>12}" for c in header_cells) * 2,
    ]
    for name in names:
        row = [f"{name:<{width}}  "]
        for loss in ("rmse", "mae"):
            for h in horizons:
                entry = report.entries.get((name, h))
                if entry is None:
                    row.append(f"{'--':>12}")
                    continue
                if loss == "rmse":
                    cell = f"{entry.rmse_ratio:.3f}{entry.marks_sq}"
                else:
                    cell = f"{entry.mae_ratio:.3f}{entry.marks_abs}"
                row.append(f"{cell:>12}")
        lines.append("".join(row))
    lines.append("")
    bench_cells = []
    for h in horizons:
        entry = report.entries.get((report.benchmark, h))
        if entry is not None:
            bench_cells.append(f"h={h}: rmse {entry.rmse:.4f} mae {entry.mae:.4f} (n={entry.n})")
    lines.append(f"benchmark {report.benchmark} absolute losses:  " + "; ".join(bench_cells))
    if report.failures:
        lines.append("")
        lines.append("failures:")
        for msg, count in sorted(report.failures.items()):
            lines.append(f"  [{count}x] {msg}")
    lines.append("")
    lines.append(
        "DM marks: */**/*** better than benchmark, †/††/††† worse, "
        "at one-sided p < 0.10/0.05/0.01"
    )
    return "\n".join(lines) + "\n"


def store_report(report: EvaluationReport, path: str) -> None:
    """Write the evaluation summary as a long-format CSV."""
    header = "model,h,loss,n,n_paired,value,ratio,dm_stat,p_better,p_worse,marks".split(",")
    rows = []
    for (name, h), e in sorted(report.entries.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        for loss, value, ratio, dm, marks in (
            ("rmse", e.rmse, e.rmse_ratio, e.dm_sq, e.marks_sq),
            ("mae", e.mae, e.mae_ratio, e.dm_abs, e.marks_abs),
        ):
            dm_cells = map(format_value, (dm.stat, dm.p_better, dm.p_worse)) if dm else ("", "", "")
            rows.append(
                (name, str(h), loss, str(e.n), str(e.n_paired), format_value(value),
                 format_value(ratio), *dm_cells, marks)
            )
    write_csv(path, header, rows)


def store_forecast_records(report: EvaluationReport, path: str) -> None:
    """Write every rolling forecast as `origin_date,target_date,h,model,forecast`."""
    rows = (
        (r.origin_date, r.target_date, str(r.horizon), r.model, format_value(r.forecast))
        for r in report.records
    )
    write_csv(path, FORECAST_COLUMNS, rows)


def grid_search(
    series: VolatilitySeries,
    candidates: list[ModelSpec],
    plan: RollingPlan,
    horizon: int,
    loss: str = "rmse",
    jobs: int = 1,
) -> list[dict]:
    """Score candidate configurations by rolling out-of-sample loss.

    Each candidate must carry a unique label.  All candidates run in one
    rolling evaluation; a candidate's loss and count come from its own
    cell, so they do not depend on the other candidates.  Returns one dict
    per candidate sorted by the requested loss at the requested horizon.
    """
    if loss not in ("rmse", "mae"):
        raise ValueError("loss must be 'rmse' or 'mae'")
    if horizon not in plan.horizons:
        raise ValueError(f"horizon {horizon} not in plan horizons {plan.horizons}")
    if not candidates:
        return []
    report = rolling_evaluate(series, candidates, plan, benchmark=candidates[0].display, jobs=jobs)
    results = []
    for cand in candidates:
        entry = report.entries.get((cand.display, horizon))
        results.append(
            {
                "label": cand.display,
                "spec": cand,
                "rmse": entry.rmse if entry else float("nan"),
                "mae": entry.mae if entry else float("nan"),
                "n": entry.n if entry else 0,
            }
        )
    results.sort(key=lambda r: (math.isnan(r[loss]), r[loss]))
    return results
