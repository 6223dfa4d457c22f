"""Rolling evaluation harness tests: losses, DM inference, pairing, parallelism."""

import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvewd.benchmarks import MODEL_NAMES, ModelSpec
from tvewd.evaluate import (
    BLOCK_ORIGINS,
    DMResult,
    RollingPlan,
    check_evaluation,
    dm_test,
    format_report,
    grid_search,
    mae,
    rmse,
    rolling_evaluate,
    significance_marks,
    store_forecast_records,
    store_report,
)
from tvewd.locreg import _MODEL_FAILURES, EstimationError, KernelSpec
from tvewd.series import VolatilitySeries, business_dates, load_series
from tvewd.wold import MultiscaleConfig

PAPER_SERIES = Path(__file__).parent / "data" / "paper_series.csv"

KERN = KernelSpec("epanechnikov", 0.3)


def make_series(T, seed, level=10.0, phi=0.6, label="test"):
    rng = np.random.default_rng(seed)
    v = np.empty(T)
    v[0] = level
    eps = rng.standard_normal(T)
    for t in range(1, T):
        v[t] = level * (1 - phi) + phi * v[t - 1] + eps[t]
    return VolatilitySeries(business_dates("2010-01-04", T), v, label=label)


class PerfectForesight:
    """Duck-typed model that looks up the realized future value.

    It receives only the in-sample windows, so it locates each origin by
    matching its window's last value inside the full series it was built
    with; forecasts are then exactly the realized targets.
    """

    def __init__(self, values, name="ORACLE"):
        self.values = np.asarray(values, dtype=float)
        self.name = name

    @property
    def display(self):
        return self.name

    def forecast_all(self, windows, horizons):
        out = []
        for window in windows:
            pos = np.nonzero(self.values == window[-1])[0]
            assert len(pos) == 1
            T0 = int(pos[0]) + 1
            out.append(({h: float(self.values[T0 + h - 1]) for h in horizons}, []))
        return out


class FailsOnHighClose:
    """Duck-typed model that fails deterministically on some windows of a stack."""

    def __init__(self, threshold, name="FLAKY"):
        self.threshold = threshold
        self.name = name

    @property
    def display(self):
        return self.name

    def forecast_all(self, windows, horizons):
        return [
            ({}, [EstimationError("window ended too high")])
            if window[-1] > self.threshold
            else ({h: float(window[-1]) for h in horizons}, [])
            for window in windows
        ]


# ---------------------------------------------------------------------------
# loss functions
# ---------------------------------------------------------------------------

def test_loss_fixtures():
    errors = np.array([3.0, -4.0])
    assert rmse(errors) == pytest.approx(math.sqrt(12.5), rel=1e-15)
    assert mae(errors) == pytest.approx(3.5, rel=1e-15)


def test_rmse_dominates_mae():
    rng = np.random.default_rng(90)
    for _ in range(20):
        e = rng.standard_normal(50)
        assert rmse(e) >= mae(e) - 1e-15


def test_losses_reject_empty():
    with pytest.raises(ValueError):
        rmse(np.array([]))
    with pytest.raises(ValueError):
        mae(np.array([]))


# ---------------------------------------------------------------------------
# DM test
# ---------------------------------------------------------------------------

def test_dm_zero_differential():
    losses = np.ones(50)
    res = dm_test(losses, losses, 1)
    assert res.stat == 0.0
    assert res.p_better == 1.0
    assert res.p_worse == 1.0


def test_dm_alternating_fixture():
    """d alternates 1.1, 0.9: mean 1, variance 0.01, so the one-step
    statistic is exactly mean / sqrt(var/n) = 1 / sqrt(0.01/100) = 100."""
    loss_a = np.array([2.1, 1.9] * 50)
    loss_b = np.ones(100)
    res = dm_test(loss_a, loss_b, 1)
    assert res.stat == pytest.approx(100.0, abs=1e-9)
    assert res.p_worse < 1e-10  # a has higher loss: strong evidence a is worse
    assert res.p_better > 1.0 - 1e-10


def test_dm_direction_convention():
    rng = np.random.default_rng(91)
    better = np.abs(rng.standard_normal(200)) * 0.5
    worse = better + 1.0
    res = dm_test(better, worse, 1)
    assert res.stat < 0
    assert res.p_better < 0.01
    assert res.p_worse > 0.99
    assert res.p_better + res.p_worse == pytest.approx(1.0, abs=1e-12)


def test_dm_long_run_variance_matches_loop_oracle():
    rng = np.random.default_rng(92)
    d = rng.standard_normal(60) + 0.3
    loss_a = np.abs(rng.standard_normal(60)) + d
    loss_b = loss_a - d
    for h in (2, 5, 22):
        res = dm_test(loss_a, loss_b, h)
        dc = d - d.mean()
        lrv = float(np.mean(dc * dc))
        for lag in range(1, h):
            cov = float(np.sum(dc[lag:] * dc[:-lag])) / len(d)
            lrv += 2.0 * (1.0 - lag / h) * cov
        expected = d.mean() / math.sqrt(lrv / len(d))
        assert res.stat == pytest.approx(expected, rel=1e-12)
        assert res.lrv == pytest.approx(lrv, rel=1e-12)


def test_dm_input_validation():
    with pytest.raises(ValueError, match="at least 30"):
        dm_test(np.ones(10), np.zeros(10), 1)
    with pytest.raises(ValueError, match="equal length"):
        dm_test(np.ones(40), np.ones(41), 1)
    with pytest.raises(ValueError, match="horizon"):
        dm_test(np.ones(40), np.zeros(40), 0)


def test_significance_marks_golden():
    assert significance_marks(0.005, 0.995) == "***"
    assert significance_marks(0.04, 0.96) == "**"
    assert significance_marks(0.09, 0.91) == "*"
    assert significance_marks(0.5, 0.5) == ""
    assert significance_marks(0.96, 0.04) == "††"
    assert significance_marks(0.995, 0.005) == "†††"
    assert significance_marks(0.009, 0.009) == "?"  # defensive, impossible one-sided pair


# ---------------------------------------------------------------------------
# rolling plan and harness
# ---------------------------------------------------------------------------

def test_rolling_plan_validation():
    with pytest.raises(ValueError, match=">= 100"):
        RollingPlan(window=50)
    with pytest.raises(ValueError, match="step"):
        RollingPlan(window=100, step=0)
    with pytest.raises(ValueError, match="horizons"):
        RollingPlan(window=100, horizons=())
    with pytest.raises(ValueError, match="horizons"):
        RollingPlan(window=100, horizons=(0,))
    with pytest.raises(ValueError, match="horizons must be distinct"):
        RollingPlan(window=100, horizons=(1, 5, 1))
    for kwargs, message in (
        ({"window": 150.5}, "window must be an integer, got 150.5"),
        ({"window": True}, "window must be an integer, got True"),
        ({"step": 2.0}, "step must be an integer, got 2.0"),
        ({"max_origins": 2.5}, "max_origins must be an integer, got 2.5"),
        ({"horizons": (1, 2.5)}, "horizon must be an integer, got 2.5"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            RollingPlan(**{"window": 150, **kwargs})
    assert RollingPlan(window=np.int64(150), horizons=(np.int64(1), 5)).window == 150


@pytest.mark.parametrize("max_origins", [0, -3])
def test_rolling_plan_rejects_origin_caps_below_one(max_origins):
    """A cap below one used to slice the origin list: -3 silently dropped
    the last three origins and 0 returned an empty report."""
    with pytest.raises(ValueError, match="max_origins must be >= 1"):
        RollingPlan(window=100, max_origins=max_origins)
    assert RollingPlan(window=100, max_origins=1).max_origins == 1


def test_identical_models_tie_exactly():
    series = make_series(145, seed=93)
    models = [
        ModelSpec(name="TVAR", kernel=KERN, label="A"),
        ModelSpec(name="TVAR", kernel=KERN, label="B"),
    ]
    plan = RollingPlan(window=100, horizons=(1,))
    report = rolling_evaluate(series, models, plan, benchmark="B")
    entry = report.entries[("A", 1)]
    assert entry.rmse_ratio == 1.0
    assert entry.mae_ratio == 1.0
    assert entry.dm_sq.stat == 0.0 and entry.dm_sq.p_better == 1.0
    assert entry.marks_sq == "" and entry.marks_abs == ""


def test_perfect_foresight_scores_zero():
    series = make_series(150, seed=94)
    oracle = PerfectForesight(series.values)
    bench = ModelSpec(name="TVAR", kernel=KERN)
    plan = RollingPlan(window=100, horizons=(1, 5))
    report = rolling_evaluate(series, [oracle, bench], plan, benchmark="TVAR")
    for h in (1, 5):
        entry = report.entries[("ORACLE", h)]
        assert entry.rmse == 0.0
        assert entry.mae == 0.0
        assert entry.rmse_ratio == 0.0
        bench_entry = report.entries[("TVAR", h)]
        assert bench_entry.rmse_ratio == 1.0
        assert bench_entry.rmse > 0


def test_failures_counted_and_pairing_respected():
    series = make_series(140, seed=95)
    threshold = float(np.quantile(series.values[99:], 0.6))
    flaky = FailsOnHighClose(threshold)
    bench = ModelSpec(name="TVAR", kernel=KERN)
    plan = RollingPlan(window=100, horizons=(1,))
    report = rolling_evaluate(series, [flaky, bench], plan, benchmark="TVAR")
    n_origins = report.n_origins
    entry = report.entries[("FLAKY", 1)]
    assert entry.n < n_origins
    assert entry.n_paired == entry.n  # benchmark never fails
    assert sum(report.failures.values()) == n_origins - entry.n
    assert all("FLAKY" in msg for msg in report.failures)
    bench_entry = report.entries[("TVAR", 1)]
    assert bench_entry.n == n_origins


class BrokenModel:
    """Duck-typed model with a programming error."""

    display = "BROKEN"

    def forecast_all(self, windows, horizons):
        return [({h: window[-1] + None for h in horizons}, []) for window in windows]


@pytest.mark.parametrize("jobs", [1, 2])
def test_programming_errors_propagate(jobs):
    series = make_series(130, seed=97)
    plan = RollingPlan(window=100, horizons=(1,), max_origins=4)
    with pytest.raises(TypeError):
        rolling_evaluate(series, [BrokenModel(), ModelSpec(name="HAR")], plan, benchmark="HAR", jobs=jobs)


def test_forecasts_ignore_future_values():
    base = make_series(150, seed=96)
    mutated_values = base.values.copy()
    mutated_values[116:] = 99.0 + np.arange(len(mutated_values) - 116)
    mutated = VolatilitySeries(base.dates, mutated_values, label=base.label)
    models = [ModelSpec(name="TVAR", kernel=KERN), ModelSpec(name="HAR")]
    plan = RollingPlan(window=100, horizons=(1, 5), max_origins=10)
    rep_a = rolling_evaluate(base, models, plan, benchmark="HAR")
    rep_b = rolling_evaluate(mutated, models, plan, benchmark="HAR")
    assert len(rep_a.records) == len(rep_b.records)
    for ra, rb in zip(rep_a.records, rep_b.records):
        # origins stop at 109 and targets at index 113, before the mutation
        assert ra.forecast == rb.forecast
        assert ra.realized == rb.realized


# all five models at a scale depth a window of 100 supports
FIVE_MODELS = [ModelSpec(name=m, p=1, kernel=KERN, scales=MultiscaleConfig(J=3, N=2)) for m in MODEL_NAMES]


def forecast_bits(report, last_origin=None):
    """(origin, horizon, model) -> the forecast's exact bits, for origins up to last_origin."""
    return {
        (r.origin, r.horizon, r.model): float(r.forecast).hex()
        for r in report.records
        if last_origin is None or r.origin <= last_origin
    }


@settings(max_examples=8, deadline=None)
@given(T=st.integers(101, 100 + 2 * BLOCK_ORIGINS + 12), cut=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_rolling_forecasts_ignore_values_after_their_origin(T, cut, seed):
    """Changing every value after a random origin T0 leaves every forecast
    made at an origin <= T0 bitwise unchanged, for all five models, however
    the series length splits the origins into blocks."""
    series = make_series(T, seed=seed % 1000)
    T0 = 100 + int(cut * (T - 100))
    values = series.values.copy()
    values[T0:] += 1.0 + np.random.default_rng(seed).standard_normal(T - T0)
    changed = VolatilitySeries(series.dates, values, label=series.label)
    plan = RollingPlan(window=100, horizons=(1, 5))
    base = rolling_evaluate(series, FIVE_MODELS, plan, benchmark="HAR", jobs=1)
    after = rolling_evaluate(changed, FIVE_MODELS, plan, benchmark="HAR", jobs=1)
    kept = forecast_bits(base, T0)
    assert kept == forecast_bits(after, T0)
    assert {model for _, _, model in kept} == set(MODEL_NAMES)


def per_window_loop(series, models, plan):
    """Forecast bits and failure counts of one `forecast_all` call per window and AR order."""
    T = len(series)
    bits: dict = {}
    failures: Counter = Counter()
    for T0 in range(plan.window, T - min(plan.horizons) + 1, plan.step):
        window = series.values[T0 - plan.window : T0].copy()
        horizons = tuple(h for h in plan.horizons if T0 + h <= T)
        for model in models:
            for hs in model.horizon_groups(horizons).values():
                try:
                    out = model.forecast_all(window, hs)
                except _MODEL_FAILURES as exc:
                    failures[f"{model.display}: {type(exc).__name__}: {exc}"] += 1
                    continue
                bits.update({(T0, h, model.display): float(v).hex() for h, v in out.items()})
    return bits, dict(failures)


@pytest.mark.filterwarnings("ignore::tvewd.wold.ExplosiveWarning")
@pytest.mark.parametrize("jobs", [1, 2])
def test_a_failing_window_costs_only_its_own_forecasts(jobs):
    """Windows ending in a constant stretch make the fallback of their
    local fits raise.  Those windows lose their forecasts with the message
    and count of a per-window loop, and every other window of their block
    keeps that loop's forecasts bit for bit.  The last origins lose h = 5,
    so the origins split into blocks of both horizons and of h = 1 alone.
    The orders of TVEWD-1-6 disagree on the same windows: order 6 is too
    long for a window of 100 and fails at every origin, while order 1
    forecasts wherever TVEWD does."""
    series = make_series(100 + BLOCK_ORIGINS + 13, seed=108)
    values = series.values.copy()
    values[95:127] = values[95]
    series = VolatilitySeries(series.dates, values, label=series.label)
    plan = RollingPlan(window=100, horizons=(1, 5))
    mixed = ModelSpec(name="TVEWD", p={1: 1, 5: 6}, kernel=KERN, scales=MultiscaleConfig(J=3, N=2), label="TVEWD-1-6")
    models = FIVE_MODELS + [mixed]
    report = rolling_evaluate(series, models, plan, benchmark="HAR", jobs=jobs)
    bits, failures = per_window_loop(series, models, plan)
    assert forecast_bits(report) == bits
    assert report.failures == failures
    too_long = "TVEWD-1-6: EstimationError: series too short: 100 observations for p=6 (need more than 140)"
    assert failures[too_long] == len(range(100, len(series) - 4))  # every origin that scores h = 5
    assert {(o, h) for o, h, m in bits if m == "TVEWD-1-6"} == {(o, h) for o, h, m in bits if m == "TVEWD" and h == 1}
    singular = [msg for msg in failures if msg.startswith("TVEWD") and "singular local system" in msg]
    assert singular, failures
    # failing and forecasting TVEWD windows share the first block
    first_block = set(range(100, 100 + BLOCK_ORIGINS))
    tvewd_origins = {origin for origin, _, model in bits if model == "TVEWD"}
    assert first_block - tvewd_origins and first_block & tvewd_origins
    last = len(series) - 1
    assert (last, 1, "TVEWD") in bits and (last, 5, "TVEWD") not in bits


def test_parallel_jobs_match_serial():
    series = make_series(170, seed=97)
    models = [ModelSpec(name="TVAR", kernel=KERN), ModelSpec(name="HAR")]
    plan = RollingPlan(window=100, horizons=(1, 5))
    serial = rolling_evaluate(series, models, plan, benchmark="HAR", jobs=1)
    parallel = rolling_evaluate(series, models, plan, benchmark="HAR", jobs=2)
    assert len(serial.records) == len(parallel.records)
    for rs, rp in zip(serial.records, parallel.records):
        assert (rs.model, rs.horizon, rs.origin) == (rp.model, rp.horizon, rp.origin)
        assert rs.forecast == rp.forecast
    for key, es in serial.entries.items():
        ep = parallel.entries[key]
        assert es.rmse == ep.rmse and es.mae == ep.mae


def test_ratios_and_dm_scale_invariant():
    series = make_series(145, seed=98)
    scaled = VolatilitySeries(series.dates, 7.3 * series.values, label="scaled")
    models = [ModelSpec(name="TVAR", kernel=KERN), ModelSpec(name="HAR")]
    plan = RollingPlan(window=100, horizons=(1,))
    rep_1 = rolling_evaluate(series, models, plan, benchmark="HAR")
    rep_c = rolling_evaluate(scaled, models, plan, benchmark="HAR")
    e1 = rep_1.entries[("TVAR", 1)]
    ec = rep_c.entries[("TVAR", 1)]
    assert ec.rmse_ratio == pytest.approx(e1.rmse_ratio, rel=1e-8)
    assert ec.mae_ratio == pytest.approx(e1.mae_ratio, rel=1e-8)
    assert ec.dm_sq.stat == pytest.approx(e1.dm_sq.stat, rel=1e-6)
    assert ec.rmse == pytest.approx(7.3 * e1.rmse, rel=1e-8)


def test_harness_input_validation():
    series = make_series(140, seed=99)
    plan = RollingPlan(window=100, horizons=(1,))
    dup = [ModelSpec(name="TVAR", kernel=KERN), ModelSpec(name="TVAR", kernel=KERN)]
    with pytest.raises(ValueError, match="duplicate"):
        rolling_evaluate(series, dup, plan)
    models = [ModelSpec(name="TVAR", kernel=KERN)]
    with pytest.raises(ValueError, match="benchmark"):
        rolling_evaluate(series, models, plan, benchmark="HAR")
    short = make_series(90, seed=99)
    with pytest.raises(ValueError, match="cannot support"):
        rolling_evaluate(short, models, plan, benchmark="TVAR")
    # a lag map without a planned horizon is a usage error, not a model failure
    unmapped = [ModelSpec(name="TVAR", p={5: 1}, kernel=KERN)]
    with pytest.raises(ValueError, match="no AR order"):
        rolling_evaluate(series, unmapped, plan, benchmark="TVAR")
    for jobs in (0, -3):
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            rolling_evaluate(series, models, plan, benchmark="TVAR", jobs=jobs)
    # 1.5 used to die in the process pool and True to run serially
    for jobs in (1.5, True):
        with pytest.raises(ValueError, match=f"^jobs must be an integer, got {jobs}$"):
            rolling_evaluate(series, models, plan, benchmark="TVAR", jobs=jobs)
    assert rolling_evaluate(series, models, plan, benchmark="TVAR", jobs=np.int64(1)).n_origins == 40


@pytest.mark.parametrize("name", ["TVEWD", "EWD"])
def test_a_window_too_short_for_the_scale_depth_is_refused(name):
    """An EWD or TVEWD fit of order p leaves its J scale weights J rows with
    a full H-lag shock history only if window >= H + p + J - 1: at J = 7,
    N = 4 (H = 512) that is 519 for p = 1 and 524 for p = 6.  One
    observation less fails every origin, so the harness refuses it before
    any fit, naming the largest order."""
    series = load_series(str(PAPER_SERIES))
    for p, largest, need in ((1, 1, 519), ({1: 2, 5: 6}, 6, 524)):
        spec = ModelSpec(name=name, p=p, kernel=KERN)
        check_evaluation(len(series), [spec], RollingPlan(window=need, horizons=(1, 5)), name, 1)
        message = f"^{name}: window {need - 1} is too short for p={largest} at J=7, N=4; it needs at least {need}$"
        with pytest.raises(ValueError, match=message):
            check_evaluation(len(series), [spec], RollingPlan(window=need - 1, horizons=(1, 5)), name, 1)
    # the bound is where the forecast starts to fail
    spec = ModelSpec(name=name, kernel=KERN)
    assert sorted(spec.forecast_all(series.values[:519], (1,))) == [1]
    with pytest.raises(EstimationError, match="^only 6 usable rows for 7 scale weights"):
        spec.forecast_all(series.values[:518], (1,))
    plan = RollingPlan(window=100, horizons=(1,))
    models = [ModelSpec(name="HAR"), ModelSpec(name=name, kernel=KERN)]
    with pytest.raises(ValueError, match="needs at least 519$"):
        rolling_evaluate(series, models, plan, benchmark="HAR")
    with pytest.raises(ValueError, match="needs at least 519$"):
        grid_search(series, models, plan, horizon=1)
    check_evaluation(len(series), models[:1] + [ModelSpec(name="TVAR", kernel=KERN)], plan, "HAR", 1)


def test_records_carry_realized_targets_and_horizon_filter():
    series = make_series(130, seed=100)
    models = [ModelSpec(name="TVAR", kernel=KERN)]
    plan = RollingPlan(window=100, horizons=(1, 22))
    report = rolling_evaluate(series, models, plan, benchmark="TVAR")
    values = series.values
    for r in report.records:
        assert r.realized == values[r.origin + r.horizon - 1]
        assert r.origin + r.horizon <= len(series)
        assert r.origin_date == str(series.dates[r.origin - 1])
        assert r.target_date == str(series.dates[r.origin + r.horizon - 1])
    # long-horizon targets only exist for early origins: 130 - 22 + 1 = 109
    n_h22 = sum(1 for r in report.records if r.horizon == 22)
    assert n_h22 == 9
    n_h1 = sum(1 for r in report.records if r.horizon == 1)
    assert n_h1 == 30


def test_harness_deterministic():
    series = make_series(140, seed=101)
    models = [ModelSpec(name="TVAR", kernel=KERN), ModelSpec(name="HAR")]
    plan = RollingPlan(window=100, horizons=(1,))
    a = rolling_evaluate(series, models, plan, benchmark="HAR")
    b = rolling_evaluate(series, models, plan, benchmark="HAR")
    assert [r.forecast for r in a.records] == [r.forecast for r in b.records]
    for key in a.entries:
        assert a.entries[key].rmse == b.entries[key].rmse


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def eval_report(seed=102):
    series = make_series(145, seed=seed)
    models = [ModelSpec(name="TVAR", kernel=KERN), ModelSpec(name="HAR")]
    plan = RollingPlan(window=100, horizons=(1, 5))
    return rolling_evaluate(series, models, plan, benchmark="HAR")


def test_format_report_content():
    report = eval_report()
    text = format_report(report)
    assert "benchmark: HAR" in text
    assert "TVAR" in text
    assert "RMSE ratio" in text and "MAE ratio" in text
    assert "h=1" in text and "h=5" in text
    assert "DM marks" in text
    assert "failures" not in text


def test_format_report_failures_section():
    series = make_series(140, seed=103)
    flaky = FailsOnHighClose(float(np.quantile(series.values[99:], 0.5)))
    models = [flaky, ModelSpec(name="TVAR", kernel=KERN)]
    plan = RollingPlan(window=100, horizons=(1,))
    report = rolling_evaluate(series, models, plan, benchmark="TVAR")
    text = format_report(report)
    assert "failures:" in text
    assert "FLAKY" in text


def test_store_report_round_trip(tmp_path):
    report = eval_report(seed=104)
    path = str(tmp_path / "report.csv")
    store_report(report, path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "model,h,loss,n,n_paired,value,ratio,dm_stat,p_better,p_worse,marks"
    assert len(lines) == 1 + 2 * len(report.entries)
    for line in lines[1:]:
        cells = line.split(",")
        entry = report.entries[(cells[0], int(cells[1]))]
        if cells[2] == "rmse":
            assert float(cells[5]) == entry.rmse
            assert float(cells[6]) == entry.rmse_ratio
        else:
            assert float(cells[5]) == entry.mae
            assert float(cells[6]) == entry.mae_ratio


def test_store_forecast_records(tmp_path):
    report = eval_report(seed=105)
    path = str(tmp_path / "records.csv")
    store_forecast_records(report, path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "origin_date,target_date,h,model,forecast"
    assert len(lines) == 1 + len(report.records)
    cells = lines[1].split(",")
    assert cells[3] == report.records[0].model
    assert float(cells[4]) == report.records[0].forecast


# ---------------------------------------------------------------------------
# configuration search
# ---------------------------------------------------------------------------

def test_grid_search_orders_by_loss():
    series = make_series(150, seed=106)
    plan = RollingPlan(window=100, horizons=(1,))
    candidates = [
        ModelSpec(name="TVAR", p=1, kernel=KERN, label="tvar-p1"),
        ModelSpec(name="TVAR", p=2, kernel=KERN, label="tvar-p2"),
    ]
    results = grid_search(series, candidates, plan, horizon=1)
    assert len(results) == 2
    assert results[0]["rmse"] <= results[1]["rmse"]
    assert {r["label"] for r in results} == {"tvar-p1", "tvar-p2"}
    assert all(r["n"] > 0 for r in results)


@pytest.mark.parametrize("failing_at", [0, 1])
def test_grid_search_scores_every_candidate_as_its_own_evaluation_does(failing_at):
    """One rolling evaluation over all candidates gives each candidate the
    loss and count of a rolling evaluation of that candidate alone, bit for
    bit; a candidate that fails at every origin scores NaN and sorts last,
    also when it is listed first and so is the ratio reference."""
    series = make_series(150, seed=108)
    plan = RollingPlan(window=100, horizons=(1, 5))
    candidates = [
        ModelSpec(name="TVAR", p=1, kernel=KERN, label="tvar-p1"),
        ModelSpec(name="HAR", label="har"),
        ModelSpec(name="TVEWD", p={1: 1, 5: 2}, kernel=KERN, scales=MultiscaleConfig(J=3, N=2), label="tvewd"),
    ]
    # too short a window for p = 6: fails at every origin
    candidates.insert(failing_at, ModelSpec(name="TVAR", p=6, kernel=KERN, label="tvar-p6"))
    for loss in ("rmse", "mae"):
        results = grid_search(series, candidates, plan, horizon=5, loss=loss)
        assert [r["label"] for r in results][-1] == "tvar-p6"
        for r in results:
            alone = rolling_evaluate(series, [r["spec"]], plan, benchmark=r["label"])
            entry = alone.entries.get((r["label"], 5))
            if entry is None:
                assert math.isnan(r["rmse"]) and math.isnan(r["mae"]) and r["n"] == 0
            else:
                assert (r["rmse"], r["mae"], r["n"]) == (entry.rmse, entry.mae, entry.n)
        scored = [r[loss] for r in results[:-1]]
        assert scored == sorted(scored)


def test_benchmark_without_forecasts_gives_nan_ratios():
    """A model scored at a horizon where the benchmark never forecast has no
    paired origins: its ratios are NaN and no DM test is run, while its own
    losses stay those of its evaluation alone."""
    series = make_series(150, seed=110)
    plan = RollingPlan(window=100, horizons=(1, 5))
    failing = ModelSpec(name="TVAR", p=6, kernel=KERN, label="tvar-p6")
    har = ModelSpec(name="HAR", label="har")
    report = rolling_evaluate(series, [failing, har], plan, benchmark="tvar-p6")
    alone = rolling_evaluate(series, [har], plan, benchmark="har")
    assert not any(name == "tvar-p6" for name, _ in report.entries)
    for h in plan.horizons:
        entry, own = report.entries[("har", h)], alone.entries[("har", h)]
        assert entry.n_paired == 0 and entry.n == own.n > 0
        assert (entry.rmse, entry.mae) == (own.rmse, own.mae)
        assert math.isnan(entry.rmse_ratio) and math.isnan(entry.mae_ratio)
        assert entry.dm_sq is None and entry.dm_abs is None
        assert entry.marks_sq == entry.marks_abs == ""
    assert "nan" in format_report(report)


def test_grid_search_empty_and_duplicate_candidates():
    series = make_series(150, seed=109)
    plan = RollingPlan(window=100, horizons=(1,))
    assert grid_search(series, [], plan, horizon=1) == []
    twins = [ModelSpec(name="HAR", label="a"), ModelSpec(name="TVHAR", label="a")]
    with pytest.raises(ValueError, match="duplicate"):
        grid_search(series, twins, plan, horizon=1)


def test_grid_search_validation():
    series = make_series(150, seed=107)
    plan = RollingPlan(window=100, horizons=(1,))
    cand = [ModelSpec(name="TVAR", kernel=KERN, label="a")]
    with pytest.raises(ValueError, match="loss"):
        grid_search(series, cand, plan, horizon=1, loss="mape")
    with pytest.raises(ValueError, match="horizon"):
        grid_search(series, cand, plan, horizon=5)


NON_FINITE_MODELS = [
    ModelSpec(name, p={1: 1, 5: 2}, kernel=KERN, scales=MultiscaleConfig(J=4, N=3)) for name in ("TVEWD", "TVAR")
]


@pytest.mark.filterwarnings("ignore::tvewd.wold.ExplosiveWarning")
@pytest.mark.parametrize("bad, jobs", [(np.nan, 1), (np.nan, 2), (np.inf, 1)])
def test_a_non_finite_value_fails_the_local_fits_with_the_eigvalsh_error(bad, jobs):
    """A value that is not finite (set here past the series' own check)
    makes the local fits of each window that holds it among its lags raise
    `eigvalsh`'s LinAlgError.  The first window to hold it holds it in y
    alone: its fit is NaN, and TVEWD finds no usable row for its weights.
    These counts are pinned: the guard of the batched solver, which never
    clears a row that is not finite, must not change them."""
    series = make_series(260, seed=113)
    series.values[230] = bad
    plan = RollingPlan(window=200, horizons=(1, 5))
    with np.errstate(invalid="ignore"):  # an inf leaves inf - inf in the centred design
        report = rolling_evaluate(series, NON_FINITE_MODELS, plan, benchmark="TVAR", jobs=jobs)
    assert report.failures == {
        "TVAR: LinAlgError: Eigenvalues did not converge": 52,
        "TVEWD: LinAlgError: Eigenvalues did not converge": 52,
        "TVEWD: EstimationError: only 0 usable rows for 4 scale weights; "
        "window too short for the configured decomposition depth": 2,
    }


@pytest.mark.filterwarnings("ignore::tvewd.wold.ExplosiveWarning")
@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("bad", [1e200, np.nan])
def test_a_non_finite_window_fails_alone_in_its_block(bad, jobs):
    """A NaN, or a finite spike whose square overflows (1e200, which
    `VolatilitySeries` accepts), fails the local fits of the windows that
    hold it among their lags and no other window of their origin block:
    failure counts and forecast bits are those of a per-window loop."""
    series = make_series(240, seed=113)
    series.values[215] = bad
    plan = RollingPlan(window=200, horizons=(1, 5))
    with np.errstate(over="ignore", invalid="ignore"):  # the overflow is the spike's defined effect
        report = rolling_evaluate(series, NON_FINITE_MODELS, plan, benchmark="TVAR", jobs=jobs)
        bits, failures = per_window_loop(series, NON_FINITE_MODELS, plan)
    assert forecast_bits(report) == bits
    assert report.failures == failures
    assert failures["TVEWD: LinAlgError: Eigenvalues did not converge"] > 0
    # origin 216 holds the value in y alone and 217 among its lags; both
    # share the first block with origins that do not hold it
    assert 217 < 200 + BLOCK_ORIGINS
    assert (200, 1, "TVEWD") in bits and (217, 1, "TVEWD") not in bits
