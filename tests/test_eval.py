"""Rolling evaluation harness tests: losses, DM inference, pairing, parallelism."""

import math

import numpy as np
import pytest

from tvewd.benchmarks import ModelSpec
from tvewd.evaluate import (
    DMResult,
    RollingPlan,
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
from tvewd.locreg import EstimationError, KernelSpec
from tvewd.series import VolatilitySeries, business_dates

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

    It receives only the in-sample window, so it locates the origin by
    matching the window's last value inside the full series it was built
    with; forecasts are then exactly the realized targets.
    """

    def __init__(self, values, name="ORACLE"):
        self.values = np.asarray(values, dtype=float)
        self.name = name

    @property
    def display(self):
        return self.name

    def forecast_all(self, window, horizons):
        pos = np.nonzero(self.values == window[-1])[0]
        assert len(pos) == 1
        T0 = int(pos[0]) + 1
        return {h: float(self.values[T0 + h - 1]) for h in horizons}


class FailsOnHighClose:
    """Duck-typed model that fails deterministically on some windows."""

    def __init__(self, threshold, name="FLAKY"):
        self.threshold = threshold
        self.name = name

    @property
    def display(self):
        return self.name

    def forecast_all(self, window, horizons):
        if window[-1] > self.threshold:
            raise EstimationError("window ended too high")
        return {h: float(window[-1]) for h in horizons}


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

    def forecast_all(self, window, horizons):
        return {h: window[-1] + None for h in horizons}


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


def test_grid_search_validation():
    series = make_series(150, seed=107)
    plan = RollingPlan(window=100, horizons=(1,))
    cand = [ModelSpec(name="TVAR", kernel=KERN, label="a")]
    with pytest.raises(ValueError, match="loss"):
        grid_search(series, cand, plan, horizon=1, loss="mape")
    with pytest.raises(ValueError, match="horizon"):
        grid_search(series, cand, plan, horizon=5)
