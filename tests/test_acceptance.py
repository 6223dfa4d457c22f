"""Acceptance gate: one test per shipped guarantee, at the stated tolerance.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion.  Monte Carlo criteria use fixed seeds so results are exactly
reproducible; timed criteria assert their runtime budget.
"""

import math
import time

import numpy as np
import pytest

from tvewd.benchmarks import (
    ModelSpec,
    ewd_static_forecast,
    har_fit_forecast,
    tvhar_fit_forecast,
)
from tvewd.evaluate import RollingPlan, dm_test, rolling_evaluate
from tvewd.forecast import (
    combine_forecast,
    estimate_weights,
    forecast_scale,
    tvewd_forecast_window,
)
from tvewd.locreg import KernelSpec, TvpArFit, fit_tvp_ar, local_level
from tvewd.rv import TradingCalendar, annualize, realized_variance, sample_five_minute
from tvewd.sim import Curve, TvpArScenario, constant, simulate
from tvewd.wold import (
    MultiscaleConfig,
    ar_to_ma,
    haar_coefficients,
    haar_energy_gap,
    haar_innovations,
    persistence_shares,
    scale_components,
    decompose,
)

EPA = KernelSpec("epanechnikov", 0.3)
TWO_SIDED_5PCT = 1.959963984540054


def test_criterion_01_haar_energy_identity():
    """1000 random coefficient sequences (J <= 5, N <= 8): the squared detail
    and scaling coefficients carry the squared MA weights within 1e-10
    relative, in under 10 seconds."""
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(1000):
        J = int(rng.integers(1, 6))
        N = int(rng.integers(1, 9))
        cfg = MultiscaleConfig(J=J, N=N)
        alpha = rng.standard_normal(cfg.H)
        worst = max(worst, haar_energy_gap(alpha, cfg))
    elapsed = time.monotonic() - start
    assert worst < 1e-10, f"worst relative energy gap {worst:.3g}"
    assert elapsed < 10.0, f"energy sweep took {elapsed:.1f}s"


def test_criterion_02_exact_reconstruction():
    """200 random (alpha, eps) pairs: the summed scale components plus the
    low-pass remainder equal the brute-force truncated moving average at
    every position with full shock history, within 1e-10, under 30 s."""
    start = time.monotonic()
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(200):
        J = int(rng.integers(1, 5))
        N = int(rng.integers(1, 5))
        cfg = MultiscaleConfig(J=J, N=N)
        H = cfg.H
        G = H + int(rng.integers(20, 41))
        alpha = rng.standard_normal((G, H))
        eps = rng.standard_normal(G)
        betas, gamma = haar_coefficients(alpha, cfg)
        innovations, low_pass = haar_innovations(eps, J)
        comps, residual = scale_components(betas, gamma, innovations, low_pass, cfg)
        total = np.sum(comps, axis=0) + residual
        for t in range(H - 1, G):
            truth = sum(alpha[t, h] * eps[t - h] for h in range(H))
            worst = max(worst, abs(total[t] - truth))
    elapsed = time.monotonic() - start
    assert worst < 1e-10, f"worst reconstruction error {worst:.3g}"
    assert elapsed < 30.0, f"reconstruction sweep took {elapsed:.1f}s"


def test_criterion_03_ar1_closed_forms():
    """AR(1) with coefficient one half: MA weights are exact powers, the
    first fine-scale coefficient is (1-phi)/sqrt(2) and the first scale-two
    coefficient is 0.5625, within 1e-12."""
    alpha = ar_to_ma(np.array([0.5]), 16)
    np.testing.assert_array_equal(alpha, 0.5 ** np.arange(17.0))
    cfg = MultiscaleConfig(J=2, N=4)
    betas, _ = haar_coefficients(alpha[: cfg.H], cfg)
    assert abs(betas[0][0] - 0.35355339059327373) < 1e-12
    assert abs(betas[1][0] - 0.5625) < 1e-12


def test_criterion_04_local_linear_recovery():
    """TVP-AR(1) with phi1(u) = 0.5 + 0.3 sin(2 pi u), T = 4000, b = 0.1:
    mean absolute coefficient error below 0.06 in at least 90% of 200
    replications, in under 5 minutes."""
    start = time.monotonic()
    kernel = KernelSpec("epanechnikov", 0.1)
    curve = Curve("sinusoid", {"base": 0.5, "amplitude": 0.3, "frequency": 1.0})
    hits = 0
    for rep in range(200):
        scen = TvpArScenario(p=1, T=4000, coefficients=(curve,), seed=4000 + rep)
        res = simulate(scen)
        fit = fit_tvp_ar(res.series.values, 1, kernel)
        truth = 0.5 + 0.3 * np.sin(2.0 * np.pi * fit.grid)
        if float(np.mean(np.abs(fit.phi[:, 1] - truth))) < 0.06:
            hits += 1
    elapsed = time.monotonic() - start
    assert hits >= 180, f"only {hits}/200 replications met the error bound"
    assert elapsed < 300.0, f"recovery sweep took {elapsed:.1f}s"


def test_criterion_05_no_look_ahead():
    """For every model, forecasts computed at an origin are bitwise
    unchanged when observations after the origin are appended; 50
    randomized trials."""
    scales = MultiscaleConfig(J=5, N=4)
    models = [
        ModelSpec(name=n, p=1, kernel=EPA, scales=scales)
        for n in ("HAR", "TVHAR", "TVAR", "EWD", "TVEWD")
    ]
    window = 150
    rng = np.random.default_rng(1005)
    for _ in range(50):
        T = int(rng.integers(window + 5, window + 30))
        level = float(rng.uniform(5.0, 20.0))
        phi = float(rng.uniform(0.2, 0.8))
        v = np.empty(T)
        v[0] = level
        shocks = rng.standard_normal(T)
        for t in range(1, T):
            v[t] = level * (1 - phi) + phi * v[t - 1] + shocks[t]
        appended = np.concatenate([v, rng.uniform(-50.0, 50.0, size=int(rng.integers(1, 30)))])
        before_window = v[T - window : T]
        after_window = appended[T - window : T]
        horizons = (1, int(rng.integers(2, 23)))
        for model in models:
            before = model.forecast_all(before_window, horizons)
            after = model.forecast_all(after_window, horizons)
            for h in horizons:
                assert before[h] == after[h], (
                    f"{model.name} forecast at h={h} changed when future "
                    "observations were appended"
                )


def test_criterion_06_dm_test_size():
    """Under an iid zero-mean loss differential the two-sided 5% rejection
    rate lies in [0.03, 0.07] over 5000 simulations for h in {1, 5, 22}."""
    rng = np.random.default_rng(1006)
    n = 500
    rejections = {1: 0, 5: 0, 22: 0}
    sims = 5000
    zeros = np.zeros(n)
    for _ in range(sims):
        d = rng.standard_normal(n)
        for h in rejections:
            if abs(dm_test(d, zeros, h).stat) > TWO_SIDED_5PCT:
                rejections[h] += 1
    for h, count in rejections.items():
        rate = count / sims
        assert 0.03 <= rate <= 0.07, f"h={h} rejection rate {rate:.4f} outside [0.03, 0.07]"


def _gap(value, reference) -> float:
    """Largest absolute difference, relative to max(1, |reference|)."""
    value = np.asarray(value, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return float(np.max(np.abs(value - reference)) / max(1.0, float(np.max(np.abs(reference)))))


def _multiscale_forecasts(v, phi_rows, trend_line, scales, horizons):
    """Forecasts of the multiscale pipeline on given AR(1) coefficient rows
    and trend line, in the order of `horizons`.

    Residuals, decomposition, scale weights on the centred series, per-scale
    forecasts and their combination with the boundary trend, exactly as the
    TVEWD and EWD models chain them, but on coefficients supplied here.
    """
    y = v[1:]
    X = np.column_stack([np.ones(len(y)), v[:-1]])
    tau = np.arange(2, len(v) + 1, dtype=float) / len(v)
    fit = TvpArFit(
        grid=tau,
        phi=phi_rows,
        slopes=np.zeros_like(phi_rows),
        residuals=y - np.sum(X * phi_rows, axis=1),
        values=v,
        p=1,
        kernel=KernelSpec("uniform", 1.0),
    )
    decomp = decompose(fit, scales)
    weights = estimate_weights(v[1:] - trend_line[1:], decomp.components)
    out = []
    for h in horizons:
        parts = np.array(
            [
                forecast_scale(decomp.betas[j - 1][-1], decomp.innovations[j - 1], j, h)
                for j in range(1, scales.J + 1)
            ]
        )
        out.append(combine_forecast(float(trend_line[-1]), weights.weights, parts))
    return out


def test_criterion_07_nesting_checks():
    """A uniform full-width kernel nests the static fits in the time-varying
    ones through the time-slope columns, to 1e-8 (fits) and 1e-6 (forecasts).

    With every weight equal, the local linear solve at u regresses y on
    [X, (tau - u) X] over the whole sample, so its levels are c + u d for
    one global solve (c, d) of y on [X, tau X].  The static fits drop the
    slope columns, so they do not equal the time-varying ones (on this
    series the HAR coefficients differ by 2.07 and the TVEWD and EWD
    forecasts by 0.0106); what holds exactly is:

    * HAR: the static OLS coefficients equal the TVHAR boundary levels plus
      the omitted-slope term (X'X)^-1 X'D s, where D = (tau - 1) X and s is
      the slope block of the [X, D] solve; likewise the forecasts at x_T.
    * EWD: the TVEWD fit is linear in u (phi = c + u d, slopes = d), its
      local level is the global straight line in tau that EWD centres with,
      and TVEWD and EWD are the same multiscale pipeline run on that linear
      fit and on the global OLS AR(1) respectively, with that same line.
    """
    rng = np.random.default_rng(1007)
    T = 700
    v = np.empty(T)
    v[0] = 10.0
    shocks = rng.standard_normal(T)
    for t in range(1, T):
        v[t] = 10.0 * (1 - 0.6) + 0.6 * v[t - 1] + shocks[t]
    uniform = KernelSpec("uniform", 1.0)
    horizons = (1, 5, 22)
    scales = MultiscaleConfig(J=5, N=4)

    # HAR half: h = 1 design built here, rows at 1-based t = 22..T-1
    t_idx = np.arange(21, T - 1)
    X = np.array([[1.0, v[i], v[i - 4 : i + 1].mean(), v[i - 21 : i + 1].mean()] for i in t_idx])
    y = v[t_idx + 1]
    D = ((t_idx + 1) / T - 1.0)[:, None] * X
    s = np.linalg.lstsq(np.column_stack([X, D]), y, rcond=None)[0][4:]
    omitted = np.linalg.lstsq(X, D @ s, rcond=None)[0]
    x_T = np.array([1.0, v[-1], v[-5:].mean(), v[-22:].mean()])
    tv_fc, tv_coef = tvhar_fit_forecast(v, 1, uniform)
    st_fc, st_coef = har_fit_forecast(v, 1)

    # EWD half: one global solve of the time-augmented AR(1) design
    y1 = v[1:]
    X1 = np.column_stack([np.ones(T - 1), v[:-1]])
    tau1 = np.arange(2, T + 1, dtype=float) / T
    theta = np.linalg.lstsq(np.column_stack([X1, tau1[:, None] * X1]), y1, rcond=None)[0]
    linear_phi = theta[:2] + tau1[:, None] * theta[2:]
    ols_phi = np.broadcast_to(np.linalg.lstsq(X1, y1, rcond=None)[0], (T - 1, 2))
    tau = np.arange(1, T + 1, dtype=float) / T
    line = np.linalg.lstsq(np.column_stack([np.ones(T), tau]), v, rcond=None)[0]
    trend_line = line[0] + line[1] * tau
    fit = fit_tvp_ar(v, 1, uniform)
    points = tvewd_forecast_window(v, 1, uniform, scales, horizons)
    static = ewd_static_forecast(v, 1, scales, horizons)
    on_linear = _multiscale_forecasts(v, linear_phi, trend_line, scales, horizons)
    on_ols = _multiscale_forecasts(v, ols_phi, trend_line, scales, horizons)

    checks = [
        ("HAR coefficients == TVHAR levels + omitted-slope term",
         _gap(tv_coef + omitted, st_coef), 1e-8),
        ("HAR forecast == TVHAR forecast + x_T . omitted-slope term",
         _gap(tv_fc + x_T @ omitted, st_fc), 1e-8),
        ("TVP-AR levels == c + u d from the time-augmented solve",
         _gap(fit.phi, linear_phi), 1e-8),
        ("TVP-AR slopes == d from the time-augmented solve",
         _gap(fit.slopes, np.broadcast_to(theta[2:], fit.slopes.shape)), 1e-8),
        ("local level == global straight line in tau",
         _gap(local_level(fit.values, fit.kernel), trend_line), 1e-8),
        ("TVEWD forecasts == pipeline on the linear-in-u fit",
         _gap(list(points.values()), on_linear), 1e-6),
        ("EWD forecasts == pipeline on the global OLS AR(1)",
         _gap([static[h] for h in horizons], on_ols), 1e-6),
    ]
    broken = [f"{name}: gap {gap:.3g} > {tol:g}" for name, gap, tol in checks if not gap <= tol]
    assert not broken, (
        "uniform full-width nesting identities broken (gaps relative to "
        "max(1, |reference|)): " + "; ".join(broken) + ".  Equality of the "
        "time-varying and static fits is not asserted: the local linear slope "
        "columns keep them apart unless the sample slopes are exactly zero."
    )


def test_criterion_08_directional_horizon_gain():
    """On a locally stationary process with slowly drifting persistence the
    median TVEWD/TVHAR RMSE ratio at h = 22 is below its h = 1 ratio and
    below 1, across 100 replications, in under 30 minutes."""
    start = time.monotonic()
    phi_curve = Curve("sinusoid", {"base": 0.775, "amplitude": 0.175, "frequency": 0.75})
    icpt_curve = Curve("sinusoid", {"base": 2.25, "amplitude": -1.75, "frequency": 0.75})
    scales = MultiscaleConfig(J=5, N=4)
    models = [
        ModelSpec(name="TVEWD", p=1, kernel=EPA, scales=scales),
        ModelSpec(name="TVHAR", kernel=EPA),
    ]
    plan = RollingPlan(window=300, step=1, horizons=(1, 22), max_origins=120)
    ratios = {1: [], 22: []}
    for rep in range(100):
        scen = TvpArScenario(
            p=1,
            T=300 + 120 + 22,
            coefficients=(phi_curve,),
            intercept=icpt_curve,
            seed=8000 + rep,
        )
        series = simulate(scen).series
        report = rolling_evaluate(series, models, plan, benchmark="TVHAR")
        for h in (1, 22):
            ratios[h].append(report.entries[("TVEWD", h)].rmse_ratio)
    elapsed = time.monotonic() - start
    med1 = float(np.median(ratios[1]))
    med22 = float(np.median(ratios[22]))
    assert med22 < med1, f"median ratio h=22 ({med22:.4f}) not below h=1 ({med1:.4f})"
    assert med22 < 1.0, f"median ratio at h=22 is {med22:.4f}, not below 1"
    assert elapsed < 1800.0, f"directional sweep took {elapsed:.1f}s"


def test_criterion_09_white_noise_shares():
    """Fitting serially uncorrelated data (T = 5000) and decomposing at
    depth 7 puts share 2^(-1/2) / sum_j 2^(-j/2) ~ 0.3213 on the finest
    scale, within 0.02 at every interior date."""
    scen = TvpArScenario(
        p=1, T=5000, coefficients=(constant(0.0),), intercept=constant(10.0), seed=9001
    )
    series = simulate(scen).series
    fit = fit_tvp_ar(series.values, 1, EPA)
    decomp = decompose(fit, MultiscaleConfig(J=7, N=4))
    shares = persistence_shares(decomp, mode="absolute")
    interior = (fit.grid >= 0.3) & (fit.grid <= 0.7)
    worst = float(np.max(np.abs(shares.shares[interior, 0] - 0.3212916575362731)))
    assert worst < 0.02, f"worst interior share deviation {worst:.4f}"


def test_criterion_10_rv_arithmetic():
    """Intraday sampling, realized variance and annualization fixtures
    reproduce hand arithmetic to 12 significant digits."""
    cal = TradingCalendar(bins_per_day=2, open_offset_minutes=9 * 60)
    ts = np.array(
        ["2021-03-02T09:01:00", "2021-03-02T09:04:30", "2021-03-02T09:08:00"],
        dtype="datetime64[s]",
    )
    # last trade at or before each bin end (09:05, 09:10) is carried forward
    days = sample_five_minute(ts, np.array([100.0, 101.0, 99.5]), cal)
    assert len(days) == 1
    assert days[0].prices.tolist() == [101.0, 99.5]

    prices = np.array([100.0, 100.0 * math.exp(0.01), 100.0 * math.exp(0.01) * math.exp(-0.02)])
    ts3 = np.array(
        ["2021-03-02T09:01:00", "2021-03-02T09:06:00", "2021-03-02T09:11:00"],
        dtype="datetime64[s]",
    )
    cal3 = TradingCalendar(bins_per_day=3, open_offset_minutes=9 * 60)
    dates, rv_values, _ = realized_variance(sample_five_minute(ts3, prices, cal3))
    assert len(rv_values) == 1
    assert rv_values[0] == pytest.approx(0.0005, rel=1e-12)

    vol = annualize(dates, rv_values, label="fixture")
    assert vol.values[0] == pytest.approx(35.496478698597695, rel=1e-12)
    assert annualize(dates, np.array([0.0]), label="zero").values[0] == 0.0
