"""Benchmark model tests: HAR variants, boundary AR iteration, static pipeline."""

import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from tvewd.benchmarks import MODEL_NAMES, ModelSpec, har_fit_forecast, har_terms, tvhar_fit_forecast
from tvewd.locreg import (
    _MODEL_FAILURES,
    KERNEL_FAMILIES,
    EstimationError,
    KernelSpec,
    boundary_fit,
    fit_tvp_ar,
    local_level,
)
from tvewd.wold import MultiscaleConfig

KERN = KernelSpec("epanechnikov", 0.3)
SCALES = MultiscaleConfig(J=5, N=4)


def ar1_path(phi, T, seed, level=0.0):
    rng = np.random.default_rng(seed)
    v = np.empty(T)
    v[0] = level
    eps = rng.standard_normal(T)
    for t in range(1, T):
        v[t] = level * (1 - phi) + phi * v[t - 1] + eps[t]
    return v


def oracle_har_design(values, h):
    """Loop-built h-step heterogeneous-lag design (1-based predictor rows)."""
    T = len(values)
    rows, ys, taus = [], [], []
    for t in range(22, T - h + 1):
        d, w, m = har_terms(values, t)
        rows.append([1.0, d, w, m])
        ys.append(values[t - 1 + h])
        taus.append(t / T)
    return np.array(ys), np.array(rows), np.array(taus)


# ---------------------------------------------------------------------------
# heterogeneous lag terms
# ---------------------------------------------------------------------------

def test_har_terms_constant_series():
    v = np.full(30, 4.2)
    daily, weekly, monthly = har_terms(v, 25)
    assert daily == 4.2
    assert weekly == pytest.approx(4.2, rel=1e-15)
    assert monthly == pytest.approx(4.2, rel=1e-15)


def test_har_terms_ramp_fixture():
    v = np.arange(1.0, 23.0)  # 1..22
    daily, weekly, monthly = har_terms(v, 22)
    assert daily == 22.0
    assert weekly == 20.0  # mean of 18..22
    assert monthly == 11.5  # mean of 1..22


def test_har_terms_validation():
    v = np.arange(1.0, 31.0)
    with pytest.raises(ValueError, match="t >= 22"):
        har_terms(v, 21)
    with pytest.raises(ValueError, match="beyond"):
        har_terms(v, 31)


# ---------------------------------------------------------------------------
# static and time-varying HAR
# ---------------------------------------------------------------------------

def test_har_fit_matches_loop_oracle():
    v = ar1_path(0.7, 250, seed=70, level=10.0)
    for h in (1, 5, 22):
        forecast, coef = har_fit_forecast(v, h)
        y, X, _ = oracle_har_design(v, h)
        oracle_coef = np.linalg.solve(X.T @ X, X.T @ y)
        np.testing.assert_allclose(coef, oracle_coef, rtol=1e-8, atol=1e-10)
        x_T = np.array([1.0, *har_terms(v, len(v))])
        assert forecast == pytest.approx(float(x_T @ oracle_coef), rel=1e-10)


def test_har_recovers_persistence_structure():
    v = ar1_path(0.9, 2000, seed=71, level=10.0)
    _, coef = har_fit_forecast(v, 1)
    # a persistent series loads positively on the lag terms overall
    assert coef[1] + coef[2] + coef[3] == pytest.approx(0.9, abs=0.1)


def test_har_window_validation():
    with pytest.raises(EstimationError, match="at least 100"):
        har_fit_forecast(np.ones(80), 1)
    v = ar1_path(0.5, 110, seed=72)
    with pytest.raises(EstimationError, match="too short"):
        har_fit_forecast(v, 95)


def test_har_constant_window_is_singular():
    with pytest.raises(EstimationError, match="singular|condition"):
        har_fit_forecast(np.full(150, 3.0), 1)


def test_tvhar_uniform_full_bandwidth_reduces_to_global_fit():
    """With uniform weights over the whole sample the boundary fit solves the
    plain least-squares problem of the time-augmented design exactly."""
    v = ar1_path(0.6, 300, seed=73, level=10.0)
    for h in (1, 5):
        forecast, levels = tvhar_fit_forecast(v, h, KernelSpec("uniform", 1.0))
        y, X, tau = oracle_har_design(v, h)
        Z = np.column_stack([X, (tau - 1.0)[:, None] * X])
        theta = np.linalg.lstsq(Z, y, rcond=None)[0]
        np.testing.assert_allclose(levels, theta[:4], rtol=1e-8, atol=1e-10)
        x_T = np.array([1.0, *har_terms(v, len(v))])
        assert forecast == pytest.approx(float(x_T @ theta[:4]), rel=1e-8)


def test_tvhar_tracks_drifting_level():
    rng = np.random.default_rng(74)
    T = 600
    drift = np.linspace(5.0, 15.0, T)
    v = drift + 0.5 * rng.standard_normal(T)
    forecast, _ = tvhar_fit_forecast(v, 1, KERN)
    static, _ = har_fit_forecast(v, 1)
    assert abs(forecast - 15.0) < 1.0
    # the static fit mixes early and late regimes; the local fit ends closer
    assert abs(forecast - 15.0) <= abs(static - 15.0) + 0.5


# ---------------------------------------------------------------------------
# boundary AR iteration
# ---------------------------------------------------------------------------

def test_tvar_closed_form_ar1():
    v = ar1_path(0.5, 400, seed=75, level=10.0)
    fit = fit_tvp_ar(v, 1, KERN)
    trend = local_level(fit.values, fit.kernel)
    phi1 = fit.phi[-1, 1]
    out = ModelSpec("TVAR", p=1, kernel=KERN).forecast_all(v, (1, 2, 5, 22))
    for h in (1, 2, 5, 22):
        assert out[h] == pytest.approx(trend[-1] + phi1**h * (fit.values[-1] - trend[-1]), rel=1e-12)


def test_tvar_manual_recursion_oracle_p2():
    v = ar1_path(0.5, 500, seed=76, level=8.0)
    fit = fit_tvp_ar(v, 2, KERN)
    trend = local_level(fit.values, fit.kernel)
    c1, c2 = fit.phi[-1, 1], fit.phi[-1, 2]
    x_prev, x_cur = fit.values[-2:] - trend[-2:]
    expected = {}
    for h in range(1, 6):
        nxt = c1 * x_cur + c2 * x_prev
        x_prev, x_cur = x_cur, nxt
        expected[h] = trend[-1] + nxt
    out = ModelSpec("TVAR", p=2, kernel=KERN).forecast_all(v, (1, 3, 5))
    for h in (1, 3, 5):
        assert out[h] == pytest.approx(expected[h], rel=1e-12)


def full_fit_tvar(values, p, horizons, kernel):
    """TVAR through a full per-observation fit and a full centring."""
    fit = fit_tvp_ar(values, p, kernel)
    trend = local_level(fit.values, fit.kernel)
    coefs = fit.phi[-1, 1:]
    buf = list((fit.values - trend)[-p:])
    out = {}
    for step in range(1, max(horizons) + 1):
        buf.append(float(np.dot(coefs, buf[::-1][:p])))
        if step in horizons:
            out[step] = float(trend[-1]) + buf[-1]
    return out


@pytest.mark.parametrize("p", [1, 2, 6])
def test_tvar_boundary_route_equals_full_fit_route(p):
    """One boundary solve plus the last p levels give the full-fit forecasts
    bit for bit, on random windows, kernels and bandwidths."""
    rng = np.random.default_rng(80 + p)
    horizons = (1, 5, 22)
    for trial in range(50):
        T = int(rng.integers(150, 800))
        kernel = KernelSpec(str(rng.choice(KERNEL_FAMILIES)), float(rng.uniform(0.15, 1.0)))
        v = ar1_path(float(rng.uniform(0.0, 0.95)), T, seed=1000 * p + trial, level=float(rng.uniform(1.0, 20.0)))
        out = ModelSpec("TVAR", p=p, kernel=kernel).forecast_all(v, horizons)
        expected = full_fit_tvar(v, p, horizons, kernel)
        np.testing.assert_array_equal([out[h] for h in horizons], [expected[h] for h in horizons])


def test_tvar_order_zero_is_refused():
    v = ar1_path(0.5, 400, seed=77, level=10.0)
    for fit in (fit_tvp_ar, boundary_fit):
        with pytest.raises(EstimationError, match="order must be >= 1, got 0"):
            fit(v, 0, KERN)
    for name in MODEL_NAMES:
        for p in (0, -1, {1: 2, 5: 0}):
            with pytest.raises(ValueError, match="AR order must be >= 1, got (0|-1)"):
                ModelSpec(name=name, p=p)


def test_tvar_forecast_decays_to_trend():
    v = ar1_path(0.7, 500, seed=78, level=10.0)
    fit = fit_tvp_ar(v, 1, KERN)
    level = local_level(fit.values, fit.kernel)[-1]
    out = ModelSpec("TVAR", p=1, kernel=KERN).forecast_all(v, (1, 50))
    # with |phi| < 1 the centered part dies out at long horizons
    assert abs(out[50] - level) < abs(out[1] - level) + 1e-9
    assert out[50] == pytest.approx(level, abs=0.05)


# ---------------------------------------------------------------------------
# static multiscale pipeline
# ---------------------------------------------------------------------------

def test_static_pipeline_close_to_time_varying_on_stable_process():
    for seed in range(6):
        v = ar1_path(0.6, 400, seed=900 + seed, level=10.0)
        ewd = ModelSpec("EWD", p=1, scales=SCALES).forecast_all(v, (1, 5, 22))
        tvewd = ModelSpec("TVEWD", p=1, kernel=KERN, scales=SCALES).forecast_all(v, (1, 5, 22))
        for h, value in tvewd.items():
            assert abs(ewd[h] - value) < 1.0


def test_static_pipeline_on_white_noise_stays_at_level():
    rng = np.random.default_rng(79)
    v = 10.0 + rng.standard_normal(400)
    out = ModelSpec("EWD", p=1, scales=SCALES).forecast_all(v, (1, 5, 22))
    for h in (1, 5, 22):
        assert abs(out[h] - 10.0) < 0.5


def test_static_pipeline_too_short():
    with pytest.raises(EstimationError, match="too short"):
        ModelSpec("EWD", p=1, scales=SCALES).forecast_all(np.ones(15), (1,))


# ---------------------------------------------------------------------------
# model specification and dispatch
# ---------------------------------------------------------------------------

def test_model_names_registry():
    assert MODEL_NAMES == ("HAR", "TVHAR", "TVAR", "EWD", "TVEWD")


def test_model_spec_validation_and_display():
    with pytest.raises(ValueError, match="unknown model"):
        ModelSpec(name="GARCH")
    spec = ModelSpec(name="TVEWD", label="TVEWD-J5")
    assert spec.display == "TVEWD-J5"
    assert ModelSpec(name="HAR").display == "HAR"
    with pytest.raises(ValueError, match="no AR order for horizons \\[5\\]"):
        ModelSpec(name="TVAR", p={"1": 2}).forecast_all(ar1_path(0.6, 400, seed=79), (1, 5))
    # a fractional order used to die in the harness with a TypeError, or be
    # truncated in a lag map; True ran as order 1
    for p, message in (
        (2.5, "p must be an integer, got 2.5"),
        ({1: 2.5}, "p must be an integer, got 2.5"),
        (True, "p must be an integer, got True"),
        (((1, 2.0),), "p must be an integer, got 2.0"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ModelSpec(name="TVAR", p=p)
    assert ModelSpec(name="TVAR", p={1: np.int64(2)}).p == ((1, 2),)


def test_har_models_fit_and_fail_each_horizon_on_its_own():
    """HAR and TVHAR are direct h-step regressions, one fit per horizon: a
    lag map need not cover their horizons, and a horizon whose regression
    fails costs no other horizon.  After a constant stretch the h = 5
    regression is singular at four windows where the h = 1 one is not."""
    values = ar1_path(0.6, 160, seed=2024, level=10.0)
    values[70:120] = values[70]
    windows = sliding_window_view(values, 100)[:60].copy()
    pairs = ModelSpec(name="TVHAR", p={1: 2, 5: 2}, kernel=KERN).forecast_all(windows, (1, 5))
    kept = [i for i, (forecasts, _) in enumerate(pairs) if list(forecasts) == [1]]
    assert kept == [28, 29, 30, 31]
    for i in kept:
        forecasts, failures = pairs[i]
        assert forecasts[1].hex() == tvhar_fit_forecast(windows[i], 1, KERN)[0].hex()
        assert [str(exc).startswith("singular local system at u=1") for exc in failures] == [True]
    window = ar1_path(0.6, 400, seed=79)
    for name in ("HAR", "TVHAR"):
        spec = ModelSpec(name=name, p={1: 2}, kernel=KERN)
        assert spec.horizon_groups((1, 5)) == {1: (1,), 5: (5,)}
        assert sorted(spec.forecast_all(window, (1, 5))) == [1, 5]
    with pytest.raises(ValueError, match="no AR order for horizons \\[5\\]"):
        ModelSpec(name="TVAR", p={1: 2}).forecast_all(window, (1, 5))


def test_model_spec_dispatch_matches_direct_calls():
    v = ar1_path(0.6, 400, seed=80, level=10.0)
    horizons = (1, 5)
    assert ModelSpec(name="HAR").forecast_all(v, horizons) == {
        h: har_fit_forecast(v, h)[0] for h in horizons
    }
    assert ModelSpec(name="TVHAR", kernel=KERN).forecast_all(v, horizons) == {
        h: tvhar_fit_forecast(v, h, KERN)[0] for h in horizons
    }


def test_models_do_not_mutate_input_window():
    v = ar1_path(0.6, 400, seed=81, level=10.0)
    for name in MODEL_NAMES:
        w = v.copy()
        out = ModelSpec(name=name, p=1, kernel=KERN, scales=SCALES).forecast_all(w, (1, 5))
        np.testing.assert_array_equal(w, v)
        assert all(math.isfinite(x) for x in out.values())


def test_model_spec_deterministic():
    v = ar1_path(0.6, 400, seed=82, level=10.0)
    for name in MODEL_NAMES:
        spec = ModelSpec(name=name, p=1, kernel=KERN, scales=SCALES)
        assert spec.forecast_all(v, (1, 22)) == spec.forecast_all(v.copy(), (1, 22))


@pytest.mark.filterwarnings("ignore::tvewd.wold.ExplosiveWarning")
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_a_stack_gives_each_window_its_one_window_outcome_per_order(name):
    """`forecast_all` on a (B, n) stack gives each window the forecasts of
    the orders whose one-window calls succeed and, in `horizon_groups`
    order, the errors of those that raise.  Order 6 is too long for a
    window of 130; window 2 ends flat, which makes its local fits singular."""
    windows = sliding_window_view(ar1_path(0.6, 200, seed=83, level=10.0), 130)[::10].copy()
    windows[2, 65:] = windows[2, 65]
    spec = ModelSpec(name=name, p={1: 1, 5: 6, 22: 1}, kernel=KERN, scales=MultiscaleConfig(J=3, N=2))
    horizons = (1, 5, 22)
    pairs = spec.forecast_all(windows, horizons)
    assert len(pairs) == len(windows)
    for window, (forecasts, failures) in zip(windows, pairs):
        expected, errors = {}, []
        for hs in spec.horizon_groups(horizons).values():
            try:
                expected.update(spec.forecast_all(window.copy(), hs))
            except _MODEL_FAILURES as exc:
                errors.append(exc)
        assert {h: v.hex() for h, v in forecasts.items()} == {h: v.hex() for h, v in expected.items()}
        assert [(type(e), str(e)) for e in failures] == [(type(e), str(e)) for e in errors]
        if errors:  # one window raises its first failure
            with pytest.raises(type(errors[0])) as raised:
                spec.forecast_all(window.copy(), horizons)
            assert str(raised.value) == str(errors[0])
        else:
            assert spec.forecast_all(window.copy(), horizons) == forecasts
