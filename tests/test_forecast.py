"""Multiscale forecasting tests: scale weights, per-scale sums, combination,
and the `{h: float}` window forecast every model returns."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvewd.benchmarks import MODEL_NAMES, ModelSpec
from tvewd.forecast import estimate_weights, combine_forecast, forecast_scale, store_forecasts
from tvewd.locreg import EstimationError, KernelSpec, local_level
from tvewd.series import VolatilitySeries, business_dates
from tvewd.wold import MultiscaleConfig, ar_to_ma, haar_coefficients, haar_innovations, scale_components

KERNEL = KernelSpec("epanechnikov", 0.3)
SCALES = MultiscaleConfig(J=5, N=4)
TVEWD = ModelSpec("TVEWD", p=1, kernel=KERNEL, scales=SCALES)


def ar1_path(phi, T, seed, level=0.0):
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(T)
    v = np.empty(T)
    v[0] = level
    for t in range(1, T):
        v[t] = level * (1 - phi) + phi * v[t - 1] + eps[t]
    return v, eps


# ---------------------------------------------------------------------------
# scale weights
# ---------------------------------------------------------------------------

def small_components(seed=50, G=120, phi=0.4, J=3, N=2):
    """The J scale components of G rows that all hold one AR(1) row, on
    white-noise shocks, from the public whole-array chain."""
    rng = np.random.default_rng(seed)
    cfg = MultiscaleConfig(J=J, N=N)
    eps = rng.standard_normal(G)
    betas, gamma = haar_coefficients(ar_to_ma(np.full((G, 1), phi), cfg.H), cfg)
    innovations, low_pass = haar_innovations(eps, J)
    components, _ = scale_components(betas, gamma, innovations, low_pass, cfg)
    return components


def test_weights_recover_unit_combination():
    components = small_components()
    y = np.sum(components, axis=0)
    w = estimate_weights(y, components)
    np.testing.assert_allclose(w.weights, 1.0, atol=1e-8)
    assert w.r2 == pytest.approx(1.0, abs=1e-10)


def test_weights_identify_amplified_scale():
    components = small_components(seed=51)
    y = 2.0 * components[0]
    w = estimate_weights(y, components)
    assert w.weights[0] == pytest.approx(2.0, abs=1e-8)
    np.testing.assert_allclose(w.weights[1:], 0.0, atol=1e-8)


def test_weights_single_component():
    components = small_components(seed=52, J=1, N=4)
    y = components[0]
    w = estimate_weights(y, components)
    assert w.weights.shape == (1,)
    assert w.weights[0] == pytest.approx(1.0, abs=1e-10)


def test_weights_error_on_short_window():
    components = small_components(seed=54, G=17)  # H=16 leaves 2 defined rows for 3 scales
    y = np.sum(components, axis=0)
    with pytest.raises(EstimationError, match="usable rows"):
        estimate_weights(y, components)


def test_weights_error_on_collinear_components():
    components = small_components(seed=55)
    c = components[0]
    with pytest.raises(EstimationError, match="collinear"):
        estimate_weights(2.0 * c, [c, c.copy()])


def test_weights_length_mismatch():
    components = small_components(seed=56)
    with pytest.raises(ValueError, match="row count"):
        estimate_weights(np.zeros(3), components)


# ---------------------------------------------------------------------------
# per-scale forecast sums
# ---------------------------------------------------------------------------

def test_forecast_scale_two_translate_fixture():
    beta = np.array([0.3, 0.7])
    rng = np.random.default_rng(57)
    innov = rng.standard_normal(10)
    # j=1 spacing 2: only k=1 is observable at h=1 and h=2
    assert forecast_scale(beta, innov, 1, 1) == pytest.approx(0.7 * innov[8], rel=1e-15)
    assert forecast_scale(beta, innov, 1, 2) == pytest.approx(0.7 * innov[9], rel=1e-15)
    # beyond the last translate the sum is empty
    assert forecast_scale(beta, innov, 1, 3) == 0.0
    assert forecast_scale(beta, innov, 1, 4) == 0.0


def test_forecast_scale_future_shocks_excluded():
    # every translate with k*2^j < h would need a shock dated after the origin
    rng = np.random.default_rng(58)
    innov = rng.standard_normal(64)
    beta = rng.standard_normal(8)
    j, h = 2, 5
    total = forecast_scale(beta, innov, j, h)
    oracle = sum(
        beta[k] * innov[63 + h - k * 4]
        for k in range(len(beta))
        if k * 4 >= h and 63 + h - k * 4 >= 0
    )
    assert total == pytest.approx(oracle, rel=1e-12)


def test_forecast_scale_zero_and_nan_innovations():
    beta = np.array([0.3, 0.7])
    assert forecast_scale(beta, np.zeros(10), 1, 1) == 0.0
    innov = np.full(10, np.nan)
    assert forecast_scale(beta, innov, 1, 1) == 0.0


def test_forecast_scale_linearity():
    rng = np.random.default_rng(59)
    innov = rng.standard_normal(40)
    b1 = rng.standard_normal(5)
    b2 = rng.standard_normal(5)
    f = lambda b: forecast_scale(b, innov, 2, 3)
    assert f(2.0 * b1 - 0.5 * b2) == pytest.approx(2.0 * f(b1) - 0.5 * f(b2), rel=1e-12)


def loop_forecast_scale(beta_boundary, innovations, j, h):
    """The per-translate loop: add beta_j(k) eps_j(T+h-k 2^j) while the index
    stays in the history, skipping non-finite innovations."""
    spacing = 1 << j
    G = len(innovations)
    total = 0.0
    for k in range(int(math.ceil(h / spacing)), len(beta_boundary)):
        idx = G - 1 + h - k * spacing
        if idx < 0:
            break
        e = innovations[idx]
        if np.isfinite(e):
            total += float(beta_boundary[k]) * float(e)
    return total


@settings(max_examples=80, deadline=None)
@given(
    j=st.integers(1, 7),
    K=st.integers(1, 300),
    G=st.integers(1, 700),
    h=st.integers(1, 40),
    missing=st.floats(0.0, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_forecast_scale_matches_translate_loop(j, K, G, h, missing, seed):
    """The gather-and-dot sum equals the loop up to reordering: within 1e-15
    of the summed term magnitudes (the loop's own rounding scale)."""
    rng = np.random.default_rng(seed)
    beta = rng.standard_normal(K)
    innov = rng.standard_normal(G)
    innov[rng.uniform(size=G) < missing] = rng.choice([np.nan, np.inf, -np.inf])
    got = forecast_scale(beta, innov, j, h)
    want = loop_forecast_scale(beta, innov, j, h)
    spacing = 1 << j
    terms = [
        beta[k] * innov[G - 1 + h - k * spacing]
        for k in range(K)
        if k * spacing >= h and G - 1 + h - k * spacing >= 0
    ]
    magnitude = sum(abs(t) for t in terms if np.isfinite(t))
    assert abs(got - want) <= 1e-15 * magnitude


def test_forecast_scale_horizon_validated():
    with pytest.raises(ValueError, match="horizon"):
        forecast_scale(np.ones(4), np.ones(20), 1, 0)


# ---------------------------------------------------------------------------
# trend and combination
# ---------------------------------------------------------------------------

def test_trend_is_boundary_level():
    """The trend is the local level at u = 1; that the forecast adds exactly
    this level is pinned bit for bit by the full-route oracles
    (`test_wold.py::test_trailing_row_forecasts_equal_full_row_route`)."""
    v, _ = ar1_path(0.5, 500, seed=60, level=12.0)
    level = local_level(v, KERNEL)[-1]
    assert level == pytest.approx(12.0, abs=1.5)


def test_combine_forecast_is_exact_bookkeeping():
    w = np.array([0.7, 1.3, -0.2])
    parts = np.array([0.11, -0.05, 0.4])
    assert combine_forecast(5.0, w, parts) == 5.0 + float(np.sum(w * parts))


def test_forecast_deterministic():
    v, _ = ar1_path(0.6, 400, seed=62)
    a = TVEWD.forecast_all(v, (1, 22))
    b = TVEWD.forecast_all(v.copy(), (1, 22))
    assert {h: x.hex() for h, x in a.items()} == {h: y.hex() for h, y in b.items()}


def forecast_windows(seed=66, T=301, B=2):
    """B consecutive windows of length T - B + 1 from one AR(1) path, as a stack."""
    v, _ = ar1_path(0.5, T, seed=seed, level=10.0)
    return np.lib.stride_tricks.sliding_window_view(v, T - B + 1)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_every_model_forecasts_one_float_per_horizon(name):
    """A window's forecast is `{h: float}` for every model, alone or as an
    entry of a stack; the window is deep enough for EWD and TVEWD at J = 5."""
    horizons = (1, 5, 22)
    stack = forecast_windows()
    spec = ModelSpec(name, p=1, kernel=KERNEL, scales=SCALES)
    spec.check_window(stack.shape[1], horizons)
    forecasts = spec.forecast_all(stack[-1], horizons)
    assert type(forecasts) is dict and list(forecasts) == list(horizons)
    assert all(type(value) is float and math.isfinite(value) for value in forecasts.values())
    pairs = spec.forecast_all(stack, horizons)
    assert len(pairs) == len(stack)
    for window, (got, failures) in zip(stack, pairs):
        assert failures == []
        assert type(got) is dict and list(got) == list(horizons)
        assert all(type(value) is float for value in got.values())
        assert got == spec.forecast_all(window, horizons)


# ---------------------------------------------------------------------------
# forecast quality on known processes
# ---------------------------------------------------------------------------

def test_white_noise_forecasts_stay_at_level():
    for seed in range(6):
        rng = np.random.default_rng(500 + seed)
        w = 10.0 + rng.standard_normal(400)
        for value in TVEWD.forecast_all(w, (1, 5, 22)).values():
            assert abs(value - 10.0) < 0.5


def test_ar1_one_step_accuracy_band():
    """Rolling one-step forecasts on AR(1) phi = 0.5 against the infeasible
    conditional mean 0.5 * v_T.

    The scale sums only use shocks dated T or earlier whose translate is
    observable at T+1, so the most recent shock never enters a one-step
    forecast; the population RMSE ratio is therefore floored near
    sqrt(1 + phi^2) ~ 1.12 and cannot reach 1.  We pin an honest band.
    """
    v, _ = ar1_path(0.5, 701, seed=77)
    errs_model, errs_opt = [], []
    for origin in range(300):
        T0 = 400 + origin
        f = TVEWD.forecast_all(v[T0 - 400 : T0], (1,))[1]
        errs_model.append(v[T0] - f)
        errs_opt.append(v[T0] - 0.5 * v[T0 - 1])
    ratio = float(
        np.sqrt(np.mean(np.square(errs_model)) / np.mean(np.square(errs_opt)))
    )
    assert 1.02 < ratio < 1.32


def test_error_grows_with_horizon_on_persistent_series():
    v, _ = ar1_path(0.8, 300 + 120 + 22, seed=88)
    errs = {1: [], 22: []}
    for origin in range(120):
        T0 = 300 + origin
        for h, value in TVEWD.forecast_all(v[T0 - 300 : T0], (1, 22)).items():
            errs[h].append(v[T0 + h - 1] - value)
    rmse1 = float(np.sqrt(np.mean(np.square(errs[1]))))
    rmse22 = float(np.sqrt(np.mean(np.square(errs[22]))))
    assert rmse22 > rmse1


def test_minimal_depth_configuration_runs():
    v, _ = ar1_path(0.5, 150, seed=64, level=5.0)
    forecasts = ModelSpec("TVEWD", p=1, kernel=KERNEL, scales=MultiscaleConfig(J=1, N=1)).forecast_all(v, (1,))
    assert list(forecasts) == [1] and math.isfinite(forecasts[1])


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_store_forecasts(tmp_path):
    v, _ = ar1_path(0.5, 400, seed=65, level=10.0)
    series = VolatilitySeries(business_dates("2015-01-05", 400), v, label="X")
    forecasts = TVEWD.forecast_all(v, (1, 5))
    origin = series.dates[-1]
    targets = {h: np.busday_offset(origin, h, roll="forward") for h in forecasts}
    path = str(tmp_path / "fc.csv")
    store_forecasts([(str(origin), str(targets[h]), h, "TVEWD", value) for h, value in forecasts.items()], path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "origin_date,target_date,h,model,forecast"
    assert len(lines) == 3
    cells = lines[1].split(",")
    assert cells[0] == str(series.dates[-1])
    assert cells[1] == str(np.busday_offset(series.dates[-1], 1, roll="forward"))
    assert cells[2] == "1"
    assert cells[3] == "TVEWD"
    assert float(cells[4]) == forecasts[1]
    # horizon 5 lands one business week after the origin
    assert lines[2].split(",")[1] == str(np.busday_offset(series.dates[-1], 5, roll="forward"))
