"""Local linear TVP-AR estimation tests against known coefficient curves."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from tvewd import locreg
from tvewd.locreg import (
    GRID_CHUNK,
    KERNEL_FAMILIES,
    EstimationError,
    KernelSpec,
    _design,
    boundary_fit,
    export_curves,
    fit_tvp_ar,
    kernel_weights,
    local_level,
    local_linear,
)
from tvewd.sim import Curve, TvpArScenario, simulate

EPA = KernelSpec("epanechnikov", 0.3)


def ar1_path(phi, T, seed, intercept=0.0, sigma=1.0):
    rng = np.random.default_rng(seed)
    v = np.empty(T)
    v[0] = intercept / (1 - phi) if phi != 1 else 0.0
    eps = rng.standard_normal(T) * sigma
    for t in range(1, T):
        v[t] = intercept + phi * v[t - 1] + eps[t]
    return v


def test_kernel_weights_values():
    x = np.array([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0])
    epa = kernel_weights(x, "epanechnikov")
    assert epa.tolist() == [0.0, 0.0, 0.75, 0.75 * 0.75, 0.0, 0.0]
    uni = kernel_weights(x, "uniform")
    assert uni.tolist() == [0.0, 0.5, 0.5, 0.5, 0.5, 0.0]
    gau = kernel_weights(np.array([0.0]), "gaussian")
    assert gau[0] == pytest.approx(1.0 / np.sqrt(2 * np.pi), rel=1e-15)
    with pytest.raises(ValueError, match="kernel family"):
        kernel_weights(x, "triangular")


def test_kernel_spec_validation():
    with pytest.raises(ValueError, match="bandwidth"):
        KernelSpec("epanechnikov", 0.0)
    with pytest.raises(ValueError, match="bandwidth"):
        KernelSpec("epanechnikov", 1.5)
    with pytest.raises(ValueError, match="family"):
        KernelSpec("tricube", 0.3)


def test_uniform_full_bandwidth_equals_global_least_squares():
    """With every weight equal, the local solve is plain OLS of the
    augmented design [X, (tau-u)X]; compare against an independent solve."""
    rng = np.random.default_rng(7)
    T = 300
    X = np.column_stack([np.ones(T), rng.standard_normal(T)])
    beta = np.array([1.0, 2.0])
    tau = np.arange(1, T + 1) / T
    y = X @ beta + 0.5 * (tau - 0.5) * X[:, 1] + 0.1 * rng.standard_normal(T)
    for u in (0.3, 0.5, 0.8):
        levels, slopes, _ = local_linear(y, X, tau, u, KernelSpec("uniform", 1.0))
        Z = np.column_stack([X, (tau - u)[:, None] * X])
        theta = np.linalg.lstsq(Z, y, rcond=None)[0]
        np.testing.assert_allclose(np.concatenate([levels, slopes]), theta, rtol=1e-8, atol=1e-10)


def test_local_solve_satisfies_weighted_normal_equations():
    rng = np.random.default_rng(8)
    T = 400
    v = ar1_path(0.6, T, seed=8)
    y = v[1:]
    X = np.column_stack([np.ones(T - 1), v[:-1]])
    tau = np.arange(2, T + 1) / T
    for u in (0.25, 0.6, 1.0):
        levels, slopes, _ = local_linear(y, X, tau, u, EPA)
        w = kernel_weights((tau - u) / EPA.bandwidth, "epanechnikov")
        Z = np.column_stack([X, (tau - u)[:, None] * X])
        theta = np.concatenate([levels, slopes])
        resid = y - Z @ theta
        normal_eq = Z.T @ (w * resid)
        scale = np.linalg.norm(Z.T @ (w * y))
        assert np.linalg.norm(normal_eq) < 1e-8 * max(scale, 1.0)


def test_constant_ar1_coefficient_recovery():
    """Constant AR(1) with phi = 0.5, T = 2000, b = 0.3: mean absolute error
    of the estimated coefficient curve stays below 0.06 in most replications."""
    hits = 0
    for seed in range(10):
        v = ar1_path(0.5, 2000, seed=100 + seed)
        fit = fit_tvp_ar(v, 1, EPA)
        if float(np.mean(np.abs(fit.phi[:, 1] - 0.5))) < 0.06:
            hits += 1
    assert hits >= 9


def test_sinusoid_coefficient_recovery_single_run():
    scen = TvpArScenario(
        p=1,
        T=4000,
        coefficients=(Curve("sinusoid", {"base": 0.5, "amplitude": 0.3, "frequency": 1.0}),),
        seed=42,
    )
    res = simulate(scen)
    fit = fit_tvp_ar(res.series.values, 1, KernelSpec("epanechnikov", 0.1))
    truth = 0.5 + 0.3 * np.sin(2 * np.pi * fit.grid)
    mae = float(np.mean(np.abs(fit.phi[:, 1] - truth)))
    assert mae < 0.06


def test_iid_noise_coefficient_near_zero_interior():
    misses = 0
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        v = rng.standard_normal(2000)
        fit = fit_tvp_ar(v, 1, EPA)
        interior = (fit.grid >= 0.3) & (fit.grid <= 0.7)
        if float(np.max(np.abs(fit.phi[interior, 1]))) >= 0.1:
            misses += 1
    assert misses == 0


def test_fit_shapes_and_default_grid():
    v = ar1_path(0.5, 500, seed=9)
    fit = fit_tvp_ar(v, 2, EPA)
    T = 500
    assert fit.grid.shape == (T - 2,)
    np.testing.assert_allclose(fit.grid, np.arange(3, T + 1) / T, rtol=0, atol=0)
    assert fit.phi.shape == (T - 2, 3)
    assert fit.residuals.shape == (T - 2,)
    assert np.all(np.isfinite(fit.phi))
    # residual definition: v_t minus the fit at the observation's own u
    t = 100  # row index into the grid
    X_row = np.array([1.0, v[t + 1], v[t]])
    assert fit.residuals[t] == pytest.approx(v[t + 2] - X_row @ fit.phi[t], abs=1e-12)


def test_custom_grid_interpolates_curves():
    v = ar1_path(0.5, 600, seed=10)
    coarse = fit_tvp_ar(v, 1, EPA, grid=np.linspace(0.1, 1.0, 10))
    assert coarse.phi.shape == (10, 2)
    assert len(coarse.residuals) == 599
    fine = fit_tvp_ar(v, 1, EPA)
    # curves agree where the coarse grid hits the same evaluation points
    for g, u in enumerate(coarse.grid):
        idx = np.argmin(np.abs(fine.grid - u))
        if abs(fine.grid[idx] - u) < 1e-12:
            np.testing.assert_allclose(coarse.phi[g], fine.phi[idx], rtol=1e-10)


def test_scale_equivariance():
    v = ar1_path(0.7, 800, seed=11, intercept=3.0)
    c = 4.5
    fit1 = fit_tvp_ar(v, 1, EPA)
    fit2 = fit_tvp_ar(c * v, 1, EPA)
    np.testing.assert_allclose(fit2.phi[:, 0], c * fit1.phi[:, 0], rtol=1e-10)
    np.testing.assert_allclose(fit2.phi[:, 1], fit1.phi[:, 1], rtol=0, atol=1e-10)
    np.testing.assert_allclose(fit2.residuals, c * fit1.residuals, rtol=1e-10, atol=1e-12)


def test_preconditions_enforced():
    v = ar1_path(0.5, 30, seed=12)
    with pytest.raises(EstimationError, match="too short"):
        fit_tvp_ar(v, 1, EPA)
    with pytest.raises(EstimationError, match="order must be >= 1"):
        fit_tvp_ar(ar1_path(0.5, 500, seed=13), 0, EPA)
    with pytest.raises(EstimationError, match="bandwidth"):
        fit_tvp_ar(ar1_path(0.5, 500, seed=14), 1, KernelSpec("epanechnikov", 0.005))


def test_constant_series_is_singular():
    v = np.full(300, 5.0)
    with pytest.raises(EstimationError, match="condition|singular"):
        fit_tvp_ar(v, 1, EPA)


def test_boundary_fit_is_one_sided_and_matches_last_grid_point():
    v = ar1_path(0.6, 700, seed=15)
    levels, slopes, cond = boundary_fit(v, 1, EPA)
    fit = fit_tvp_ar(v, 1, EPA)
    np.testing.assert_allclose(levels, fit.phi[-1], rtol=0, atol=0)  # same solve
    # left boundary uses the first grid point
    levels0, _, _ = boundary_fit(v, 1, EPA, at_end=False)
    np.testing.assert_allclose(levels0, fit.phi[0], rtol=0, atol=0)


def test_local_level_constant_and_zero_series():
    zeros = np.zeros(200)
    curve = local_level(zeros, EPA)
    assert np.all(curve == 0.0)
    const = np.full(200, 7.5)
    curve = local_level(const, EPA)
    np.testing.assert_allclose(curve, 7.5, rtol=1e-10)
    assert local_level(const, EPA, u=1.0) == pytest.approx(7.5, rel=1e-10)


def test_local_level_tracks_linear_trend_exactly():
    # a straight line is inside the local linear model class at every u
    T = 300
    tau = np.arange(1, T + 1) / T
    v = 2.0 + 3.0 * tau
    curve = local_level(v, EPA)
    np.testing.assert_allclose(curve, v, rtol=1e-9)


def test_center_zero_mean_and_length():
    scen = TvpArScenario(
        p=1,
        T=2000,
        coefficients=(Curve("constant", {"value": 0.5}),),
        intercept=Curve("linear", {"start": 2.0, "end": 6.0}),
        seed=21,
    )
    res = simulate(scen)
    fit = fit_tvp_ar(res.series.values, 1, EPA)
    trend = local_level(fit.values, fit.kernel)
    centered = fit.values - trend
    assert len(centered) == len(res.series.values)
    assert abs(float(np.mean(centered))) < 0.05 * float(np.std(res.series.values))
    np.testing.assert_allclose(centered, res.series.values - trend, rtol=0, atol=0)


def test_center_recovers_local_mean_of_persistent_series():
    # the trend curve approximates the unconditional local mean, not the
    # regression intercept: AR(1) with intercept 2, phi 0.9 has mean 20
    v = ar1_path(0.9, 3000, seed=22, intercept=2.0)
    fit = fit_tvp_ar(v, 1, EPA)
    trend = local_level(fit.values, fit.kernel)
    assert abs(float(np.mean(trend)) - 20.0) < 2.0


def test_export_curves(tmp_path):
    v = ar1_path(0.5, 400, seed=23)
    fit = fit_tvp_ar(v, 1, EPA)
    path = str(tmp_path / "curves.csv")
    export_curves(fit, path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "u,phi0,phi1"
    assert len(lines) == 1 + len(fit.grid)
    first = lines[1].split(",")
    assert float(first[0]) == fit.grid[0]
    assert float(first[1]) == fit.phi[0, 0]
    assert float(first[2]) == fit.phi[0, 1]


# ---------------------------------------------------------------------------
# batched solver against the single-point oracle
# ---------------------------------------------------------------------------

def oracle_grid(y, X, tau, grid, kernel):
    """Loop of `local_linear` solves; returns (levels, slopes) or the first error."""
    try:
        rows = [local_linear(y, X, tau, float(u), kernel) for u in grid]
    except EstimationError as exc:
        return exc
    return np.array([r[0] for r in rows]), np.array([r[1] for r in rows])


def assert_close(batched, oracle, rel=1e-10):
    gap = float(np.max(np.abs(batched - oracle)))
    assert gap <= rel * float(np.max(np.abs(oracle))), f"gap {gap:.3g}"


def assert_same_outcome(batched_call, oracle_result):
    """Where the oracle raised, the batched call must raise the same message;
    otherwise its result is returned for comparison."""
    if isinstance(oracle_result, EstimationError):
        with pytest.raises(EstimationError, match=re.escape(str(oracle_result))):
            batched_call()
        return None
    return batched_call()


def persistent_series(T, seed):
    rng = np.random.default_rng(seed)
    phi = rng.uniform(-0.5, 0.95)
    level = rng.uniform(0.0, 20.0)
    return ar1_path(phi, T, seed=seed, intercept=level * (1 - phi))


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(1, 6),
    G=st.one_of(
        st.sampled_from([GRID_CHUNK, 2 * GRID_CHUNK, 3 * GRID_CHUNK]),
        st.integers(40, 5 * GRID_CHUNK),
    ),
    family=st.sampled_from(KERNEL_FAMILIES),
    bandwidth=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**32 - 1),
    n_custom=st.integers(1, 2 * GRID_CHUNK + 3),
)
@example(p=1, G=50, family="epanechnikov", bandwidth=0.3, seed=1, n_custom=1)
@example(p=2, G=GRID_CHUNK, family="gaussian", bandwidth=0.5, seed=2, n_custom=GRID_CHUNK)
@example(p=6, G=3 * GRID_CHUNK + 5, family="uniform", bandwidth=0.2, seed=3, n_custom=70)
def test_batched_fits_match_local_linear_oracle(p, G, family, bandwidth, seed, n_custom):
    """fit_tvp_ar (default and custom grid), boundary_fit and local_level
    equal a loop over local_linear to 1e-10 relative, or raise its error."""
    T = G + p
    kernel = KernelSpec(family, bandwidth)
    v = persistent_series(T, seed)
    y, X, tau = _design(v, p)
    if T <= 10 * (2 * p + 2) or bandwidth * T < 2 * p + 2:
        with pytest.raises(EstimationError):
            fit_tvp_ar(v, p, kernel)
        return
    custom = np.random.default_rng(seed).uniform(0.0, 1.0, n_custom)
    custom[0] = 1.0
    for grid in (None, custom):
        oracle = oracle_grid(y, X, tau, tau if grid is None else grid, kernel)
        fit = assert_same_outcome(lambda: fit_tvp_ar(v, p, kernel, grid=grid), oracle)
        if fit is not None:
            assert_close(fit.phi, oracle[0])
            assert_close(fit.slopes, oracle[1])
    for at_end, u in ((True, 1.0), (False, tau[0])):
        oracle = oracle_grid(y, X, tau, [u], kernel)
        out = assert_same_outcome(lambda: boundary_fit(v, p, kernel, at_end=at_end), oracle)
        if out is not None:
            assert_close(out[0], oracle[0][0])
            assert_close(out[1], oracle[1][0])
    full = np.arange(1, T + 1) / T
    ones = np.ones((T, 1))
    for u in (None, custom):
        oracle = oracle_grid(v, ones, full, full if u is None else u, kernel)
        level = assert_same_outcome(lambda: local_level(v, kernel, u=u), oracle)
        if level is not None:
            assert_close(level, oracle[0][:, 0])


def test_batched_cond_is_the_oracle_condition_number():
    """fit.cond estimates cond(Z) of each local design, not cond(Z'WZ)."""
    v = ar1_path(0.6, 700, seed=31, intercept=4.0)
    y, X, tau = _design(v, 2)
    fit = fit_tvp_ar(v, 2, EPA)
    oracle = np.array([local_linear(y, X, tau, float(u), EPA)[2] for u in tau])
    np.testing.assert_allclose(fit.cond, oracle, rtol=1e-6)


@pytest.mark.parametrize("noise", [0.0, 1e-12, 1e-9, 1e-6, 1e-3])
@pytest.mark.parametrize("family", KERNEL_FAMILIES)
def test_near_collinear_windows_raise_where_the_oracle_does(noise, family):
    """On a ramp the lag is a straight line in time, so the local design is
    collinear up to the noise; the batched fit raises exactly when the
    oracle loop does, with the same message, and otherwise matches it."""
    T = 300
    kernel = KernelSpec(family, 0.3)
    v = 1.0 + 0.01 * np.arange(T) + noise * np.random.default_rng(32).standard_normal(T)
    y, X, tau = _design(v, 1)
    oracle = oracle_grid(y, X, tau, tau, kernel)
    fit = assert_same_outcome(lambda: fit_tvp_ar(v, 1, kernel), oracle)
    if fit is not None:
        assert_close(fit.phi, oracle[0], rel=1e-6)


@pytest.mark.parametrize("p", [1, 3])
def test_constant_series_raises_the_oracle_error(p):
    v = np.full(300, 5.0)
    y, X, tau = _design(v, p)
    oracle = oracle_grid(y, X, tau, tau, EPA)
    assert isinstance(oracle, EstimationError)
    assert_same_outcome(lambda: fit_tvp_ar(v, p, EPA), oracle)
    assert_same_outcome(lambda: boundary_fit(v, p, EPA), oracle_grid(y, X, tau, [1.0], EPA))


@settings(max_examples=20, deadline=None)
@given(
    p=st.integers(1, 6),
    n=st.integers(100, 3 * GRID_CHUNK + 10),
    B=st.integers(1, 10),
    step=st.integers(1, 3),
    family=st.sampled_from(KERNEL_FAMILIES),
    bandwidth=st.floats(0.1, 1.0),
    seed=st.integers(0, 2**32 - 1),
    flat=st.integers(0, 9),
)
@example(p=1, n=120, B=6, step=1, family="epanechnikov", bandwidth=0.3, seed=4, flat=2)
def test_stacked_windows_fit_as_one_window_each(p, n, B, step, family, bandwidth, seed, flat):
    """A (B, n) stack of overlapping windows gives every window its
    one-window fit and level bit for bit.  Window `flat` ends in a constant
    stretch of half its length; where that makes its fit singular, the
    window fails alone, with its one-window error."""
    kernel = KernelSpec(family, bandwidth)
    windows = sliding_window_view(persistent_series(n + (B - 1) * step, seed), n)[::step].copy()
    if flat < B:
        windows[flat, n // 2 :] = windows[flat, n // 2]
    if n <= 10 * (2 * p + 2) or bandwidth * n < 2 * p + 2:
        with pytest.raises(EstimationError):
            fit_tvp_ar(windows, p, kernel)
        return
    custom = np.random.default_rng(seed).uniform(0.0, 1.0, 7)
    for grid in (None, custom):
        fits = fit_tvp_ar(windows, p, kernel, grid=grid)
        assert len(fits) == B
        for window, fit in zip(windows, fits):
            try:
                one = fit_tvp_ar(window.copy(), p, kernel, grid=grid)
            except EstimationError as exc:
                assert isinstance(fit, EstimationError) and str(fit) == str(exc)
                continue
            for name in ("grid", "phi", "slopes", "cond", "residuals", "values"):
                np.testing.assert_array_equal(getattr(fit, name), getattr(one, name))
    for u in (None, custom, 1.0):
        levels = local_level(windows, kernel, u=u)
        for window, level in zip(windows, levels):
            np.testing.assert_array_equal(level, local_level(window.copy(), kernel, u=u))


@pytest.mark.parametrize("slice_windows", [None, 1, 2])
def test_a_singular_window_fails_alone_in_its_stack(slice_windows, monkeypatch):
    """Also when STACK_BYTES makes the solver take the stack in slices."""
    v = ar1_path(0.6, 160, seed=41, intercept=4.0)
    windows = sliding_window_view(v, 120)[::8].copy()
    windows[2, 60:] = 7.5
    if slice_windows is not None:  # moments of one window: 119 rows of 6 doubles
        monkeypatch.setattr(locreg, "STACK_BYTES", slice_windows * 8 * 119 * 6)
    fits = fit_tvp_ar(windows, 1, EPA)
    levels = local_level(windows, EPA)
    with pytest.raises(EstimationError, match="singular local system") as raised:
        fit_tvp_ar(windows[2].copy(), 1, EPA)
    assert isinstance(fits[2], EstimationError) and str(fits[2]) == str(raised.value)
    for i in (0, 1, 3, 4):
        one = fit_tvp_ar(windows[i].copy(), 1, EPA)
        for name in ("phi", "slopes", "cond", "residuals"):
            np.testing.assert_array_equal(getattr(fits[i], name), getattr(one, name))
    for window, level in zip(windows, levels):
        np.testing.assert_array_equal(level, local_level(window.copy(), EPA))
