"""Local linear TVP-AR estimation tests against known coefficient curves."""

import contextlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from tvewd import locreg
from tvewd.locreg import (
    FALLBACK_COND,
    GRID_CHUNK,
    KERNEL_FAMILIES,
    EstimationError,
    KernelSpec,
    _design,
    _flagged,
    _local_linear_grid,
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
    for family in ("triangular", "gaussian"):
        with pytest.raises(ValueError, match=f"unknown kernel family '{family}'"):
            kernel_weights(x, family)


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
def test_every_family_is_zero_outside_its_support(family):
    """The solver reads only the observations inside [-1, 1] of a grid
    point, so every family must weigh all others, and NaN, by 0."""
    outside = np.array([-np.inf, -2.0, -1.0 - 1e-12, 1.0 + 1e-12, 1.5, np.inf, np.nan])
    assert kernel_weights(outside, family).tolist() == [0.0] * len(outside)
    assert (kernel_weights(np.linspace(-0.999, 0.999, 101), family) > 0.0).all()


def test_kernel_spec_validation():
    with pytest.raises(ValueError, match="bandwidth"):
        KernelSpec("epanechnikov", 0.0)
    with pytest.raises(ValueError, match="bandwidth"):
        KernelSpec("epanechnikov", 1.5)
    for family in ("tricube", "gaussian"):  # only families compact on [-1, 1]
        with pytest.raises(ValueError, match=f"unknown kernel family '{family}'"):
            KernelSpec(family, 0.3)


@pytest.mark.parametrize("bandwidth", [True, "0.3", None, [0.3]])
def test_kernel_spec_refuses_a_bandwidth_that_is_not_a_number(bandwidth):
    with pytest.raises(ValueError, match=f"^{re.escape(f'bandwidth must be a number, got {bandwidth!r}')}$"):
        KernelSpec("epanechnikov", bandwidth)


def test_kernel_spec_stores_the_bandwidth_as_a_float():
    spec = KernelSpec("uniform", 1)
    assert type(spec.bandwidth) is float and spec.bandwidth == 1.0
    assert spec == KernelSpec("uniform", 1.0)
    assert KernelSpec("epanechnikov", np.float64(0.3)).bandwidth == 0.3


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
        levels, slopes = local_linear(y, X, tau, u, KernelSpec("uniform", 1.0))
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
        levels, slopes = local_linear(y, X, tau, u, EPA)
        w = kernel_weights((tau - u) / EPA.bandwidth, "epanechnikov")
        Z = np.column_stack([X, (tau - u)[:, None] * X])
        theta = np.concatenate([levels, slopes])
        resid = y - Z @ theta
        normal_eq = Z.T @ (w * resid)
        scale = np.linalg.norm(Z.T @ (w * y))
        assert np.linalg.norm(normal_eq) < 1e-8 * max(scale, 1.0)


def test_local_linear_solves_each_window_of_a_stack_on_its_own(monkeypatch):
    """A stack of windows of one geometry shares one set of kernel weights,
    and each window keeps its own solve: its (levels, slopes) bit for bit as
    a one-window call, or the failure that call raises.  Too few active
    observations is a property of tau and raises for the whole stack."""
    T = 200
    tau = np.arange(2, T + 1) / T
    windows = np.stack([ar1_path(0.6, T, seed=s) for s in range(20, 24)])
    windows[2, -80:] = 4.0  # constant at the boundary: a singular local system
    y, X = windows[:, 1:], np.stack([_design(w, 1)[1] for w in windows])
    calls = []
    counted = lambda x, family: calls.append(1) or kernel_weights(x, family)
    monkeypatch.setattr(locreg, "kernel_weights", counted)
    stacked = local_linear(y, X, tau, 1.0, EPA)
    assert len(calls) == 1 and len(stacked) == len(windows)
    for i, got in enumerate(stacked):
        if i == 2:
            with pytest.raises(EstimationError, match="^singular local system at u=1: ") as raised:
                local_linear(y[i], X[i], tau, 1.0, EPA)
            assert isinstance(got, EstimationError) and str(got) == str(raised.value)
        else:
            want = local_linear(y[i], X[i], tau, 1.0, EPA)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    with pytest.raises(EstimationError, match=r"^only \d observations in kernel support at u=1 for 4 parameters"):
        local_linear(y, X, tau, 1.0, KernelSpec("epanechnikov", 0.015))


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
    levels, slopes = boundary_fit(v, 1, EPA)
    fit = fit_tvp_ar(v, 1, EPA)
    np.testing.assert_allclose(levels, fit.phi[-1], rtol=0, atol=0)  # same solve


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


def grid_fit(y, X, tau, grid, kernel):
    """The batched solver on one window at arbitrary points u: (levels,
    slopes), or the error a loop over `local_linear` raises."""
    levels, slopes, errors = _local_linear_grid(y[None], X[None], tau, grid, kernel)
    if errors[0] is not None:
        raise errors[0]
    return levels[0], slopes[0]


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
@example(p=2, G=GRID_CHUNK, family="uniform", bandwidth=0.5, seed=2, n_custom=GRID_CHUNK)
@example(p=6, G=3 * GRID_CHUNK + 5, family="uniform", bandwidth=0.2, seed=3, n_custom=70)
def test_batched_fits_match_local_linear_oracle(p, G, family, bandwidth, seed, n_custom):
    """fit_tvp_ar, its solver at arbitrary u, boundary_fit and local_level
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
    oracle = oracle_grid(y, X, tau, tau, kernel)
    fit = assert_same_outcome(lambda: fit_tvp_ar(v, p, kernel), oracle)
    if fit is not None:
        assert_close(fit.phi, oracle[0])
        assert_close(fit.slopes, oracle[1])
    oracle = oracle_grid(y, X, tau, custom, kernel)
    out = assert_same_outcome(lambda: grid_fit(y, X, tau, custom, kernel), oracle)
    if out is not None:
        assert_close(out[0], oracle[0])
        assert_close(out[1], oracle[1])
    oracle = oracle_grid(y, X, tau, [1.0], kernel)
    out = assert_same_outcome(lambda: boundary_fit(v, p, kernel), oracle)
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


def eigvalsh_rule(A, thin):
    """The guard `_flagged` keeps: thin rows, and rows whose cond(Z)
    estimate sqrt(lmax/lmin) of Z'WZ is not <= FALLBACK_COND; or the
    LinAlgError `eigvalsh` raises for the batch, as its message."""
    try:
        lam = np.linalg.eigvalsh(A)
    except np.linalg.LinAlgError as exc:
        return str(exc)
    with np.errstate(divide="ignore", invalid="ignore"):
        est = np.where(lam[:, 0] > 0.0, np.sqrt(lam[:, -1] / lam[:, 0]), np.inf)
    return thin | ~(est <= FALLBACK_COND)


def gram_batch(k, log_conds, seed):
    """Symmetric positive definite k x k matrices with prescribed spectra:
    row i has cond(Z) = 10**log_conds[i], i.e. lmax/lmin = cond(Z)**2, a
    random lmax and random eigenvectors."""
    rng = np.random.default_rng(seed)
    rows = []
    for c in log_conds:
        lmax = 10 ** rng.uniform(-3, 6)
        lam = lmax * 10 ** np.concatenate([[0.0, -2 * c], rng.uniform(-2 * c, 0, k - 2)])
        q = np.linalg.qr(rng.standard_normal((k, k)))[0]
        a = (q * lam) @ q.T
        rows.append((a + a.T) / 2)
    return np.array(rows)


@settings(max_examples=150, deadline=None)
@given(
    k=st.sampled_from([2, 4, 6, 14]),
    log_conds=st.lists(st.floats(4.0, 8.0), min_size=1, max_size=24),
    thin_share=st.sampled_from([0.0, 0.0, 0.2, 1.0]),
    special=st.sampled_from([None, "singular", "nan", "inf", "-inf"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(k=14, log_conds=[5.9, 6.0, 6.1], thin_share=0.0, special=None, seed=5)
@example(k=2, log_conds=[5.99, 6.001, 6.01], thin_share=0.0, special=None, seed=7)
@example(k=4, log_conds=[4.0, 5.0], thin_share=0.0, special="nan", seed=6)
def test_flagged_rows_follow_the_eigvalsh_rule(k, log_conds, thin_share, special, seed):
    """The Cholesky screen flags exactly the rows the eigvalsh rule flags,
    around the FALLBACK_COND boundary (cond(Z) 1e4 to 1e8) too, and a
    batch with a singular row, or a NaN or inf entry anywhere, thin row or
    not, gets the rule's mask or its LinAlgError."""
    A = gram_batch(k, log_conds, seed)
    rng = np.random.default_rng(seed + 1)
    thin = rng.uniform(size=len(A)) < thin_share
    if special is not None:
        i, r, c = rng.integers(len(A)), rng.integers(k), rng.integers(k)
        if special == "singular":
            A[i] = np.outer(A[i, 0], A[i, 0])
        else:
            A[i, r, c] = float(special)
    expected = eigvalsh_rule(A, thin)
    try:
        flagged = _flagged(A, thin)
    except np.linalg.LinAlgError as exc:
        flagged = str(exc)
    if isinstance(expected, str):
        assert flagged == expected
    else:
        np.testing.assert_array_equal(flagged, expected)


def test_the_screen_answers_well_conditioned_batches_without_eigvalsh(monkeypatch):
    """eigvalsh runs only where the Cholesky screen fails: not for a batch
    whose rows are all below FALLBACK_COND / 2, nor for the fits of a
    persistent series."""
    A = gram_batch(6, np.linspace(4.0, 5.6, 40), seed=34)
    expected = eigvalsh_rule(A, np.arange(40) % 7 == 0)
    v = ar1_path(0.9, 700, seed=35, intercept=2.0)
    expected_fit = fit_tvp_ar(v, 6, EPA)

    def refuse(_):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    np.testing.assert_array_equal(_flagged(A, np.arange(40) % 7 == 0), expected)
    np.testing.assert_array_equal(fit_tvp_ar(v, 6, EPA).phi, expected_fit.phi)
    with pytest.raises(AssertionError, match="eigvalsh called"):
        _flagged(gram_batch(6, [6.5], seed=36), np.zeros(1, dtype=bool))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("p", [1, 2])
def test_a_non_finite_window_raises_the_eigvalsh_error(bad, p):
    """A NaN or inf among a window's lags reaches `eigvalsh`, which raises;
    the screen does not clear it into NaN curves.  An inf also warns, from
    the centring of the design, before the fit raises."""
    v = ar1_path(0.6, 300, seed=37, intercept=4.0)
    v[150] = bad
    for fit in (fit_tvp_ar, boundary_fit):
        warns = pytest.warns(RuntimeWarning, match="invalid value") if np.isinf(bad) else contextlib.nullcontext()
        with warns, pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
            fit(v, p, EPA)


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
    one-window fit, solve at arbitrary u and level bit for bit.  Window
    `flat` ends in a constant stretch of half its length; where that makes
    its fit singular, the window fails alone, with its one-window error."""
    kernel = KernelSpec(family, bandwidth)
    windows = sliding_window_view(persistent_series(n + (B - 1) * step, seed), n)[::step].copy()
    if flat < B:
        windows[flat, n // 2 :] = windows[flat, n // 2]
    if n <= 10 * (2 * p + 2) or bandwidth * n < 2 * p + 2:
        with pytest.raises(EstimationError):
            fit_tvp_ar(windows, p, kernel)
        return
    custom = np.random.default_rng(seed).uniform(0.0, 1.0, 7)
    fits = fit_tvp_ar(windows, p, kernel)
    assert len(fits) == B
    y, X, tau = _design(windows, p)
    *solved, errors = _local_linear_grid(y, X, tau, custom, kernel)
    for i, (window, fit) in enumerate(zip(windows, fits)):
        try:
            one = fit_tvp_ar(window.copy(), p, kernel)
        except EstimationError as exc:
            assert isinstance(fit, EstimationError) and str(fit) == str(exc)
        else:
            for name in ("grid", "phi", "slopes", "residuals", "values"):
                np.testing.assert_array_equal(getattr(fit, name), getattr(one, name))
        y1, X1, _ = _design(window.copy(), p)
        *solved1, errors1 = _local_linear_grid(y1[None], X1[None], tau, custom, kernel)
        if errors1[0] is not None:
            assert isinstance(errors[i], EstimationError) and str(errors[i]) == str(errors1[0])
            continue
        assert errors[i] is None
        for part, part1 in zip(solved, solved1):
            np.testing.assert_array_equal(part[i], part1[0])
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
        for name in ("phi", "slopes", "residuals"):
            np.testing.assert_array_equal(getattr(fits[i], name), getattr(one, name))
    for window, level in zip(windows, levels):
        np.testing.assert_array_equal(level, local_level(window.copy(), EPA))
