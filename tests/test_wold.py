"""Multiscale decomposition tests with independent loop-based oracles.

Every array identity is checked against a deliberately different code route:
explicit Python loops over the defining sums, never the vectorised reshape
arithmetic used by the implementation.
"""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tvewd import forecast, wold
from tvewd.benchmarks import _ols_ar, ewd_static_forecast
from tvewd.forecast import (
    _multiscale_points,
    combine_forecast,
    estimate_weights,
    forecast_scale,
    tvewd_forecast_window,
)
from tvewd.locreg import KERNEL_FAMILIES, EstimationError, KernelSpec, TvpArFit, fit_tvp_ar, local_level
from tvewd.wold import (
    ExplosiveWarning,
    MultiscaleConfig,
    MultiscaleDecomposition,
    ar_to_ma,
    decompose,
    haar_coefficients,
    haar_energy_gap,
    haar_innovations,
    persistence_shares,
    scale_components,
    store_beta_surface,
    store_shares,
)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def oracle_alpha(phi_row, H):
    """MA weights alpha(0..H) by direct recursion (H + 1 entries)."""
    p = len(phi_row)
    a = [0.0] * (H + 1)
    a[0] = 1.0
    for h in range(1, H + 1):
        a[h] = sum(phi_row[i] * a[h - 1 - i] for i in range(min(h, p)))
    return np.array(a)


def oracle_beta(alpha, j, k):
    half = 2 ** (j - 1)
    base = k * 2**j
    pos = sum(alpha[base + i] for i in range(half))
    neg = sum(alpha[base + half + i] for i in range(half))
    return (pos - neg) / math.sqrt(2.0**j)


def oracle_gamma(alpha, J, k):
    width = 2**J
    return sum(alpha[k * width + i] for i in range(width)) / math.sqrt(2.0**J)


def oracle_scale_innovation(eps, j, t):
    m = 2 ** (j - 1)
    if t - 2 * m + 1 < 0:
        return math.nan
    pos = sum(eps[t - i] for i in range(m))
    neg = sum(eps[t - m - i] for i in range(m))
    return (pos - neg) / math.sqrt(2.0**j)


def oracle_low_pass(eps, J, t):
    width = 2**J
    if t - width + 1 < 0:
        return math.nan
    return sum(eps[t - i] for i in range(width)) / math.sqrt(2.0**J)


def loop_ar_to_ma(phi, H):
    """The per-lag loop: one vector update per lag and AR term, rows in parallel."""
    mat = np.atleast_2d(np.asarray(phi, dtype=float))
    G, p = mat.shape
    alpha = np.zeros((G, H + 1))
    alpha[:, 0] = 1.0
    for h in range(1, H + 1):
        acc = np.zeros(G)
        for i in range(1, min(h, p) + 1):
            acc += mat[:, i - 1] * alpha[:, h - i]
        alpha[:, h] = acc
    return alpha


def reshape_sum_betas(alpha, cfg):
    """Detail coefficients by one reshape and two half-block sums per scale."""
    head = np.asarray(alpha, dtype=float)[..., : cfg.H]
    betas = []
    for j in range(1, cfg.J + 1):
        block, half = 1 << j, 1 << (j - 1)
        grouped = head.reshape(*head.shape[:-1], cfg.H // block, block)
        diff = grouped[..., :half].sum(axis=-1) - grouped[..., half:].sum(axis=-1)
        betas.append(diff / math.sqrt(2.0**j))
    return betas


def reshape_sum_gamma(alpha, cfg):
    head = np.asarray(alpha, dtype=float)[..., : cfg.H]
    grouped = head.reshape(*head.shape[:-1], cfg.N, 1 << cfg.J)
    return grouped.sum(axis=-1) / math.sqrt(2.0**cfg.J)


def loop_component(surface, innov, spacing):
    """The per-translate loop over full-row surfaces: one shifted copy of the
    innovations per translate, a row undefined where any copy is."""
    G, K = surface.shape
    out = np.zeros(G)
    defined = np.ones(G, dtype=bool)
    for k in range(K):
        shift = k * spacing
        shifted = np.full(G, np.nan)
        if shift < G:
            shifted[shift:] = innov[: G - shift]
        observed = np.isfinite(shifted)
        defined &= observed
        out = out + np.where(observed, surface[:, k] * shifted, 0.0)
    out[~defined] = np.nan
    return out


def make_fit(phi_rows, residuals):
    """Assemble a TVP-AR fit object directly from known coefficient rows:
    one AR(1) coefficient per residual row, or a (rows, p) matrix."""
    G = len(residuals)
    phi = np.column_stack([np.zeros(G), np.asarray(phi_rows, dtype=float)])
    p = phi.shape[1] - 1
    grid = np.arange(p + 1, G + p + 1, dtype=float) / (G + p)
    values = np.concatenate([np.zeros(p), residuals])
    return TvpArFit(
        grid=grid,
        phi=phi,
        slopes=np.zeros_like(phi),
        residuals=np.asarray(residuals, dtype=float),
        values=values,
        p=p,
        kernel=KernelSpec("epanechnikov", 0.3),
    )


# ---------------------------------------------------------------------------
# configuration and MA expansion
# ---------------------------------------------------------------------------

def test_config_sizes():
    cfg = MultiscaleConfig(J=3, N=5)
    assert cfg.H == 5 * 8
    assert [cfg.n_translates(j) for j in (1, 2, 3)] == [20, 10, 5]
    # every scale spans the same lag range: n_translates(j) * 2^j == H
    for j in (1, 2, 3):
        assert cfg.n_translates(j) * (1 << j) == cfg.H


def test_config_validation():
    with pytest.raises(ValueError):
        MultiscaleConfig(J=0, N=4)
    with pytest.raises(ValueError):
        MultiscaleConfig(J=3, N=0)
    # a float depth used to construct and fail at .H; N=2.0 gave H=16.0
    for kwargs, message in (
        ({"J": 2.5}, "J must be an integer, got 2.5"),
        ({"N": 2.0}, "N must be an integer, got 2.0"),
        ({"J": True}, "J must be an integer, got True"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            MultiscaleConfig(**kwargs)
    assert MultiscaleConfig(J=np.int64(3), N=np.int32(2)).H == 16


def test_ar_to_ma_ar1_powers():
    alpha = ar_to_ma(np.array([0.5]), 12)
    assert alpha.tolist() == [0.5**h for h in range(13)]  # lags 0..H inclusive


def test_ar_to_ma_ar2_fixture():
    alpha = ar_to_ma(np.array([0.5, -0.25]), 4)
    assert alpha.tolist() == [1.0, 0.5, 0.0, -0.125, -0.0625]


def test_ar_to_ma_matches_oracle():
    rng = np.random.default_rng(31)
    for _ in range(25):
        p = int(rng.integers(1, 5))
        phi = rng.uniform(-0.4, 0.4, size=p)  # comfortably stable
        alpha = ar_to_ma(phi, 40)
        np.testing.assert_allclose(alpha, oracle_alpha(phi, 40), rtol=1e-12, atol=1e-14)


def test_ar_to_ma_batch_matches_rows():
    rng = np.random.default_rng(32)
    rows = rng.uniform(-0.4, 0.4, size=(30, 2))
    batch = ar_to_ma(rows, 24)
    for g in range(30):
        np.testing.assert_array_equal(batch[g], ar_to_ma(rows[g], 24))


def test_ar_to_ma_refuses_an_empty_coefficient_vector():
    for phi in (np.empty(0), np.empty((3, 0))):
        with pytest.raises(ValueError, match="at least one AR coefficient"):
            ar_to_ma(phi, 8)


def test_ar_to_ma_explosive_warning():
    with pytest.warns(ExplosiveWarning):
        ar_to_ma(np.array([1.5]), 256)
    # overflow to inf - inf leaves NaN weights; they warn as well, and numpy
    # adds no overflow warnings of its own
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        alpha = ar_to_ma(np.array([10.0, -30.0, 40.0]), 512)
    assert np.isnan(alpha).any()
    assert [w.category for w in caught] == [ExplosiveWarning]


# ---------------------------------------------------------------------------
# detail and scaling coefficients
# ---------------------------------------------------------------------------

def test_beta_closed_forms_ar1_half():
    cfg = MultiscaleConfig(J=2, N=4)
    alpha = ar_to_ma(np.array([0.5]), cfg.H)
    betas, _ = haar_coefficients(alpha, cfg)
    assert betas[0][0] == pytest.approx((1.0 - 0.5) / math.sqrt(2.0), abs=1e-12)
    assert betas[0][0] == pytest.approx(0.35355339059327373, abs=1e-12)
    assert betas[0][1] == pytest.approx((0.25 - 0.125) / math.sqrt(2.0), abs=1e-12)
    assert betas[1][0] == pytest.approx(0.5625, abs=1e-12)


def test_beta_gamma_match_oracle():
    cfg = MultiscaleConfig(J=3, N=4)
    rng = np.random.default_rng(33)
    alpha = rng.standard_normal(cfg.H)
    betas, gamma = haar_coefficients(alpha, cfg)
    for j in range(1, cfg.J + 1):
        assert betas[j - 1].shape == (cfg.n_translates(j),)
        for k in range(cfg.n_translates(j)):
            assert betas[j - 1][k] == pytest.approx(oracle_beta(alpha, j, k), rel=1e-12, abs=1e-14)
    for k in range(cfg.N):
        assert gamma[k] == pytest.approx(oracle_gamma(alpha, cfg.J, k), rel=1e-12, abs=1e-14)


def test_flat_alpha_gives_zero_betas_and_sqrt2_gamma():
    cfg = MultiscaleConfig(J=1, N=4)
    alpha = np.ones(cfg.H)
    betas, gamma = haar_coefficients(alpha, cfg)
    assert np.all(betas[0] == 0.0)
    np.testing.assert_allclose(gamma, math.sqrt(2.0), rtol=1e-15)


def test_unit_impulse_beta_gamma():
    cfg = MultiscaleConfig(J=4, N=3)
    alpha = np.zeros(cfg.H)
    alpha[0] = 1.0
    betas, gamma = haar_coefficients(alpha, cfg)
    for j in range(1, cfg.J + 1):
        assert betas[j - 1][0] == pytest.approx(2.0 ** (-j / 2), rel=1e-15)
        assert np.all(betas[j - 1][1:] == 0.0)
    assert gamma[0] == pytest.approx(2.0 ** (-cfg.J / 2), rel=1e-15)
    assert np.all(gamma[1:] == 0.0)
    cfg2 = MultiscaleConfig(J=2, N=4)
    assert haar_coefficients(alpha[: cfg2.H], cfg2)[1][0] == pytest.approx(0.5, rel=1e-15)


def test_coefficient_energy_preserved():
    """Haar coefficients carry exactly the energy of the MA weights they span."""
    rng = np.random.default_rng(34)
    for _ in range(50):
        J = int(rng.integers(1, 6))
        N = int(rng.integers(1, 9))
        cfg = MultiscaleConfig(J=J, N=N)
        alpha = rng.standard_normal(cfg.H)
        assert haar_energy_gap(alpha, cfg) < 1e-12


def test_beta_gamma_linear_in_alpha():
    cfg = MultiscaleConfig(J=3, N=2)
    rng = np.random.default_rng(35)
    x = rng.standard_normal(cfg.H)
    y = rng.standard_normal(cfg.H)
    a, b = 2.5, -1.25
    combo_b, combo_g = haar_coefficients(a * x + b * y, cfg)
    bx, gx = haar_coefficients(x, cfg)
    by, gy = haar_coefficients(y, cfg)
    for j in range(cfg.J):
        np.testing.assert_allclose(combo_b[j], a * bx[j] + b * by[j], rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(combo_g, a * gx + b * gy, rtol=1e-12, atol=1e-13)


def test_alpha_too_short_rejected():
    cfg = MultiscaleConfig(J=3, N=4)
    with pytest.raises(ValueError, match="at least"):
        haar_coefficients(np.ones(cfg.H - 1), cfg)
    with pytest.raises(ValueError, match="at least"):
        haar_coefficients(np.ones((2, cfg.H - 1)), cfg)


# ---------------------------------------------------------------------------
# shock aggregates
# ---------------------------------------------------------------------------

def test_scale_innovation_first_difference_fixture():
    innov = haar_innovations(np.array([1.0, 0.0]), 1)[0][0]
    assert math.isnan(innov[0])
    assert innov[1] == pytest.approx(-1.0 / math.sqrt(2.0), rel=1e-15)


def test_constant_shocks_cancel_in_details():
    eps = np.full(40, 3.0)
    J = 3
    innovations, low = haar_innovations(eps, J)
    for j, innov in enumerate(innovations, start=1):
        defined = innov[(1 << j) - 1 :]
        np.testing.assert_allclose(defined, 0.0, atol=1e-12)
    np.testing.assert_allclose(low[(1 << J) - 1 :], 3.0 * 2.0 ** (J / 2), rtol=1e-15)


def test_scale_innovations_nan_prefix():
    eps = np.random.default_rng(36).standard_normal(50)
    innovations, low = haar_innovations(eps, 4)
    for j, innov in enumerate(innovations, start=1):
        cut = (1 << j) - 1
        assert np.all(np.isnan(innov[:cut]))
        assert np.all(np.isfinite(innov[cut:]))
    assert np.all(np.isnan(low[:15]))
    assert np.all(np.isfinite(low[15:]))


def test_shock_aggregates_match_oracle():
    rng = np.random.default_rng(37)
    eps = rng.standard_normal(60)
    J = 3
    innovations, low = haar_innovations(eps, J)
    for j in range(1, J + 1):
        for t in range((1 << j) - 1, 60):
            assert innovations[j - 1][t] == pytest.approx(
                oracle_scale_innovation(eps, j, t), rel=1e-12, abs=1e-14
            )
    for t in range((1 << J) - 1, 60):
        assert low[t] == pytest.approx(oracle_low_pass(eps, J, t), rel=1e-12, abs=1e-14)


def test_iid_shocks_uncorrelated_across_scales_and_translates():
    rng = np.random.default_rng(38)
    eps = rng.standard_normal(100_000)
    J = 4
    innovations, _ = haar_innovations(eps, J)
    start = (1 << J) - 1
    # contemporaneous cross-scale correlation vanishes
    for ja in range(1, J + 1):
        for jb in range(ja + 1, J + 1):
            a = innovations[ja - 1][start:]
            b = innovations[jb - 1][start:]
            rho = np.corrcoef(a, b)[0, 1]
            assert abs(rho) < 0.02
    # within a scale, samples a full support apart are uncorrelated
    for j in range(1, J + 1):
        x = innovations[j - 1][start:]
        lag = 1 << j
        rho = np.corrcoef(x[lag:], x[:-lag])[0, 1]
        assert abs(rho) < 3.0 / math.sqrt(len(x) - lag)
        # unit variance is preserved by the normalisation
        assert np.std(x) == pytest.approx(1.0, abs=0.02)


# ---------------------------------------------------------------------------
# components and reconstruction
# ---------------------------------------------------------------------------

def test_component_shift_semantics():
    cfg = MultiscaleConfig(J=1, N=3)
    G = 12
    rng = np.random.default_rng(39)
    eps = rng.standard_normal(G)
    betas = [np.zeros((G, cfg.n_translates(1)))]
    t0, k0 = 9, 2
    betas[0][t0, k0] = 1.0
    gamma = np.zeros((G, cfg.N))
    innovations, low = haar_innovations(eps, cfg.J)
    comps, residual = scale_components(betas, gamma, innovations, low, cfg)
    assert comps[0][t0] == pytest.approx(innovations[0][t0 - k0 * 2], rel=1e-15)
    defined = np.isfinite(residual)
    np.testing.assert_allclose(residual[defined], 0.0, atol=0.0)


def test_components_zero_for_zero_shocks():
    cfg = MultiscaleConfig(J=2, N=2)
    decomp = decompose(make_fit(np.full(30, 0.5), np.zeros(30)), cfg)
    for comp in decomp.components:
        finite = comp[np.isfinite(comp)]
        np.testing.assert_allclose(finite, 0.0, atol=0.0)
    finite = decomp.residual_component[np.isfinite(decomp.residual_component)]
    np.testing.assert_allclose(finite, 0.0, atol=0.0)


def test_components_defined_exactly_from_full_history():
    cfg = MultiscaleConfig(J=3, N=2)
    G = cfg.H + 25
    rng = np.random.default_rng(40)
    decomp = decompose(make_fit(np.full(G, 0.4), rng.standard_normal(G)), cfg)
    for comp in decomp.components + [decomp.residual_component]:
        assert np.all(np.isnan(comp[: cfg.H - 1]))
        assert np.all(np.isfinite(comp[cfg.H - 1 :]))


def test_reconstruction_matches_truncated_moving_average():
    """Summing the per-scale components reproduces the truncated MA applied
    to the original shocks, computed here by direct double loops."""
    cfg = MultiscaleConfig(J=3, N=2)
    H = cfg.H
    G = H + 40
    rng = np.random.default_rng(41)
    phi1 = rng.uniform(-0.6, 0.6, size=G)
    eps = rng.standard_normal(G)
    fit = make_fit(phi1, eps)
    decomp = decompose(fit, cfg)
    total = np.sum(decomp.components, axis=0) + decomp.residual_component
    for t in range(H - 1, G):
        alpha_t = oracle_alpha([phi1[t]], H)
        truth = sum(alpha_t[h] * eps[t - h] for h in range(H))
        assert total[t] == pytest.approx(truth, rel=1e-10, abs=1e-10)


def test_decompose_static_agrees_with_constant_rows():
    """EWD's static route, one AR row inverted once with its Haar
    coefficients broadcast over the rows as `_multiscale_points` does,
    agrees with `decompose` of a fit whose rows all hold that AR row."""
    cfg = MultiscaleConfig(J=2, N=3)
    rng = np.random.default_rng(42)
    eps = rng.standard_normal(cfg.H + 10)
    rows = len(eps)
    betas, gamma = haar_coefficients(ar_to_ma(np.array([0.45]), cfg.H), cfg)
    betas = [np.broadcast_to(b, (rows, len(b))) for b in betas]
    gamma = np.broadcast_to(gamma, (rows, len(gamma)))
    innovations, low_pass = haar_innovations(eps, cfg.J)
    static, _ = scale_components(betas, gamma, innovations, low_pass, cfg)
    varying = decompose(make_fit(np.full(rows, 0.45), eps), cfg)
    for j in range(cfg.J):
        np.testing.assert_array_equal(betas[j], varying.betas[j])
        np.testing.assert_array_equal(np.isnan(static[j]), np.isnan(varying.components[j]))
        mask = np.isfinite(static[j])
        np.testing.assert_allclose(static[j][mask], varying.components[j][mask], rtol=1e-12)


def one_window_chain(phi, residuals, centered, trend, cfg):
    """The multiscale chain of one window, a stack of one: its forecasts, or
    the failure it returns."""
    ((result,),) = _multiscale_points([([(phi, residuals, centered, trend)], HORIZONS)], cfg)
    return result


def test_decompose_static_inverts_once_and_equals_row_route():
    """The multiscale chain given one AR row, whose MA weights and Haar
    coefficients it broadcasts, gives bitwise the forecasts of the AR row
    repeated on every row, each row inverted, on every residual row or on
    the trailing rows."""
    rng = np.random.default_rng(46)
    for J, N, p in ((1, 1, 1), (3, 2, 2), (5, 4, 6), (7, 4, 3)):
        cfg = MultiscaleConfig(J=J, N=N)
        phi = rng.uniform(-0.3, 0.3, p)
        eps = rng.standard_normal(cfg.H + 50)
        for rows in (len(eps), len(eps) - cfg.first_full_row(len(eps))):
            centered = rng.standard_normal(rows)
            once = one_window_chain(phi, eps, centered, 0.3, cfg)
            route = one_window_chain(np.broadcast_to(phi, (rows, p)), eps, centered, 0.3, cfg)
            assert {h: v.hex() for h, v in once.items()} == {h: v.hex() for h, v in route.items()}


@pytest.mark.parametrize("per_row", [False, True])
def test_the_forecast_chain_warns_once_per_explosive_slice(monkeypatch, per_row):
    """The multiscale chain inverts a stack of windows two at a time.  Three
    windows hold an explosive AR row, in two slices: it warns twice, each
    warning naming its slice's largest sum |alpha|, once per slice and not
    once per window, and every window's forecasts or failure are those of
    a one-window call.  Each window holds one AR row (EWD), or one per
    decomposed row, of which one is explosive (TVEWD)."""
    cfg = MultiscaleConfig(J=3, N=2)
    G, B = cfg.H + 10, 6
    R = G - cfg.first_full_row(G)
    rng = np.random.default_rng(51)
    phi = rng.uniform(-0.5, 0.5, (B, R, 1) if per_row else (B, 1))
    explosive = {1: 10.0, 4: 20.0, 5: 30.0}  # slices {0, 1}, {2, 3} and {4, 5}
    for i, value in explosive.items():
        phi[i].flat[-1] = value  # the window's one row, or its boundary row
    residuals = rng.standard_normal((B, G))
    centered = rng.standard_normal((B, R))
    trend = rng.uniform(5.0, 15.0, B)
    monkeypatch.setattr(wold, "WOLD_BLOCK_BYTES", 2 * 8 * (cfg.H + 1) * R)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        (stacked,) = _multiscale_points([(list(zip(phi, residuals, centered, trend)), HORIZONS)], cfg)
    largest = [float(np.abs(loop_ar_to_ma([explosive[i]], cfg.H)).sum()) for i in (1, 5)]
    assert [w.category for w in caught] == [ExplosiveWarning] * 2
    for w, total in zip(caught, largest):
        assert str(w.message).startswith(f"MA weights exceed overflow guard (max sum |alpha| = {total:.3g})")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExplosiveWarning)
        for i, got in enumerate(stacked):
            want = one_window_chain(phi[i], residuals[i], centered[i], trend[i], cfg)
            if isinstance(want, EstimationError):
                assert isinstance(got, EstimationError) and str(got) == str(want)
            else:
                assert {h: v.hex() for h, v in got.items()} == {h: v.hex() for h, v in want.items()}


def test_tvewd_and_ewd_rows_share_a_slice_and_warn_once_for_it(monkeypatch):
    """Two chains over one block of four windows, two a slice: TVEWD's, an
    AR row per decomposed row, and EWD's, one broadcast OLS row, each with
    an explosive row in window 1.  Run apart, each chain inverts its slices
    on its own and warns for the first, twice in all; run as one pass, each
    slice inverts both chains' rows in one `ar_to_ma` call, and the first
    slice warns once, naming the larger sum |alpha|, EWD's.  Each chain's
    forecasts and failures are those of its own pass, bit for bit."""
    cfg = MultiscaleConfig(J=3, N=2)
    G, B = cfg.H + 10, 4
    R = G - cfg.first_full_row(G)
    rng = np.random.default_rng(52)
    per_row = rng.uniform(-0.5, 0.5, (B, R, 1))
    one_row = rng.uniform(-0.5, 0.5, (B, 1))
    per_row[1, -1], one_row[1] = 10.0, 20.0

    def chain(phi):
        return list(zip(phi, rng.standard_normal((B, G)), rng.standard_normal((B, R)), rng.uniform(5.0, 15.0, B)))

    tvewd, ewd = chain(per_row), chain(one_row)
    monkeypatch.setattr(wold, "WOLD_BLOCK_BYTES", 2 * 8 * (cfg.H + 1) * R)
    inverted = []
    monkeypatch.setattr(forecast, "ar_to_ma", lambda phi, H: inverted.append(len(phi)) or ar_to_ma(phi, H))
    with warnings.catch_warnings(record=True) as apart:
        warnings.simplefilter("always")
        alone = [_multiscale_points([(windows, HORIZONS)], cfg)[0] for windows in (tvewd, ewd)]
    assert inverted == [2 * R, 2 * R, 2, 2]
    with warnings.catch_warnings(record=True) as joint:
        warnings.simplefilter("always")
        together = _multiscale_points([(tvewd, HORIZONS), (ewd, HORIZONS)], cfg)
    assert inverted[4:] == [2 * R + 2, 2 * R + 2]
    assert [w.category for w in apart] == [ExplosiveWarning] * 2
    assert [w.category for w in joint] == [ExplosiveWarning]
    largest = float(np.abs(loop_ar_to_ma([20.0], cfg.H)).sum())
    assert str(joint[0].message).startswith(f"MA weights exceed overflow guard (max sum |alpha| = {largest:.3g})")
    for got, want in zip(together, alone):
        for g, w in zip(got, want):
            if isinstance(w, Exception):
                assert type(g) is type(w) and str(g) == str(w)
            else:
                assert {h: v.hex() for h, v in g.items()} == {h: v.hex() for h, v in w.items()}


def test_ewd_warns_once_for_an_explosive_ols_row():
    """Near an unstable fixed point, tiny shocks grow by 1.06 a day, so the
    OLS AR(1) row is explosive over the 512 lags: EWD inverts it once and
    warns once."""
    rng = np.random.default_rng(47)
    v = np.empty(600)
    v[0] = 10.0
    for t in range(1, len(v)):
        v[t] = 10.0 * (1 - 1.06) + 1.06 * v[t - 1] + 1e-14 * rng.standard_normal()
    assert _ols_ar(v, 1)[0][1] > 1.05
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ewd_static_forecast(v, 1, MultiscaleConfig(J=7, N=4), HORIZONS)
    assert [w.category for w in caught] == [ExplosiveWarning]
    assert str(caught[0].message).startswith("MA weights exceed overflow guard")


def test_decompose_rejects_misaligned_inputs():
    v = np.cumsum(np.random.default_rng(43).standard_normal(600)) * 0.1 + 10
    cfg = MultiscaleConfig(J=2, N=2)
    good = fit_tvp_ar(v, 1, KernelSpec("epanechnikov", 0.3))
    with pytest.raises(ValueError, match="dates"):
        decompose(good, cfg, dates=np.arange(3))


def test_overflowing_row_is_nan_and_left_out_of_weights():
    """An explosive row whose MA weights overflow yields non-finite
    components, which the weight regression drops; other rows are untouched.
    Each block holding an explosive row warns once, naming its largest
    sum |alpha|.  The rows at 1.1 come before the first full row, H - 1."""
    cfg = MultiscaleConfig(J=7, N=4)
    G = cfg.H + 60
    size = wold.WOLD_BLOCK_BYTES // (8 * (cfg.H + 1))
    assert size == 255  # blocks of rows 0-254, 255-509 and 510-571
    rng = np.random.default_rng(48)
    eps = rng.standard_normal(G)
    phi1 = rng.uniform(-0.5, 0.5, G)
    clean = decompose(make_fit(phi1, eps), cfg)
    y = rng.standard_normal(G)
    bad = cfg.H + 20
    for explosive in (
        {bad: 5.0},  # 5^h overflows to inf from h = 441, inside the 512 lags
        {100: 1.1, bad: 5.0},  # the first and the last block: one warning each
        {510: 1.1, bad: 5.0},  # one block, one warning
    ):
        phi = phi1.copy()
        phi[list(explosive)] = list(explosive.values())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            decomp = decompose(make_fit(phi, eps), cfg)
        # the ExplosiveWarnings alone report the rows: no numpy overflow warnings
        with np.errstate(over="ignore"):
            totals = {row: float(np.abs(loop_ar_to_ma([value], cfg.H)).sum()) for row, value in explosive.items()}
        largest = {}
        for row, total in totals.items():
            largest[row // size] = max(largest.get(row // size, 0.0), total)
        assert [w.category for w in caught] == [ExplosiveWarning] * len(largest)
        for w, (_, total) in zip(caught, sorted(largest.items())):
            assert str(w.message).startswith(f"MA weights exceed overflow guard (max sum |alpha| = {total:.3g})")
        others = ~np.isin(np.arange(G), list(explosive))
        for comp, ok in zip(decomp.components, clean.components):
            assert np.isnan(comp[bad])
            np.testing.assert_array_equal(comp[others], ok[others])
        assert not np.isfinite(decomp.residual_component[bad])
        got = estimate_weights(y, decomp.components)
        assert got.n_rows == G - (cfg.H - 1) - 1
        want = estimate_weights(np.where(np.arange(G) == bad, np.nan, y), clean.components)
        np.testing.assert_array_equal(got.weights, want.weights)


def whole_array_chain(fit, cfg):
    """The Wold step over every row at once, then the components."""
    betas, gamma = haar_coefficients(ar_to_ma(fit.phi[:, 1:], cfg.H), cfg)
    innovations, low_pass = haar_innovations(fit.residuals, cfg.J)
    components, residual = scale_components(betas, gamma, innovations, low_pass, cfg)
    return [*betas, gamma, *innovations, low_pass, *components, residual]


BLOCK_G = 40


@pytest.mark.parametrize("size", [1, 2, 7, BLOCK_G - 1, BLOCK_G, BLOCK_G + 5])
@pytest.mark.parametrize("p", [1, 3])
def test_row_blocks_equal_the_whole_array_chain(monkeypatch, size, p):
    """`decompose` inverts blocks of `size` rows and gives every array bit for
    bit as the whole-array chain, with an explosive row on each side of the
    first block edge and a NaN residual."""
    cfg = MultiscaleConfig(J=3, N=2)
    rng = np.random.default_rng(49)
    phi = rng.uniform(-0.3, 0.3, (BLOCK_G, p))
    phi[[size - 1, size] if size < BLOCK_G else [BLOCK_G - 1], 0] = 1e25  # overflows within the 16 lags
    eps = rng.standard_normal(BLOCK_G)
    eps[30] = np.nan
    fit = make_fit(phi, eps)
    calls = []

    def counted(phi_rows, H):
        calls.append(len(phi_rows))
        return ar_to_ma(phi_rows, H)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExplosiveWarning)
        want = whole_array_chain(fit, cfg)
        monkeypatch.setattr(wold, "WOLD_BLOCK_BYTES", size * 8 * (cfg.H + 1))
        monkeypatch.setattr(wold, "ar_to_ma", counted)
        decomp = decompose(fit, cfg)
    assert calls == [min(size, BLOCK_G - start) for start in range(0, BLOCK_G, size)]
    got = [*decomp.betas, decomp.gamma, *decomp.innovations, decomp.low_pass,
           *decomp.components, decomp.residual_component]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()
    assert np.isnan(decomp.components[0][30:]).all()


def test_decompose_memory_is_its_output_and_a_few_blocks(monkeypatch):
    """Past the arrays it returns, `decompose` holds a few blocks of MA
    weights, however many rows the fit has.  Both sizes stay below H rows,
    so no component has a full history and `scale_components`, which works
    on whole arrays, makes no window product."""
    cfg = MultiscaleConfig(J=7, N=4)
    budget = 4 * 8 * (cfg.H + 1)  # four rows a block
    monkeypatch.setattr(wold, "WOLD_BLOCK_BYTES", budget)
    rng = np.random.default_rng(50)
    for G in (120, 480):
        fit = make_fit(rng.uniform(-0.5, 0.5, (G, 2)), rng.standard_normal(G))
        tracemalloc.start()
        try:
            decomp = decompose(fit, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = [*decomp.betas, decomp.gamma, *decomp.innovations, decomp.low_pass,
                    *decomp.components, decomp.residual_component]
        assert peak - sum(a.nbytes for a in returned) < 6 * budget, G


# ---------------------------------------------------------------------------
# fast paths against the loops and exact arithmetic
# ---------------------------------------------------------------------------

def stable_phi(rng, p, modulus):
    """AR(p) coefficients whose characteristic roots have modulus <= `modulus`,
    drawn as real roots and complex-conjugate pairs."""
    roots = []
    while len(roots) < p:
        r = modulus * rng.uniform(0.0, 1.0)
        if p - len(roots) >= 2 and rng.uniform() < 0.5:
            theta = rng.uniform(0.0, math.pi)
            roots += [r * np.exp(1j * theta), r * np.exp(-1j * theta)]
        else:
            roots.append(r * rng.choice([-1.0, 1.0]))
    return -np.real(np.poly(roots))[1:]


def exact_alpha(phi, H):
    """MA weights by the recursion in exact rational arithmetic on the float inputs."""
    f = [Fraction(float(x)) for x in phi]
    a = [Fraction(1)]
    for h in range(1, H + 1):
        a.append(sum((f[i] * a[h - 1 - i] for i in range(min(h, len(f)))), Fraction(0)))
    return a


SEEDS = st.integers(0, 2**32 - 1)


def recursion_error_bound(phi, alpha):
    """Running error bound on the computed alpha, one per lag (Higham,
    "Accuracy and Stability of Numerical Algorithms", 2nd ed., section 3.3).

    Lag h forms m = min(h, p) products z_i = fl(phi_i alpha(h-i)) and adds
    them in order into s_1 = z_1, s_k = fl(s_(k-1) + z_k).  Each rounding
    errs by at most u times its computed result, so the local error
    d(h) = alpha(h) - sum_i phi_i alpha(h-i) of the computed weights obeys
    |d(h)| <= mu(h) = u (sum_i |z_i| + sum_(k>=2) |s_k|), plus 2^-1074 per
    operation in case of underflow.  The error e = alpha - exact follows
    e(h) = sum_i phi_i e(h-i) + d(h), whose impulse response is the exact
    alpha itself, so |e(h)| <= sum_k |exact(h-k)| mu(k) with |exact(j)| <=
    |alpha(j)| + E(j):  E(h) = sum_(k=1..h) (|alpha(h-k)| + E(h-k)) mu(k).
    The factor 2 covers the rounding of this float evaluation of E.
    """
    p = len(phi)
    u = 2.0**-53
    a = np.abs(alpha)
    mu = np.zeros(len(alpha))
    for h in range(1, len(alpha)):
        z = phi[: min(h, p)] * alpha[h - 1 :: -1][: min(h, p)]
        s = np.cumsum(z)
        mu[h] = u * (np.sum(np.abs(z)) + np.sum(np.abs(s[1:]))) + 2 * len(z) * 2.0**-1074
    bound = np.zeros(len(alpha))
    for h in range(1, len(alpha)):
        bound[h] = (a[h - 1 :: -1] + bound[h - 1 :: -1]) @ mu[1 : h + 1]
    return 2.0 * bound


@settings(max_examples=40, deadline=None)
@given(p=st.integers(1, 12), modulus=st.floats(0.05, 0.99), seed=SEEDS)
@example(p=11, modulus=0.9375, seed=49201)  # near the unit circle: 8.3e-10 off, within its bound
def test_ar_to_ma_matches_exact_rational_recursion(p, modulus, seed):
    phi = stable_phi(np.random.default_rng(seed), p, modulus)
    H = 128
    exact = exact_alpha(phi, H)
    alpha = ar_to_ma(phi, H)
    gaps = [float(abs(Fraction(float(x)) - a)) for x, a in zip(alpha, exact)]
    assert np.all(np.array(gaps) <= recursion_error_bound(phi, alpha))


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(1, 12),
    G=st.one_of(st.integers(1, 12), st.sampled_from([187, 694])),
    seed=SEEDS,
)
@example(p=8, G=1, seed=0)  # one row at p >= 8: numpy would sum a contiguous axis pairwise
@example(p=12, G=2, seed=0)
def test_ar_to_ma_batch_equals_rows_and_the_lag_loop(p, G, seed):
    rng = np.random.default_rng(seed)
    rows = np.stack([stable_phi(rng, p, rng.uniform(0.05, 0.99)) for _ in range(G)])
    H = 512
    batch = ar_to_ma(rows, H)
    np.testing.assert_array_equal(batch, loop_ar_to_ma(rows, H))
    for g in {0, G // 2, G - 1}:
        np.testing.assert_array_equal(batch[g], ar_to_ma(rows[g], H))


@settings(max_examples=60, deadline=None)
@given(
    J=st.integers(1, 7),
    N=st.integers(1, 6),
    G=st.integers(1, 4),
    extra=st.integers(0, 3),
    log_scale=st.floats(-3.0, 3.0),
    seed=SEEDS,
)
def test_haar_pyramid_matches_reshape_sums_and_keeps_energy(J, N, G, extra, log_scale, seed):
    cfg = MultiscaleConfig(J=J, N=N)
    rng = np.random.default_rng(seed)
    alpha = rng.standard_normal((G, cfg.H + extra)) * 10.0**log_scale
    betas, gamma = haar_coefficients(alpha, cfg)
    got = betas + [gamma]
    want = reshape_sum_betas(alpha, cfg) + [reshape_sum_gamma(alpha, cfg)]
    tol = 1e-14 * np.abs(alpha[:, : cfg.H]).sum(axis=1, keepdims=True)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.all(np.abs(g - w) <= tol)
    for g in range(G):
        assert haar_energy_gap(alpha[g], cfg) < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    J=st.integers(1, 5),
    N=st.integers(1, 4),
    extra=st.integers(-20, 40),
    start_share=st.floats(0.0, 1.0),
    seed=SEEDS,
)
def test_components_match_translate_loop(J, N, extra, start_share, seed):
    cfg = MultiscaleConfig(J=J, N=N)
    G = max(cfg.H + extra, 1)
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(G)
    betas = [rng.standard_normal((G, cfg.n_translates(j))) for j in range(1, J + 1)]
    gamma = rng.standard_normal((G, N))
    innovations, low = haar_innovations(eps, J)
    comps, residual = scale_components(betas, gamma, innovations, low, cfg)
    surfaces = betas + [gamma]
    series = innovations + [low]
    spacings = [1 << j for j in range(1, J + 1)] + [1 << J]
    for got, surface, innov, spacing in zip(comps + [residual], surfaces, series, spacings):
        want = loop_component(surface, innov, spacing)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        np.testing.assert_array_equal(np.isnan(got), np.arange(G) < cfg.H - 1)
        defined = ~np.isnan(want)
        np.testing.assert_allclose(got[defined], want[defined], rtol=1e-12, atol=1e-12)
    # trailing surfaces give the trailing rows of the full components, bit for bit
    start = int(start_share * (G - 1))
    tail, tail_residual = scale_components(
        [b[start:] for b in betas], gamma[start:], innovations, low, cfg
    )
    for got, full in zip(tail + [tail_residual], comps + [residual]):
        np.testing.assert_array_equal(got, full[start:])


def simulated_window(seed, T, phi=0.7, level=5.0):
    rng = np.random.default_rng(seed)
    v = np.empty(T)
    v[0] = level
    for t in range(1, T):
        v[t] = level * (1 - phi) + phi * v[t - 1] + rng.standard_normal()
    return v


def multiscale_forecasts(decomp, weights, trend, horizons):
    J = decomp.config.J
    return {
        h: combine_forecast(
            trend,
            weights.weights,
            np.array(
                [
                    forecast_scale(decomp.betas[j - 1][-1], decomp.innovations[j - 1], j, h)
                    for j in range(1, J + 1)
                ]
            ),
        )
        for h in horizons
    }


HORIZONS = (1, 5, 22)


@pytest.mark.parametrize("p", [1, 2, 6])
@settings(max_examples=6, deadline=None)
@given(
    extra=st.integers(40, 200),
    family=st.sampled_from(KERNEL_FAMILIES),
    seed=SEEDS,
)
def test_trailing_row_forecasts_equal_full_row_route(p, extra, family, seed):
    """TVEWD decomposes only rows t >= H-1; its forecasts equal, bit for bit,
    the route that decomposes every residual row."""
    scales = MultiscaleConfig(J=5, N=4)
    values = simulated_window(seed, scales.H + p + extra)
    kernel = KernelSpec(family, 0.3)
    forecasts = tvewd_forecast_window(values, p, kernel, scales, HORIZONS)
    fit = fit_tvp_ar(values, p, kernel)
    trend = local_level(fit.values, fit.kernel)
    full = decompose(fit, scales)
    weights = estimate_weights((fit.values - trend)[p:], full.components)
    route = multiscale_forecasts(full, weights, float(trend[-1]), HORIZONS)
    assert forecasts == route


@pytest.mark.parametrize("p", [1, 2, 6])
@settings(max_examples=4, deadline=None)
@given(extra=st.integers(40, 200), seed=SEEDS)
def test_ewd_forecasts_equal_the_static_chain(p, extra, seed):
    """EWD is the multiscale chain on the global OLS AR(p) fit, centred on the
    OLS trend line; its forecasts equal that chain built step by step, bit for bit."""
    scales = MultiscaleConfig(J=5, N=4)
    values = simulated_window(seed, scales.H + p + extra)
    T = len(values)
    coef, residuals = _ols_ar(values, p)
    tau = np.arange(1, T + 1, dtype=float) / T
    line = np.linalg.lstsq(np.column_stack([np.ones(T), tau]), values, rcond=None)[0]
    trend_curve = line[0] + line[1] * tau
    decomp = decompose(make_fit(np.tile(coef[1:], (len(residuals), 1)), residuals), scales)
    weights = estimate_weights(values[p:] - trend_curve[p:], decomp.components)
    route = multiscale_forecasts(decomp, weights, float(trend_curve[-1]), HORIZONS)
    assert ewd_static_forecast(values, p, scales, HORIZONS) == route


# ---------------------------------------------------------------------------
# persistence shares
# ---------------------------------------------------------------------------

def white_noise_decomp(J=7, N=4, G=10):
    cfg = MultiscaleConfig(J=J, N=N)
    return decompose(make_fit(np.zeros(G), np.ones(G)), cfg)


def test_share_of_scale_one_for_uncorrelated_series():
    """With no serial correlation the scale-j loading is 2^(-j/2), so scale 1
    holds |b_1| / sum_j |b_j| = 0.3212916575362731 of the mass at depth 7."""
    shares = persistence_shares(white_noise_decomp(), mode="absolute")
    np.testing.assert_allclose(shares.shares[:, 0], 0.3212916575362731, atol=1e-12)
    expected = 2.0 ** (-1 / 2) / sum(2.0 ** (-j / 2) for j in range(1, 8))
    assert shares.shares[0, 0] == pytest.approx(expected, abs=1e-15)


def test_shares_sum_to_one_in_both_modes():
    cfg = MultiscaleConfig(J=4, N=2)
    rng = np.random.default_rng(44)
    phi1 = rng.uniform(-0.5, 0.8, size=60)
    decomp = decompose(make_fit(phi1, rng.standard_normal(60)), cfg)
    for mode in ("absolute", "signed"):
        shares = persistence_shares(decomp, mode=mode)
        np.testing.assert_allclose(shares.shares.sum(axis=1), 1.0, rtol=1e-10)
        if mode == "absolute":
            assert np.all(shares.shares >= 0.0)
            assert np.all(shares.shares <= 1.0 + 1e-12)


def test_single_scale_loading_takes_full_share():
    cfg = MultiscaleConfig(J=3, N=2)
    alpha = np.zeros(cfg.H)
    alpha[0], alpha[1] = 1.0, -1.0  # loads only the finest detail scale
    G = 4
    rows = np.tile(alpha, (G, 1))
    betas, gamma = haar_coefficients(rows, cfg)
    decomp = MultiscaleDecomposition(
        config=cfg,
        grid=np.linspace(0.25, 1.0, G),
        betas=betas,
        gamma=gamma,
        innovations=[np.zeros(G)] * cfg.J,
        low_pass=np.zeros(G),
        components=[np.zeros(G)] * cfg.J,
        residual_component=np.zeros(G),
    )
    shares = persistence_shares(decomp, mode="absolute")
    np.testing.assert_allclose(shares.shares[:, 0], 1.0, rtol=1e-15)
    np.testing.assert_allclose(shares.shares[:, 1:], 0.0, atol=1e-15)
    assert not shares.flagged.any()


def test_zero_denominator_flagged_and_nan():
    cfg = MultiscaleConfig(J=2, N=2)
    decomp = decompose(make_fit(np.ones(12), np.ones(12)), cfg)  # flat weights
    shares = persistence_shares(decomp, mode="absolute")
    assert shares.flagged.all()
    assert np.all(np.isnan(shares.shares))


def test_signed_negative_denominator_flagged():
    cfg = MultiscaleConfig(J=2, N=1)
    alpha = np.zeros(cfg.H)
    alpha[0], alpha[1] = -1.0, 1.0  # beta_1(0) < 0 dominates
    rows = np.tile(alpha, (3, 1))
    betas, gamma = haar_coefficients(rows, cfg)
    decomp = MultiscaleDecomposition(
        config=cfg,
        grid=np.linspace(0.5, 1.0, 3),
        betas=betas,
        gamma=gamma,
        innovations=[np.zeros(3)] * cfg.J,
        low_pass=np.zeros(3),
        components=[np.zeros(3)] * cfg.J,
        residual_component=np.zeros(3),
    )
    shares = persistence_shares(decomp, mode="signed")
    assert shares.flagged.all()
    np.testing.assert_allclose(shares.shares.sum(axis=1), 1.0, rtol=1e-12)
    unsigned = persistence_shares(decomp, mode="absolute")
    assert not unsigned.flagged.any()


def test_share_options_validated():
    decomp = white_noise_decomp(J=2, N=2, G=6)
    with pytest.raises(ValueError, match="mode"):
        persistence_shares(decomp, mode="squared")
    with pytest.raises(ValueError, match="k_index"):
        persistence_shares(decomp, k_index=10)
    # a negative index would read each scale's last translate, whose lag
    # differs from scale to scale
    with pytest.raises(ValueError, match="k_index must be >= 0, got -1"):
        persistence_shares(decomp, k_index=-1)
    # 1.5 used to raise IndexError and True a numpy concatenation error
    for k_index in (1.5, True):
        with pytest.raises(ValueError, match=f"^k_index must be an integer, got {k_index}$"):
            persistence_shares(decomp, k_index=k_index)
    assert persistence_shares(decomp, k_index=np.int64(1)).k_index == 1


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def test_store_beta_surface(tmp_path):
    cfg = MultiscaleConfig(J=2, N=2)
    rng = np.random.default_rng(45)
    decomp = decompose(make_fit(np.full(12, 0.5), rng.standard_normal(12)), cfg)
    path = str(tmp_path / "beta.csv")
    store_beta_surface(decomp, path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "u,j,k,beta"
    expected_rows = decomp.n_rows * sum(cfg.n_translates(j) for j in (1, 2))
    assert len(lines) == 1 + expected_rows
    u, j, k, beta = lines[1].split(",")
    assert float(u) == decomp.grid[0]
    assert (int(j), int(k)) == (1, 0)
    assert float(beta) == decomp.betas[0][0, 0]


def test_store_shares(tmp_path):
    shares = persistence_shares(white_noise_decomp(J=3, N=2, G=5))
    path = str(tmp_path / "shares.csv")
    store_shares(shares, path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "date,j,share"
    assert len(lines) == 1 + 5 * 3
    date, j, share = lines[1].split(",")
    assert date == "0"  # row-index fallback when no dates attached
    assert int(j) == 1
    assert float(share) == shares.shares[0, 0]
