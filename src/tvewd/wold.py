"""Multiscale (dyadic) decomposition of a moving-average shock structure.

Given the MA(inf) representation v_t = sum_h alpha(h) eps_{t-h} implied by
an AR fit, the shock weights alpha are re-expressed on an orthonormal Haar
system of depth J over the truncation window of H = N * 2^J lags:

    beta_j(k)  = 2^(-j/2) * (sum_{i<2^(j-1)} alpha(k 2^j + i)
                             - sum_{i<2^(j-1)} alpha(k 2^j + 2^(j-1) + i))
    gamma_J(k) = 2^(-J/2) * sum_{i<2^J} alpha(k 2^J + i)

with matching scale innovations built from the same windows of eps.  Scale
j holds 2^(J-j) * N translates k (spacing 2^j) and the depth-J scaling
(low-pass) part holds N translates (spacing 2^J); together they form a
complete orthonormal basis of the H-lag window, so the per-scale components
plus the low-pass residual reconstruct the truncated MA output exactly and
the coefficient energy matches sum_h alpha(h)^2 exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .locreg import TvpArFit
from .series import _check_integer, format_value, write_csv

__all__ = [
    "ExplosiveWarning",
    "MultiscaleConfig",
    "MultiscaleDecomposition",
    "PersistenceShares",
    "ar_to_ma",
    "haar_coefficients",
    "haar_innovations",
    "scale_components",
    "decompose",
    "persistence_shares",
    "haar_energy_gap",
]

ABS_ALPHA_GUARD = 1e12
# Bytes of MA weights in one block of `decompose`, which inverts and
# Haar-transforms the fit's rows block by block, so the Wold step's working
# memory stays bounded however many rows the fit has.
WOLD_BLOCK_BYTES = 1 << 20
# MA weights of an explosive row overflow to inf, and the Haar sums and
# components built from them to inf or NaN.  That is their defined value:
# ar_to_ma's ExplosiveWarning and the NaN components report such rows, so
# the Wold step silences numpy's own overflow and invalid-value warnings.
_EXPLOSIVE = {"over": "ignore", "invalid": "ignore"}


class ExplosiveWarning(UserWarning):
    """Emitted when MA weights from an explosive AR exceed the overflow guard."""


@dataclass(frozen=True)
class MultiscaleConfig:
    """Decomposition depth J and coarsest-scale translate count N.

    The lag truncation is H = N * 2^J; scale j carries 2^(J-j) * N
    coefficients so that every scale spans the same H-lag window.
    """

    J: int = 7
    N: int = 4

    def __post_init__(self):
        _check_integer(self.J, "J")
        _check_integer(self.N, "N")
        if self.J < 1:
            raise ValueError(f"J must be >= 1, got {self.J}")
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")

    @property
    def H(self) -> int:
        return self.N * (1 << self.J)

    def n_translates(self, j: int) -> int:
        """Number of stored translates at scale j (1 <= j <= J)."""
        return self.N << (self.J - j)

    def first_full_row(self, n_rows: int) -> int:
        """First of n_rows residual rows with a full H-lag shock history.

        Components are defined exactly on rows t >= H - 1.  When no row has
        a full history this is the last row, whose coefficients a forecast
        still reads.
        """
        return max(min(self.H, n_rows) - 1, 0)


def ar_to_ma(phi: np.ndarray, H: int) -> np.ndarray:
    """Invert AR coefficients to MA weights alpha(0..H).

    alpha(0) = 1 and alpha(h) = sum_{i=1..min(h,p)} phi_i alpha(h-i).
    Accepts a (p,) vector or a (G, p) matrix of rows, p >= 1; returns
    matching (H+1,) or (G, H+1).  Explosive inputs are allowed but trigger
    an ExplosiveWarning once sum |alpha| exceeds the overflow guard or is
    NaN (weights that overflowed to inf - inf).

    The recursion runs on a lag-major (H+p, G) buffer whose first p-1 rows
    are zero, so each lag is one reduction over the p products of every
    row.  The reduction adds i = 1..p in order; the zero-padded terms add
    exact zeros, so each row's bits equal the scalar recursion's.  The
    buffer has at least two columns: with one, the reduction axis would be
    contiguous and numpy would sum it pairwise, which reorders the terms
    once p >= 8.
    """
    if H < 0:
        raise ValueError(f"H must be >= 0, got {H}")
    phi = np.asarray(phi, dtype=float)
    single = phi.ndim == 1
    mat = phi[None, :] if single else phi
    G, p = mat.shape
    if p < 1:
        raise ValueError("phi must hold at least one AR coefficient per row")
    width = max(G, 2)
    lags = np.zeros((H + p, width))
    lags[p - 1] = 1.0
    cols = np.zeros((p, width))
    cols[:, :G] = mat.T
    terms = np.empty((p, width))
    with np.errstate(**_EXPLOSIVE):
        for r in range(p, H + p):
            # rows r-1, r-2, ..., r-p hold alpha(h-1), ..., alpha(h-p) for h = r-p+1
            stop = r - p - 1 if r > p else None
            np.multiply(cols, lags[r - 1 : stop : -1], out=terms)
            np.add.reduce(terms, axis=0, out=lags[r])
        # row-major like its input, so a row of alpha and of its betas is contiguous
        alpha = np.ascontiguousarray(lags[p - 1 :, :G].T)
        del lags, terms  # so the guard holds no (G, H+1) array but alpha and its |alpha|
        total = np.sum(np.abs(alpha), axis=1)
    if not np.all(total <= ABS_ALPHA_GUARD):
        warnings.warn(
            f"MA weights exceed overflow guard (max sum |alpha| = {float(np.max(total)):.3g}); "
            "AR is explosive over the truncation window",
            ExplosiveWarning,
            stacklevel=2,
        )
    return alpha[0] if single else alpha


def _haar_factor(j: int) -> float:
    return 1.0 / math.sqrt(float(1 << j))


def haar_coefficients(
    alpha: np.ndarray, config: MultiscaleConfig
) -> tuple[list[np.ndarray], np.ndarray]:
    """Detail coefficients beta_j(k) for j = 1..J and scaling coefficients gamma_J(k).

    alpha may be (H',) or (G, H') with H' >= config.H; only its first H
    weights enter.  beta_j has trailing axis config.n_translates(j) and
    gamma_J trailing axis N.  One Haar pyramid of pairwise sums: s_0 =
    alpha, and at scale j the even and odd entries of s_{j-1} (the sums
    over the two halves of each 2^j block) give beta_j = 2^(-j/2) (even -
    odd) and s_j = even + odd, so a row costs O(H) work over all scales;
    gamma_J = 2^(-J/2) s_J.
    """
    alpha = np.asarray(alpha, dtype=float)
    H = config.H
    if alpha.shape[-1] < H:
        raise ValueError(f"alpha must provide at least H={H} weights, got {alpha.shape[-1]}")
    s = alpha[..., :H]
    betas: list[np.ndarray] = []
    with np.errstate(**_EXPLOSIVE):
        for j in range(1, config.J + 1):
            even, odd = s[..., 0::2], s[..., 1::2]
            betas.append(_haar_factor(j) * (even - odd))
            s = even + odd
    return betas, _haar_factor(config.J) * s


def haar_innovations(eps: np.ndarray, J: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Scale innovations eps_j(t) for j = 1..J and low-pass innovations from unit-scale shocks.

    With W_m(t) = sum_{i<m} eps[t-i] the trailing m-window sum,
    eps_j(t) = 2^(-j/2) (W_m(t) - W_m(t-m)) for m = 2^(j-1), and the
    low-pass innovation is 2^(-J/2) W_{2^J}(t).  Every window sum is a
    difference of one cumulative sum of eps.  Positions without a full
    window (the first 2^j - 1 of scale j, the first 2^J - 1 of the low
    pass) are NaN, never zero-filled.
    """
    eps = np.asarray(eps, dtype=float)
    n = len(eps)
    c = np.concatenate(([0.0], np.cumsum(eps)))
    innovations: list[np.ndarray] = []
    for j in range(1, J + 2):
        m = 1 << (j - 1)
        w = np.full(n, np.nan)  # W_m, and W_{2^J} after the last pass
        w[m - 1 :] = c[m:] - c[:-m]
        if j <= J:
            older = np.full(n, np.nan)
            older[m:] = w[:-m]
            innovations.append(_haar_factor(j) * (w - older))
    return innovations, _haar_factor(J) * w


def _component(surface: np.ndarray, innov: np.ndarray, spacing: int) -> np.ndarray:
    """sum_k surface[r, k] * innov[t - k*spacing] for the trailing rows t of innov.

    Surface row r belongs to innovation row t = offset + r, with offset =
    len(innov) - len(surface).  A row is NaN when it lacks a full history
    (t < H - 1, H = K * spacing, which is exactly when some innovation it
    needs is undefined); otherwise non-finite terms propagate to the result.  The window product is made
    in C order before the row sum, so a row's bits do not depend on the
    other rows or on whether the surface is a broadcast.
    """
    rows, K = surface.shape
    offset = len(innov) - rows
    out = np.full(rows, np.nan)
    first = max(K * spacing - 1 - offset, 0)
    if first < rows:
        width = (K - 1) * spacing + 1
        # window i covers innov[i : i + width] and ends at t = i + width - 1;
        # stepping back from its end by `spacing` gives k = 0..K-1
        windows = sliding_window_view(innov, width)[offset + first - width + 1 :, ::-spacing]
        with np.errstate(**_EXPLOSIVE):
            terms = np.multiply(surface[first:], windows, order="C")
            out[first:] = terms.sum(axis=1)
    return out


def scale_components(
    betas: list[np.ndarray],
    gamma: np.ndarray,
    innovations: list[np.ndarray],
    low_pass: np.ndarray,
    config: MultiscaleConfig,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-scale components v_j(t) and low-pass residual component pi_J(t).

    v_j(t) = sum_k beta_j(t, k) * eps_j(t - k 2^j); positions without a full
    H-lag shock history are NaN.  The coefficient surfaces may cover only
    the trailing rows of the innovations; the components then cover the
    same rows.
    """
    comps = [
        _component(betas[j - 1], innovations[j - 1], 1 << j) for j in range(1, config.J + 1)
    ]
    residual = _component(gamma, low_pass, 1 << config.J)
    return comps, residual


@dataclass
class MultiscaleDecomposition:
    """Multiscale decomposition of a fitted window, one row per residual row.

    Row r of every array is residual row r of the fit, observation t = p+1+r
    of the window, at rescaled time grid[r].  The MA weights are not kept;
    `ar_to_ma(fit.phi[:, 1:], config.H)` gives them.
    """

    config: MultiscaleConfig
    grid: np.ndarray
    betas: list[np.ndarray]
    gamma: np.ndarray
    innovations: list[np.ndarray]
    low_pass: np.ndarray
    components: list[np.ndarray]
    residual_component: np.ndarray
    dates: np.ndarray | None = None

    @property
    def n_rows(self) -> int:
        return len(self.grid)


def decompose(
    fit: TvpArFit, config: MultiscaleConfig, dates: np.ndarray | None = None
) -> MultiscaleDecomposition:
    """Decompose a TVP-AR fit into persistence-scale components.

    The fit's coefficient rows, residuals and innovations share one index:
    one row per observation t = p+1..T of the window.  `dates` align with
    the fit grid.  `config.first_full_row(G)` is the first row whose
    components are defined.

    The AR rows are inverted and Haar-transformed in blocks of
    max(1, WOLD_BLOCK_BYTES // (8 (H+1))) rows, and each block's MA weights
    are dropped once its coefficients are stored.  Rows are independent and
    `ar_to_ma` gives a row the same bits in any batch, so every array equals
    the whole-array chain bit for bit.  `ar_to_ma` checks each block on its
    own: an explosive fit gives one ExplosiveWarning per block that holds an
    explosive row, each naming that block's largest sum |alpha|.
    """
    if dates is not None and len(dates) != len(fit.residuals):
        raise ValueError("dates must align with the fit grid")
    G, H = len(fit.phi), config.H
    betas = [np.empty((G, config.n_translates(j))) for j in range(1, config.J + 1)]
    gamma = np.empty((G, config.N))
    size = max(1, WOLD_BLOCK_BYTES // (8 * (H + 1)))
    for start in range(0, G, size):
        rows = slice(start, start + size)
        block_betas, gamma[rows] = haar_coefficients(ar_to_ma(fit.phi[rows, 1:], H), config)
        for beta, block in zip(betas, block_betas):
            beta[rows] = block
    innovations, low_pass = haar_innovations(fit.residuals, config.J)
    components, residual_component = scale_components(
        betas, gamma, innovations, low_pass, config
    )
    return MultiscaleDecomposition(
        config=config,
        grid=fit.grid,
        betas=betas,
        gamma=gamma,
        innovations=innovations,
        low_pass=low_pass,
        components=components,
        residual_component=residual_component,
        dates=dates,
    )


@dataclass
class PersistenceShares:
    """Per-date persistence shares across scales.

    shares[r, j-1] is scale j's share of the decomposition's first-translate
    coefficient mass at row r.  Rows with a zero (or, in signed mode,
    negative) denominator are flagged; zero denominators yield NaN shares.
    """

    shares: np.ndarray
    mode: str
    k_index: int
    flagged: np.ndarray
    dates: np.ndarray | None = None


def persistence_shares(
    decomp: MultiscaleDecomposition, mode: str = "absolute", k_index: int = 0
) -> PersistenceShares:
    """Compute per-scale shares of the k_index-translate beta coefficients.

    mode "absolute": |beta_j| / sum_j' |beta_j'| (shares in [0, 1]).
    mode "signed": beta_j / sum_j' beta_j'; rows sum to 1 but a negative
    denominator flips signs, so such rows are flagged rather than adjusted.
    """
    if mode not in ("absolute", "signed"):
        raise ValueError(f"mode must be 'absolute' or 'signed', got {mode!r}")
    _check_integer(k_index, "k_index")
    if k_index < 0:
        raise ValueError(f"k_index must be >= 0, got {k_index}")
    for j, b in enumerate(decomp.betas, start=1):
        if k_index >= b.shape[1]:
            raise ValueError(f"k_index {k_index} out of range for scale {j}")
    cols = np.column_stack([b[:, k_index] for b in decomp.betas])
    if mode == "absolute":
        cols = np.abs(cols)
    denom = cols.sum(axis=1)
    flagged = denom <= 0.0 if mode == "signed" else denom == 0.0
    safe = np.where(denom == 0.0, np.nan, denom)
    shares = cols / safe[:, None]
    return PersistenceShares(
        shares=shares, mode=mode, k_index=k_index, flagged=flagged, dates=decomp.dates
    )


def haar_energy_gap(alpha: np.ndarray, config: MultiscaleConfig) -> float:
    """Relative gap between coefficient energy and MA-weight energy.

    | sum beta^2 + sum gamma^2 - sum_{h<H} alpha(h)^2 | / sum_{h<H} alpha(h)^2
    """
    alpha = np.asarray(alpha, dtype=float)
    betas, gamma = haar_coefficients(alpha, config)
    energy = sum(float(np.sum(b * b)) for b in betas) + float(np.sum(gamma * gamma))
    target = float(np.sum(alpha[..., : config.H] ** 2))
    if target == 0.0:
        return abs(energy)
    return abs(energy - target) / target


def store_beta_surface(decomp: MultiscaleDecomposition, path: str) -> None:
    """Write the beta surface as a `u,j,k,beta` CSV."""
    js = [str(j) for j in range(1, decomp.config.J + 1)]
    ks = [[str(k) for k in range(b.shape[1])] for b in decomp.betas]
    # u is formatted once per row; tolist() gives Python floats, whose repr
    # is the text format_value writes
    rows = chain.from_iterable(
        zip(repeat(u), repeat(js[j]), ks[j], map(repr, beta[r].tolist()))
        for r, u in enumerate(map(format_value, decomp.grid))
        for j, beta in enumerate(decomp.betas)
    )
    write_csv(path, ("u", "j", "k", "beta"), rows)


def store_shares(shares: PersistenceShares, path: str) -> None:
    """Write persistence shares as a `date,j,share` CSV.

    Falls back to the row index when the decomposition carries no dates.
    """
    n, J = shares.shares.shape
    keys = map(str, shares.dates if shares.dates is not None else range(n))
    js = [str(j) for j in range(1, J + 1)]
    rows = chain.from_iterable(
        zip(repeat(key), js, map(format_value, row))
        for key, row in zip(keys, shares.shares.tolist())
    )
    write_csv(path, ("date", "j", "share"), rows)
