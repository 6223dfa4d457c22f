"""Time-varying AR(p) estimation by local linear kernel regression.

The series is treated as locally stationary in rescaled time u = t/T.  At
each evaluation point u the coefficients of

    v_t = phi_0(t/T) + sum_i phi_i(t/T) v_{t-i} + eps_t

are estimated by weighted least squares on the design
{1, (t/T - u)} x {1, v_{t-1}, ..., v_{t-p}} with kernel weights
K((t/T - u)/b); the level coefficients are the curve estimates and the
slope coefficients capture the local time drift.  The same machinery is
reused by the benchmark models for arbitrary regressor designs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import VolatilitySeries, atomic_write, format_value

__all__ = [
    "EstimationError",
    "KernelSpec",
    "TvpArFit",
    "CenteredSeries",
    "kernel_weights",
    "local_linear",
    "local_level",
    "fit_tvp_ar",
    "boundary_fit",
    "center",
    "export_curves",
]

COND_THRESHOLD = 1e10
KERNEL_FAMILIES = ("epanechnikov", "gaussian", "uniform")

# Batched solver layout.  Every chunk has GRID_CHUNK rows (the last one is
# padded) and its moments are summed over observation blocks on a fixed
# lattice of COLUMN_BLOCK columns, so a grid point's bits never depend on
# which other points share its chunk.  Rows whose cond(Z) estimate exceeds
# FALLBACK_COND, where the squared-condition normal equations lose too many
# digits, are re-solved by `local_linear`.
GRID_CHUNK = 64
COLUMN_BLOCK = 128
FALLBACK_COND = 1e6


class EstimationError(RuntimeError):
    """Raised when a local system is singular or a precondition fails."""


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family and bandwidth (in rescaled time units)."""

    family: str = "epanechnikov"
    bandwidth: float = 0.3

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}, expected one of {KERNEL_FAMILIES}")
        if not (0.0 < self.bandwidth <= 1.0):
            raise ValueError(f"bandwidth must lie in (0, 1], got {self.bandwidth}")


def kernel_weights(x: np.ndarray, family: str) -> np.ndarray:
    """Evaluate the kernel at standardized offsets x = (t/T - u)/b."""
    if family == "epanechnikov":
        return np.where(np.abs(x) <= 1.0, 0.75 * (1.0 - x * x), 0.0)
    if family == "gaussian":
        return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    if family == "uniform":
        return np.where(np.abs(x) <= 1.0, 0.5, 0.0)
    raise ValueError(f"unknown kernel family {family!r}")


def _as_values(series) -> np.ndarray:
    if isinstance(series, VolatilitySeries):
        return series.values
    return np.asarray(series, dtype=float)


def local_linear(
    y: np.ndarray,
    X: np.ndarray,
    tau: np.ndarray,
    u: float,
    kernel: KernelSpec,
    cond_threshold: float = COND_THRESHOLD,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Weighted local linear solve at evaluation point u.

    Regresses y on [X, (tau - u) * X] with weights K((tau - u)/b), solved by
    SVD-based least squares.  Returns (levels, slopes, condition number).

    Raises EstimationError if fewer active observations than parameters or
    if the relative condition number of the weighted design exceeds
    cond_threshold.

    This is the single-point oracle: `fit_tvp_ar`, `boundary_fit` and
    `local_level` solve many points at once by batched normal equations
    (`_local_linear_grid`), fall back to this solve on the rows their guard
    flags, and are tested against a loop over it.
    """
    m = X.shape[1]
    offs = tau - u
    w = kernel_weights(offs / kernel.bandwidth, kernel.family)
    active = np.nonzero(w > 0.0)[0]
    if len(active) < 2 * m:
        raise EstimationError(
            f"only {len(active)} observations in kernel support at u={u:.6g} "
            f"for {2 * m} parameters; increase bandwidth"
        )
    sw = np.sqrt(w[active])
    Xa = X[active]
    Z = np.empty((len(active), 2 * m))
    Z[:, :m] = Xa
    Z[:, m:] = Xa * offs[active, None]
    Z *= sw[:, None]
    yw = y[active] * sw
    theta, _, rank, svals = np.linalg.lstsq(Z, yw, rcond=None)
    smin = svals[-1] if len(svals) == 2 * m else 0.0
    cond = float("inf") if smin <= 0.0 else float(svals[0] / smin)
    if rank < 2 * m or cond > cond_threshold:
        raise EstimationError(
            f"singular local system at u={u:.6g}: condition number {cond:.3g} "
            f"exceeds {cond_threshold:.3g}"
        )
    return theta[:m], theta[m:], cond


def _local_linear_grid(
    y: np.ndarray,
    X: np.ndarray,
    tau: np.ndarray,
    ugrid: np.ndarray,
    kernel: KernelSpec,
    cond_threshold: float = COND_THRESHOLD,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`local_linear` at every point of ugrid, as batched normal equations.

    X[:, 0] must be the intercept column and tau must be ascending.  The
    other columns are centred on their mean and the offsets scaled to
    d = (tau - u)/b, so each chunk of grid points needs the kernel moments
    sum_t K(d) d^k x_t x_t' (k = 0, 1, 2) and sum_t K(d) d^k x_t y_t
    (k = 0, 1): one GEMM of the stacked moment weights against the
    flattened outer products per block of observations, then one batched
    solve.  cond is sqrt(lmax/lmin) of the uncentred Gram matrix Z'WZ,
    i.e. the cond(Z) that `local_linear` bounds.  Rows with fewer than 2m
    active observations or a cond estimate above FALLBACK_COND (or above
    cond_threshold, if lower) are re-solved by `local_linear`, so a
    singular window raises the EstimationError of a loop over
    `local_linear`, at the same first failing point.
    """
    n, m = X.shape
    b = kernel.bandwidth
    mu = X.mean(axis=0)
    mu[0] = 0.0
    Xc = X - mu
    # per observation: vec(xc xc') then xc * y
    outer = (Xc[:, :, None] * Xc[:, None, :]).reshape(n, m * m)
    Q = np.concatenate([outer, Xc * y[:, None]], axis=1)
    # uncentred design [x, (tau - u) x] = [xc, d xc] @ B
    M = np.eye(m)
    M[0] = mu + M[0]
    B = np.zeros((2 * m, 2 * m))
    B[:m, :m] = M
    B[m:, m:] = b * M
    limit = min(FALLBACK_COND, cond_threshold)
    compact = kernel.family != "gaussian"
    C = GRID_CHUNK
    G = len(ugrid)
    levels = np.empty((G, m))
    slopes = np.empty((G, m))
    cond = np.empty(G)
    for start in range(0, G, C):
        u = ugrid[start : start + C]
        k = len(u)
        if k < C:
            u = np.concatenate([u, np.full(C - k, u[-1])])
        lo, hi = 0, n
        if compact:  # a 1% margin keeps every point whose rounded |d| is <= 1
            lo = int(np.searchsorted(tau, u.min() - 1.01 * b, side="left"))
            hi = int(np.searchsorted(tau, u.max() + 1.01 * b, side="right"))
        moments = np.zeros((3 * C, Q.shape[1]))
        active = np.zeros(C, dtype=np.int64)
        for s in range(lo - lo % COLUMN_BLOCK, hi, COLUMN_BLOCK):
            e = min(s + COLUMN_BLOCK, n)
            d = (tau[s:e] - u[:, None]) / b
            w = kernel_weights(d, kernel.family)
            wd = w * d
            moments += np.concatenate([w, wd, wd * d]) @ Q[s:e]
            active += np.count_nonzero(w > 0.0, axis=1)
        S0, S1, S2 = moments[:, : m * m].reshape(3, C, m, m)
        gram = np.empty((C, 2 * m, 2 * m))
        gram[:, :m, :m] = S0
        gram[:, :m, m:] = S1
        gram[:, m:, :m] = S1
        gram[:, m:, m:] = S2
        rhs = np.concatenate([moments[:C, m * m :], moments[C : 2 * C, m * m :]], axis=1)
        lam = np.linalg.eigvalsh(B.T @ gram @ B)
        with np.errstate(divide="ignore", invalid="ignore"):
            est = np.where(lam[:, 0] > 0.0, np.sqrt(lam[:, -1] / lam[:, 0]), np.inf)
        flagged = (active < 2 * m) | ~(est <= limit)
        gram[flagged] = np.eye(2 * m)
        theta = np.linalg.solve(gram, rhs[:, :, None])[:, :, 0]
        theta[:, 0] -= theta[:, 1:m] @ mu[1:]
        theta[:, m] -= theta[:, m + 1 :] @ mu[1:]
        rows = slice(start, start + k)
        levels[rows] = theta[:k, :m]
        slopes[rows] = theta[:k, m:] / b
        cond[rows] = est[:k]
        for i in np.flatnonzero(flagged[:k]):
            levels[start + i], slopes[start + i], cond[start + i] = local_linear(
                y, X, tau, float(u[i]), kernel, cond_threshold
            )
    return levels, slopes, cond


@dataclass
class TvpArFit:
    """Result of a local linear TVP-AR(p) fit.

    Attributes:
        grid: evaluation points u (rescaled time).
        phi: (len(grid), p+1) level coefficients; column 0 is the intercept.
        slopes: matching local time-slope coefficients.
        cond: condition number of each local weighted design.
        residuals: eps_t = v_t - phi_0(t/T) - sum_i phi_i(t/T) v_{t-i},
            aligned with observations t = p+1 .. T.
        values: the fitted window of observations.
    """

    grid: np.ndarray
    phi: np.ndarray
    slopes: np.ndarray
    cond: np.ndarray
    residuals: np.ndarray
    values: np.ndarray
    p: int
    kernel: KernelSpec

    @property
    def n_obs(self) -> int:
        return len(self.values)


@dataclass
class CenteredSeries:
    """A series minus its estimated local level (trend) curve."""

    values: np.ndarray
    trend: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


def _design(values: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lagged design for observations t = p+1..T (0-based rows p..T-1)."""
    T = len(values)
    y = values[p:]
    X = np.empty((T - p, p + 1))
    X[:, 0] = 1.0
    for i in range(1, p + 1):
        X[:, i] = values[p - i : T - i]
    tau = np.arange(p + 1, T + 1, dtype=float) / T
    return y, X, tau


def _check_preconditions(T: int, p: int, kernel: KernelSpec) -> None:
    if p < 1:
        raise EstimationError(f"autoregressive order must be >= 1, got {p}")
    if T <= 10 * (2 * p + 2):
        raise EstimationError(
            f"series too short: {T} observations for p={p} (need more than {10 * (2 * p + 2)})"
        )
    if kernel.bandwidth * T < 2 * p + 2:
        raise EstimationError(
            f"bandwidth {kernel.bandwidth} too small for T={T}: fewer than {2 * p + 2} "
            "observations in the kernel window"
        )


def fit_tvp_ar(series, p: int, kernel: KernelSpec, grid: np.ndarray | None = None) -> TvpArFit:
    """Fit a TVP-AR(p) by local linear kernel regression.

    Args:
        series: VolatilitySeries or 1-d array of observations.
        p: autoregressive order (>= 1).
        kernel: kernel family and bandwidth.
        grid: evaluation points in (0, 1]; defaults to every observation
            u = t/T for t = p+1..T.  With a custom grid the residuals are
            computed from coefficient curves linearly interpolated in u.

    Returns:
        TvpArFit with coefficient curves, local slopes, condition numbers
        and residuals.

    All grid points are solved together: chunks of GRID_CHUNK points form
    their weighted normal equations from kernel-moment GEMMs and solve them
    in one batched call.  cond is cond(Z) of each local design Z = [X,
    (tau - u) X] with weights K((tau - u)/b), as `local_linear` reports it,
    estimated as sqrt(lmax/lmin) of the uncentred Gram matrix Z'WZ.  Points
    with fewer than 2(p+1) active observations or a cond estimate above
    FALLBACK_COND are re-solved by the SVD oracle `local_linear`, so the
    COND_THRESHOLD guard and its EstimationError are exactly those of a
    loop over `local_linear`.  Elsewhere the two agree to about machine
    epsilon times the squared condition number of the centred design:
    1e-10 relative or better on the property-tested series.

    A uniform kernel at bandwidth 1 weights every observation equally at
    every u, so the curves are exactly linear in u: phi(u) = c + u d and
    slopes = d, where (c, d) is one least-squares solve of y on the
    time-augmented design [X, tau X].  The global OLS AR(p) coefficients
    equal phi(u) plus the omitted-slope term (X'X)^-1 X' D s with
    D = (tau - u) X and s = d; they match phi(u) only if d vanishes.  Acceptance criterion 07
    pins this.
    """
    values = _as_values(series)
    T = len(values)
    _check_preconditions(T, p, kernel)
    y, X, tau = _design(values, p)
    default_grid = grid is None
    ugrid = tau.copy() if default_grid else np.asarray(grid, dtype=float)
    phi, slopes, cond = _local_linear_grid(y, X, tau, ugrid, kernel)
    if default_grid:
        fitted = np.sum(X * phi, axis=1)
    else:
        # interpolate coefficient curves onto each observation's own u
        phi_at_obs = np.column_stack(
            [np.interp(tau, ugrid, phi[:, i]) for i in range(p + 1)]
        )
        fitted = np.sum(X * phi_at_obs, axis=1)
    residuals = y - fitted
    return TvpArFit(
        grid=ugrid,
        phi=phi,
        slopes=slopes,
        cond=cond,
        residuals=residuals,
        values=values,
        p=p,
        kernel=kernel,
    )


def boundary_fit(series, p: int, kernel: KernelSpec, at_end: bool = True) -> tuple[np.ndarray, np.ndarray, float]:
    """Local linear coefficients at the sample boundary.

    At the right boundary (at_end=True) the evaluation point is u = 1 and
    the effective kernel is one-sided: only observations with t/T <= 1
    exist, so no future data can enter.  Returns (levels, slopes, cond),
    bit for bit the first or last row of the default-grid `fit_tvp_ar`.
    """
    values = _as_values(series)
    T = len(values)
    _check_preconditions(T, p, kernel)
    y, X, tau = _design(values, p)
    u = 1.0 if at_end else float(tau[0])
    levels, slopes, cond = _local_linear_grid(y, X, tau, np.array([u]), kernel)
    return levels[0], slopes[0], float(cond[0])


def local_level(
    series,
    kernel: KernelSpec,
    u: float | np.ndarray | None = None,
    cond_threshold: float = COND_THRESHOLD,
):
    """Local linear level (trend) of a series in rescaled time.

    Fits a weighted straight line in t/T around each evaluation point and
    reports its height there.  With u=None the curve is evaluated at every
    observation's own time point (an array of len(series)); a scalar u
    returns a float.  At u = 1 the kernel support is one-sided, so the
    boundary level uses no future observations.

    The evaluation points are solved together by the batched normal
    equations of `fit_tvp_ar` with X = 1; points whose cond(Z) estimate
    exceeds FALLBACK_COND (or cond_threshold, if lower) are re-solved by
    `local_linear`, which applies cond_threshold exactly.  A level does not
    depend on which other points are evaluated with it, so local_level(s,
    k, u=tau[-p:]) equals local_level(s, k)[-p:] bit for bit.
    """
    values = _as_values(series)
    T = len(values)
    tau = np.arange(1, T + 1, dtype=float) / T
    scalar = u is not None and np.ndim(u) == 0
    grid = tau if u is None else np.atleast_1d(np.asarray(u, dtype=float))
    levels, _, _ = _local_linear_grid(values, np.ones((T, 1)), tau, grid, kernel, cond_threshold)
    out = levels[:, 0]
    return float(out[0]) if scalar else out


def center(fit: TvpArFit) -> CenteredSeries:
    """Subtract the estimated local level (trend) curve from the window.

    The level at each observation is a local linear fit of the series on
    rescaled time alone, using the same kernel as the coefficient fit
    (one-sided at the boundaries).  Centering by the local level makes the
    centered series locally mean-zero, which is what the scale-component
    weight regression and the forecast combination assume; the
    autoregressive intercept curve phi_0 does not play that role once lag
    terms are in the fit.
    """
    trend = local_level(fit.values, fit.kernel)
    return CenteredSeries(values=fit.values - trend, trend=trend)


def export_curves(fit: TvpArFit, path: str) -> None:
    """Write coefficient curves as a `u,phi0,...,phip` CSV."""
    cols = ["u"] + [f"phi{i}" for i in range(fit.p + 1)]
    lines = [",".join(cols)]
    for g in range(len(fit.grid)):
        row = [format_value(fit.grid[g])] + [format_value(v) for v in fit.phi[g]]
        lines.append(",".join(row))
    atomic_write(path, "\n".join(lines) + "\n")
