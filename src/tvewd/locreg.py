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

import numbers
from dataclasses import dataclass

import numpy as np

from .series import VolatilitySeries, format_value, write_csv

__all__ = [
    "EstimationError",
    "KernelSpec",
    "TvpArFit",
    "kernel_weights",
    "local_linear",
    "local_level",
    "fit_tvp_ar",
    "boundary_fit",
    "export_curves",
]

COND_THRESHOLD = 1e10
KERNEL_FAMILIES = ("epanechnikov", "uniform")

# Batched solver layout.  Every chunk has GRID_CHUNK rows (the last one is
# padded) and its moments are summed over observation blocks on a fixed
# lattice of COLUMN_BLOCK columns, so a grid point's bits never depend on
# which other points share its chunk.  Rows whose cond(Z) estimate exceeds
# FALLBACK_COND, where the squared-condition normal equations lose too many
# digits, are re-solved by `local_linear`.
GRID_CHUNK = 64
COLUMN_BLOCK = 128
FALLBACK_COND = 1e6
# Shift of the Cholesky screen in `_flagged`, as a share of trace(A): a
# factorisation of A - SCREEN_SHIFT trace(A) I that succeeds puts
# sqrt(lmax/lmin) of A below FALLBACK_COND / sqrt(2).
SCREEN_SHIFT = 4.0 / FALLBACK_COND**2
# Most bytes of per-observation moments one solve builds for a stack of
# windows; a larger stack is solved in slices of windows under this size,
# so the solver's memory stays bounded whatever the AR order.
STACK_BYTES = 4 << 20


class EstimationError(RuntimeError):
    """Raised when a local system is singular or a precondition fails."""


# What a model may raise on a window it cannot fit: singular or too-short
# windows, and the numerical and precondition errors of the solvers.  Any
# other exception is a bug and propagates.
_MODEL_FAILURES = (EstimationError, np.linalg.LinAlgError, FloatingPointError, ValueError)


def _attempt(fn, *args):
    """fn(*args), or the model failure it raised."""
    try:
        return fn(*args)
    except _MODEL_FAILURES as exc:
        return exc


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family and bandwidth (in rescaled time units)."""

    family: str = "epanechnikov"
    bandwidth: float = 0.3

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}, expected one of {KERNEL_FAMILIES}")
        if isinstance(self.bandwidth, bool) or not isinstance(self.bandwidth, numbers.Real):
            raise ValueError(f"bandwidth must be a number, got {self.bandwidth!r}")
        if not (0.0 < self.bandwidth <= 1.0):
            raise ValueError(f"bandwidth must lie in (0, 1], got {self.bandwidth}")
        object.__setattr__(self, "bandwidth", float(self.bandwidth))


def kernel_weights(x: np.ndarray, family: str) -> np.ndarray:
    """Evaluate the kernel at standardized offsets x = (t/T - u)/b."""
    x = np.asarray(x, dtype=float)
    return _kernel_weights(x, family, np.empty(x.shape))


def _kernel_weights(x: np.ndarray, family: str, out: np.ndarray) -> np.ndarray:
    """`kernel_weights(x, family)` written into out; the default kernel makes no temporaries."""
    if family == "epanechnikov":
        # 0.75 (1 - x^2), which is negative exactly where |x| > 1; fmax sets
        # that, and NaN, to 0
        np.multiply(x, x, out=out)
        np.subtract(1.0, out, out=out)
        out *= 0.75
        return np.fmax(out, 0.0, out=out)
    if family == "uniform":
        out[...] = np.where(np.abs(x) <= 1.0, 0.5, 0.0)
        return out
    raise ValueError(f"unknown kernel family {family!r}")


def _as_values(series) -> np.ndarray:
    if isinstance(series, VolatilitySeries):
        return series.values
    return np.asarray(series, dtype=float)


def _checked_lstsq(A: np.ndarray, b: np.ndarray, what: str) -> tuple[np.ndarray, float]:
    """Least-squares solution of A x = b, by SVD, and the condition number of A.

    Every least-squares solve of the package goes through this guard: it
    raises EstimationError, with `what` leading the message, if A is rank
    deficient or its condition number exceeds COND_THRESHOLD.
    """
    n = A.shape[1]
    x, _, rank, svals = np.linalg.lstsq(A, b, rcond=None)
    smin = svals[-1] if len(svals) == n else 0.0
    cond = float("inf") if smin <= 0.0 else float(svals[0] / smin)
    if rank < n or cond > COND_THRESHOLD:
        raise EstimationError(f"{what}: condition number {cond:.3g} exceeds {COND_THRESHOLD:.3g}")
    return x, cond


def _kernel_support(tau: np.ndarray, u: float, kernel: KernelSpec, m: int) -> tuple:
    """Offsets tau - u, kernel weights and active rows of a local linear
    solve at u with m regressors; raise EstimationError if fewer than 2m
    rows have a positive weight.  The rows depend on tau alone, so a
    caller can check a window's geometry before it has the window."""
    offs = tau - u
    w = kernel_weights(offs / kernel.bandwidth, kernel.family)
    active = np.nonzero(w > 0.0)[0]
    if len(active) < 2 * m:
        raise EstimationError(
            f"only {len(active)} observations in kernel support at u={u:.6g} "
            f"for {2 * m} parameters; increase bandwidth"
        )
    return offs, w, active


def local_linear(
    y: np.ndarray, X: np.ndarray, tau: np.ndarray, u: float, kernel: KernelSpec
) -> tuple[np.ndarray, np.ndarray] | list:
    """Weighted local linear solve at evaluation point u.

    Regresses y on [X, (tau - u) * X] with weights K((tau - u)/b), solved by
    `_checked_lstsq`.  Returns (levels, slopes).

    Raises EstimationError if fewer active observations than parameters or
    if the relative condition number of the weighted design exceeds
    COND_THRESHOLD.

    This is the single-point oracle: `fit_tvp_ar`, `boundary_fit` and
    `local_level` solve many points at once by batched normal equations
    (`_local_linear_grid`), fall back to this solve on the rows their guard
    flags, and are tested against a loop over it.

    y may also be a (B, n) stack with X (B, n, m): windows of one geometry,
    sharing tau.  The kernel weights and the active set depend on tau alone,
    so they are built once for the stack, and the too-few-observations
    error raises for the whole stack.  Each window keeps its own solve: the
    result holds, per window, its (levels, slopes) or the model failure its
    solve raised, bit for bit what a one-window call returns or raises.
    """
    y, X = np.asarray(y, dtype=float), np.asarray(X, dtype=float)
    m = X.shape[-1]
    offs, w, active = _kernel_support(tau, u, kernel, m)
    sw = np.sqrt(w[active])
    Xa = X.take(active, axis=-2)
    Z = np.empty(Xa.shape[:-1] + (2 * m,))
    Z[..., :m] = Xa
    Z[..., m:] = Xa * offs[active, None]
    Z *= sw[:, None]
    rhs = y.take(active, axis=-1) * sw
    what = f"singular local system at u={u:.6g}"
    solves = [
        _attempt(_checked_lstsq, Zi, ri, what)
        for Zi, ri in zip(Z.reshape(-1, len(active), 2 * m), rhs.reshape(-1, len(active)))
    ]
    results = [solve if isinstance(solve, Exception) else (solve[0][:m], solve[0][m:]) for solve in solves]
    return results if y.ndim == 2 else _single(results)


def _flagged(A: np.ndarray, thin: np.ndarray) -> np.ndarray:
    """The rows of a (R, k, k) batch of Gram matrices whose solve `local_linear` redoes.

    A row is flagged if it is thin (fewer than k active observations) or if
    sqrt(lmax/lmin) of its A, from `eigvalsh`, is not <= FALLBACK_COND: a
    singular or indefinite A is flagged, and a NaN makes `eigvalsh` raise
    for the batch.

    The eigenvalues are computed only if a screen fails: one batched
    Cholesky factorisation of S = A - delta trace(A) I, delta =
    SCREEN_SHIFT, with thin rows replaced by I.  A factorisation that runs
    to completion with a finite factor is exact for S + E with ||E|| <=
    (k + 2) eps trace(A), counting the rounding of the shift (Higham,
    "Accuracy and Stability of Numerical Algorithms", Thm 10.5; Rump,
    "Verification of positive definiteness", BIT 46, 2006).  As (k + 2) eps
    < delta / 2 for any k below 9000, every row that is not thin then has
    lmin > delta trace(A) / 2 >= delta lmax / 2, so sqrt(lmax/lmin) <
    FALLBACK_COND / sqrt(2): the row cannot be flagged, with room to spare
    for the rounding of `eigvalsh` itself, and the flagged rows are the
    thin ones.  The screen runs only if every entry of A is finite, so
    that a row that is not finite reaches `eigvalsh` as it is, thin or
    not.  If it fails for any row, the whole batch takes the `eigvalsh`
    rule.
    """
    R, k, _ = A.shape
    if np.isfinite(A).all():
        shifted = A.copy()
        shifted.reshape(R, k * k)[:, :: k + 1] -= SCREEN_SHIFT * np.einsum("ijj->i", A)[:, None]
        shifted[thin] = np.eye(k)
        try:
            factor = np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            pass
        else:  # an overflow inside the factorisation can leave NaN instead of raising
            if np.isfinite(np.einsum("ijj->i", factor)).all():
                return thin.copy()
    lam = np.linalg.eigvalsh(A)
    with np.errstate(divide="ignore", invalid="ignore"):
        est = np.where(lam[:, 0] > 0.0, np.sqrt(lam[:, -1] / lam[:, 0]), np.inf)
    return thin | ~(est <= FALLBACK_COND)


def _local_linear_grid(
    y: np.ndarray,
    X: np.ndarray,
    tau: np.ndarray,
    ugrid: np.ndarray,
    kernel: KernelSpec,
) -> tuple[np.ndarray, np.ndarray, list[Exception | None]]:
    """`local_linear` at every point of ugrid, for a stack of windows, as batched normal equations.

    y is (B, n) and X is (B, n, m): B windows of one geometry, which share
    tau, ugrid and the kernel.  X[..., 0] must be the intercept column and
    tau must be ascending.  Each window's other columns are centred on
    their mean and the offsets scaled to d = (tau - u)/b, so each chunk of
    grid points needs the kernel moments sum_t K(d) d^k x_t x_t' (k = 0, 1,
    2) and sum_t K(d) d^k x_t y_t (k = 0, 1).  The stacked moment weights
    and the active counts depend only on the geometry, so they are built
    once per chunk and block of observations and applied to every window
    by one GEMM each; the B x GRID_CHUNK systems of a chunk are then
    checked (`_flagged`) and solved in one batched call.  The check
    estimates the cond(Z) that `local_linear` bounds as sqrt(lmax/lmin) of
    the uncentred Gram matrix Z'WZ.  Rows with fewer than 2m active
    observations or a cond estimate above FALLBACK_COND are re-solved by
    `local_linear`, window by window in grid order.  A window whose
    re-solve raises gets that EstimationError, the one a loop over
    `local_linear` raises at the same first failing point, in `errors`,
    and its rows are left unspecified; the other windows are unaffected.
    So does a window whose own Gram matrices make the check's `eigvalsh`
    raise (a value that is not finite, or whose square overflows): a
    chunk whose check raises is checked again window by window, and each
    window gets the flagged rows or the LinAlgError of its one-window
    check.  A window's bits do not depend on the other windows of its
    stack, so a stack whose moments would pass STACK_BYTES is solved in
    slices of windows.  Returns (levels, slopes, errors), the first two
    with a leading axis of B.
    """
    nb, n, m = X.shape
    per_window = 8 * n * (m * m + m)
    if nb > 1 and nb * per_window > STACK_BYTES:
        size = max(1, STACK_BYTES // per_window)
        parts = [
            _local_linear_grid(y[i : i + size], X[i : i + size], tau, ugrid, kernel)
            for i in range(0, nb, size)
        ]
        stacked = [np.concatenate([part[j] for part in parts]) for j in range(2)]
        return (*stacked, [error for part in parts for error in part[2]])
    b = kernel.bandwidth
    mu = X.mean(axis=1)
    mu[:, 0] = 0.0
    Xc = X - mu[:, None, :]
    # per observation: vec(xc xc') then xc * y
    Q = np.empty((nb, n, m * m + m))
    np.multiply(Xc[..., :, None], Xc[..., None, :], out=Q[..., : m * m].reshape(nb, n, m, m))
    np.multiply(Xc, y[..., None], out=Q[..., m * m :])
    # uncentred design [x, (tau - u) x] = [xc, d xc] @ P
    M = np.tile(np.eye(m), (nb, 1, 1))
    M[:, 0] += mu
    P = np.zeros((nb, 2 * m, 2 * m))
    P[:, :m, :m] = M
    P[:, m:, m:] = b * M
    Pt = np.swapaxes(P, 1, 2)[:, None]
    P = P[:, None]
    C = GRID_CHUNK
    G = len(ugrid)
    levels = np.empty((nb, G, m))
    slopes = np.empty((nb, G, m))
    errors: list[Exception | None] = [None] * nb
    # K(d), K(d) d and K(d) d^2 of one chunk against one block of observations
    weights = np.empty((3, C, COLUMN_BLOCK))
    for start in range(0, G, C):
        u = ugrid[start : start + C]
        k = len(u)
        if k < C:
            u = np.concatenate([u, np.full(C - k, u[-1])])
        # every family is 0 outside [-1, 1]; a 1% margin keeps every point whose rounded |d| is <= 1
        lo = int(np.searchsorted(tau, u.min() - 1.01 * b, side="left"))
        hi = int(np.searchsorted(tau, u.max() + 1.01 * b, side="right"))
        moments = np.zeros((nb, 3 * C, Q.shape[2]))
        active = np.zeros(C, dtype=np.int64)
        for s in range(lo - lo % COLUMN_BLOCK, hi, COLUMN_BLOCK):
            e = min(s + COLUMN_BLOCK, n)
            stack = weights[:, :, : e - s]
            w, wd, d = stack  # d = (tau - u)/b until wd d overwrites it
            np.subtract(tau[s:e], u[:, None], out=d)
            d /= b
            _kernel_weights(d, kernel.family, w)
            np.multiply(w, d, out=wd)
            np.multiply(wd, d, out=d)
            moments += stack.reshape(3 * C, e - s) @ Q[:, s:e]
            active += np.count_nonzero(w > 0.0, axis=1)
        S0, S1, S2 = np.swapaxes(moments[..., : m * m].reshape(nb, 3, C, m, m), 0, 1)
        gram = np.empty((nb, C, 2 * m, 2 * m))
        gram[..., :m, :m] = S0
        gram[..., :m, m:] = S1
        gram[..., m:, :m] = S1
        gram[..., m:, m:] = S2
        rhs = np.concatenate([moments[:, :C, m * m :], moments[:, C : 2 * C, m * m :]], axis=2)
        A = (Pt @ gram @ P).reshape(nb * C, 2 * m, 2 * m)
        thin = active < 2 * m
        try:
            flagged = _flagged(A, np.tile(thin, nb)).reshape(nb, C)
        except np.linalg.LinAlgError:  # only the windows whose own check raises fail
            flagged = np.ones((nb, C), dtype=bool)
            for i, window_A in enumerate(A.reshape(nb, C, 2 * m, 2 * m)):
                try:
                    flagged[i] = _flagged(window_A, thin)
                except np.linalg.LinAlgError as exc:
                    errors[i] = errors[i] or exc
        gram[flagged] = np.eye(2 * m)
        theta = np.linalg.solve(gram.reshape(nb * C, 2 * m, 2 * m), rhs.reshape(nb * C, 2 * m, 1))
        theta = theta.reshape(nb, C, 2 * m)
        theta[..., 0] -= (theta[..., 1:m] @ mu[:, 1:, None])[..., 0]
        theta[..., m] -= (theta[..., m + 1 :] @ mu[:, 1:, None])[..., 0]
        rows = slice(start, start + k)
        levels[:, rows] = theta[:, :k, :m]
        slopes[:, rows] = theta[:, :k, m:] / b
        for i, r in zip(*np.nonzero(flagged[:, :k])):
            if errors[i] is None:
                try:
                    levels[i, start + r], slopes[i, start + r] = local_linear(
                        y[i], X[i], tau, float(u[r]), kernel
                    )
                except EstimationError as exc:
                    errors[i] = exc
    return levels, slopes, errors


@dataclass
class TvpArFit:
    """Result of a local linear TVP-AR(p) fit.

    Attributes:
        grid: evaluation points u = t/T of the observations t = p+1 .. T.
        phi: (len(grid), p+1) level coefficients; column 0 is the intercept.
        slopes: matching local time-slope coefficients.
        residuals: eps_t = v_t - phi_0(t/T) - sum_i phi_i(t/T) v_{t-i},
            aligned with observations t = p+1 .. T.
        values: the fitted window of observations.
    """

    grid: np.ndarray
    phi: np.ndarray
    slopes: np.ndarray
    residuals: np.ndarray
    values: np.ndarray
    p: int
    kernel: KernelSpec

    @property
    def n_obs(self) -> int:
        return len(self.values)


def _design(values: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lagged design for observations t = p+1..T (0-based rows p..T-1) of
    one window, or of each window of a (B, T) stack."""
    T = values.shape[-1]
    y = values[..., p:]
    X = np.empty(values.shape[:-1] + (T - p, p + 1))
    X[..., 0] = 1.0
    for i in range(1, p + 1):
        X[..., i] = values[..., p - i : T - i]
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


def _single(results: list):
    """The result of a one-window stack: the value, or the error it holds raised."""
    (result,) = results
    if isinstance(result, Exception):
        raise result
    return result


def fit_tvp_ar(series, p: int, kernel: KernelSpec) -> TvpArFit | list:
    """Fit a TVP-AR(p) by local linear kernel regression at every observation
    u = t/T, t = p+1..T.

    Args:
        series: VolatilitySeries or 1-d array of observations, or a (B, T)
            stack of windows of one length.
        p: autoregressive order (>= 1).
        kernel: kernel family and bandwidth.

    Returns:
        TvpArFit with coefficient curves, local slopes and residuals.
        For a stack, a list with one entry per window: its TvpArFit, or
        the EstimationError or LinAlgError its own fit raises.  The
        precondition checks depend on T alone and raise for the whole
        stack.

    All grid points are solved together: chunks of GRID_CHUNK points form
    their weighted normal equations from kernel-moment GEMMs and solve them
    in one batched call.  Points with fewer than 2(p+1) active
    observations, or whose local design Z = [X, (tau - u) X] with weights
    K((tau - u)/b) has a cond(Z) estimate above FALLBACK_COND
    (`_flagged`), are re-solved by the SVD oracle `local_linear`, so the
    COND_THRESHOLD guard and its EstimationError are exactly those of a
    loop over `local_linear`.  Elsewhere the two agree to about machine
    epsilon times the squared condition number of the centred design:
    1e-10 relative or better on the property-tested series.  The windows
    of a stack share the kernel weights of every chunk, and each window's
    fit equals its one-window fit bit for bit.

    A uniform kernel at bandwidth 1 weights every observation equally at
    every u, so the curves are exactly linear in u: phi(u) = c + u d and
    slopes = d, where (c, d) is one least-squares solve of y on the
    time-augmented design [X, tau X].  The global OLS AR(p) coefficients
    equal phi(u) plus the omitted-slope term (X'X)^-1 X' D s with
    D = (tau - u) X and s = d; they match phi(u) only if d vanishes.  Acceptance criterion 07
    pins this.
    """
    values = _as_values(series)
    stack = values.reshape(-1, values.shape[-1])  # one window is a stack of one
    T = stack.shape[1]
    _check_preconditions(T, p, kernel)
    y, X, tau = _design(stack, p)
    phi, slopes, errors = _local_linear_grid(y, X, tau, tau, kernel)
    residuals = y - np.sum(X * phi, axis=2)
    fits = [
        error
        or TvpArFit(
            grid=tau,
            phi=phi[i],
            slopes=slopes[i],
            residuals=residuals[i],
            values=stack[i],
            p=p,
            kernel=kernel,
        )
        for i, error in enumerate(errors)
    ]
    return fits if values.ndim == 2 else _single(fits)


def boundary_fit(series, p: int, kernel: KernelSpec) -> tuple[np.ndarray, np.ndarray] | list:
    """Local linear coefficients at the right sample boundary u = 1.

    The effective kernel is one-sided: only observations with t/T <= 1
    exist, so no future data can enter.  Returns (levels, slopes), bit for
    bit the last row of `fit_tvp_ar`.  A (B, T) stack of windows gives, as
    `fit_tvp_ar` does, one entry per window: its (levels, slopes), or the
    error its own fit raises.
    """
    values = _as_values(series)
    stack = values.reshape(-1, values.shape[-1])  # one window is a stack of one
    _check_preconditions(stack.shape[1], p, kernel)
    y, X, tau = _design(stack, p)
    levels, slopes, errors = _local_linear_grid(y, X, tau, np.array([1.0]), kernel)
    fits = [error or (levels[i, 0], slopes[i, 0]) for i, error in enumerate(errors)]
    return fits if values.ndim == 2 else _single(fits)


def local_level(series, kernel: KernelSpec, u: float | np.ndarray | None = None):
    """Local linear level (trend) of a series in rescaled time.

    Fits a weighted straight line in t/T around each evaluation point and
    reports its height there.  With u=None the curve is evaluated at every
    observation's own time point (an array of len(series)); a scalar u
    returns a float.  At u = 1 the kernel support is one-sided, so the
    boundary level uses no future observations.  A (B, T) stack of windows
    of one length gives one row of levels (one value for a scalar u) per
    window, each equal to its one-window level bit for bit.

    The series minus its level is locally mean-zero, which is what the
    scale-weight regression and the forecast combination assume; the AR
    intercept curve phi_0 does not play that role once lag terms are in
    the fit.

    The evaluation points are solved together by the batched normal
    equations of `fit_tvp_ar` with X = 1; points whose cond(Z) estimate
    exceeds FALLBACK_COND are re-solved by `local_linear`, which applies
    COND_THRESHOLD exactly.  A level does not depend on which other points
    are evaluated with it, so local_level(s, k, u=tau[-p:]) equals
    local_level(s, k)[-p:] bit for bit.  The design [1, t/T - u] does not
    depend on the values, so the fallback raises for every window of a
    stack or for none.
    """
    values = _as_values(series)
    T = values.shape[-1]
    tau = np.arange(1, T + 1, dtype=float) / T
    grid = tau if u is None else np.atleast_1d(np.asarray(u, dtype=float))
    stack = values.reshape(-1, T)
    levels, _, errors = _local_linear_grid(stack, np.ones(stack.shape + (1,)), tau, grid, kernel)
    if errors[0] is not None:
        raise errors[0]
    out = levels[..., 0].reshape(values.shape[:-1] + grid.shape)
    if u is not None and np.ndim(u) == 0:
        out = out[..., 0]
    return float(out) if out.ndim == 0 else out


def export_curves(fit: TvpArFit, path: str) -> None:
    """Write coefficient curves as a `u,phi0,...,phip` CSV."""
    header = ["u"] + [f"phi{i}" for i in range(fit.p + 1)]
    table = np.column_stack([fit.grid, fit.phi])
    write_csv(path, header, (map(format_value, row) for row in table.tolist()))
