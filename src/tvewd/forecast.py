"""Multiscale h-step forecasting from a time-varying decomposition.

A window's forecast is one `{h: value}` map, as for every model.  Each
value combines three ingredients estimated on the in-sample window: the
local level (trend) of the series at the right boundary u = 1, per-scale
forecasts that propagate observed scale innovations through the boundary
beta coefficients, and scale weights from a no-intercept regression of the
centered series on its per-scale components.  Scale innovations dated
after the forecast origin are unobservable and contribute zero, so each
scale's forecast uses only translates k with k * 2^j >= h; the low-pass
component is excluded from the combination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .locreg import (
    _MODEL_FAILURES,
    EstimationError,
    KernelSpec,
    _attempt,
    _checked_lstsq,
    _single,
    fit_tvp_ar,
    local_level,
)
from .series import format_value, write_csv
from .wold import (
    MultiscaleConfig,
    _blocks,
    _component,
    ar_to_ma,
    haar_coefficients,
    haar_innovations,
)

__all__ = [
    "ScaleWeights",
    "estimate_weights",
    "forecast_scale",
    "combine_forecast",
    "tvewd_forecast_window",
    "store_forecasts",
]


FORECAST_COLUMNS = ("origin_date", "target_date", "h", "model", "forecast")


@dataclass
class ScaleWeights:
    """No-intercept least-squares weights of centered values on components."""

    weights: np.ndarray
    r2: float
    cond: float
    n_rows: int


def estimate_weights(centered: np.ndarray, components: list[np.ndarray]) -> ScaleWeights:
    """Estimate scale weights by no-intercept least squares.

    Args:
        centered: centered values aligned with the component rows.
        components: per-scale component arrays (NaN where undefined).

    Raises EstimationError when fewer defined rows than scales remain or the
    component matrix is too collinear (relative condition number beyond
    COND_THRESHOLD).
    """
    C = np.column_stack(components)
    y = np.asarray(centered, dtype=float)
    if len(y) != len(C):
        raise ValueError("centered values and components must share row count")
    rows = np.isfinite(y) & np.all(np.isfinite(C), axis=1)
    idx = np.nonzero(rows)[0]
    J = C.shape[1]
    if len(idx) < J:
        raise EstimationError(
            f"only {len(idx)} usable rows for {J} scale weights; "
            "window too short for the configured decomposition depth"
        )
    Cs, ys = C[idx], y[idx]
    w, cond = _checked_lstsq(Cs, ys, "collinear scale components")
    ss_res = float(np.sum((ys - Cs @ w) ** 2))
    ss_tot = float(np.sum(ys * ys))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return ScaleWeights(weights=w, r2=r2, cond=cond, n_rows=len(idx))


def forecast_scale(
    beta_boundary: np.ndarray, innovations: np.ndarray, j: int, h: int
) -> float | np.ndarray:
    """h-step forecast of scale j from its boundary betas.

    E_T[v_j(T+h)] = sum_k beta_j(k) * eps_j(T+h - k 2^j) over translates
    whose innovation is observable (T+h - k 2^j <= T, i.e. k 2^j >= h).
    Innovations dated after T, and translates reaching before the available
    shock history, contribute zero; an empty sum returns 0.  The observable
    terms are one index gather of the innovations and one dot product.

    A (B, K) stack of boundary betas with a (B, n) stack of innovations
    gives a (B,) array.  The translates and indices depend only on j, h, K
    and n, so they are found once for the stack; each window's terms are
    still one dot product of its own, with the bits of a one-window call.
    """
    if h < 1:
        raise ValueError(f"horizon must be >= 1, got {h}")
    beta = np.asarray(beta_boundary, dtype=float)
    innovations = np.asarray(innovations, dtype=float)
    spacing = 1 << j
    k = np.arange(-(-h // spacing), beta.shape[-1])
    idx = innovations.shape[-1] - 1 + h - k * spacing
    keep = idx >= 0
    b, e = beta.take(k[keep], axis=-1), innovations.take(idx[keep], axis=-1)
    observed = np.isfinite(e)
    if beta.ndim == 1:
        return float(np.dot(b[observed], e[observed]))
    return np.array([np.dot(bi[o], ei[o]) for bi, ei, o in zip(b, e, observed)])


def combine_forecast(trend: float, weights: np.ndarray, parts: np.ndarray) -> float:
    """The exact combination used everywhere: trend + sum(weights * parts)."""
    return trend + float(np.sum(weights * parts))


def _multiscale_points(windows: list, scales: MultiscaleConfig, horizons: tuple[int, ...]) -> list:
    """The multiscale chain shared by TVEWD and its time-invariant case EWD,
    for a stack of windows: per window, the forecast of each horizon as
    `{h: value}`, or the model failure it holds or its weights raise.

    A window is a failure, passed through, or a tuple (phi, residuals,
    centered, trend) of one geometry for all windows: `centered` holds the
    centred values of the trailing R rows of `residuals`, `phi` their AR
    rows, one per centred value (R, p) or one for all of them (p,), whose
    MA weights and Haar coefficients are then broadcast, and `trend` the
    level at u = 1.  The scale innovations are built from every residual.

    The windows run in slices of at most WOLD_BLOCK_BYTES of MA weights,
    R (H+1) weights a window, a broadcast row counted once for each row it
    stands for.  A slice inverts its AR rows in one `ar_to_ma` call, so an
    explosive slice warns once, and Haar-transforms the weights and the
    residuals, builds the J scale components the weights read (not the
    low-pass component, which no forecast reads) and forecasts every scale
    from its boundary betas, each on the whole slice.  Then each window's
    scale weights are estimated once, and each horizon combines its scale
    forecasts with the trend (`combine_forecast`).  Every step works row
    by row or window by window, so a window's bits do not depend on its
    slice or on the other windows.
    """
    results = list(windows)
    fitted = [i for i, window in enumerate(windows) if not isinstance(window, Exception)]
    if not fitted:
        return results
    phi, residuals, centered, trend = (np.stack(column) for column in zip(*(windows[i] for i in fitted)))
    R, H, J = centered.shape[1], scales.H, scales.J
    for win in _blocks(len(fitted), R, H):
        rows = phi[win]
        alpha = ar_to_ma(rows.reshape(-1, rows.shape[-1]), H).reshape(rows.shape[:-1] + (H + 1,))
        betas, _ = haar_coefficients(alpha, scales)
        del alpha  # a slice holds its betas, not its MA weights, while it builds its components
        if rows.ndim == 2:  # each window's one row stands for all of its R rows
            betas = [np.broadcast_to(b[:, None], (len(b), R, b.shape[-1])) for b in betas]
        innovations, _ = haar_innovations(residuals[win], J)
        scales_of = list(enumerate(zip(betas, innovations), start=1))
        components = [_component(b, e, 1 << j) for j, (b, e) in scales_of]
        try:  # per horizon, a (windows, J) array of scale forecasts
            parts = {
                h: np.stack([forecast_scale(b[:, -1], e, j, h) for j, (b, e) in scales_of], axis=1)
                for h in horizons
            }
        except _MODEL_FAILURES as exc:  # a horizon below 1 fails each window whose weights succeed
            parts = exc
        for k, (i, values, level) in enumerate(zip(fitted[win], centered[win], trend[win])):
            weights = _attempt(estimate_weights, values, [c[k] for c in components])
            if isinstance(weights, Exception) or isinstance(parts, Exception):
                results[i] = weights if isinstance(weights, Exception) else parts
            else:
                level = float(level)
                results[i] = {h: combine_forecast(level, weights.weights, parts[h][k]) for h in horizons}
    return results


def tvewd_forecast_window(
    values: np.ndarray,
    p: int,
    kernel: KernelSpec,
    scales: MultiscaleConfig,
    horizons: tuple[int, ...],
) -> dict[int, float] | list:
    """Forecast several horizons from one window fitted as a TVP-AR(p), as
    `{h: value}`.

    Only the rows the forecast reads are decomposed and levelled: residual
    rows from `first_full_row` on, the first with a full shock history, to
    the boundary row.  A local level does not depend on which other points
    are evaluated with it, so these levels equal the same rows of
    `local_level(values, kernel)` bit for bit, and the last of them
    sits at u = 1.

    `values` may also be a (B, n) stack of windows of one length.  The
    stack is fitted and levelled in one call each, which builds the kernel
    weights once for all windows, and the windows whose fit succeeded run
    the multiscale chain together (`_multiscale_points`) in slices of at
    most WOLD_BLOCK_BYTES of MA weights: one `ar_to_ma` call per slice, so
    one ExplosiveWarning per slice that holds an explosive row.  The result
    holds, per window, its `{h: value}` map or the model failure that
    window raised, bit for bit what a one-window call returns or raises.
    """
    values = np.asarray(values, dtype=float)
    stack = values.reshape(-1, values.shape[-1])  # one window is a stack of one
    T = stack.shape[1]
    start = scales.first_full_row(T - p)
    first = p + start  # the observation of residual row `start`
    try:
        fits = fit_tvp_ar(stack, p, kernel)
        levels = local_level(stack, kernel, u=np.arange(first + 1, T + 1, dtype=float) / T)
    except _MODEL_FAILURES as exc:  # preconditions on n, which fail every window
        fits = levels = [exc] * len(stack)
    chains = [
        fit if isinstance(fit, Exception)
        else (fit.phi[start:, 1:], fit.residuals, window[first:] - level, level[-1])
        for window, fit, level in zip(stack, fits, levels)
    ]
    results = _multiscale_points(chains, scales, horizons)
    return results if values.ndim == 2 else _single(results)


def store_forecasts(rows: list[tuple[str, str, int, str, float]], path: str) -> None:
    """Write `(origin_date, target_date, h, model, value)` rows as an
    `origin_date,target_date,h,model,forecast` CSV."""
    cells = ((origin, target, str(h), model, format_value(v)) for origin, target, h, model, v in rows)
    write_csv(path, FORECAST_COLUMNS, cells)
