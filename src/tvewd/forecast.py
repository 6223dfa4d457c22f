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
    ar_to_ma,
    haar_coefficients,
    haar_innovations,
    scale_components,
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
) -> float:
    """h-step forecast of scale j from its boundary betas.

    E_T[v_j(T+h)] = sum_k beta_j(k) * eps_j(T+h - k 2^j) over translates
    whose innovation is observable (T+h - k 2^j <= T, i.e. k 2^j >= h).
    Innovations dated after T, and translates reaching before the available
    shock history, contribute zero; an empty sum returns 0.  The observable
    terms are one index gather of the innovations and one dot product.
    """
    if h < 1:
        raise ValueError(f"horizon must be >= 1, got {h}")
    spacing = 1 << j
    k = np.arange(-(-h // spacing), len(beta_boundary))
    idx = len(innovations) - 1 + h - k * spacing
    k, idx = k[idx >= 0], idx[idx >= 0]
    e = np.asarray(innovations, dtype=float)[idx]
    observed = np.isfinite(e)
    return float(np.dot(np.asarray(beta_boundary, dtype=float)[k[observed]], e[observed]))


def combine_forecast(trend: float, weights: np.ndarray, parts: np.ndarray) -> float:
    """The exact combination used everywhere: trend + sum(weights * parts)."""
    return trend + float(np.sum(weights * parts))


def _multiscale_points(
    alpha: np.ndarray,
    residuals: np.ndarray,
    centered: np.ndarray,
    trend: float,
    scales: MultiscaleConfig,
    horizons: tuple[int, ...],
) -> dict[int, float]:
    """The multiscale chain shared by TVEWD and its time-invariant case EWD:
    the forecast of each horizon, as `{h: value}`.

    `centered` holds the centred values of the trailing rows of `residuals`,
    and `alpha` their MA weights: one (H+1,) row per centred value, or one
    row for all of them, whose Haar coefficients are then broadcast.  The
    scale innovations are built from every residual.  `trend` is the level
    at u = 1.  The scale weights are estimated once; each horizon forecasts
    every scale from its boundary betas and combines them with the trend
    (`combine_forecast`).
    """
    betas, gamma = haar_coefficients(alpha, scales)
    if alpha.ndim == 1:
        rows = len(centered)
        gamma = np.broadcast_to(gamma, (rows, len(gamma)))
        betas = [np.broadcast_to(b, (rows, len(b))) for b in betas]
    innovations, low_pass = haar_innovations(residuals, scales.J)
    components, _ = scale_components(betas, gamma, innovations, low_pass, scales)
    weights = estimate_weights(centered, components).weights
    forecasts = {}
    for h in horizons:
        parts = np.array(
            [forecast_scale(betas[j - 1][-1], innovations[j - 1], j, h) for j in range(1, scales.J + 1)]
        )
        forecasts[h] = combine_forecast(trend, weights, parts)
    return forecasts


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
    weights once for all windows; each window is then decomposed and
    weighted on its own.  The result holds, per window, its `{h: value}`
    map or the model failure that window raised, bit for bit what a
    one-window call returns or raises.
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

    def forecasts(window, fit, level):
        alpha = ar_to_ma(fit.phi[start:, 1:], scales.H)
        return _multiscale_points(
            alpha, fit.residuals, window[first:] - level, float(level[-1]), scales, horizons
        )

    results = [
        fit if isinstance(fit, Exception) else _attempt(forecasts, window, fit, level)
        for window, fit, level in zip(stack, fits, levels)
    ]
    return results if values.ndim == 2 else _single(results)


def store_forecasts(rows: list[tuple[str, str, int, str, float]], path: str) -> None:
    """Write `(origin_date, target_date, h, model, value)` rows as an
    `origin_date,target_date,h,model,forecast` CSV."""
    cells = ((origin, target, str(h), model, format_value(v)) for origin, target, h, model, v in rows)
    write_csv(path, FORECAST_COLUMNS, cells)
