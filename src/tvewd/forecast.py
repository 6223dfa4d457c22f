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

import bisect
from dataclasses import dataclass

import numpy as np

from .locreg import _MODEL_FAILURES, EstimationError, _attempt, _checked_lstsq
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


def _multiscale_points(chains: list[tuple[list, tuple[int, ...]]], scales: MultiscaleConfig) -> list[list]:
    """The multiscale chain shared by TVEWD and its time-invariant case EWD,
    for the windows of one block: per chain, per window, the forecast of
    each of the chain's horizons as `{h: value}`, or the model failure the
    window holds or its weights raise.

    A chain is a pair (windows, horizons), with one entry per window of the
    block: a failure, passed through, or a tuple (phi, residuals, centered,
    trend) of one geometry for every window and chain.  `centered` holds
    the centred values of the trailing R rows of `residuals`, `phi` their
    AR rows, one per centred value (R, p), as TVEWD has, or one for all of
    them (p,), as EWD has, whose MA weights and Haar coefficients are then
    broadcast, and `trend` the level at u = 1.  The scale innovations are
    built from every residual.

    The windows that some chain fitted run in slices.  A slice holds at
    most WOLD_BLOCK_BYTES of MA weights of the chains with a row per
    centred value, R (H+1) weights a window each; with none, a broadcast
    row counts for the R rows it stands for, so EWD alone slices as TVEWD
    alone does.  A slice inverts the AR rows of every chain in one
    `ar_to_ma` call, so an explosive slice warns once (ExplosiveWarning),
    not once per chain, and Haar-transforms them in one
    `haar_coefficients` call; both work row by row.  Then, per chain, it
    Haar-transforms the residuals, builds the J scale components the
    weights read (not the low-pass component, which no forecast reads) and
    forecasts every scale from its boundary betas, each on the whole
    slice.  Each window's scale weights are estimated once, and each
    horizon combines its scale forecasts with the trend
    (`combine_forecast`).  Every step works row by row or window by
    window, so a window's bits do not depend on its slice, on the other
    windows or on the other chains.
    """
    results = [list(windows) for windows, _ in chains]
    fitted = [[i for i, window in enumerate(windows) if not isinstance(window, Exception)] for windows, _ in chains]
    block = sorted(set().union(*fitted))
    if not block:
        return results
    stacks = [
        [np.stack(column) for column in zip(*(windows[i] for i in own))] if own else None
        for (windows, _), own in zip(chains, fitted)
    ]
    R = next(stack[2].shape[1] for stack in stacks if stack)
    per_row = sum(1 for stack in stacks if stack and stack[0].ndim == 3)
    H, J = scales.H, scales.J
    for win in _blocks(len(block), R * max(1, per_row), H):
        first, last = block[win][0], block[win][-1]
        # a chain's windows in the slice are a run of its own fitted windows
        runs = [
            (c, slice(bisect.bisect_left(own, first), bisect.bisect_right(own, last)))
            for c, own in enumerate(fitted)
        ]
        runs = [(c, run) for c, run in runs if run.start < run.stop]
        rows = [stacks[c][0][run] for c, run in runs]
        flat = [r.reshape(-1, r.shape[-1]) for r in rows]
        alpha = ar_to_ma(np.concatenate(flat), H)
        coefficients, _ = haar_coefficients(alpha, scales)
        del alpha  # a slice holds its betas, not its MA weights, while it builds its components
        offset = 0
        for (c, run), r, f in zip(runs, rows, flat):
            betas = [b[offset : offset + len(f)].reshape(r.shape[:-1] + b.shape[-1:]) for b in coefficients]
            offset += len(f)
            if r.ndim == 2:  # each window's one row stands for all of its R rows
                betas = [np.broadcast_to(b[:, None], (len(b), R, b.shape[-1])) for b in betas]
            _, residuals, centered, trend = (column[run] for column in stacks[c])
            _chain_slice(results[c], fitted[c][run], betas, residuals, centered, trend, J, chains[c][1])
    return results


def _chain_slice(results, owners, betas, residuals, centered, trend, J, horizons) -> None:
    """One chain's slice of `_multiscale_points`, from its Haar coefficients
    on: each window's forecasts or failure, written to its place in results."""
    innovations, _ = haar_innovations(residuals, J)
    scales_of = list(enumerate(zip(betas, innovations), start=1))
    components = [_component(b, e, 1 << j) for j, (b, e) in scales_of]
    try:  # per horizon, a (windows, J) array of scale forecasts
        parts = {
            h: np.stack([forecast_scale(b[:, -1], e, j, h) for j, (b, e) in scales_of], axis=1)
            for h in horizons
        }
    except _MODEL_FAILURES as exc:  # a horizon below 1 fails each window whose weights succeed
        parts = exc
    for k, (i, values, level) in enumerate(zip(owners, centered, trend)):
        weights = _attempt(estimate_weights, values, [c[k] for c in components])
        if isinstance(weights, Exception) or isinstance(parts, Exception):
            results[i] = weights if isinstance(weights, Exception) else parts
        else:
            level = float(level)
            results[i] = {h: combine_forecast(level, weights.weights, parts[h][k]) for h in horizons}


def _tvewd_inputs(stack: np.ndarray, fits, levels, p: int, scales: MultiscaleConfig) -> list:
    """Per window of a (B, T) stack, TVEWD's chain inputs at order p for
    `_multiscale_points`, or its failure.

    fits is `fit_tvp_ar(stack, p, kernel)` or the error it raised; levels
    is `local_level(stack, kernel, u=...)` at the trailing rows of every
    window, at least from the first decomposed row to the boundary, or the
    error it raised.  A window takes its fit's failure first, then the
    levels' failure.
    """
    if isinstance(fits, Exception):
        return [fits] * len(stack)
    if isinstance(levels, Exception):
        return [fit if isinstance(fit, Exception) else levels for fit in fits]
    T = stack.shape[1]
    start = scales.first_full_row(T - p)
    first = p + start  # the observation of residual row `start`
    return [
        fit if isinstance(fit, Exception)
        else (fit.phi[start:, 1:], fit.residuals, window[first:] - level[first - T :], level[-1])
        for window, fit, level in zip(stack, fits, levels)
    ]


def store_forecasts(rows: list[tuple[str, str, int, str, float]], path: str) -> None:
    """Write `(origin_date, target_date, h, model, value)` rows as an
    `origin_date,target_date,h,model,forecast` CSV."""
    cells = ((origin, target, str(h), model, format_value(v)) for origin, target, h, model, v in rows)
    write_csv(path, FORECAST_COLUMNS, cells)
