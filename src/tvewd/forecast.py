"""Multiscale h-step forecasting from a time-varying decomposition.

The point forecast combines three ingredients estimated on the in-sample
window: the local level (trend) of the series at the right boundary u = 1,
per-scale forecasts that propagate observed scale innovations through the
boundary beta coefficients, and scale weights from a no-intercept
regression of the centered series on its per-scale components.  Scale innovations dated after
the forecast origin are unobservable and contribute zero, so each scale's
forecast uses only translates k with k * 2^j >= h; the low-pass component
is excluded from the combination.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .locreg import (
    CenteredSeries,
    EstimationError,
    KernelSpec,
    TvpArFit,
    _checked_lstsq,
    center,
    fit_tvp_ar,
)
from .series import VolatilitySeries, format_value, write_csv
from .wold import MultiscaleConfig, MultiscaleDecomposition, decompose

__all__ = [
    "ForecastConfig",
    "ScaleWeights",
    "ForecastPoint",
    "estimate_weights",
    "forecast_scale",
    "forecast_trend",
    "combine_forecast",
    "tvewd_forecast",
    "tvewd_forecast_window",
    "store_forecasts",
]


FORECAST_COLUMNS = ("origin_date", "target_date", "h", "model", "forecast")


@dataclass(frozen=True)
class ForecastConfig:
    """Everything needed to produce a multiscale forecast from a window."""

    p: int = 1
    scales: MultiscaleConfig = field(default_factory=MultiscaleConfig)
    kernel: KernelSpec = field(default_factory=KernelSpec)
    weight_window: int | None = None


@dataclass
class ScaleWeights:
    """No-intercept least-squares weights of centered values on components."""

    weights: np.ndarray
    r2: float
    cond: float
    n_rows: int


@dataclass
class ForecastPoint:
    """One h-step-ahead forecast with its exact bookkeeping breakdown.

    value == trend + sum(weights * scale_parts) with that exact expression,
    so the combination is reproducible bit for bit from the stored parts.
    """

    horizon: int
    value: float
    trend: float
    scale_parts: np.ndarray
    weights: np.ndarray
    model: str = "TVEWD"
    origin_date: str | None = None
    target_date: str | None = None


def estimate_weights(
    centered: np.ndarray,
    components: list[np.ndarray],
    window: int | None = None,
) -> ScaleWeights:
    """Estimate scale weights by no-intercept least squares.

    Args:
        centered: centered values aligned with the component rows.
        components: per-scale component arrays (NaN where undefined).
        window: use only the trailing `window` defined rows (None = all).

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
    if window is not None and window < len(idx):
        idx = idx[-window:]
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


def forecast_trend(centered: CenteredSeries) -> float:
    """Trend part: the local level at the boundary u = 1, constant across horizons."""
    return float(centered.trend[-1])


def combine_forecast(trend: float, weights: np.ndarray, parts: np.ndarray) -> float:
    """The exact combination used everywhere: trend + sum(weights * parts)."""
    return trend + float(np.sum(weights * parts))


@dataclass
class _WindowState:
    """Shared per-window state so several horizons reuse one fit."""

    fit: TvpArFit
    centered: CenteredSeries
    decomp: MultiscaleDecomposition
    weights: ScaleWeights
    trend: float


def _prepare_window(values: np.ndarray, cfg: ForecastConfig) -> _WindowState:
    fit = fit_tvp_ar(values, cfg.p, cfg.kernel)
    centered = center(fit)
    # only rows with a full shock history enter the weights, and the forecast
    # reads the boundary row, so the rows before them are not decomposed
    decomp = decompose(fit, cfg.scales, start=cfg.scales.first_full_row(len(fit.residuals)))
    rows = centered.values[cfg.p + decomp.start :]
    weights = estimate_weights(rows, decomp.components, cfg.weight_window)
    # the trend curve's last point sits at u = 1, i.e. the boundary level
    trend = forecast_trend(centered)
    return _WindowState(fit=fit, centered=centered, decomp=decomp, weights=weights, trend=trend)


def tvewd_forecast_window(
    values: np.ndarray, cfg: ForecastConfig, horizons: tuple[int, ...]
) -> list[ForecastPoint]:
    """Forecast several horizons from one fitted window."""
    state = _prepare_window(np.asarray(values, dtype=float), cfg)
    J = cfg.scales.J
    points = []
    for h in horizons:
        parts = np.array(
            [
                forecast_scale(state.decomp.betas[j - 1][-1], state.decomp.innovations[j - 1], j, h)
                for j in range(1, J + 1)
            ]
        )
        value = combine_forecast(state.trend, state.weights.weights, parts)
        points.append(
            ForecastPoint(
                horizon=h,
                value=value,
                trend=state.trend,
                scale_parts=parts,
                weights=state.weights.weights.copy(),
            )
        )
    return points


def tvewd_forecast(series, cfg: ForecastConfig, horizon: int = 1) -> ForecastPoint:
    """One h-step-ahead forecast from the end of the given series."""
    if isinstance(series, VolatilitySeries):
        values = series.values
        origin = str(series.dates[-1])
        target = str(np.busday_offset(series.dates[-1], horizon, roll="forward"))
    else:
        values = np.asarray(series, dtype=float)
        origin = None
        target = None
    point = tvewd_forecast_window(values, cfg, (horizon,))[0]
    point.origin_date = origin
    point.target_date = target
    return point


def store_forecasts(points: list[ForecastPoint], path: str) -> None:
    """Write forecasts as an `origin_date,target_date,h,model,forecast` CSV."""
    rows = (
        (pt.origin_date or "", pt.target_date or "", str(pt.horizon), pt.model,
         format_value(pt.value))
        for pt in points
    )
    write_csv(path, FORECAST_COLUMNS, rows)
