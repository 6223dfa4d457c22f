"""Benchmark forecasting models sharing the package's estimation machinery.

Models (names match the forecast CSV contract):
    HAR    static heterogeneous autoregression, direct h-step OLS
    TVHAR  same design, coefficients from the local linear boundary fit
    TVAR   time-varying AR(p), iterated recursion with frozen boundary
           coefficients and zero future shocks
    EWD    time-invariant multiscale pipeline on a global OLS AR(p) fit
    TVEWD  the full time-varying multiscale pipeline

Every model consumes one in-sample window and emits point forecasts for the
requested horizons.  The rolling evaluation harness drives them through
`ModelSpec.forecast_all`, one stack of windows per call.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .forecast import _multiscale_points, tvewd_forecast_window
from .locreg import (
    EstimationError,
    KernelSpec,
    _attempt,
    _checked_lstsq,
    _design,
    boundary_fit,
    local_level,
    local_linear,
)
from .wold import MultiscaleConfig, decompose_static

__all__ = [
    "MODEL_NAMES",
    "ModelSpec",
    "har_terms",
    "har_fit_forecast",
    "tvhar_fit_forecast",
    "tvar_forecast",
    "ewd_static_forecast",
]

MODEL_NAMES = ("HAR", "TVHAR", "TVAR", "EWD", "TVEWD")
HAR_LAGS = (1, 5, 22)


def har_terms(values: np.ndarray, t: int) -> tuple[float, float, float]:
    """Daily, weekly and monthly terms at 1-based time t (t >= 22).

    daily = v_t, weekly = mean(v_{t-4..t}), monthly = mean(v_{t-21..t}).
    """
    values = np.asarray(values, dtype=float)
    if t < HAR_LAGS[2]:
        raise ValueError(f"need t >= {HAR_LAGS[2]}, got t={t}")
    if t > len(values):
        raise ValueError(f"t={t} beyond series length {len(values)}")
    i = t - 1
    daily = float(values[i])
    weekly = float(np.mean(values[i - 4 : i + 1]))
    monthly = float(np.mean(values[i - 21 : i + 1]))
    return daily, weekly, monthly


def _har_design(values: np.ndarray, h: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Direct h-step design: y = v_{t+h}, rows t = 22..T-h (1-based)."""
    T = len(values)
    if T - h < HAR_LAGS[2]:
        raise EstimationError(f"window of {T} observations too short for horizon {h}")
    t_idx = np.arange(HAR_LAGS[2] - 1, T - h)  # 0-based predictor rows
    daily = values[t_idx]
    csum = np.concatenate(([0.0], np.cumsum(values)))
    weekly = (csum[t_idx + 1] - csum[t_idx - 4]) / 5.0
    monthly = (csum[t_idx + 1] - csum[t_idx - 21]) / 22.0
    X = np.column_stack([np.ones(len(t_idx)), daily, weekly, monthly])
    y = values[t_idx + h]
    tau = (t_idx + 1).astype(float) / T
    return y, X, tau


def _check_har_window(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if len(values) < 100:
        raise EstimationError(f"HAR window must hold at least 100 observations, got {len(values)}")
    return values


def har_fit_forecast(values: np.ndarray, h: int) -> tuple[float, np.ndarray]:
    """Static HAR: OLS of v_{t+h} on (1, daily, weekly, monthly).

    Returns (forecast from the terms at t = T, coefficient vector).
    """
    values = _check_har_window(values)
    y, X, _ = _har_design(values, h)
    coef, _ = _checked_lstsq(X, y, "singular HAR design")
    x_T = np.array([1.0, *har_terms(values, len(values))])
    return float(x_T @ coef), coef


def tvhar_fit_forecast(values: np.ndarray, h: int, kernel: KernelSpec) -> tuple[float, np.ndarray]:
    """Time-varying HAR: boundary (u = 1) local linear fit of the HAR design.

    With a uniform kernel at bandwidth 1 every weight is equal, so the
    levels are c + d from one least-squares solve of y on [X, tau X].
    The static `har_fit_forecast` coefficients equal these levels plus the
    omitted-slope term (X'X)^-1 X' D s, where D = (tau - 1) X and s is the
    slope block of the solve on [X, D]; the forecasts differ by x_T times
    that term.  The two fits coincide only if the sample slopes vanish.
    Acceptance criterion 07 pins this.
    """
    values = _check_har_window(values)
    y, X, tau = _har_design(values, h)
    levels, _ = local_linear(y, X, tau, 1.0, kernel)
    x_T = np.array([1.0, *har_terms(values, len(values))])
    return float(x_T @ levels), levels


def tvar_forecast(
    values: np.ndarray, p: int, horizons: tuple[int, ...], kernel: KernelSpec
) -> dict[int, float]:
    """Time-varying AR(p): iterate the recursion with boundary coefficients.

    The last p observations are centered with the estimated local level
    (trend) at their own time points, the AR recursion is iterated on
    centered values with the boundary (u = 1) coefficients of `boundary_fit`
    and future shocks set to zero, and the boundary level is added back.
    Only those p levels and one boundary solve are computed; they equal the
    matching entries of a full `fit_tvp_ar` and `local_level` bit for bit.
    """
    values = np.asarray(values, dtype=float)
    levels, _ = boundary_fit(values, p, kernel)
    T = len(values)
    trend_tail = local_level(values, kernel, u=np.arange(T - p + 1, T + 1, dtype=float) / T)
    trend = float(trend_tail[-1])  # local level at the u = 1 boundary
    coefs = levels[1:]  # boundary AR coefficients
    buf = list(values[-p:] - trend_tail)  # centered, most recent last
    out: dict[int, float] = {}
    for step in range(1, max(horizons) + 1):
        nxt = float(np.dot(coefs, buf[::-1][:p]))
        buf.append(nxt)
        if step in horizons:
            out[step] = trend + nxt
    return {h: out[h] for h in horizons}


def _ols_ar(values: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Global OLS AR(p) with intercept; returns (coefficients, residuals)."""
    T = len(values)
    if T <= 10 * (p + 1):
        raise EstimationError(f"series too short for OLS AR({p}): {T} observations")
    y, X, _ = _design(values, p)
    coef, _ = _checked_lstsq(X, y, "singular AR design")
    return coef, y - X @ coef


def ewd_static_forecast(
    values: np.ndarray, p: int, scales: MultiscaleConfig, horizons: tuple[int, ...]
) -> dict[int, float]:
    """Static multiscale pipeline: OLS AR(p), then the decomposition with
    time-invariant alpha and the multiscale chain TVEWD runs.

    The static analog of the local level is the global OLS straight line in
    rescaled time; centering and the trend forecast use that line.
    """
    values = np.asarray(values, dtype=float)
    coef, residuals = _ols_ar(values, p)
    T = len(values)
    tau = np.arange(1, T + 1, dtype=float) / T
    line, _ = _checked_lstsq(np.column_stack([np.ones(T), tau]), values, "singular trend design")
    trend_curve = line[0] + line[1] * tau
    decomp = decompose_static(coef[1:], residuals, scales)
    points = _multiscale_points(decomp, values[p:] - trend_curve[p:], float(trend_curve[-1]), horizons)
    return {pt.horizon: pt.value for pt in points}


@dataclass(frozen=True)
class ModelSpec:
    """A named, fully-configured forecasting model for the rolling harness.

    p is the AR order of TVAR, EWD and TVEWD: one order for every horizon,
    or a per-horizon map {h: p}, which is stored as (h, p) pairs sorted by h
    so that the spec stays hashable.  Horizons that share an order share one
    window fit.  HAR and TVHAR do not read p but group their horizons the
    same way, so that every model counts a failure once per order.  Every
    order must be at least 1.
    """

    name: str
    p: int | tuple[tuple[int, int], ...] = 1
    kernel: KernelSpec = field(default_factory=KernelSpec)
    scales: MultiscaleConfig = field(default_factory=MultiscaleConfig)
    label: str | None = None

    def __post_init__(self):
        if self.name not in MODEL_NAMES:
            raise ValueError(f"unknown model {self.name!r}, expected one of {MODEL_NAMES}")
        if isinstance(self.p, Mapping):
            pairs = tuple(sorted((int(h), int(p)) for h, p in self.p.items()))
            object.__setattr__(self, "p", pairs)
        orders = [p for _, p in self.p] if isinstance(self.p, tuple) else [self.p]
        if any(p < 1 for p in orders):
            raise ValueError(f"AR order must be >= 1, got {min(orders)}")

    @property
    def display(self) -> str:
        return self.label or self.name

    def horizon_groups(self, horizons: tuple[int, ...]) -> dict[int, tuple[int, ...]]:
        """The requested horizons grouped by AR order, in order of first appearance."""
        orders = dict(self.p) if isinstance(self.p, tuple) else dict.fromkeys(horizons, self.p)
        missing = [h for h in horizons if h not in orders]
        if missing:
            raise ValueError(f"{self.display}: no AR order for horizons {missing}")
        groups: dict[int, list[int]] = {}
        for h in horizons:
            groups.setdefault(orders[h], []).append(h)
        return {p: tuple(hs) for p, hs in groups.items()}

    def forecast_all(self, values: np.ndarray, horizons: tuple[int, ...]) -> dict[int, float] | list:
        """Point forecasts for every horizon from one in-sample window.

        The window is fitted once per distinct AR order among the requested
        horizons, and each order fails or succeeds on its own.

        `values` may also be a (B, n) stack of windows of one length.  The
        result then holds one `(forecasts, failures)` pair per window: the
        forecasts of every order that succeeded, and the model failure
        (EstimationError, LinAlgError, FloatingPointError or ValueError) of
        each order that failed, in `horizon_groups` order.  A one-window
        call returns that pair's forecasts or raises its first failure.
        Other exceptions propagate.  TVEWD fits and levels the stack
        together (`tvewd_forecast_window`); the other models run window by
        window.
        """
        values = np.asarray(values, dtype=float)
        windows = values.reshape(-1, values.shape[-1])  # one window is a stack of one
        out: list[tuple[dict, list]] = [({}, []) for _ in windows]
        for p, hs in self.horizon_groups(horizons).items():
            for (forecasts, failures), fc in zip(out, self._forecast_order(windows, p, hs)):
                if isinstance(fc, Exception):
                    failures.append(fc)
                else:
                    forecasts.update(fc)
        if values.ndim == 2:
            return out
        ((forecasts, failures),) = out
        if failures:
            raise failures[0]
        return forecasts

    def _forecast_order(self, windows: np.ndarray, p: int, horizons: tuple[int, ...]) -> list:
        """Per window: forecasts for horizons that share the AR order p, or the model failure."""
        if self.name == "TVEWD":
            return [
                points if isinstance(points, Exception) else {pt.horizon: pt.value for pt in points}
                for points in tvewd_forecast_window(windows, p, self.kernel, self.scales, horizons)
            ]
        return [_attempt(self._forecast_window, values, p, horizons) for values in windows]

    def _forecast_window(self, values: np.ndarray, p: int, horizons: tuple[int, ...]) -> dict:
        """HAR, TVHAR, TVAR or EWD forecasts from one window for horizons that share the AR order p."""
        if self.name == "HAR":
            return {h: har_fit_forecast(values, h)[0] for h in horizons}
        if self.name == "TVHAR":
            return {h: tvhar_fit_forecast(values, h, self.kernel)[0] for h in horizons}
        if self.name == "TVAR":
            return tvar_forecast(values, p, horizons, self.kernel)
        return ewd_static_forecast(values, p, self.scales, horizons)
