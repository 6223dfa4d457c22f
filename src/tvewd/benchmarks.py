"""Benchmark forecasting models sharing the package's estimation machinery.

Models (names match the forecast CSV contract):
    HAR    static heterogeneous autoregression, direct h-step OLS
    TVHAR  same design, coefficients from the local linear boundary fit
    TVAR   time-varying AR(p), iterated recursion with frozen boundary
           coefficients and zero future shocks
    EWD    time-invariant multiscale pipeline on a global OLS AR(p) fit
    TVEWD  the full time-varying multiscale pipeline

Every model consumes one in-sample window and emits one `{h: value}` map of
point forecasts for the requested horizons.  The rolling evaluation harness
drives them through `ModelSpec.forecast_all`, one stack of windows per call.
TVEWD, EWD and TVHAR take the stack whole: the work that does not depend
on a window's values (kernel weights, active sets, translate plans) is done
once, and the work that does runs on the whole stack or on slices of it,
down to the least-squares solves, which stay one per window.  HAR and TVAR
run window by window.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .forecast import _multiscale_points, tvewd_forecast_window
from .locreg import (
    _MODEL_FAILURES,
    EstimationError,
    KernelSpec,
    _attempt,
    _checked_lstsq,
    _design,
    _single,
    boundary_fit,
    local_level,
    local_linear,
)
from .series import _check_integer
from .wold import MultiscaleConfig

__all__ = [
    "MODEL_NAMES",
    "AR_MODELS",
    "ModelSpec",
    "har_terms",
    "har_fit_forecast",
    "tvhar_fit_forecast",
    "tvar_forecast",
    "ewd_static_forecast",
]

MODEL_NAMES = ("HAR", "TVHAR", "TVAR", "EWD", "TVEWD")
# The models that read an AR order; HAR and TVHAR are direct h-step regressions.
AR_MODELS = ("TVAR", "EWD", "TVEWD")
HAR_LAGS = (1, 5, 22)


def har_terms(values: np.ndarray, t: int) -> tuple:
    """Daily, weekly and monthly terms at 1-based time t (t >= 22).

    daily = v_t, weekly = mean(v_{t-4..t}), monthly = mean(v_{t-21..t}).
    A (B, n) stack of windows gives each term as a (B,) array.
    """
    values = np.asarray(values, dtype=float)
    if t < HAR_LAGS[2]:
        raise ValueError(f"need t >= {HAR_LAGS[2]}, got t={t}")
    if t > values.shape[-1]:
        raise ValueError(f"t={t} beyond series length {values.shape[-1]}")
    _, week, month = HAR_LAGS
    daily = values[..., t - 1]
    weekly = np.mean(values[..., t - week : t], axis=-1)
    monthly = np.mean(values[..., t - month : t], axis=-1)
    if values.ndim == 1:
        return float(daily), float(weekly), float(monthly)
    return daily, weekly, monthly


def _har_design(values: np.ndarray, h: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Direct h-step design: y = v_{t+h}, rows t = 22..T-h (1-based), of one
    window, or of each window of a (B, T) stack."""
    T = values.shape[-1]
    _, week, month = HAR_LAGS
    first = month  # the first row with a full monthly term
    if T - h < first:
        raise EstimationError(f"window of {T} observations too short for horizon {h}")
    last = T - h  # predictor rows t = first..last
    csum = np.concatenate((np.zeros(values.shape[:-1] + (1,)), np.cumsum(values, axis=-1)), axis=-1)
    total = csum[..., first : last + 1]  # v_1 + ... + v_t
    weekly = (total - csum[..., first - week : last + 1 - week]) / float(week)
    monthly = (total - csum[..., first - month : last + 1 - month]) / float(month)
    daily = values[..., first - 1 : last]
    X = np.stack([np.ones(daily.shape), daily, weekly, monthly], axis=-1)
    y = values[..., first - 1 + h :]
    tau = np.arange(first, last + 1, dtype=float) / T
    return y, X, tau


def _check_har_window(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape[-1] < 100:
        raise EstimationError(f"HAR window must hold at least 100 observations, got {values.shape[-1]}")
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


def tvhar_fit_forecast(values: np.ndarray, h: int, kernel: KernelSpec) -> tuple[float, np.ndarray] | list:
    """Time-varying HAR: boundary (u = 1) local linear fit of the HAR design.

    With a uniform kernel at bandwidth 1 every weight is equal, so the
    levels are c + d from one least-squares solve of y on [X, tau X].
    The static `har_fit_forecast` coefficients equal these levels plus the
    omitted-slope term (X'X)^-1 X' D s, where D = (tau - 1) X and s is the
    slope block of the solve on [X, D]; the forecasts differ by x_T times
    that term.  The two fits coincide only if the sample slopes vanish.
    Acceptance criterion 07 pins this.

    `values` may also be a (B, n) stack of windows of one length.  The
    designs and the terms at t = T are built for the whole stack and the
    u = 1 kernel weights once (`local_linear`); each window keeps its own
    solve and dot product.  The result holds, per window, its (forecast,
    levels) pair or the model failure it raised, bit for bit what a
    one-window call returns or raises.
    """
    values = np.asarray(values, dtype=float)
    stack = values.reshape(-1, values.shape[-1])  # one window is a stack of one
    try:
        y, X, tau = _har_design(_check_har_window(stack), h)
        solves = local_linear(y, X, tau, 1.0, kernel)
        x_T = np.column_stack([np.ones(len(stack)), *har_terms(stack, stack.shape[1])])
    except _MODEL_FAILURES as exc:  # checks on the window length, which fail every window
        results = [exc] * len(stack)
    else:
        results = [
            solve if isinstance(solve, Exception) else (float(x @ solve[0]), solve[0])
            for x, solve in zip(x_T, solves)
        ]
    return results if values.ndim == 2 else _single(results)


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
) -> dict[int, float] | list:
    """Static multiscale pipeline: the multiscale chain TVEWD runs, on the
    MA weights of a global OLS AR(p) fit, inverted once for every row.

    The static analog of the local level is the global OLS straight line in
    rescaled time; centering and the trend forecast use that line.  As for
    TVEWD, only the rows from `first_full_row` on are decomposed.

    `values` may also be a (B, n) stack of windows of one length.  Each
    window fits its OLS row and trend line on its own, and the windows run
    the multiscale chain together (`_multiscale_points`).  The result
    holds, per window, its `{h: value}` map or the model failure it raised,
    bit for bit what a one-window call returns or raises.
    """
    values = np.asarray(values, dtype=float)
    stack = values.reshape(-1, values.shape[-1])  # one window is a stack of one
    T = stack.shape[1]
    first = p + scales.first_full_row(T - p)  # the observation of the first decomposed row
    tau = np.arange(1, T + 1, dtype=float) / T
    trend_design = np.column_stack([np.ones(T), tau])

    def chain(window):
        coef, residuals = _ols_ar(window, p)
        line, _ = _checked_lstsq(trend_design, window, "singular trend design")
        trend_curve = line[0] + line[1] * tau
        return coef[1:], residuals, window[first:] - trend_curve[first:], trend_curve[-1]

    results = _multiscale_points([_attempt(chain, window) for window in stack], scales, horizons)
    return results if values.ndim == 2 else _single(results)


@dataclass(frozen=True)
class ModelSpec:
    """A named, fully-configured forecasting model for the rolling harness.

    p is the AR order of TVAR, EWD and TVEWD: one order for every horizon,
    or a per-horizon map {h: p}, which is stored as (h, p) pairs sorted by h
    so that the spec stays hashable.  Horizons that share an order share one
    window fit.  HAR and TVHAR do not read p: they are direct h-step
    regressions, one fit per horizon, so a map need not cover their
    horizons.  Every order must be an integer (not a bool) and at least 1.
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
            pairs = tuple(sorted((int(h), p) for h, p in self.p.items()))
            object.__setattr__(self, "p", pairs)
        orders = [p for _, p in self.p] if isinstance(self.p, tuple) else [self.p]
        for p in orders:
            _check_integer(p, "p")
        if any(p < 1 for p in orders):
            raise ValueError(f"AR order must be >= 1, got {min(orders)}")

    @property
    def display(self) -> str:
        return self.label or self.name

    def horizon_groups(self, horizons: tuple[int, ...]) -> dict[int, tuple[int, ...]]:
        """The requested horizons grouped by fit, in order of first appearance:
        by AR order for TVAR, EWD and TVEWD, and one horizon per group, keyed
        by itself, for HAR and TVHAR."""
        if self.name not in AR_MODELS:
            return {h: (h,) for h in horizons}
        orders = dict(self.p) if isinstance(self.p, tuple) else dict.fromkeys(horizons, self.p)
        missing = [h for h in horizons if h not in orders]
        if missing:
            raise ValueError(f"{self.display}: no AR order for horizons {missing}")
        groups: dict[int, list[int]] = {}
        for h in horizons:
            groups.setdefault(orders[h], []).append(h)
        return {p: tuple(hs) for p, hs in groups.items()}

    def check_window(self, window: int, horizons: tuple[int, ...]) -> None:
        """Raise ValueError unless `window` leaves every EWD or TVEWD fit at
        least J rows with a full H-lag shock history: window >= H + p + J - 1
        for each AR order p of the horizons."""
        if self.name not in ("EWD", "TVEWD"):
            return
        p, (J, N) = max(self.horizon_groups(horizons)), (self.scales.J, self.scales.N)
        need = self.scales.H + p + J - 1
        if window < need:
            raise ValueError(
                f"{self.display}: window {window} is too short for p={p} at J={J}, N={N}; "
                f"it needs at least {need}"
            )

    def forecast_all(self, values: np.ndarray, horizons: tuple[int, ...]) -> dict[int, float] | list:
        """Point forecasts for every horizon from one in-sample window, as
        one `{h: value}` map of Python floats, whatever the model.

        The window is fitted once per group of `horizon_groups` (per AR
        order for TVAR, EWD and TVEWD, per horizon for HAR and TVHAR), and
        each group fails or succeeds on its own.

        `values` may also be a (B, n) stack of windows of one length.  The
        result then holds one `(forecasts, failures)` pair per window: the
        forecasts of every group that succeeded, and the model failure
        (EstimationError, LinAlgError, FloatingPointError or ValueError) of
        each group that failed, in `horizon_groups` order.  A one-window
        call returns that pair's forecasts or raises its first failure.
        Other exceptions propagate.  TVEWD (`tvewd_forecast_window`), EWD
        (`ewd_static_forecast`) and TVHAR (`tvhar_fit_forecast`) take the
        stack in one call per group, with a least-squares solve per window;
        HAR and TVAR run window by window.
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
        """Per window: forecasts for one `horizon_groups` group with key p, or the model failure."""
        if self.name == "TVEWD":
            return tvewd_forecast_window(windows, p, self.kernel, self.scales, horizons)
        if self.name == "EWD":
            return ewd_static_forecast(windows, p, self.scales, horizons)
        if self.name == "TVHAR":  # a group of one horizon, keyed by it
            fits = tvhar_fit_forecast(windows, p, self.kernel)
            return [fit if isinstance(fit, Exception) else {p: fit[0]} for fit in fits]
        return [_attempt(self._forecast_window, values, p, horizons) for values in windows]

    def _forecast_window(self, values: np.ndarray, p: int, horizons: tuple[int, ...]) -> dict:
        """HAR or TVAR forecasts from one window for one group with key p."""
        if self.name == "HAR":
            return {h: har_fit_forecast(values, h)[0] for h in horizons}
        return tvar_forecast(values, p, horizons, self.kernel)
