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
drives all of a block's models through one `forecast_block` call, one stack
of windows for all of them; `ModelSpec.forecast_all` is a block of one
model.  Every model takes the stack whole: the work that does not depend on
a window's values (kernel weights, active sets, designs, translate plans)
is done once, and the work that does runs on the whole stack or on slices
of it, down to the least-squares solves and TVAR's recursion, which stay
one per window.  Work that several models of a block read (TVEWD's local
fit, which holds TVAR's boundary row, the local levels, and the inversion
of TVEWD's and EWD's AR rows) is done once per block.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .forecast import _multiscale_points, _tvewd_inputs
from .locreg import (
    _MODEL_FAILURES,
    EstimationError,
    KernelSpec,
    _attempt,
    _check_preconditions,
    _checked_lstsq,
    _design,
    _single,
    boundary_fit,
    fit_tvp_ar,
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
    "forecast_block",
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
    window, or of each window of a (B, T) stack, which `_check_har_window`
    has passed."""
    T = values.shape[-1]
    _, week, month = HAR_LAGS
    first = month  # the first row with a full monthly term
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


def _check_har_window(T: int, h: int) -> None:
    """Raise EstimationError unless a window of T observations holds a HAR
    regression for horizon h: at least 100 observations, and one row
    t = 22..T-h at least."""
    if T < 100:
        raise EstimationError(f"HAR window must hold at least 100 observations, got {T}")
    if T - h < HAR_LAGS[2]:
        raise EstimationError(f"window of {T} observations too short for horizon {h}")


def _har_forecasts(values: np.ndarray, h: int, kernel: KernelSpec | None) -> tuple[float, np.ndarray] | list:
    """HAR's design of one window, or of each window of a stack, solved by
    OLS, or with a kernel by the u = 1 local linear fit: per window,
    (forecast from the terms at t = T, coefficients), or the model failure;
    a one-window call raises it."""
    values = np.asarray(values, dtype=float)
    stack = values.reshape(-1, values.shape[-1])  # one window is a stack of one
    try:
        _check_har_window(stack.shape[1], h)
        y, X, tau = _har_design(stack, h)
        if kernel is None:
            solves = [_attempt(_checked_lstsq, Xi, yi, "singular HAR design") for Xi, yi in zip(X, y)]
        else:
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


def har_fit_forecast(values: np.ndarray, h: int) -> tuple[float, np.ndarray] | list:
    """Static HAR: OLS of v_{t+h} on (1, daily, weekly, monthly).

    Returns (forecast from the terms at t = T, coefficient vector).

    `values` may also be a (B, n) stack of windows of one length.  The
    designs and the terms at t = T are built for the whole stack; each
    window keeps its own solve and dot product.  The result holds, per
    window, its (forecast, coefficients) pair or the model failure it
    raised, bit for bit what a one-window call returns or raises.
    """
    return _har_forecasts(values, h, None)


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
    return _har_forecasts(values, h, kernel)


def tvar_forecast(
    values: np.ndarray, p: int, horizons: tuple[int, ...], kernel: KernelSpec
) -> dict[int, float] | list:
    """Time-varying AR(p): iterate the recursion with boundary coefficients.

    The last p observations are centered with the estimated local level
    (trend) at their own time points, the AR recursion is iterated on
    centered values with the boundary (u = 1) coefficients of `boundary_fit`
    and future shocks set to zero, and the boundary level is added back.
    Only those p levels and one boundary solve are computed; they equal the
    matching entries of a full `fit_tvp_ar` and `local_level` bit for bit.

    `values` may also be a (B, n) stack of windows of one length, fitted
    and levelled in one call each; each window keeps its own recursion.
    The result holds, per window, its `{h: value}` map or the model failure
    it raised, bit for bit what a one-window call returns or raises.
    """
    values = np.asarray(values, dtype=float)
    stack = values.reshape(-1, values.shape[-1])  # one window is a stack of one
    T = stack.shape[1]
    rows = _boundary_rows(stack, p, kernel, None)
    levels = _attempt(local_level, stack, kernel, np.arange(T - p + 1, T + 1, dtype=float) / T)
    results = _tvar_points(stack, rows, levels, p, horizons)
    return results if values.ndim == 2 else _single(results)


def _tvar_points(stack: np.ndarray, rows, levels, p: int, horizons: tuple[int, ...]) -> list:
    """Per window of a (B, T) stack, TVAR's forecasts at order p, or its failure.

    rows holds, per window, the (p+1,) u = 1 levels of its local AR fit or
    that fit's failure, or is one failure for the whole stack.  levels is
    `local_level(stack, kernel, u=...)` at the trailing rows of every
    window, at least its last p, or the error it raised.  A window takes
    its fit's failure first, then the levels' failure.
    """
    if isinstance(rows, Exception):
        return [rows] * len(stack)
    if isinstance(levels, Exception):
        return [row if isinstance(row, Exception) else levels for row in rows]
    results: list = []
    for window, row, level in zip(stack, rows, levels):
        if isinstance(row, Exception):
            results.append(row)
            continue
        trend_tail = level[-p:]
        trend = float(trend_tail[-1])  # local level at the u = 1 boundary
        coefs = row[1:]  # boundary AR coefficients
        buf = list(window[-p:] - trend_tail)  # centered, most recent last
        out: dict[int, float] = {}
        for step in range(1, max(horizons) + 1):
            nxt = float(np.dot(coefs, buf[::-1][:p]))
            buf.append(nxt)
            if step in horizons:
                out[step] = trend + nxt
        results.append({h: out[h] for h in horizons})
    return results


def _check_ols_window(T: int, p: int) -> None:
    """Raise EstimationError unless T observations hold an OLS AR(p) fit."""
    if T <= 10 * (p + 1):
        raise EstimationError(f"series too short for OLS AR({p}): {T} observations")


def _ols_ar(values: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Global OLS AR(p) with intercept; returns (coefficients, residuals)."""
    _check_ols_window(len(values), p)
    y, X, _ = _design(values, p)
    coef, _ = _checked_lstsq(X, y, "singular AR design")
    return coef, y - X @ coef


def _ewd_inputs(stack: np.ndarray, p: int, scales: MultiscaleConfig) -> list:
    """Per window of a (B, T) stack, EWD's chain inputs at order p for
    `_multiscale_points`, or its failure: the OLS AR row, its residuals,
    and the rows from `first_full_row` on centred on the OLS trend line in
    rescaled time, with that line's value at u = 1."""
    T = stack.shape[1]
    first = p + scales.first_full_row(T - p)  # the observation of the first decomposed row
    tau = np.arange(1, T + 1, dtype=float) / T
    trend_design = np.column_stack([np.ones(T), tau])

    def chain(window):
        coef, residuals = _ols_ar(window, p)
        line, _ = _checked_lstsq(trend_design, window, "singular trend design")
        trend_curve = line[0] + line[1] * tau
        return coef[1:], residuals, window[first:] - trend_curve[first:], trend_curve[-1]

    return [_attempt(chain, window) for window in stack]


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
    bit for bit what a one-window call returns or raises.  Alone, EWD
    inverts its rows in slices of its own, one ExplosiveWarning per slice
    that holds an explosive row; in a block with TVEWD at the same order
    and scales (`forecast_block`), its rows ride in TVEWD's slices, and an
    explosive slice warns once for both models.
    """
    values = np.asarray(values, dtype=float)
    stack = values.reshape(-1, values.shape[-1])  # one window is a stack of one
    (results,) = _multiscale_points([(_ewd_inputs(stack, p, scales), horizons)], scales)
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
        """Raise ValueError, naming the model, unless a window of `window`
        observations holds every fit of this model at these horizons.  This
        is the one minimum-window rule.  Its bounds are the checks the fits
        themselves run, per `horizon_groups` key:
          - EWD and TVEWD first need J rows with a full H-lag shock history,
            window >= H + p + J - 1 for the largest order p;
          - TVAR and TVEWD, the local fit's preconditions
            (`locreg._check_preconditions`): window > 10(2p+2) and
            bandwidth * window >= 2p+2;
          - EWD, the OLS minimum: window > 10(p+1);
          - HAR and TVHAR, per horizon h: at least 100 observations, and
            window - h >= 22.
        """
        groups = self.horizon_groups(horizons)
        if self.name in ("EWD", "TVEWD"):
            p, (J, N) = max(groups), (self.scales.J, self.scales.N)
            need = self.scales.H + p + J - 1
            if window < need:
                raise ValueError(
                    f"{self.display}: window {window} is too short for p={p} at J={J}, N={N}; "
                    f"it needs at least {need}"
                )
        try:
            for key in groups:
                if self.name in ("HAR", "TVHAR"):
                    _check_har_window(window, key)
                elif self.name == "EWD":
                    _check_ols_window(window, key)
                else:
                    _check_preconditions(window, key, self.kernel)
        except EstimationError as exc:
            raise ValueError(f"{self.display}: {exc}") from None

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
        Other exceptions propagate.  This is a block of one model
        (`forecast_block`), so it runs the code the rolling evaluation runs:
        every model takes the stack in one call per group, with a
        least-squares solve per window.
        """
        values = np.asarray(values, dtype=float)
        (out,) = forecast_block([self], values.reshape(-1, values.shape[-1]), horizons)
        if values.ndim == 2:
            return out
        ((forecasts, failures),) = out
        if failures:
            raise failures[0]
        return forecasts


def _boundary_rows(stack: np.ndarray, p: int, kernel: KernelSpec, fits) -> list | Exception:
    """Per window, the (p+1,) u = 1 levels of its local AR(p) fit, or its
    failure; one failure for the whole stack if the fit's preconditions fail.

    fits is the stack's `fit_tvp_ar` or the error it raised, or None.
    With a full fit, a window reads its last row, which equals
    `boundary_fit` bit for bit.  A window whose full fit failed takes its
    own `boundary_fit`: a full fit fails at its first bad point, which a
    one-point fit may never reach.  With None, the whole stack takes one
    `boundary_fit` call.
    """
    if isinstance(fits, Exception):
        return fits
    if fits is None:
        fits = _attempt(boundary_fit, stack, p, kernel)
        if isinstance(fits, Exception):
            return fits
        return [fit if isinstance(fit, Exception) else fit[0] for fit in fits]
    rows = [fit if isinstance(fit, Exception) else fit.phi[-1] for fit in fits]
    failed = [i for i, fit in enumerate(fits) if isinstance(fit, Exception)]
    if failed:
        for i, fit in zip(failed, boundary_fit(stack[failed], p, kernel)):
            rows[i] = fit if isinstance(fit, Exception) else fit[0]
    return rows


def _multiscale_pass(
    windows: np.ndarray, p: int, scales: MultiscaleConfig, members: list, fits: dict, levels: dict
) -> list:
    """One `_multiscale_points` pass for the (spec, horizons) members, TVEWD
    or EWD at order p and these scales: per member, per window, its
    forecasts or failure.  EWD's inputs are made once for the pass."""
    ewd = None
    chains = []
    for spec, hs in members:
        if spec.name == "TVEWD":
            chains.append((_tvewd_inputs(windows, fits[spec.kernel], levels.get(spec.kernel), p, scales), hs))
        else:
            ewd = ewd or _ewd_inputs(windows, p, scales)
            chains.append((ewd, hs))
    return _multiscale_points(chains, scales)


def forecast_block(models: list, windows: np.ndarray, horizons: tuple[int, ...]) -> list[list[tuple[dict, list]]]:
    """Forecasts of several models from one block of windows, a (B, n)
    stack: per model, one `(forecasts, failures)` pair per window, as
    `ModelSpec.forecast_all` gives for a stack.  A model that is not a
    `ModelSpec` runs its own `forecast_all`.

    The block knows all of its models up front.  It computes each piece of
    work that several of them read once, and frees it when it returns:
      - one `fit_tvp_ar` per (p, kernel) of TVEWD.  TVAR at that (p,
        kernel) reads each window's boundary AR row there
        (`_boundary_rows`); without TVEWD it makes one stacked
        `boundary_fit` call.
      - one `local_level` per kernel, at the trailing rows that every TVAR
        and TVEWD fit of that kernel reads: TVEWD's rows from its first
        decomposed row, and TVAR's last p.  A level does not depend on
        which other points are evaluated with it, so each model reads its
        own rows bit for bit.
      - one multiscale pass per (p, scales) for TVEWD and EWD together
        (`forecast._multiscale_points`).  Each slice inverts TVEWD's rows
        and EWD's OLS rows of its windows in one `ar_to_ma` call, so an
        explosive slice warns once for both, and Haar-transforms them in
        one `haar_coefficients` call.
    HAR and TVHAR take the stack once per horizon.  Every least-squares
    solve, TVAR recursion, weight estimate and combination stays per
    window, so each model's forecasts and failures are, bit for bit, those
    of its block of one: they do not depend on the other models.
    """
    windows = np.asarray(windows, dtype=float)
    T = windows.shape[1]
    specs = {i: model for i, model in enumerate(models) if isinstance(model, ModelSpec)}
    groups = {i: spec.horizon_groups(horizons) for i, spec in specs.items()}
    done: dict[tuple[int, int], list] = {}  # (model, group key) -> per window forecasts or failure
    for i, spec in specs.items():
        for h in groups[i] if spec.name in ("HAR", "TVHAR") else ():
            fits = har_fit_forecast(windows, h) if spec.name == "HAR" else tvhar_fit_forecast(windows, h, spec.kernel)
            done[i, h] = [fit if isinstance(fit, Exception) else {h: fit[0]} for fit in fits]
    ar_groups = [(i, specs[i], p, hs) for i in groups if specs[i].name in AR_MODELS for p, hs in groups[i].items()]
    starts: dict[KernelSpec, int] = {}  # per kernel, the first observation any local fit levels
    for _, spec, p, _ in ar_groups:
        if spec.name != "EWD" and _attempt(_check_preconditions, T, p, spec.kernel) is None:
            start = T - p + 1 if spec.name == "TVAR" else p + spec.scales.first_full_row(T - p) + 1
            starts[spec.kernel] = min(start, starts.get(spec.kernel, start))
    levels = {k: _attempt(local_level, windows, k, np.arange(s, T + 1, dtype=float) / T) for k, s in starts.items()}
    for p in dict.fromkeys(p for _, _, p, _ in ar_groups):  # in order of first appearance
        at_p = [(i, spec, hs) for i, spec, q, hs in ar_groups if q == p]
        kernels = {name: dict.fromkeys(spec.kernel for _, spec, _ in at_p if spec.name == name) for name in AR_MODELS}
        fits = {k: _attempt(fit_tvp_ar, windows, p, k) for k in kernels["TVEWD"]}
        rows = {k: _boundary_rows(windows, p, k, fits.get(k)) for k in kernels["TVAR"]}
        for i, spec, hs in at_p:
            if spec.name == "TVAR":
                done[i, p] = _tvar_points(windows, rows[spec.kernel], levels.get(spec.kernel), p, hs)
        for scales in dict.fromkeys(spec.scales for _, spec, _ in at_p if spec.name != "TVAR"):
            members = [(i, spec, hs) for i, spec, hs in at_p if spec.name != "TVAR" and spec.scales == scales]
            results = _multiscale_pass(windows, p, scales, [m[1:] for m in members], fits, levels)
            done.update(((i, p), r) for (i, _, _), r in zip(members, results))
        del fits, rows  # before the next order fits the block
    out = []
    for i, model in enumerate(models):
        if i not in specs:
            out.append(model.forecast_all(windows, horizons))
            continue
        pairs: list[tuple[dict, list]] = [({}, []) for _ in windows]
        for key in groups[i]:
            for (forecasts, failures), fc in zip(pairs, done.pop((i, key))):
                if isinstance(fc, Exception):
                    failures.append(fc)
                else:
                    forecasts.update(fc)
        out.append(pairs)
    return out
