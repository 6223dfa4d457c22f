"""Simulation scenarios with known time-varying AR ground truth.

Scenarios describe smooth coefficient curves on rescaled time u in [0, 1];
the simulator runs the TVP-AR recursion with Gaussian innovations, discards
a burn-in of 10 * p draws (coefficient curves clamped at u = 0 during
burn-in) and returns the series together with the exact curves used, so
estimator tests can score recovery against the truth.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .series import VolatilitySeries, _check_integer, atomic_write, business_dates

__all__ = [
    "Curve",
    "TvpArScenario",
    "SimResult",
    "simulate",
    "load_scenario",
    "store_scenario",
]

BURN_IN_FACTOR = 10
CURVE_KINDS = ("constant", "linear", "sinusoid", "piecewise")


@dataclass(frozen=True)
class Curve:
    """A parametric coefficient curve on u in [0, 1].

    kinds and parameters:
        constant:  value
        linear:    start, end
        sinusoid:  base, amplitude, frequency (cycles on [0,1]), phase
        piecewise: breaks (ascending interior breakpoints), values
                   (len(breaks) + 1 level values)
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in CURVE_KINDS:
            raise ValueError(f"unknown curve kind {self.kind!r}, expected one of {CURVE_KINDS}")
        p = self.params
        required = {
            "constant": ("value",),
            "linear": ("start", "end"),
            "sinusoid": ("base", "amplitude", "frequency"),
            "piecewise": ("breaks", "values"),
        }[self.kind]
        missing = [k for k in required if k not in p]
        if missing:
            raise ValueError(f"curve kind {self.kind!r} missing parameters {missing}")
        if self.kind == "piecewise":
            breaks = list(p["breaks"])
            if sorted(breaks) != breaks:
                raise ValueError("piecewise breaks must be ascending")
            if len(p["values"]) != len(breaks) + 1:
                raise ValueError("piecewise needs len(breaks) + 1 values")

    def evaluate(self, u: np.ndarray) -> np.ndarray:
        u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
        p = self.params
        if self.kind == "constant":
            return np.full_like(u, float(p["value"]))
        if self.kind == "linear":
            return float(p["start"]) + (float(p["end"]) - float(p["start"])) * u
        if self.kind == "sinusoid":
            phase = float(p.get("phase", 0.0))
            return float(p["base"]) + float(p["amplitude"]) * np.sin(
                2.0 * np.pi * (float(p["frequency"]) * u + phase)
            )
        idx = np.searchsorted(np.asarray(p["breaks"], dtype=float), u, side="right")
        return np.asarray(p["values"], dtype=float)[idx]


def constant(value: float) -> Curve:
    return Curve("constant", {"value": float(value)})


@dataclass(frozen=True)
class TvpArScenario:
    """A TVP-AR(p) data-generating process with known curves."""

    p: int
    T: int
    coefficients: tuple[Curve, ...]
    intercept: Curve = field(default_factory=lambda: constant(0.0))
    sigma: Curve = field(default_factory=lambda: constant(1.0))
    seed: int = 0
    label: str = "sim"

    def __post_init__(self):
        _check_integer(self.p, "p")
        _check_integer(self.T, "T")
        _check_integer(self.seed, "seed")
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if len(self.coefficients) != self.p:
            raise ValueError(f"need {self.p} coefficient curves, got {len(self.coefficients)}")
        if self.T < 1:
            raise ValueError("T must be >= 1")


@dataclass
class SimResult:
    """Simulated series plus the exact ground truth that generated it."""

    series: VolatilitySeries
    u: np.ndarray
    coefficients: np.ndarray  # (T, p)
    intercept: np.ndarray
    sigma: np.ndarray
    innovations: np.ndarray
    stable: bool
    warnings: list[str] = field(default_factory=list)


def _stability(coef_rows: np.ndarray) -> bool:
    """All AR characteristic roots inside the unit circle at sampled u."""
    n = len(coef_rows)
    sample = np.unique(np.linspace(0, n - 1, min(n, 64)).astype(int))
    for i in sample:
        poly = np.concatenate(([1.0], -coef_rows[i]))
        roots = np.roots(poly)
        if len(roots) and np.max(np.abs(roots)) >= 1.0:
            return False
    return True


def simulate(scenario: TvpArScenario) -> SimResult:
    """Run the TVP-AR recursion and return the retained T observations.

    v_t = phi_0(u_t) + sum_i phi_i(u_t) v_{t-i} + sigma(u_t) z_t with z_t
    iid standard normal from a seeded generator.  The first 10 * p draws
    (u clamped to 0) are discarded.  Explosive coefficient curves are
    permitted; the result is flagged unstable and carries a warning.
    """
    p, T = scenario.p, scenario.T
    burn = BURN_IN_FACTOR * p
    total = T + burn
    # rescaled time of retained observations; burn-in clamps to u = 0
    t_all = np.arange(1 - burn, T + 1, dtype=float)
    u_all = np.clip(t_all / T, 0.0, 1.0)
    coef_all = np.column_stack([c.evaluate(u_all) for c in scenario.coefficients])
    icpt_all = scenario.intercept.evaluate(u_all)
    sig_all = scenario.sigma.evaluate(u_all)
    if np.any(sig_all < 0):
        raise ValueError("sigma curve must be non-negative")
    rng = np.random.default_rng(scenario.seed)
    z = rng.standard_normal(total)
    eps_all = sig_all * z
    v = np.zeros(total)
    for t in range(total):
        acc = icpt_all[t] + eps_all[t]
        for i in range(1, min(t, p) + 1):
            acc += coef_all[t, i - 1] * v[t - i]
        v[t] = acc
    retained = v[burn:]
    if not np.all(np.isfinite(retained)):
        raise FloatingPointError(
            "simulation overflowed: explosive scenario produced non-finite values"
        )
    stable = _stability(coef_all[burn:])
    warnings = [] if stable else ["scenario has explosive AR roots at some u"]
    series = VolatilitySeries(business_dates("2000-01-03", T), retained, scenario.label)
    return SimResult(
        series=series,
        u=u_all[burn:],
        coefficients=coef_all[burn:],
        intercept=icpt_all[burn:],
        sigma=sig_all[burn:],
        innovations=eps_all[burn:],
        stable=stable,
        warnings=warnings,
    )


def _curve_to_dict(curve: Curve) -> dict:
    return {"kind": curve.kind, **curve.params}


def _curve_from_dict(d: dict) -> Curve:
    d = dict(d)
    kind = d.pop("kind", None)
    if kind is None:
        raise ValueError("curve specification missing 'kind'")
    return Curve(kind, d)


def store_scenario(scenario: TvpArScenario, path: str) -> None:
    """Write a scenario as a documented JSON file."""
    payload = {
        "p": scenario.p,
        "T": scenario.T,
        "seed": scenario.seed,
        "label": scenario.label,
        "intercept": _curve_to_dict(scenario.intercept),
        "coefficients": [_curve_to_dict(c) for c in scenario.coefficients],
        "sigma": _curve_to_dict(scenario.sigma),
    }
    atomic_write(path, json.dumps(payload, indent=2) + "\n")


def load_scenario(path: str) -> TvpArScenario:
    """Load a scenario JSON written by store_scenario.

    p, T and coefficients are required; a key the file leaves out takes
    its TvpArScenario default.
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    known = {"p", "T", "seed", "label", "intercept", "coefficients", "sigma"}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ValueError(f"unknown scenario keys: {unknown}")
    for key in ("p", "T", "coefficients"):
        if key not in payload:
            raise ValueError(f"scenario is missing required key {key!r}")
    fields = dict(payload, coefficients=tuple(_curve_from_dict(c) for c in payload["coefficients"]))
    fields.update((k, _curve_from_dict(payload[k])) for k in ("intercept", "sigma") if k in payload)
    if "label" in payload:
        fields["label"] = str(payload["label"])
    return TvpArScenario(**fields)
