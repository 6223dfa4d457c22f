"""Simulation scenario tests: curve algebra, exact recursion, ground truth."""

import json
import math

import numpy as np
import pytest

from tvewd.locreg import KernelSpec, fit_tvp_ar
from tvewd.sim import (
    Curve,
    SimResult,
    TvpArScenario,
    constant,
    load_scenario,
    simulate,
    store_scenario,
)


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

def test_constant_curve():
    c = Curve("constant", {"value": 0.4})
    np.testing.assert_array_equal(c.evaluate(np.array([0.0, 0.5, 1.0])), 0.4)
    assert constant(0.4) == c


def test_linear_curve():
    c = Curve("linear", {"start": 1.0, "end": 3.0})
    np.testing.assert_allclose(
        c.evaluate(np.array([0.0, 0.25, 0.5, 1.0])), [1.0, 1.5, 2.0, 3.0], rtol=1e-15
    )


def test_sinusoid_curve_with_phase():
    c = Curve("sinusoid", {"base": 0.5, "amplitude": 0.3, "frequency": 1.0})
    u = np.array([0.0, 0.25, 0.5, 0.75])
    np.testing.assert_allclose(c.evaluate(u), [0.5, 0.8, 0.5, 0.2], atol=1e-12)
    shifted = Curve(
        "sinusoid", {"base": 0.5, "amplitude": 0.3, "frequency": 1.0, "phase": 0.25}
    )
    np.testing.assert_allclose(shifted.evaluate(np.array([0.0])), [0.8], atol=1e-12)


def test_piecewise_curve():
    c = Curve("piecewise", {"breaks": [0.3, 0.7], "values": [1.0, 2.0, 3.0]})
    u = np.array([0.0, 0.29, 0.3, 0.5, 0.7, 0.9, 1.0])
    np.testing.assert_array_equal(c.evaluate(u), [1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 3.0])


def test_curve_clips_rescaled_time():
    c = Curve("linear", {"start": 0.0, "end": 1.0})
    np.testing.assert_array_equal(c.evaluate(np.array([-5.0, 2.0])), [0.0, 1.0])


def test_curve_validation():
    with pytest.raises(ValueError, match="kind"):
        Curve("quadratic", {"a": 1.0})
    with pytest.raises(ValueError, match="missing parameters"):
        Curve("linear", {"start": 1.0})
    with pytest.raises(ValueError, match="ascending"):
        Curve("piecewise", {"breaks": [0.7, 0.3], "values": [1.0, 2.0, 3.0]})
    with pytest.raises(ValueError, match="values"):
        Curve("piecewise", {"breaks": [0.5], "values": [1.0]})


def test_scenario_validation():
    with pytest.raises(ValueError, match="p must be"):
        TvpArScenario(p=0, T=100, coefficients=())
    with pytest.raises(ValueError, match="coefficient curves"):
        TvpArScenario(p=2, T=100, coefficients=(constant(0.5),))
    with pytest.raises(ValueError, match="T must be"):
        TvpArScenario(p=1, T=0, coefficients=(constant(0.5),))


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def scenario_ar1(T=500, seed=7, phi=0.5, icpt=0.0, sig=1.0):
    return TvpArScenario(
        p=1,
        T=T,
        coefficients=(constant(phi),),
        intercept=constant(icpt),
        sigma=constant(sig),
        seed=seed,
    )


def test_simulate_deterministic_and_seed_sensitive():
    a = simulate(scenario_ar1(seed=11))
    b = simulate(scenario_ar1(seed=11))
    np.testing.assert_array_equal(a.series.values, b.series.values)
    np.testing.assert_array_equal(a.innovations, b.innovations)
    c = simulate(scenario_ar1(seed=12))
    assert not np.array_equal(a.series.values, c.series.values)


def test_simulate_matches_manual_recursion():
    """Re-run the documented recursion by hand, including the burn-in with
    curves clamped at u = 0, and demand bitwise agreement."""
    scen = TvpArScenario(
        p=2,
        T=200,
        coefficients=(
            Curve("linear", {"start": 0.2, "end": 0.5}),
            constant(-0.1),
        ),
        intercept=Curve("sinusoid", {"base": 1.0, "amplitude": 0.5, "frequency": 2.0}),
        sigma=Curve("linear", {"start": 0.5, "end": 1.5}),
        seed=13,
    )
    res = simulate(scen)
    burn = 10 * scen.p
    total = scen.T + burn
    u = np.clip(np.arange(1 - burn, scen.T + 1, dtype=float) / scen.T, 0.0, 1.0)
    z = np.random.default_rng(13).standard_normal(total)
    sig = scen.sigma.evaluate(u)
    icpt = scen.intercept.evaluate(u)
    c1 = scen.coefficients[0].evaluate(u)
    c2 = scen.coefficients[1].evaluate(u)
    v = np.zeros(total)
    for t in range(total):
        acc = icpt[t] + sig[t] * z[t]
        if t >= 1:
            acc += c1[t] * v[t - 1]
        if t >= 2:
            acc += c2[t] * v[t - 2]
        v[t] = acc
    np.testing.assert_array_equal(res.series.values, v[burn:])
    np.testing.assert_array_equal(res.innovations, (sig * z)[burn:])


def test_ground_truth_fields():
    scen = TvpArScenario(
        p=1,
        T=300,
        coefficients=(Curve("linear", {"start": 0.1, "end": 0.7}),),
        seed=14,
    )
    res = simulate(scen)
    T = 300
    np.testing.assert_allclose(res.u, np.arange(1, T + 1) / T, rtol=0, atol=0)
    assert res.coefficients.shape == (T, 1)
    np.testing.assert_array_equal(res.coefficients[:, 0], scen.coefficients[0].evaluate(res.u))
    np.testing.assert_array_equal(res.intercept, np.zeros(T))
    np.testing.assert_array_equal(res.sigma, np.ones(T))
    assert res.stable
    assert res.warnings == []
    assert res.series.label == "sim"
    assert len(res.series) == T
    assert str(res.series.dates[0]) == "2000-01-03"


def test_white_noise_scenario_uncorrelated():
    res = simulate(scenario_ar1(T=20000, seed=15, phi=0.0, icpt=10.0))
    v = res.series.values
    np.testing.assert_allclose(v, 10.0 + res.innovations, rtol=0, atol=0)
    x = v - v.mean()
    rho = float(np.dot(x[1:], x[:-1]) / np.dot(x, x))
    assert abs(rho) < 3.0 / math.sqrt(len(v))


def test_ar1_scenario_autocorrelation():
    res = simulate(scenario_ar1(T=20000, seed=16, phi=0.5))
    x = res.series.values - res.series.values.mean()
    rho = float(np.dot(x[1:], x[:-1]) / np.dot(x, x))
    assert rho == pytest.approx(0.5, abs=0.05)


def test_sigma_curve_scales_innovations():
    res = simulate(scenario_ar1(T=5000, seed=17, phi=0.3, sig=2.0))
    assert float(np.std(res.innovations)) == pytest.approx(2.0, abs=0.1)


def test_explosive_scenario_flagged():
    scen = TvpArScenario(p=1, T=400, coefficients=(constant(1.01),), seed=18)
    res = simulate(scen)
    assert not res.stable
    assert res.warnings
    assert np.all(np.isfinite(res.series.values))


def test_explosive_scenario_overflows():
    scen = TvpArScenario(p=1, T=20000, coefficients=(constant(1.2),), seed=19)
    with pytest.raises(FloatingPointError, match="overflow"):
        with np.errstate(over="ignore", invalid="ignore"):
            simulate(scen)


def test_negative_sigma_rejected():
    scen = TvpArScenario(
        p=1,
        T=100,
        coefficients=(constant(0.5),),
        sigma=Curve("linear", {"start": 1.0, "end": -0.5}),
        seed=20,
    )
    with pytest.raises(ValueError, match="non-negative"):
        simulate(scen)


def test_estimator_recovers_linear_drift_end_to_end():
    scen = TvpArScenario(
        p=1,
        T=3000,
        coefficients=(Curve("linear", {"start": 0.2, "end": 0.8}),),
        seed=21,
    )
    res = simulate(scen)
    fit = fit_tvp_ar(res.series.values, 1, KernelSpec("epanechnikov", 0.15))
    truth = 0.2 + 0.6 * fit.grid
    assert float(np.mean(np.abs(fit.phi[:, 1] - truth))) < 0.08


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_scenario_round_trip(tmp_path):
    scen = TvpArScenario(
        p=2,
        T=150,
        coefficients=(
            Curve("sinusoid", {"base": 0.4, "amplitude": 0.2, "frequency": 0.75}),
            Curve("piecewise", {"breaks": [0.5], "values": [0.1, -0.1]}),
        ),
        intercept=constant(2.0),
        sigma=Curve("linear", {"start": 0.8, "end": 1.2}),
        seed=99,
        label="round-trip",
    )
    path = str(tmp_path / "scenario.json")
    store_scenario(scen, path)
    loaded = load_scenario(path)
    assert loaded == scen
    np.testing.assert_array_equal(
        simulate(loaded).series.values, simulate(scen).series.values
    )


def test_load_scenario_rejects_unknown_keys(tmp_path):
    scen = TvpArScenario(p=1, T=50, coefficients=(constant(0.5),), seed=1)
    path = str(tmp_path / "scenario.json")
    store_scenario(scen, path)
    with open(path) as fh:
        payload = json.load(fh)
    payload["burn"] = 5
    with open(path, "w") as fh:
        json.dump(payload, fh)
    with pytest.raises(ValueError, match="unknown"):
        load_scenario(path)


@pytest.mark.parametrize("key", ["p", "T", "coefficients"])
def test_load_scenario_names_a_missing_required_key(tmp_path, key):
    """A missing required key used to surface as a bare KeyError."""
    path = str(tmp_path / "scenario.json")
    store_scenario(TvpArScenario(p=1, T=50, coefficients=(constant(0.5),)), path)
    with open(path) as fh:
        payload = json.load(fh)
    del payload[key]
    with open(path, "w") as fh:
        json.dump(payload, fh)
    with pytest.raises(ValueError, match=f"^scenario is missing required key '{key}'$"):
        load_scenario(path)


def test_load_scenario_leaves_unset_keys_at_their_defaults(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"p": 1, "T": 80, "coefficients": [{"kind": "constant", "value": 0.4}]}))
    assert load_scenario(str(path)) == TvpArScenario(p=1, T=80, coefficients=(constant(0.4),))


@pytest.mark.parametrize(
    "key, value",
    [("T", 200.7), ("T", 200.0), ("T", True), ("p", 1.9), ("p", False), ("seed", 2.5), ("seed", "7")],
)
def test_load_scenario_rejects_non_integer_counts(tmp_path, key, value):
    """`load_scenario` used to truncate with int(): "T": 200.7 simulated 200
    days and "p": 1.9 ran as p = 1."""
    scen = TvpArScenario(p=1, T=200, coefficients=(constant(0.5),), seed=1)
    path = str(tmp_path / "scenario.json")
    store_scenario(scen, path)
    with open(path) as fh:
        payload = json.load(fh)
    payload[key] = value
    with open(path, "w") as fh:
        json.dump(payload, fh)
    with pytest.raises(ValueError, match=f"^{key} must be an integer, got {value!r}$"):
        load_scenario(path)
