"""End-to-end command-line tests: config precedence, every subcommand, errors."""

import argparse
import json
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from tvewd import rv
from tvewd.benchmarks import MODEL_NAMES, ModelSpec
from tvewd import cli
from tvewd.cli import main
from tvewd.locreg import KernelSpec
from tvewd.series import VolatilitySeries, business_dates, load_series, store_series
from tvewd.sim import Curve, TvpArScenario, constant, simulate, store_scenario
from tvewd.wold import MultiscaleConfig

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_REPORT = DATA_DIR / "golden_report.csv"
PRINT_CONFIG = DATA_DIR / "print_config.json"
PAPER_SCENARIO = DATA_DIR / "paper_scenario.json"
PAPER_SERIES = DATA_DIR / "paper_series.csv"
PAPER_REPORT = DATA_DIR / "paper_report.csv"
PAPER_FORECASTS = DATA_DIR / "paper_forecasts.csv"


def write_series(path, values, start="2010-01-04", label="test"):
    series = VolatilitySeries(business_dates(start, len(values)), np.asarray(values, float), label=label)
    store_series(series, str(path))
    return series


def ar1_values(T, seed, level=10.0, phi=0.6):
    rng = np.random.default_rng(seed)
    v = np.empty(T)
    v[0] = level
    eps = rng.standard_normal(T)
    for t in range(1, T):
        v[t] = level * (1 - phi) + phi * v[t - 1] + eps[t]
    return v


def build_eval_series(path):
    """The fixed series behind the golden evaluation report."""
    return write_series(path, ar1_values(160, seed=2024), label="golden")


def run_golden_evaluate(series_csv, out_csv, jobs=1):
    return main(
        [
            "evaluate",
            "--input",
            str(series_csv),
            "--output",
            str(out_csv),
            "--models",
            "TVAR,HAR",
            "--benchmark",
            "HAR",
            "--window",
            "100",
            "--horizon",
            "1",
            "--jobs",
            str(jobs),
        ]
    )


def regenerate_golden(target=GOLDEN_REPORT):
    """Rebuild the committed golden evaluation report (not a test)."""
    import tempfile

    target.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        series_csv = Path(tmp) / "series.csv"
        out_csv = Path(tmp) / "report.csv"
        build_eval_series(series_csv)
        code = run_golden_evaluate(series_csv, out_csv)
        assert code == 0
        target.write_text(out_csv.read_text())


def paper_scenario():
    """Criterion 08's drifting persistence and level over 830 days."""
    return TvpArScenario(
        p=1,
        T=830,
        coefficients=(Curve("sinusoid", {"base": 0.775, "amplitude": 0.175, "frequency": 0.75}),),
        intercept=Curve("sinusoid", {"base": 2.25, "amplitude": -1.75, "frequency": 0.75}),
        seed=2024,
    )


def run_paper_evaluate(series_csv, out_dir, jobs=1):
    """`tvewd evaluate` of all five models at the paper's geometry (window
    700, the period-2010 CL lags {1: 2, 5: 6, 22: 6}, H = 512) over 40
    origins: one block of 32 and one of 8.  Returns the report and
    forecasts paths."""
    report, forecasts, cfg = out_dir / "report.csv", out_dir / "forecasts.csv", out_dir / "paper.json"
    cfg.write_text(json.dumps({"max_origins": 40, "forecasts_output": str(forecasts)}))
    argv = ["evaluate", "--input", str(series_csv), "--output", str(report), "--config", str(cfg),
            "--preset", "period-2010", "--series", "CL", "--jobs", str(jobs)]
    assert main(argv) == 0
    return report, forecasts


def regenerate_paper_golden():
    """Rebuild the committed paper-geometry scenario, series, report and
    forecasts (not a test)."""
    import tempfile

    store_scenario(paper_scenario(), str(PAPER_SCENARIO))
    assert main(["simulate", "--scenario", str(PAPER_SCENARIO), "--output", str(PAPER_SERIES)]) == 0
    with tempfile.TemporaryDirectory() as tmp:
        report, forecasts = run_paper_evaluate(PAPER_SERIES, Path(tmp))
        PAPER_REPORT.write_text(report.read_text())
        PAPER_FORECASTS.write_text(forecasts.read_text())


# ---------------------------------------------------------------------------
# configuration resolution
# ---------------------------------------------------------------------------

def test_print_config_precedence(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"bandwidth": 0.25, "window": 400}))
    code = main(
        [
            "forecast",
            "--preset",
            "period-2010",
            "--config",
            str(cfg_path),
            "--bandwidth",
            "0.1",
            "--print-config",
        ]
    )
    assert code == 0
    resolved = json.loads(capsys.readouterr().out)
    assert resolved["bandwidth"] == 0.1  # flag beats config file
    assert resolved["window"] == 400  # config file beats preset
    assert resolved["J"] == 7  # a default the preset leaves alone
    assert resolved["horizons"] == [1, 5, 22]
    assert resolved["series_lags"]["CL"] == {"1": 2, "5": 6, "22": 6}  # preset beats defaults


def test_presets_restate_no_default():
    """A preset holds only what differs from the built-in defaults."""
    for name, preset in cli.PRESETS.items():
        restated = sorted(key for key, value in preset.items() if value == cli.OPTIONS[key].default)
        assert restated == [], name


COMMON_KEYS = {"input", "output"}
FIT_KEYS = {"p", "kernel", "bandwidth", "J", "N"}
PREDICT_KEYS = FIT_KEYS | {"horizons", "lags", "series", "series_lags", "window"}
ACCEPTED_KEYS = {
    "rv": COMMON_KEYS
    | {"rv_output", "label", "session_cutoff", "bins_per_day", "open_offset_minutes", "excluded_dates"},
    "decompose": COMMON_KEYS | FIT_KEYS | {"share_mode", "share_k", "shares_output", "curves_output"},
    "forecast": COMMON_KEYS | PREDICT_KEYS | {"model"},
    "evaluate": COMMON_KEYS
    | PREDICT_KEYS
    | {"jobs", "models", "benchmark", "step", "max_origins", "forecasts_output", "table_output"},
    "simulate": COMMON_KEYS | {"seed", "scenario", "truth_output"},
}

COMMON_FLAGS = {"-h", "--help", "--config", "--print-config", "--input", "--output"}
FIT_FLAGS = {"--p", "--bandwidth"}
PREDICT_FLAGS = FIT_FLAGS | {"--preset", "--horizon", "--window", "--series"}
OFFERED_FLAGS = {
    "rv": COMMON_FLAGS,
    "decompose": COMMON_FLAGS | FIT_FLAGS,
    "forecast": COMMON_FLAGS | PREDICT_FLAGS | {"--model"},
    "evaluate": COMMON_FLAGS | PREDICT_FLAGS | {"--jobs", "--models", "--benchmark", "--step"},
    "simulate": COMMON_FLAGS | {"--seed", "--scenario"},
}

# every flag a command offers, set away from its default
FLAG_HEAVY = {
    "rv": [],
    "decompose": ["--p", "2", "--bandwidth", "0.25"],
    "forecast": ["--preset", "period-1993", "--horizon", "22,1", "--window", "300", "--p", "2",
                 "--bandwidth", "0.25", "--series", "HU", "--model", "EWD"],
    "evaluate": ["--preset", "period-2010", "--horizon", "5", "--window", "200", "--p", "3",
                 "--bandwidth", "0.2", "--series", "RB", "--models", "TVAR,HAR", "--benchmark", "HAR",
                 "--step", "2"],
    "simulate": ["--scenario", "scen.json"],
}


def print_config_cases(command, config_path):
    """The `--print-config` calls pinned by tests/data/print_config.json.

    The flag-heavy call also reads a config file that sets every key the
    command accepts, so the output shows the accepted keys and that flags
    beat the config file.
    """
    seed = ["--seed", "7"] if "--seed" in OFFERED_FLAGS[command] else []
    jobs = ["--jobs", "3"] if "--jobs" in OFFERED_FLAGS[command] else []
    presets = {}
    if "--preset" in OFFERED_FLAGS[command]:
        presets = {
            f"{command} period-2010": [command, "--preset", "period-2010", "--series", "CL"],
            f"{command} period-1993": [command, "--preset", "period-1993", "--series", "NG"],
        }
    return {
        f"{command} plain": [command],
        **presets,
        f"{command} flags": [command, "--config", str(config_path), "--input", "in.csv", "--output", "out.csv",
                             *seed, *jobs, *FLAG_HEAVY[command]],
    }


def write_every_key_config(path, command):
    path.write_text(json.dumps({key: f"<{key}>" for key in sorted(ACCEPTED_KEYS[command])}))


@pytest.mark.parametrize("command", sorted(ACCEPTED_KEYS))
def test_print_config_matches_the_pinned_output(tmp_path, capsys, command):
    """The resolved configuration of each command, preset and flag mix is
    byte-identical to the output pinned before the option table existed,
    but for four differences: `forecast` now also prints its default
    model, `seed` and `jobs` are keys only of the commands that read them,
    `weight_window` is a key of no command, and `decompose` offers the
    `--p` and `--bandwidth` flags of the keys it reads."""
    pinned = json.loads(PRINT_CONFIG.read_text())
    config_path = tmp_path / "cfg.json"
    write_every_key_config(config_path, command)
    for case, argv in print_config_cases(command, config_path).items():
        assert main(argv + ["--print-config"]) == 0, case
        resolved = json.loads(pinned[case])
        if command == "forecast":
            resolved.setdefault("model", "TVEWD")
        if case == "decompose flags":
            resolved.update(p=2, bandwidth=0.25)
        for key in {"seed", "jobs", "weight_window"} - ACCEPTED_KEYS[command]:
            resolved.pop(key, None)
        expected = json.dumps(resolved, indent=2, sort_keys=True) + "\n"
        assert capsys.readouterr().out == expected, case


def test_list_flags_split_on_commas_and_an_empty_horizon_is_unset(capsys):
    argv = ["evaluate", "--preset", "period-2010", "--models", "HAR,TVAR", "--print-config"]
    assert main(argv + ["--horizon", "22,5"]) == 0
    resolved = json.loads(capsys.readouterr().out)
    assert (resolved["horizons"], resolved["models"]) == ([22, 5], ["HAR", "TVAR"])
    assert main(argv + ["--horizon", ""]) == 0
    assert json.loads(capsys.readouterr().out)["horizons"] == [1, 5, 22]


def test_each_command_offers_exactly_its_flags():
    parser = cli._build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    offered = {
        name: {flag for action in sp._actions for flag in action.option_strings}
        for name, sp in sub.choices.items()
    }
    assert offered == OFFERED_FLAGS


# one value per flag, away from its default
AWAY_FROM_DEFAULT = {
    "--preset": "period-2010", "--input": "in.csv", "--output": "out.csv", "--seed": "7", "--jobs": "3",
    "--horizon": "5", "--window": "300", "--p": "2", "--bandwidth": "0.25", "--series": "CL",
    "--model": "EWD", "--models": "TVAR,HAR", "--benchmark": "HAR", "--step": "2", "--scenario": "scen.json",
}


@pytest.mark.parametrize("command", sorted(ACCEPTED_KEYS))
def test_every_offered_flag_changes_the_resolved_config(tmp_path, capsys, command):
    """A command offers a flag only where the flag's setting is read: each
    flag set away from its default changes the resolved configuration."""
    parser = cli._build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {flag for action in sub.choices[command]._actions for flag in action.option_strings}
    config_path = tmp_path / "cfg.json"
    write_every_key_config(config_path, command)
    values = {**AWAY_FROM_DEFAULT, "--config": str(config_path)}
    assert main([command, "--print-config"]) == 0
    plain = capsys.readouterr().out
    for flag in sorted(flags - {"-h", "--help", "--print-config"}):
        assert main([command, flag, values[flag], "--print-config"]) == 0, flag
        assert capsys.readouterr().out != plain, flag


@pytest.mark.parametrize("command", sorted(ACCEPTED_KEYS))
def test_config_keys_of_other_commands_rejected(tmp_path, capsys, command):
    cfg_path = tmp_path / "cfg.json"
    for key in sorted(set().union(*ACCEPTED_KEYS.values()) - ACCEPTED_KEYS[command]):
        cfg_path.write_text(json.dumps({key: 1}))
        assert main([command, "--config", str(cfg_path), "--print-config"]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record == {"error": "config", "message": f"unknown config key {key!r} for command {command!r}"}


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    for key in ("bandwidt", "weight_window"):
        cfg_path.write_text(json.dumps({key: 30}))
        code = main(["forecast", "--config", str(cfg_path), "--print-config"])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "config"
        assert key in record["message"]
        assert "forecast" in record["message"]


def test_unknown_preset_rejected(capsys):
    code = main(["forecast", "--preset", "period-2020", "--print-config"])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert "period-2020" in record["message"]


@pytest.mark.parametrize("command", ["rv", "decompose", "simulate"])
def test_preset_is_an_unknown_flag_where_no_preset_key_is_read(capsys, command):
    with pytest.raises(SystemExit) as exited:
        main([command, "--preset", "period-2010", "--print-config"])
    assert exited.value.code == 2
    assert "unrecognized arguments: --preset period-2010" in capsys.readouterr().err


def test_missing_required_input(capsys):
    code = main(["forecast", "--output", "out.csv"])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config"
    assert "input" in record["message"]


def test_runtime_failure_produces_error_record(tmp_path, capsys):
    code = main(
        ["forecast", "--input", str(tmp_path / "missing.csv"), "--output", str(tmp_path / "o.csv")]
    )
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "FileNotFoundError"


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_round_trip(tmp_path, capsys):
    scen = TvpArScenario(p=1, T=120, coefficients=(constant(0.5),), intercept=constant(4.0), seed=3)
    scen_path = tmp_path / "scen.json"
    store_scenario(scen, str(scen_path))
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--scenario", str(scen_path), "--output", str(out)]) == 0
    loaded = load_series(str(out))
    np.testing.assert_array_equal(loaded.values, simulate(scen).series.values)
    first = out.read_bytes()
    assert main(["simulate", "--scenario", str(scen_path), "--output", str(out)]) == 0
    assert out.read_bytes() == first  # byte-identical rerun
    assert "seed 3" in capsys.readouterr().out


def test_simulate_seed_override_and_truth_output(tmp_path):
    scen = TvpArScenario(p=1, T=100, coefficients=(constant(0.5),), seed=3)
    scen_path = tmp_path / "scen.json"
    store_scenario(scen, str(scen_path))
    cfg = tmp_path / "cfg.json"
    truth = tmp_path / "truth.csv"
    cfg.write_text(json.dumps({"truth_output": str(truth)}))
    out = tmp_path / "sim.csv"
    assert main(
        ["simulate", "--scenario", str(scen_path), "--output", str(out), "--seed", "9", "--config", str(cfg)]
    ) == 0
    reseeded = TvpArScenario(p=1, T=100, coefficients=(constant(0.5),), seed=9)
    np.testing.assert_array_equal(load_series(str(out)).values, simulate(reseeded).series.values)
    lines = truth.read_text().splitlines()
    assert lines[0] == "u,phi0,phi1,sigma"
    assert len(lines) == 101
    u0, phi0, phi1, sigma = (float(x) for x in lines[1].split(","))
    assert (u0, phi0, phi1, sigma) == (1.0 / 100, 0.0, 0.5, 1.0)


def test_simulate_rejects_malformed_scenario(tmp_path, capsys):
    """An unknown or a missing scenario key exits 1 (a missing one used to
    exit with a bare KeyError record) and writes nothing."""
    scen = TvpArScenario(p=1, T=50, coefficients=(constant(0.5),), seed=1)
    scen_path = tmp_path / "scen.json"
    store_scenario(scen, str(scen_path))
    stored = json.loads(scen_path.read_text())
    for payload, message in [
        ({**stored, "burn": 5}, "unknown scenario keys: ['burn']"),
        ({k: v for k, v in stored.items() if k != "p"}, "scenario is missing required key 'p'"),
    ]:
        scen_path.write_text(json.dumps(payload))
        code = main(["simulate", "--scenario", str(scen_path), "--output", str(tmp_path / "o.csv")])
        assert code == 1
        assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}
        assert [p.name for p in tmp_path.iterdir()] == ["scen.json"]


@pytest.mark.parametrize("key, value", [("T", 200.7), ("p", 1.9)])
def test_simulate_refuses_a_fractional_scenario_count(tmp_path, capsys, key, value):
    """A scenario count with a fraction part used to be truncated: "T": 200.7
    simulated 200 days.  It is a malformed scenario, which exits 1."""
    scen = TvpArScenario(p=1, T=200, coefficients=(constant(0.5),), seed=1)
    scen_path = tmp_path / "scen.json"
    store_scenario(scen, str(scen_path))
    payload = json.loads(scen_path.read_text())
    payload[key] = value
    scen_path.write_text(json.dumps(payload))
    code = main(["simulate", "--scenario", str(scen_path), "--output", str(tmp_path / "o.csv")])
    assert code == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError", "message": f"{key} must be an integer, got {value}"
    }
    assert [p.name for p in tmp_path.iterdir()] == ["scen.json"]


@pytest.mark.parametrize(
    "seed, message",
    [
        (2.5, "seed must be an integer, got 2.5"),
        (True, "seed must be an integer, got True"),
        ("abc", "seed must be an integer, got 'abc'"),
        ("7", "seed must be an integer, got '7'"),
    ],
)
def test_simulate_seed_errors_are_config_errors_and_write_nothing(tmp_path, capsys, seed, message):
    """A config seed must be a JSON integer, like every other integer
    setting.  It used to go through a bare int(): 2.5 ran with seed 2, true
    with seed 1, and "abc" exited 1 with a ValueError record."""
    scen = TvpArScenario(p=1, T=100, coefficients=(constant(0.5),), seed=3)
    scen_path = tmp_path / "scen.json"
    store_scenario(scen, str(scen_path))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": seed, "truth_output": str(tmp_path / "truth.csv")}))
    argv = ["simulate", "--scenario", str(scen_path), "--output", str(tmp_path / "o.csv"), "--config", str(cfg)]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "config", "message": message}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "scen.json"]


# ---------------------------------------------------------------------------
# rv
# ---------------------------------------------------------------------------

def test_rv_command_matches_library_pipeline(tmp_path, capsys):
    ticks = tmp_path / "ticks.csv"
    rows = ["timestamp,price"]
    for day in ("2021-03-01", "2021-03-02", "2021-03-03"):
        rows += [
            f"{day}T09:01:00,100.0",
            f"{day}T09:04:30,101.0",
            f"{day}T09:08:00,99.5",
        ]
    ticks.write_text("\n".join(rows) + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {"bins_per_day": 2, "open_offset_minutes": 540, "label": "toy", "rv_output": str(tmp_path / "rv.csv")}
        )
    )
    out = tmp_path / "vol.csv"
    assert main(["rv", "--input", str(ticks), "--output", str(out), "--config", str(cfg)]) == 0
    assert "3 annualized volatility observations" in capsys.readouterr().out

    calendar = rv.TradingCalendar(bins_per_day=2, open_offset_minutes=540)
    ts, px = rv.load_ticks(str(ticks))
    vol, raw, _ = rv.rv_pipeline(ts, px, calendar, label="toy")
    expected = tmp_path / "expected.csv"
    store_series(vol, str(expected))
    assert out.read_bytes() == expected.read_bytes()
    rv_lines = (tmp_path / "rv.csv").read_text().splitlines()
    assert len(rv_lines) == 1 + len(raw.values)


RV_ERRORS = {
    "text bins": ({"bins_per_day": "abc"}, "bins_per_day must be an integer, got 'abc'"),
    "numeric text bins": ({"bins_per_day": "276"}, "bins_per_day must be an integer, got '276'"),
    "zero bins": ({"bins_per_day": 0}, "bins_per_day must be >= 1"),
    "negative open offset": ({"open_offset_minutes": -1}, "open_offset_minutes must be >= 0"),
    "cutoff out of range": ({"session_cutoff": "25:00"}, "time-of-day out of range: '25:00'"),
    "cutoff without minutes": ({"session_cutoff": "18"}, "bad time-of-day '18', expected HH:MM"),
    "numeric cutoff": ({"session_cutoff": 5}, "bad time-of-day 5, expected HH:MM"),
    "null cutoff": ({"session_cutoff": None}, "bad time-of-day None, expected HH:MM"),
    "scalar excluded dates": ({"excluded_dates": 5}, "excluded_dates must be a list, got 5"),
    "text excluded dates": ({"excluded_dates": "2021-01-01"}, "excluded_dates must be a list, got '2021-01-01'"),
    "numeric excluded date": ({"excluded_dates": ["2021-07-05", 5]}, "excluded_dates entries must be dates, got 5"),
    "boolean excluded date": ({"excluded_dates": [True]}, "excluded_dates entries must be dates, got True"),
    "fractional excluded date": ({"excluded_dates": [5.5]}, "excluded_dates entries must be dates, got 5.5"),
    "fractional bins": ({"bins_per_day": 2.5}, "bins_per_day must be an integer, got 2.5"),
    "boolean open offset": ({"open_offset_minutes": True}, "open_offset_minutes must be an integer, got True"),
}


@pytest.mark.parametrize("case", sorted(RV_ERRORS))
def test_rv_calendar_errors_are_config_errors_and_write_nothing(tmp_path, capsys, case):
    """A calendar value that cannot be converted, or that the calendar
    refuses, exits 2 with a config record before the ticks are read."""
    config, message = RV_ERRORS[case]
    ticks = tmp_path / "ticks.csv"
    ticks.write_text("timestamp,price\n2021-03-01T09:01:00,100.0\n")
    (tmp_path / "cfg.json").write_text(json.dumps({"rv_output": str(tmp_path / "rv.csv"), **config}))
    argv = ["rv", "--input", str(ticks), "--output", str(tmp_path / "vol.csv"), "--config", str(tmp_path / "cfg.json")]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "config", "message": message}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "ticks.csv"]


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def test_decompose_white_noise_share_profile(tmp_path):
    rng = np.random.default_rng(314)
    T = 1500
    series_csv = tmp_path / "wn.csv"
    write_series(series_csv, 10.0 + rng.standard_normal(T), label="wn")
    shares_csv = tmp_path / "shares.csv"
    curves_csv = tmp_path / "curves.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"shares_output": str(shares_csv), "curves_output": str(curves_csv)}))
    beta_csv = tmp_path / "beta.csv"
    assert main(
        ["decompose", "--input", str(series_csv), "--output", str(beta_csv), "--config", str(cfg)]
    ) == 0

    beta_lines = beta_csv.read_text().splitlines()
    assert beta_lines[0] == "u,j,k,beta"
    curves_lines = curves_csv.read_text().splitlines()
    assert curves_lines[0] == "u,phi0,phi1"
    assert len(curves_lines) == 1 + (T - 1)

    # serially uncorrelated data concentrates a fixed fraction of coefficient
    # mass on the finest scale: |b_1| / sum_j |b_j| = 0.32129... at depth 7
    share_lines = shares_csv.read_text().splitlines()
    assert share_lines[0] == "date,j,share"
    interior = []
    for i, line in enumerate(share_lines[1:]):
        _, j, share = line.split(",")
        row = i // 7
        u = (2 + row) / T
        if int(j) == 1 and 0.3 <= u <= 0.7:
            interior.append(float(share))
    assert len(interior) > 500
    assert max(abs(s - 0.3212916575362731) for s in interior) < 0.03


DECOMPOSE_ERRORS = {
    "unknown share mode": ({"share_mode": "bogus"}, "mode must be 'absolute' or 'signed', got 'bogus'"),
    "share translate out of range": ({"share_k": 99}, "k_index 99 out of range for scale 3"),
    "negative share translate": ({"share_k": -1}, "k_index must be >= 0, got -1"),
    "text order": ({"p": "abc"}, "p must be an integer, got 'abc'"),
    "zero order": ({"p": 0}, "AR order must be >= 1, got 0"),
    "unknown kernel": (
        {"kernel": "tri"}, "unknown kernel family 'tri', expected one of ('epanechnikov', 'uniform')"
    ),
    "zero depth": ({"J": 0}, "J must be >= 1, got 0"),
    "fractional order": ({"p": 1.9}, "p must be an integer, got 1.9"),
    "fractional depth": ({"J": 3.7}, "J must be an integer, got 3.7"),
    "fractional share translate": ({"share_k": 1.5}, "share_k must be an integer, got 1.5"),
    "boolean share translate": ({"share_k": False}, "share_k must be an integer, got False"),
}


@pytest.mark.parametrize("case", sorted(DECOMPOSE_ERRORS))
def test_decompose_option_errors_are_config_errors_and_write_nothing(tmp_path, capsys, case):
    config, message = DECOMPOSE_ERRORS[case]
    series_csv = tmp_path / "series.csv"
    write_series(series_csv, ar1_values(400, seed=52))
    outputs = {"shares_output": str(tmp_path / "shares.csv"), "curves_output": str(tmp_path / "curves.csv")}
    (tmp_path / "cfg.json").write_text(json.dumps({**outputs, **config}))
    argv = ["decompose", "--input", str(series_csv), "--output", str(tmp_path / "beta.csv"),
            "--config", str(tmp_path / "cfg.json")]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "config", "message": message}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "series.csv"]


# ---------------------------------------------------------------------------
# forecast
# ---------------------------------------------------------------------------

def test_forecast_command_matches_library(tmp_path, capsys):
    series_csv = tmp_path / "series.csv"
    series = write_series(series_csv, ar1_values(400, seed=42))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"J": 5, "N": 4}))
    out = tmp_path / "fc.csv"
    code = main(
        [
            "forecast",
            "--input",
            str(series_csv),
            "--output",
            str(out),
            "--config",
            str(cfg),
            "--horizon",
            "1,5",
            "--window",
            "300",
            "--p",
            "1",
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "TVEWD h=1:" in stdout and "TVEWD h=5:" in stdout

    lines = out.read_text().splitlines()
    assert lines[0] == "origin_date,target_date,h,model,forecast"
    assert len(lines) == 3
    spec = ModelSpec(
        name="TVEWD", p=1, kernel=KernelSpec("epanechnikov", 0.3), scales=MultiscaleConfig(J=5, N=4)
    )
    window = series.values[-300:]
    for line, h in zip(lines[1:], (1, 5)):
        cells = line.split(",")
        assert cells[0] == str(series.dates[-1])
        assert cells[1] == str(np.busday_offset(series.dates[-1], h, roll="forward"))
        assert cells[2] == str(h)
        assert cells[3] == "TVEWD"
        assert float(cells[4]) == spec.forecast_all(window, (h,))[h]


def test_forecast_preset_lag_mapping(tmp_path):
    series_csv = tmp_path / "series.csv"
    series = write_series(series_csv, ar1_values(800, seed=43))
    out = tmp_path / "fc.csv"
    code = main(
        [
            "forecast",
            "--input",
            str(series_csv),
            "--output",
            str(out),
            "--preset",
            "period-2010",
            "--series",
            "CL",
            "--horizon",
            "1",
        ]
    )
    assert code == 0
    spec = ModelSpec(
        name="TVEWD",
        p=2,  # the period-2010 bundle maps series CL at h=1 to two lags
        kernel=KernelSpec("epanechnikov", 0.3),
        scales=MultiscaleConfig(J=7, N=4),
    )
    # the preset window of 700 observations is applied from the series end
    cells = out.read_text().splitlines()[1].split(",")
    assert float(cells[4]) == spec.forecast_all(series.values[-700:], (1,))[1]


def test_explicit_lags_beat_a_preset_without_series(tmp_path):
    """A lag map in the config picks the AR orders, so a preset then needs no series."""
    series_csv = tmp_path / "series.csv"
    write_series(series_csv, ar1_values(800, seed=43))
    (tmp_path / "cfg.json").write_text(json.dumps({"lags": {"1": 2}}))
    outputs = []
    for preset in ([], ["--preset", "period-2010"]):
        out = tmp_path / f"fc{len(outputs)}.csv"
        argv = ["forecast", "--input", str(series_csv), "--output", str(out), "--config", str(tmp_path / "cfg.json"),
                "--model", "TVAR", "--horizon", "1"]
        assert main(argv + preset) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "argv",
    [["forecast", "--model", "HAR"], ["forecast", "--model", "TVHAR"],
     ["evaluate", "--models", "HAR,TVHAR", "--benchmark", "HAR"]],
    ids=["forecast-HAR", "forecast-TVHAR", "evaluate-HAR,TVHAR"],
)
def test_a_preset_needs_no_series_where_no_model_reads_an_ar_order(tmp_path, capsys, argv):
    """HAR and TVHAR read no AR order, so a preset's lag maps need no series
    to pick one: the run writes the bytes of the same run without the preset."""
    (tmp_path / "cfg.json").write_text(json.dumps({"max_origins": 5} if argv[0] == "evaluate" else {}))
    outputs = []
    for preset in ([], ["--preset", "period-2010"]):
        out = tmp_path / f"out{len(outputs)}.csv"
        common = ["--input", str(PAPER_SERIES), "--output", str(out), "--config", str(tmp_path / "cfg.json")]
        assert main(argv[:1] + common + argv[1:] + preset) == 0
        outputs.append((out.read_bytes(), capsys.readouterr().out))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("model, p", [("TVEWD", 1), ("EWD", 1), ("TVEWD", 6)])
def test_forecast_refuses_a_window_too_short_for_the_scale_depth(tmp_path, capsys, model, p):
    """`tvewd forecast` applies the depth rule of `tvewd evaluate`, with its
    message, and writes nothing; one more observation forecasts."""
    need = 512 + p + 7 - 1  # H + p + J - 1 at J = 7, N = 4
    window = need - 1
    records = []
    for argv in (["forecast", "--model", model], ["evaluate", "--models", model, "--benchmark", model]):
        out = tmp_path / "out.csv"
        argv += ["--input", str(PAPER_SERIES), "--output", str(out), "--window", str(window), "--p", str(p)]
        assert main(argv) == 2
        records.append(json.loads(capsys.readouterr().err))
        assert not out.exists()
    message = f"{model}: window {window} is too short for p={p} at J=7, N=4; it needs at least {need}"
    assert records == [{"error": "config", "message": message}] * 2
    argv = ["forecast", "--model", model, "--input", str(PAPER_SERIES), "--output", str(out),
            "--window", str(need), "--p", str(p), "--horizon", "1"]
    assert main(argv) == 0
    assert len(out.read_text().splitlines()) == 2


# per model: extra flags, a window below a fit's own minimum and its message,
# and the smallest window the rule accepts
FIT_MINIMUMS = {
    "TVAR": (["--p", "6"], 100, "series too short: 100 observations for p=6 (need more than 140)", 141),
    "TVEWD": (["--bandwidth", "0.03"], 130,
              "bandwidth 0.03 too small for T=130: fewer than 4 observations in the kernel window", 134),
    "EWD": (["--p", "10"], 110, "series too short for OLS AR(10): 110 observations", 111),
    "HAR": (["--horizon", "79"], 100, "window of 100 observations too short for horizon 79", 101),
    "TVHAR": (["--horizon", "1,79"], 100, "window of 100 observations too short for horizon 79", 101),
}


@pytest.mark.parametrize("model", sorted(FIT_MINIMUMS))
def test_both_commands_refuse_a_window_below_a_fits_own_minimum(tmp_path, capsys, model):
    """`ModelSpec.check_window` holds each model's minimum window, from the
    checks its fits run: the local-fit length and bandwidth rules for TVAR
    and TVEWD, the OLS length for EWD, and 100 observations and 22 design
    rows for HAR and TVHAR.  Below it, `tvewd forecast` and `tvewd
    evaluate` exit 2 with one message and write nothing, where they exited
    1 or reported the model failing at every origin."""
    flags, window, message, smallest = FIT_MINIMUMS[model]
    cfg = tmp_path / "depth.json"
    cfg.write_text(json.dumps({"J": 1, "N": 1}))  # a scale depth that any of these windows holds
    records = []
    for argv in (["forecast", "--model", model], ["evaluate", "--models", model, "--benchmark", model]):
        out = tmp_path / "out.csv"
        argv += ["--input", str(PAPER_SERIES), "--output", str(out), "--config", str(cfg),
                 "--window", str(window), *flags]
        assert main(argv) == 2
        records.append(json.loads(capsys.readouterr().err))
        assert not out.exists()
    assert records == [{"error": "config", "message": f"{model}: {message}"}] * 2
    p = int(flags[1]) if flags[0] == "--p" else 1
    kernel = KernelSpec("epanechnikov", float(flags[1]) if flags[0] == "--bandwidth" else 0.3)
    horizons = tuple(int(h) for h in flags[1].split(",")) if flags[0] == "--horizon" else (1,)
    spec = ModelSpec(model, p=p, kernel=kernel, scales=MultiscaleConfig(J=1, N=1))
    spec.check_window(smallest, horizons)
    with pytest.raises(ValueError, match=f"^{re.escape(model)}: "):
        spec.check_window(smallest - 1, horizons)


@pytest.mark.parametrize("model", ["TVEWD", "EWD", "TVAR", "HAR", "TVHAR"])
def test_forecast_fits_once_per_lag_and_matches_per_horizon_route(tmp_path, monkeypatch, model):
    """Horizons sharing an AR order share one window fit; the CSV is
    byte-identical to forecasting each horizon on its own."""
    from tvewd import benchmarks, forecast

    series_csv = tmp_path / "series.csv"
    series = write_series(series_csv, ar1_values(760, seed=48))
    out = tmp_path / "fc.csv"
    fits = []
    fit_tvp_ar = benchmarks.fit_tvp_ar

    def counting_fit(values, p, *args, **kwargs):
        fits.append(p)
        return fit_tvp_ar(values, p, *args, **kwargs)

    monkeypatch.setattr(benchmarks, "fit_tvp_ar", counting_fit)
    argv = ["forecast", "--input", str(series_csv), "--output", str(out), "--model", model]
    code = main(argv + ["--preset", "period-2010", "--series", "CL", "--horizon", "5,1,22"])
    assert code == 0
    # period-2010 maps CL to p=2 at h=1 and p=6 at h=5 and h=22
    assert fits == ([6, 2] if model == "TVEWD" else [])

    window = series.values[-700:]
    rows = []
    for h, p in ((5, 6), (1, 2), (22, 6)):
        spec = ModelSpec(
            name=model,
            p=p,
            kernel=KernelSpec("epanechnikov", 0.3),
            scales=MultiscaleConfig(J=7, N=4),
        )
        target = str(np.busday_offset(series.dates[-1], h, roll="forward"))
        rows.append((str(series.dates[-1]), target, h, model, spec.forecast_all(window, (h,))[h]))
    expected = tmp_path / "per_horizon.csv"
    forecast.store_forecasts(rows, str(expected))
    assert out.read_bytes() == expected.read_bytes()

    # the library route: one spec with the per-horizon map, equal bit for bit
    fits.clear()
    mapped = ModelSpec(
        name=model,
        p={22: 6, 1: 2, 5: 6},
        kernel=KernelSpec("epanechnikov", 0.3),
        scales=MultiscaleConfig(J=7, N=4),
    )
    assert mapped.p == ((1, 2), (5, 6), (22, 6)) and hash(mapped) is not None
    assert mapped.forecast_all(window, (5, 1, 22)) == {h: value for _, _, h, _, value in rows}
    assert fits == ([6, 2] if model == "TVEWD" else [])


def test_forecast_unknown_series_key(tmp_path, capsys):
    series_csv = tmp_path / "series.csv"
    write_series(series_csv, ar1_values(400, seed=44))
    code = main(
        [
            "forecast",
            "--input",
            str(series_csv),
            "--output",
            str(tmp_path / "fc.csv"),
            "--preset",
            "period-2010",
            "--series",
            "XX",
            "--window",
            "300",
        ]
    )
    assert code == 2
    assert "XX" in json.loads(capsys.readouterr().err)["message"]


def test_forecast_window_exceeds_series(tmp_path, capsys):
    series_csv = tmp_path / "series.csv"
    write_series(series_csv, ar1_values(200, seed=45))
    code = main(
        [
            "forecast",
            "--input",
            str(series_csv),
            "--output",
            str(tmp_path / "fc.csv"),
            "--window",
            "300",
        ]
    )
    assert code == 2
    assert "exceeds" in json.loads(capsys.readouterr().err)["message"]


def test_forecast_null_window_is_the_whole_series(tmp_path):
    series_csv = tmp_path / "series.csv"
    write_series(series_csv, ar1_values(400, seed=50))
    outputs = []
    for name, window_cfg, flags in (("null", {"window": None}, []), ("full", {}, ["--window", "400"])):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"J": 5, **window_cfg}))
        out = tmp_path / f"{name}.csv"
        argv = ["forecast", "--input", str(series_csv), "--output", str(out), "--config", str(cfg)]
        assert main(argv + flags) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def compare_report_csv(actual_path, golden_path):
    """Golden comparison: layout and text cells byte-exact, numbers to 1e-9
    (linear-algebra backends may differ in the last bits across platforms)."""
    actual = Path(actual_path).read_text().splitlines()
    golden = Path(golden_path).read_text().splitlines()
    assert actual[0] == golden[0]
    assert len(actual) == len(golden)
    for line_a, line_g in zip(actual[1:], golden[1:]):
        cells_a, cells_g = line_a.split(","), line_g.split(",")
        assert len(cells_a) == len(cells_g)
        for cell_a, cell_g in zip(cells_a, cells_g):
            try:
                num_g = float(cell_g)
            except ValueError:
                assert cell_a == cell_g
                continue
            assert math.isclose(float(cell_a), num_g, rel_tol=1e-9, abs_tol=1e-12)


def test_evaluate_matches_golden_report(tmp_path):
    series_csv = tmp_path / "series.csv"
    build_eval_series(series_csv)
    out = tmp_path / "report.csv"
    assert run_golden_evaluate(series_csv, out) == 0
    compare_report_csv(out, GOLDEN_REPORT)


@pytest.mark.parametrize("jobs", [1, 2])
def test_evaluate_matches_paper_geometry_golden(tmp_path, jobs):
    """Every model's forecasts at window 700, H = 512 and p in {2, 6}, on the
    committed series, match the committed report and forecasts to 1e-9."""
    report, forecasts = run_paper_evaluate(PAPER_SERIES, tmp_path, jobs)
    compare_report_csv(report, PAPER_REPORT)
    compare_report_csv(forecasts, PAPER_FORECASTS)


@pytest.mark.filterwarnings("ignore::tvewd.wold.ExplosiveWarning")
@pytest.mark.parametrize("jobs", [1, 2])
def test_a_constant_stretch_pins_its_failures(tmp_path, capsys, jobs):
    """A constant stretch makes the local systems that cover it singular.
    Each model's failures, by exception class and message, are counted
    over the 60 origins, at a scale depth a window of 100 supports; the
    condition numbers in the messages are rounding noise of a singular
    system, so they are not pinned.  TVHAR fails per horizon: 28 times at
    h = 1 and 32 times at h = 5."""
    values = ar1_values(160, seed=2024)
    values[70:120] = values[70]
    series_csv = tmp_path / "series.csv"
    write_series(series_csv, values)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"J": 3, "N": 4}))
    argv = ["evaluate", "--input", str(series_csv), "--output", str(tmp_path / "report.csv"),
            "--config", str(cfg), "--models", "TVEWD,TVAR,EWD,HAR,TVHAR", "--benchmark", "HAR",
            "--window", "100", "--horizon", "1,5", "--jobs", str(jobs)]
    assert main(argv) == 0
    listed = capsys.readouterr().out.split("failures:\n")[1].split("\n\n")[0].splitlines()
    failures = Counter()
    for line in listed:
        count, message = re.fullmatch(r"  \[(\d+)x\] (.*)", line).groups()
        if "singular local system" in message:
            message, cond = message.split(": condition number ")
            assert re.fullmatch(r"\S+ exceeds 1e\+10", cond)
        failures[message] += int(count)
    singular = "EstimationError: singular local system at u="
    expected = Counter({f"TVAR: {singular}1": 23, f"TVHAR: {singular}1": 60})
    expected.update(f"TVEWD: {singular}{u / 100:g}" for u in [79, *range(79, 101)])
    assert failures == expected


def test_evaluate_parallel_identical_output(tmp_path):
    series_csv = tmp_path / "series.csv"
    build_eval_series(series_csv)
    out1 = tmp_path / "report1.csv"
    out2 = tmp_path / "report2.csv"
    assert run_golden_evaluate(series_csv, out1, jobs=1) == 0
    assert run_golden_evaluate(series_csv, out2, jobs=2) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_evaluate_outputs_and_table(tmp_path, capsys):
    series_csv = tmp_path / "series.csv"
    write_series(series_csv, ar1_values(150, seed=46))
    records_csv = tmp_path / "records.csv"
    table_txt = tmp_path / "table.txt"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"forecasts_output": str(records_csv), "table_output": str(table_txt)})
    )
    out = tmp_path / "report.csv"
    code = main(
        [
            "evaluate",
            "--input",
            str(series_csv),
            "--output",
            str(out),
            "--config",
            str(cfg),
            "--models",
            "TVAR,HAR",
            "--benchmark",
            "HAR",
            "--window",
            "100",
            "--horizon",
            "1,5",
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "benchmark: HAR" in stdout
    assert table_txt.read_text() == stdout
    rec_lines = records_csv.read_text().splitlines()
    assert rec_lines[0] == "origin_date,target_date,h,model,forecast"
    assert len(rec_lines) > 1
    report_lines = out.read_text().splitlines()
    # two models x two horizons x two loss rows
    assert len(report_lines) == 1 + 8


def test_evaluate_lag_mapping_groups_horizons(tmp_path):
    series_csv = tmp_path / "series.csv"
    write_series(series_csv, ar1_values(150, seed=47))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lags": {"1": 1, "5": 2}}))
    out = tmp_path / "report.csv"
    code = main(
        [
            "evaluate",
            "--input",
            str(series_csv),
            "--output",
            str(out),
            "--config",
            str(cfg),
            "--models",
            "TVAR",
            "--benchmark",
            "TVAR",
            "--window",
            "100",
            "--horizon",
            "1,5",
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    horizons = {line.split(",")[1] for line in lines[1:]}
    assert horizons == {"1", "5"}


def evaluate_with_lags(tmp_path, name, lags, models, window, horizons, **settings):
    """Run `tvewd evaluate` on the golden series with a lag map and any
    further config settings; returns the report CSV text and the forecasts
    CSV lines."""
    series_csv = tmp_path / "series.csv"
    build_eval_series(series_csv)
    fc_csv = tmp_path / f"{name}.fc.csv"
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps({"lags": lags, "forecasts_output": str(fc_csv), **settings}))
    out = tmp_path / f"{name}.report.csv"
    argv = ["evaluate", "--input", str(series_csv), "--output", str(out), "--config", str(cfg),
            "--models", models, "--benchmark", "HAR", "--window", str(window), "--horizon", horizons]
    assert main(argv) == 0
    return out.read_text(), fc_csv.read_text().splitlines()


def test_evaluate_origin_count_does_not_depend_on_horizon_order(tmp_path, capsys):
    """One rolling evaluation covers every AR order: the header counts the
    origins of the shortest horizon however the horizons are listed."""
    lags = {"1": 1, "5": 2, "22": 2}
    report_a, records_a = evaluate_with_lags(tmp_path, "a", lags, "TVAR,HAR", 100, "1,5,22")
    table_a = capsys.readouterr().out
    report_b, records_b = evaluate_with_lags(tmp_path, "b", lags, "TVAR,HAR", 100, "22,5,1")
    table_b = capsys.readouterr().out
    assert "origins 60)" in table_a.splitlines()[0]
    assert table_b.splitlines()[0] == table_a.splitlines()[0]
    assert report_b == report_a
    assert records_b == records_a
    # rows by origin, then horizon ascending, then model name
    keys = [(origin, int(h), model) for origin, _, h, model, _ in (r.split(",") for r in records_a[1:])]
    assert keys == sorted(keys)


def test_evaluate_isolates_failures_per_ar_order(tmp_path, capsys):
    """A local fit that fails at p = 6 costs only the horizons mapped to
    p = 6, and counts once per origin that still has such a horizon.  Every
    window ends in 60 or more values of period 3, where the lags t-1 and
    t-4 are equal, so each local system there is singular at p = 6 and not
    at p = 2."""
    values = ar1_values(190, seed=2024)
    values[90:] = 10.0 + np.resize([0.7, -1.3, 0.4], len(values) - 90)
    series_csv = tmp_path / "series.csv"
    write_series(series_csv, values)
    cfg, fc_csv = tmp_path / "w.json", tmp_path / "w.fc.csv"
    cfg.write_text(json.dumps({"lags": {"1": 2, "5": 6}, "forecasts_output": str(fc_csv), "J": 3, "N": 4}))
    argv = ["evaluate", "--input", str(series_csv), "--output", str(tmp_path / "w.csv"), "--config", str(cfg),
            "--models", "TVEWD,TVAR,HAR", "--benchmark", "HAR", "--window", "150", "--horizon", "1,5"]
    assert main(argv) == 0
    records = fc_csv.read_text().splitlines()
    table = capsys.readouterr().out
    counts = Counter((model, int(h)) for _, _, h, model, _ in (r.split(",") for r in records[1:]))
    assert (counts["TVAR", 1], counts["TVAR", 5]) == (40, 0)
    assert (counts["TVEWD", 1], counts["TVEWD", 5]) == (40, 0)
    assert (counts["HAR", 1], counts["HAR", 5]) == (40, 36)
    failures = Counter()
    for line in table.split("failures:\n")[1].split("\n\n")[0].splitlines():
        count, message = line.strip().split(" ", 1)
        assert ": EstimationError: singular local system at u=" in message
        failures[message.split(":")[0]] += int(count[1:-2])
    # the p = 6 group has no horizon at the last 4 of the 40 origins, so it
    # is neither fitted nor counted there
    assert failures == {"TVAR": 36, "TVEWD": 36}


@pytest.mark.parametrize("max_origins", [0, -3])
def test_evaluate_rejects_origin_caps_below_one(tmp_path, capsys, max_origins):
    series_csv = tmp_path / "series.csv"
    write_series(series_csv, ar1_values(150, seed=49))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_origins": max_origins}))
    out = tmp_path / "o.csv"
    argv = ["evaluate", "--input", str(series_csv), "--output", str(out), "--config", str(cfg),
            "--models", "HAR", "--benchmark", "HAR", "--window", "100", "--horizon", "1"]
    assert main(argv) == 2
    record = json.loads(capsys.readouterr().err)
    assert record == {"error": "config", "message": "max_origins must be >= 1"}
    assert not out.exists()


def test_evaluate_rejects_unknown_model(tmp_path, capsys):
    series_csv = tmp_path / "series.csv"
    write_series(series_csv, ar1_values(150, seed=48))
    code = main(
        [
            "evaluate",
            "--input",
            str(series_csv),
            "--output",
            str(tmp_path / "o.csv"),
            "--models",
            "TVAR,XGB",
            "--window",
            "100",
            "--horizon",
            "1",
        ]
    )
    assert code == 2
    assert "XGB" in json.loads(capsys.readouterr().err)["message"]


# ---------------------------------------------------------------------------
# plan and configuration errors of forecast and evaluate
# ---------------------------------------------------------------------------

# (flags, config file, message); "--model" reads "--models" for evaluate
PLAN_ERRORS = {
    "negative window": (["--window", "-5"], None, "window must be >= 100"),
    "zero window": (["--window", "0"], None, "window must be >= 100"),
    "zero window in config": ([], {"window": 0}, "window must be >= 100"),
    "short TVAR window": (["--window", "50", "--model", "TVAR"], None, "window must be >= 100"),
    "zero horizon HAR": (["--horizon", "0", "--model", "HAR"], None, "horizons must be positive"),
    "zero horizon TVAR": (["--horizon", "0", "--model", "TVAR"], None, "horizons must be positive"),
    "repeated horizon": (["--horizon", "1,1"], None, "horizons must be distinct"),
    "scalar lags": ([], {"lags": 2}, "lags must map horizons to AR orders, got 2"),
    "scalar series lags": (
        [], {"series": "CL", "series_lags": {"CL": 3}}, "series_lags['CL'] must map horizons to AR orders, got 3"
    ),
    "scalar horizons": ([], {"horizons": 5}, "horizons must be a list, got 5"),
    "text horizons": ([], {"horizons": "15"}, "horizons must be a list, got '15'"),
    "text window": ([], {"window": "abc"}, "window must be an integer, got 'abc'"),
    "numeric text window": ([], {"window": "300"}, "window must be an integer, got '300'"),
    "integral float window": ([], {"window": 300.0}, "window must be an integer, got 300.0"),
    "unknown model": (["--model", "XGB"], None, f"unknown model 'XGB', expected one of {MODEL_NAMES}"),
    "text order": ([], {"p": "abc"}, "p must be an integer, got 'abc'"),
    "numeric text order": ([], {"p": "2"}, "p must be an integer, got '2'"),
    "order zero": (["--p", "0"], None, "AR order must be >= 1, got 0"),
    "order zero in lags": ([], {"lags": {"1": 2, "5": 0, "22": 2}}, "AR order must be >= 1, got 0"),
    "text lag": (["--horizon", "1"], {"lags": {"1": "x"}}, "lags['1'] must be an integer, got 'x'"),
    "scalar series lag maps": ([], {"series": "CL", "series_lags": 3}, "series_lags must map series to lag maps, got 3"),
    "text bandwidth": ([], {"bandwidth": "wide"}, "bandwidth must be a number, got 'wide'"),
    "boolean bandwidth": ([], {"bandwidth": True}, "bandwidth must be a number, got True"),
    "numeric text bandwidth": ([], {"bandwidth": "0.3"}, "bandwidth must be a number, got '0.3'"),
    "null bandwidth": ([], {"bandwidth": None}, "bandwidth must be a number, got None"),
    "list bandwidth": ([], {"bandwidth": [0.3]}, "bandwidth must be a number, got [0.3]"),
    "wide bandwidth": ([], {"bandwidth": 2.0}, "bandwidth must lie in (0, 1], got 2.0"),
    "unknown kernel": (
        [], {"kernel": "tri"}, "unknown kernel family 'tri', expected one of ('epanechnikov', 'uniform')"
    ),
    "gaussian kernel": (
        [], {"kernel": "gaussian"}, "unknown kernel family 'gaussian', expected one of ('epanechnikov', 'uniform')"
    ),
    "preset without series": (
        ["--preset", "period-2010"], None, "series_lags needs 'series' to pick a lag map; available: ['CL', 'NG', 'RB']"
    ),
    "series lags without series": (
        [], {"series_lags": {"HU": {"1": 2, "5": 5, "22": 5}}},
        "series_lags needs 'series' to pick a lag map; available: ['HU']",
    ),
    "zero depth": ([], {"J": 0}, "J must be >= 1, got 0"),
    "window short for the scale depth": (
        ["--window", "100"], None, "TVEWD: window 100 is too short for p=1 at J=7, N=4; it needs at least 519"
    ),
    "fractional window": ([], {"window": 100.7}, "window must be an integer, got 100.7"),
    "fractional horizon": ([], {"horizons": [1.5, 5]}, "horizon must be an integer, got 1.5"),
    "fractional horizon flag": (["--horizon", "1,1.5"], None, "invalid literal for int() with base 10: '1.5'"),
    "fractional order": ([], {"p": 1.9}, "p must be an integer, got 1.9"),
    "boolean order": ([], {"p": True}, "p must be an integer, got True"),
    "fractional lag": ([], {"lags": {"1": 2, "5": 2.5, "22": 2}}, "lags['5'] must be an integer, got 2.5"),
    "fractional series lag": (
        [], {"series": "CL", "series_lags": {"CL": {"1": 2, "5": 6, "22": 6.5}}},
        "series_lags['CL']['22'] must be an integer, got 6.5",
    ),
    "fractional depth": ([], {"J": 3.7}, "J must be an integer, got 3.7"),
    "infinite moments": ([], {"N": float("inf")}, "N must be an integer, got inf"),
}

# refusals of `evaluate` alone: its models, benchmark, series length and workers
EVALUATE_ERRORS = {
    "unknown benchmark": (
        ["--benchmark", "XGB"], None, "benchmark 'XGB' not among models ['TVEWD', 'TVHAR', 'TVAR', 'HAR', 'EWD']"
    ),
    "repeated model": (["--models", "HAR,HAR", "--benchmark", "HAR"], None, "duplicate model names: ['HAR', 'HAR']"),
    "window beyond series": (
        ["--window", "830"], None, "series of 830 observations cannot support window 830 with horizons (1, 5, 22)"
    ),
    "text jobs": ([], {"jobs": "abc"}, "jobs must be an integer, got 'abc'"),
    "integral float jobs": ([], {"jobs": 2.0}, "jobs must be an integer, got 2.0"),
    "text models": ([], {"models": "HAR"}, "models must be a list, got 'HAR'"),
    "zero jobs": (["--jobs", "0"], None, "jobs must be >= 1, got 0"),
    "negative jobs": (["--jobs", "-3"], None, "jobs must be >= 1, got -3"),
    "fractional jobs": ([], {"jobs": 2.7}, "jobs must be an integer, got 2.7"),
    "fractional step": ([], {"step": 2.5}, "step must be an integer, got 2.5"),
    "fractional origin cap": ([], {"max_origins": 2.5}, "max_origins must be an integer, got 2.5"),
}


@pytest.mark.parametrize(
    "command, case",
    [(command, case) for command in ("evaluate", "forecast") for case in sorted(PLAN_ERRORS)]
    + [("evaluate", case) for case in sorted(EVALUATE_ERRORS)],
)
def test_plan_errors_are_config_errors_and_write_nothing(tmp_path, capsys, command, case):
    """Both commands build one rolling plan and one set of model specs: a
    window, horizon, lag map, model setting, benchmark, series length or
    worker count that the plan, the specs or the config refuse exits 2
    with a config record, before any output is written."""
    flags, config, message = {**PLAN_ERRORS, **EVALUATE_ERRORS}[case]
    series_csv = tmp_path / "series.csv"
    write_series(series_csv, ar1_values(830, seed=51))
    argv = [command, "--input", str(series_csv), "--output", str(tmp_path / "out.csv")]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "cfg.json")]
    model_flag = "--model" if command == "forecast" else "--models"
    argv += [model_flag if flag == "--model" else flag for flag in flags]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "config", "message": message}
    assert [p.name for p in tmp_path.iterdir() if p.name != "cfg.json"] == ["series.csv"]
