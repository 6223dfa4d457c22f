"""End-to-end command-line tests: config precedence, every subcommand, errors."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from tvewd import rv
from tvewd.benchmarks import ModelSpec
from tvewd.cli import main
from tvewd.locreg import KernelSpec
from tvewd.series import VolatilitySeries, business_dates, load_series, store_series
from tvewd.sim import TvpArScenario, constant, simulate, store_scenario
from tvewd.wold import MultiscaleConfig

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_REPORT = DATA_DIR / "golden_report.csv"


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
    assert resolved["J"] == 7  # preset beats defaults
    assert resolved["horizons"] == [1, 5, 22]
    assert resolved["series_lags"]["CL"] == {"1": 2, "5": 6, "22": 6}


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"bandwidt": 0.2}))
    code = main(["forecast", "--config", str(cfg_path), "--print-config"])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config"
    assert "bandwidt" in record["message"]
    assert "forecast" in record["message"]


def test_unknown_preset_rejected(capsys):
    code = main(["forecast", "--preset", "period-2020", "--print-config"])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert "period-2020" in record["message"]


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
    scen = TvpArScenario(p=1, T=50, coefficients=(constant(0.5),), seed=1)
    scen_path = tmp_path / "scen.json"
    store_scenario(scen, str(scen_path))
    payload = json.loads(scen_path.read_text())
    payload["burn"] = 5
    scen_path.write_text(json.dumps(payload))
    code = main(["simulate", "--scenario", str(scen_path), "--output", str(tmp_path / "o.csv")])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"


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


@pytest.mark.parametrize("model", ["TVEWD", "EWD", "TVAR", "HAR", "TVHAR"])
def test_forecast_fits_once_per_lag_and_matches_per_horizon_route(tmp_path, monkeypatch, model):
    """Horizons sharing an AR order share one window fit; the CSV is
    byte-identical to forecasting each horizon on its own."""
    from tvewd import forecast

    series_csv = tmp_path / "series.csv"
    series = write_series(series_csv, ar1_values(760, seed=48))
    out = tmp_path / "fc.csv"
    fits = []
    fit_tvp_ar = forecast.fit_tvp_ar

    def counting_fit(values, p, *args, **kwargs):
        fits.append(p)
        return fit_tvp_ar(values, p, *args, **kwargs)

    monkeypatch.setattr(forecast, "fit_tvp_ar", counting_fit)
    argv = ["forecast", "--input", str(series_csv), "--output", str(out), "--model", model]
    code = main(argv + ["--preset", "period-2010", "--series", "CL", "--horizon", "5,1,22"])
    assert code == 0
    # period-2010 maps CL to p=2 at h=1 and p=6 at h=5 and h=22
    assert fits == ([6, 2] if model == "TVEWD" else [])

    window = series.values[-700:]
    points = []
    for h, p in ((5, 6), (1, 2), (22, 6)):
        spec = ModelSpec(
            name=model,
            p=p,
            kernel=KernelSpec("epanechnikov", 0.3),
            scales=MultiscaleConfig(J=7, N=4),
        )
        points.append(
            forecast.ForecastPoint(
                horizon=h,
                value=spec.forecast_all(window, (h,))[h],
                trend=float("nan"),
                scale_parts=np.array([]),
                weights=np.array([]),
                model=model,
                origin_date=str(series.dates[-1]),
                target_date=str(np.busday_offset(series.dates[-1], h, roll="forward")),
            )
        )
    expected = tmp_path / "per_horizon.csv"
    forecast.store_forecasts(points, str(expected))
    assert out.read_bytes() == expected.read_bytes()


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
