"""Command-line interface.

Subcommands: rv, decompose, forecast, evaluate, simulate.  Options resolve
in precedence order: built-in defaults < --preset bundle < --config JSON
file < explicit command-line flags.  Unknown config keys are rejected by
name.  All file outputs are written atomically; failures exit non-zero with
a machine-readable JSON error record on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import benchmarks, evaluate, forecast, locreg, rv, sim, wold
from .locreg import KernelSpec
from .series import atomic_write, format_value, load_series, store_series, write_csv
from .wold import MultiscaleConfig

__all__ = ["main"]


class ConfigError(ValueError):
    """Invalid configuration or usage."""


PRESETS: dict[str, dict] = {
    "period-2010": {
        "window": 700,
        "J": 7,
        "N": 4,
        "bandwidth": 0.3,
        "kernel": "epanechnikov",
        "horizons": [1, 5, 22],
        "series_lags": {
            "CL": {"1": 2, "5": 6, "22": 6},
            "NG": {"1": 5, "5": 5, "22": 5},
            "RB": {"1": 2, "5": 5, "22": 5},
        },
    },
    "period-1993": {
        "window": 700,
        "J": 7,
        "N": 4,
        "bandwidth": 0.3,
        "kernel": "epanechnikov",
        "horizons": [1, 5, 22],
        "series_lags": {
            "CL": {"1": 3, "5": 3, "22": 3},
            "NG": {"1": 5, "5": 5, "22": 3},
            "HU": {"1": 2, "5": 5, "22": 5},
        },
    },
}

COMMON_KEYS = {"input", "output", "seed", "jobs"}
COMMAND_KEYS: dict[str, set[str]] = {
    "rv": COMMON_KEYS
    | {"rv_output", "label", "session_cutoff", "bins_per_day", "open_offset_minutes", "excluded_dates"},
    "decompose": COMMON_KEYS
    | {
        "p",
        "kernel",
        "bandwidth",
        "J",
        "N",
        "share_mode",
        "share_k",
        "shares_output",
        "curves_output",
    },
    "forecast": COMMON_KEYS
    | {"model", "p", "kernel", "bandwidth", "J", "N", "weight_window", "horizons", "lags", "series", "series_lags", "window"},
    "evaluate": COMMON_KEYS
    | {
        "models",
        "benchmark",
        "window",
        "step",
        "horizons",
        "max_origins",
        "p",
        "lags",
        "series",
        "series_lags",
        "kernel",
        "bandwidth",
        "J",
        "N",
        "weight_window",
        "forecasts_output",
        "table_output",
    },
    "simulate": COMMON_KEYS | {"scenario", "truth_output"},
}

DEFAULTS: dict = {
    "kernel": "epanechnikov",
    "bandwidth": 0.3,
    "p": 1,
    "J": 7,
    "N": 4,
    "window": 700,
    "step": 1,
    "horizons": [1, 5, 22],
    "models": ["TVEWD", "TVHAR", "TVAR", "HAR", "EWD"],
    "benchmark": "TVHAR",
    "share_mode": "absolute",
    "share_k": 0,
    "jobs": 1,
    "session_cutoff": "00:00",
    "bins_per_day": 288,
    "open_offset_minutes": 0,
    "excluded_dates": [],
}


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return cfg


def _resolve_config(command: str, args: argparse.Namespace) -> dict:
    allowed = COMMAND_KEYS[command]
    cfg = {k: v for k, v in DEFAULTS.items() if k in allowed}
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r}, expected one of {sorted(PRESETS)}")
        for k, v in PRESETS[args.preset].items():
            if k in allowed:
                cfg[k] = v
    if args.config:
        file_cfg = _load_config_file(args.config)
        unknown = sorted(set(file_cfg) - allowed)
        if unknown:
            raise ConfigError(f"unknown config key {unknown[0]!r} for command {command!r}")
        cfg.update(file_cfg)
    overrides = {
        "input": args.input,
        "output": args.output,
        "seed": args.seed,
        "jobs": args.jobs,
    }
    if hasattr(args, "horizon") and args.horizon:
        overrides["horizons"] = [int(x) for x in args.horizon.split(",")]
    for key in ("model", "models", "window", "p", "bandwidth", "series", "scenario", "benchmark", "step"):
        if hasattr(args, key) and getattr(args, key) is not None:
            overrides[key] = getattr(args, key)
    if "models" in overrides and isinstance(overrides["models"], str):
        overrides["models"] = overrides["models"].split(",")
    for k, v in overrides.items():
        if v is not None:
            if k not in allowed:
                raise ConfigError(f"option {k!r} does not apply to command {command!r}")
            cfg[k] = v
    return cfg


def _kernel(cfg: dict) -> KernelSpec:
    return KernelSpec(family=cfg["kernel"], bandwidth=float(cfg["bandwidth"]))


def _scales(cfg: dict) -> MultiscaleConfig:
    return MultiscaleConfig(J=int(cfg["J"]), N=int(cfg["N"]))


def _lags(cfg: dict, horizons: tuple[int, ...]) -> dict[int, int]:
    """Per-horizon AR orders: explicit lags map > preset series map > flat p."""
    lags = cfg.get("lags")
    if lags is None and cfg.get("series") is not None:
        series_lags = cfg.get("series_lags", {})
        key = cfg["series"]
        if key not in series_lags:
            raise ConfigError(
                f"series {key!r} has no lag mapping; available: {sorted(series_lags)}"
            )
        lags = series_lags[key]
    if lags is None:
        return {h: int(cfg["p"]) for h in horizons}
    for h in horizons:
        if str(h) not in lags:
            raise ConfigError(f"lag mapping has no entry for horizon {h}")
    return {h: int(lags[str(h)]) for h in horizons}


def _require(cfg: dict, key: str, command: str) -> str:
    if not cfg.get(key):
        raise ConfigError(f"command {command!r} requires {key!r} (flag --{key} or config)")
    return cfg[key]


def cmd_rv(cfg: dict) -> int:
    path = _require(cfg, "input", "rv")
    out = _require(cfg, "output", "rv")
    calendar = rv.TradingCalendar(
        excluded_dates=tuple(cfg["excluded_dates"]),
        session_cutoff=cfg["session_cutoff"],
        open_offset_minutes=int(cfg["open_offset_minutes"]),
        bins_per_day=int(cfg["bins_per_day"]),
    )
    ts, px = rv.load_ticks(path)
    label = cfg.get("label") or "rv"
    vol, raw, warnings = rv.rv_pipeline(ts, px, calendar, label=label)
    store_series(vol, out)
    if cfg.get("rv_output"):
        rv.store_rv(raw.dates, raw.values, cfg["rv_output"])
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"wrote {len(vol)} annualized volatility observations to {out}")
    return 0


def cmd_decompose(cfg: dict) -> int:
    path = _require(cfg, "input", "decompose")
    out = _require(cfg, "output", "decompose")
    series = load_series(path)
    p = int(cfg["p"])
    fit = locreg.fit_tvp_ar(series, p, _kernel(cfg))
    decomp = wold.decompose(fit, _scales(cfg), dates=series.dates[p:])
    wold.store_beta_surface(decomp, out)
    shares = wold.persistence_shares(decomp, mode=cfg["share_mode"], k_index=int(cfg["share_k"]))
    if cfg.get("shares_output"):
        wold.store_shares(shares, cfg["shares_output"])
    if cfg.get("curves_output"):
        locreg.export_curves(fit, cfg["curves_output"])
    print(
        f"decomposed {len(series)} observations into J={decomp.config.J} scales "
        f"(H={decomp.config.H} lags); beta surface written to {out}"
    )
    return 0


def cmd_forecast(cfg: dict) -> int:
    path = _require(cfg, "input", "forecast")
    out = _require(cfg, "output", "forecast")
    series = load_series(path)
    name = cfg.get("model", "TVEWD")
    horizons = tuple(int(h) for h in cfg["horizons"])
    window = int(cfg.get("window") or len(series))
    if window > len(series):
        raise ConfigError(f"window {window} exceeds series length {len(series)}")
    spec = benchmarks.ModelSpec(
        name=name,
        p=_lags(cfg, horizons),
        kernel=_kernel(cfg),
        scales=_scales(cfg),
        weight_window=cfg.get("weight_window"),
    )
    values_by_h = spec.forecast_all(series.values[-window:], horizons)
    points = [
        forecast.ForecastPoint(
            horizon=h,
            value=values_by_h[h],
            trend=float("nan"),
            scale_parts=np.array([]),
            weights=np.array([]),
            model=name,
            origin_date=str(series.dates[-1]),
            target_date=str(np.busday_offset(series.dates[-1], h, roll="forward")),
        )
        for h in horizons
    ]
    forecast.store_forecasts(points, out)
    for pt in points:
        print(f"{name} h={pt.horizon}: {pt.value:.6f}")
    return 0


def cmd_evaluate(cfg: dict) -> int:
    path = _require(cfg, "input", "evaluate")
    out = _require(cfg, "output", "evaluate")
    series = load_series(path)
    horizons = tuple(int(h) for h in cfg["horizons"])
    names = list(cfg["models"])
    for name in names:
        if name not in benchmarks.MODEL_NAMES:
            raise ConfigError(f"unknown model {name!r}, expected one of {benchmarks.MODEL_NAMES}")
    lags, kernel, scales = _lags(cfg, horizons), _kernel(cfg), _scales(cfg)
    models = [
        benchmarks.ModelSpec(
            name=n, p=lags, kernel=kernel, scales=scales, weight_window=cfg.get("weight_window")
        )
        for n in names
    ]
    plan = evaluate.RollingPlan(
        window=int(cfg["window"]),
        step=int(cfg["step"]),
        horizons=horizons,
        max_origins=cfg.get("max_origins"),
    )
    report = evaluate.rolling_evaluate(
        series, models, plan, benchmark=cfg["benchmark"], jobs=int(cfg["jobs"])
    )
    evaluate.store_report(report, out)
    if cfg.get("forecasts_output"):
        evaluate.store_forecast_records(report, cfg["forecasts_output"])
    table = evaluate.format_report(report)
    if cfg.get("table_output"):
        atomic_write(cfg["table_output"], table)
    print(table, end="")
    return 0


def cmd_simulate(cfg: dict) -> int:
    scenario_path = _require(cfg, "scenario", "simulate")
    out = _require(cfg, "output", "simulate")
    scenario = sim.load_scenario(scenario_path)
    if cfg.get("seed") is not None:
        scenario = dataclasses.replace(scenario, seed=int(cfg["seed"]))
    result = sim.simulate(scenario)
    store_series(result.series, out)
    if cfg.get("truth_output"):
        header = ["u", "phi0"] + [f"phi{i}" for i in range(1, scenario.p + 1)] + ["sigma"]
        truth = np.column_stack([result.u, result.intercept, result.coefficients, result.sigma])
        write_csv(cfg["truth_output"], header, (map(format_value, row) for row in truth.tolist()))
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"simulated {scenario.T} observations (seed {scenario.seed}) to {out}")
    return 0


COMMANDS = {
    "rv": cmd_rv,
    "decompose": cmd_decompose,
    "forecast": cmd_forecast,
    "evaluate": cmd_evaluate,
    "simulate": cmd_simulate,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvewd",
        description="Multiscale persistence decomposition and forecasting for volatility series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "rv": "build a daily annualized volatility series from trade ticks",
        "decompose": "fit the time-varying AR and export the multiscale surfaces",
        "forecast": "produce point forecasts from the end of a series",
        "evaluate": "rolling out-of-sample comparison of forecasting models",
        "simulate": "generate a series from a scenario file with known truth",
    }
    for name, desc in descriptions.items():
        sp = sub.add_parser(name, help=desc, description=desc)
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--preset", help=f"named option bundle: {', '.join(sorted(PRESETS))}")
        sp.add_argument("--input", help="input CSV path")
        sp.add_argument("--output", help="output path")
        sp.add_argument("--seed", type=int, help="seed override")
        sp.add_argument("--jobs", type=int, help="parallel workers for rolling origins")
        sp.add_argument("--print-config", action="store_true", help="print resolved config and exit")
        if name in ("forecast", "evaluate"):
            sp.add_argument("--horizon", help="comma-separated horizons, e.g. 1,5,22")
            sp.add_argument("--window", type=int, help="in-sample window length")
            sp.add_argument("--p", type=int, help="autoregressive order")
            sp.add_argument("--bandwidth", type=float, help="kernel bandwidth in rescaled time")
            sp.add_argument("--series", help="series key for preset lag mappings (e.g. CL)")
        if name == "forecast":
            sp.add_argument("--model", help="model name (default TVEWD)")
        if name == "evaluate":
            sp.add_argument("--models", help="comma-separated model names")
            sp.add_argument("--benchmark", help="benchmark model name (default TVHAR)")
            sp.add_argument("--step", type=int, help="origin step")
        if name == "simulate":
            sp.add_argument("--scenario", help="scenario JSON path")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args.command, args)
        if args.print_config:
            print(json.dumps(cfg, indent=2, sort_keys=True))
            return 0
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - uniform machine-readable failure record
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
