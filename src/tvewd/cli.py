"""Command-line interface.

Subcommands: rv, decompose, forecast, evaluate, simulate.  Options resolve
in precedence order: built-in defaults < --preset bundle < --config JSON
file < explicit command-line flags; each option is declared once, in
OPTIONS.  Unknown config keys are rejected by name.  All file outputs are
written atomically; failures exit non-zero with a machine-readable JSON
error record on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from . import benchmarks, evaluate, forecast, locreg, rv, sim, wold
from .locreg import KernelSpec
from .series import _check_integer, atomic_write, format_value, load_series, store_series, write_csv
from .wold import MultiscaleConfig

__all__ = ["main"]


class ConfigError(ValueError):
    """Invalid configuration or usage."""


# The paper's two sample periods share the built-in defaults and differ only
# in their per-series lag tables.
PRESETS: dict[str, dict] = {
    "period-2010": {
        "series_lags": {
            "CL": {"1": 2, "5": 6, "22": 6},
            "NG": {"1": 5, "5": 5, "22": 5},
            "RB": {"1": 2, "5": 5, "22": 5},
        },
    },
    "period-1993": {
        "series_lags": {
            "CL": {"1": 3, "5": 3, "22": 3},
            "NG": {"1": 5, "5": 5, "22": 3},
            "HU": {"1": 2, "5": 5, "22": 5},
        },
    },
}

@dataclass(frozen=True)
class Option:
    """One config key: the commands that accept it and its built-in default
    (None when it has none).

    A key with a flag also names the commands that offer the flag, its
    argparse keywords, its name when that is not --<key>, and how the flag's
    text becomes the value (a None result leaves the key unset).
    """

    commands: tuple[str, ...]
    default: Any = None
    flag_for: tuple[str, ...] = ()
    flag: dict = field(default_factory=dict)
    name: str | None = None
    parse: Callable[[str], Any] | None = None


ALL = ("rv", "decompose", "forecast", "evaluate", "simulate")
FIT = ("decompose", "forecast", "evaluate")
PREDICT = ("forecast", "evaluate")

# Every option of every command.  Table order is the flags' order in --help.
OPTIONS: dict[str, Option] = {
    "input": Option(ALL, flag_for=ALL, flag={"help": "input CSV path"}),
    "output": Option(ALL, flag_for=ALL, flag={"help": "output path"}),
    "seed": Option(("simulate",), flag_for=("simulate",), flag={"type": int, "help": "scenario seed override"}),
    "jobs": Option(
        ("evaluate",), 1, flag_for=("evaluate",), flag={"type": int, "help": "parallel workers for rolling origins"}
    ),
    "horizons": Option(
        PREDICT, [1, 5, 22], flag_for=PREDICT, name="--horizon",
        flag={"metavar": "HORIZON", "help": "comma-separated horizons, e.g. 1,5,22"},
        parse=lambda text: [int(h) for h in text.split(",")] if text else None,
    ),
    "window": Option(PREDICT, 700, flag_for=PREDICT, flag={"type": int, "help": "in-sample window length"}),
    "p": Option(FIT, 1, flag_for=PREDICT, flag={"type": int, "help": "autoregressive order"}),
    "kernel": Option(FIT, "epanechnikov"),
    "bandwidth": Option(
        FIT, 0.3, flag_for=PREDICT, flag={"type": float, "help": "kernel bandwidth in rescaled time"}
    ),
    "J": Option(FIT, 7),
    "N": Option(FIT, 4),
    "series": Option(PREDICT, flag_for=PREDICT, flag={"help": "series key for preset lag mappings (e.g. CL)"}),
    **dict.fromkeys(("lags", "series_lags"), Option(PREDICT)),
    "model": Option(("forecast",), "TVEWD", flag_for=("forecast",), flag={"help": "model name (default TVEWD)"}),
    "models": Option(
        ("evaluate",), ["TVEWD", "TVHAR", "TVAR", "HAR", "EWD"], flag_for=("evaluate",),
        flag={"help": "comma-separated model names"}, parse=lambda text: text.split(","),
    ),
    "benchmark": Option(
        ("evaluate",), "TVHAR", flag_for=("evaluate",), flag={"help": "benchmark model name (default TVHAR)"}
    ),
    "step": Option(("evaluate",), 1, flag_for=("evaluate",), flag={"type": int, "help": "origin step"}),
    **dict.fromkeys(("max_origins", "forecasts_output", "table_output"), Option(("evaluate",))),
    "share_mode": Option(("decompose",), "absolute"),
    "share_k": Option(("decompose",), 0),
    **dict.fromkeys(("shares_output", "curves_output"), Option(("decompose",))),
    **dict.fromkeys(("rv_output", "label"), Option(("rv",))),
    "session_cutoff": Option(("rv",), "00:00"),
    "bins_per_day": Option(("rv",), 288),
    "open_offset_minutes": Option(("rv",), 0),
    "excluded_dates": Option(("rv",), []),
    "scenario": Option(("simulate",), flag_for=("simulate",), flag={"help": "scenario JSON path"}),
    "truth_output": Option(("simulate",)),
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
    options = {k: opt for k, opt in OPTIONS.items() if command in opt.commands}
    cfg = {k: opt.default for k, opt in options.items() if opt.default is not None}
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r}, expected one of {sorted(PRESETS)}")
        cfg.update((k, v) for k, v in PRESETS[args.preset].items() if k in options)
    if args.config:
        file_cfg = _load_config_file(args.config)
        unknown = sorted(set(file_cfg) - set(options))
        if unknown:
            raise ConfigError(f"unknown config key {unknown[0]!r} for command {command!r}")
        cfg.update(file_cfg)
    for key, opt in options.items():
        if command in opt.flag_for:
            value = getattr(args, key)
            if value is not None and opt.parse:
                with _config_values():  # a flag's text that does not convert
                    value = opt.parse(value)
            if value is not None:
                cfg[key] = value
    return cfg


@contextlib.contextmanager
def _config_values():
    """A TypeError or ValueError raised in the block, from a configured
    value the library refuses or cannot convert, becomes a ConfigError
    with the same message."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _list(cfg: dict, key: str) -> list:
    """A list setting; a config value that is not a JSON array is refused."""
    if not isinstance(cfg[key], list):
        raise ConfigError(f"{key} must be a list, got {cfg[key]!r}")
    return cfg[key]


def _kernel(cfg: dict) -> KernelSpec:
    return KernelSpec(family=cfg["kernel"], bandwidth=cfg["bandwidth"])


def _scales(cfg: dict) -> MultiscaleConfig:
    return MultiscaleConfig(J=cfg["J"], N=cfg["N"])


def _lags(cfg: dict, horizons: tuple[int, ...]) -> dict[int, int]:
    """Per-horizon AR orders: explicit lags map > preset series map (which needs a series) > flat p."""
    lags, source = cfg.get("lags"), "lags"
    key = cfg.get("series")
    if lags is None and (key is not None or cfg.get("series_lags") is not None):
        series_lags = cfg.get("series_lags", {})
        if not isinstance(series_lags, dict):
            raise ConfigError(f"series_lags must map series to lag maps, got {series_lags!r}")
        if key is None:
            raise ConfigError(f"series_lags needs 'series' to pick a lag map; available: {sorted(series_lags)}")
        if key not in series_lags:
            raise ConfigError(
                f"series {key!r} has no lag mapping; available: {sorted(series_lags)}"
            )
        lags, source = series_lags[key], f"series_lags[{key!r}]"
    if lags is None:
        return dict.fromkeys(horizons, cfg["p"])
    if not isinstance(lags, dict):
        raise ConfigError(f"{source} must map horizons to AR orders, got {lags!r}")
    for h in horizons:
        if str(h) not in lags:
            raise ConfigError(f"lag mapping has no entry for horizon {h}")
        _check_integer(lags[str(h)], f"{source}['{h}']")
    return {h: lags[str(h)] for h in horizons}


def _model_specs(cfg: dict, names: list[str], horizons: tuple[int, ...]) -> list[benchmarks.ModelSpec]:
    """One ModelSpec per name, sharing the configured lags, kernel and scales;
    a value they refuse is a config error."""
    with _config_values():
        lags, kernel, scales = _lags(cfg, horizons), _kernel(cfg), _scales(cfg)
        return [benchmarks.ModelSpec(name=n, p=lags, kernel=kernel, scales=scales) for n in names]


def _plan(cfg: dict, window: Any, step: Any = 1, max_origins: Any = None) -> evaluate.RollingPlan:
    """The configured horizons and the given layout as a rolling plan; a
    value the plan refuses is a config error."""
    horizons = tuple(_list(cfg, "horizons"))
    with _config_values():
        return evaluate.RollingPlan(window=window, step=step, horizons=horizons, max_origins=max_origins)


def _require(cfg: dict, key: str, command: str) -> str:
    if not cfg.get(key):
        raise ConfigError(f"command {command!r} requires {key!r} (flag --{key} or config)")
    return cfg[key]


def cmd_rv(cfg: dict) -> int:
    path = _require(cfg, "input", "rv")
    out = _require(cfg, "output", "rv")
    with _config_values():
        calendar = rv.TradingCalendar(
            excluded_dates=tuple(_list(cfg, "excluded_dates")),
            session_cutoff=cfg["session_cutoff"],
            open_offset_minutes=cfg["open_offset_minutes"],
            bins_per_day=cfg["bins_per_day"],
        )
    vol, raw, warnings = rv.stream_rv(path, calendar, label=cfg.get("label") or "rv")
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
    with _config_values():  # the settings of the model whose fit is decomposed
        spec = benchmarks.ModelSpec("TVEWD", p=cfg["p"], kernel=_kernel(cfg), scales=_scales(cfg))
        _check_integer(cfg["share_k"], "share_k")
    fit = locreg.fit_tvp_ar(series, spec.p, spec.kernel)
    decomp = wold.decompose(fit, spec.scales, dates=series.dates[spec.p:])
    with _config_values():  # persistence_shares raises ValueError only for its mode and k_index
        shares = wold.persistence_shares(decomp, mode=cfg["share_mode"], k_index=cfg["share_k"])
    wold.store_beta_surface(decomp, out)
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
    name = cfg["model"]
    plan = _plan(cfg, len(series) if cfg["window"] is None else cfg["window"])
    if plan.window > len(series):
        raise ConfigError(f"window {plan.window} exceeds series length {len(series)}")
    (spec,) = _model_specs(cfg, [name], plan.horizons)
    values_by_h = spec.forecast_all(series.values[-plan.window:], plan.horizons)
    origin = series.dates[-1]
    rows = [
        (str(origin), str(np.busday_offset(origin, h, roll="forward")), h, name, values_by_h[h])
        for h in plan.horizons
    ]
    forecast.store_forecasts(rows, out)
    for h in plan.horizons:
        print(f"{name} h={h}: {values_by_h[h]:.6f}")
    return 0


def cmd_evaluate(cfg: dict) -> int:
    path = _require(cfg, "input", "evaluate")
    out = _require(cfg, "output", "evaluate")
    series = load_series(path)
    plan = _plan(cfg, cfg["window"], cfg["step"], cfg.get("max_origins"))
    models = _model_specs(cfg, _list(cfg, "models"), plan.horizons)
    with _config_values():
        evaluate.check_evaluation(len(series), models, plan, cfg["benchmark"], cfg["jobs"])
    report = evaluate.rolling_evaluate(series, models, plan, benchmark=cfg["benchmark"], jobs=cfg["jobs"])
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
    seed = cfg.get("seed")
    if seed is not None:
        with _config_values():  # refused before the scenario file is read
            _check_integer(seed, "seed")
    scenario = sim.load_scenario(scenario_path)
    if seed is not None:
        scenario = dataclasses.replace(scenario, seed=seed)
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
        for key, opt in OPTIONS.items():
            if name in opt.flag_for:
                sp.add_argument(opt.name or f"--{key}", dest=key, **opt.flag)
        sp.add_argument("--print-config", action="store_true", help="print resolved config and exit")
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
