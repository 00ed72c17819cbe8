"""Command line front end.

Subcommands: synth (scenario only), run (full pipeline), eval (metrics from
existing CSVs), plot (SVGs from CSVs).  Options may come from a JSON config
file; explicit flags win.  GEOGLMB_SEED serves as a seed fallback.

Exit codes: 0 success, 2 configuration error, 3 runtime/divergence error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .errors import ConfigError, GeoGlmbError, SiteTableError
from .evaluation import build_report, write_metrics_csv, write_report_json
from .experiment import (
    ExperimentConfig,
    read_trial,
    run_experiment,
    staged,
    write_plots,
)
from .scenario import scenario_to_csv, synthesize_observations

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

_CSV_VIEW = (
    "Labels are paired with properties as the run paired them, from the property "
    "column of the estimates CSV."
)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="JSON config file; flags override it")
    parser.add_argument("--site", help="site CSV path or bundled name (onsoy, taipei)")
    parser.add_argument("--mode", choices=["joint", "independent"])
    parser.add_argument("--pd", type=float, dest="p_detect", help="detection probability")
    parser.add_argument("--sigma-m", type=float, dest="sigma_m", help="observation noise sd (%%)")
    parser.add_argument("--sigma-p", type=float, dest="sigma_p", help="process noise sd (%% per interval squared)")
    parser.add_argument("--p-survival", type=float, dest="p_survival")
    parser.add_argument("--clutter", type=float, dest="clutter_rate")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--mc", type=int, dest="mc_trials", help="Monte Carlo trials")
    parser.add_argument(
        "--jobs", type=int, help="parallel trial workers, at most one per trial and usable CPU"
    )
    parser.add_argument("--out", dest="out_dir", help="output directory")
    parser.add_argument("--trunc", choices=["gibbs", "ranked"], dest="trunc_method")
    parser.add_argument("--hyps", type=int, dest="requested_hypotheses")


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    doc: dict = {}
    if args.config is not None:
        try:
            doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    doc.update((k, v) for k, v in vars(args).items() if v is not None and k in fields)
    if "seed" not in doc and os.environ.get("GEOGLMB_SEED"):
        try:
            doc["seed"] = int(os.environ["GEOGLMB_SEED"])
        except ValueError as exc:
            raise ConfigError(f"GEOGLMB_SEED is not an integer: {exc}") from exc
    return ExperimentConfig.from_dict(doc)


def _cmd_synth(args: argparse.Namespace) -> int:
    config = _build_config(args)
    with staged(config.out_dir) as stage:
        site_path, records = config.site_records()
        scenario = synthesize_observations(
            records,
            config.sensor(),
            mode=config.mode,
            seed=config.seed,
            site_name=site_path.stem,
        )
        scenario_to_csv(scenario, stage / "scenario.csv")
    print(f"wrote {Path(config.out_dir, 'scenario.csv')}")
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    config = _build_config(args)
    written = run_experiment(config)
    for group, paths in written.items():
        for p in paths:
            print(f"wrote {p}")
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    out = args.out_dir or "."
    with staged(out) as stage:
        report = build_report(*read_trial(args.scenario, args.estimates))
        write_report_json(report, stage / "report.json")
        write_metrics_csv(report, stage / "metrics.csv")
    for name in ("report.json", "metrics.csv"):
        print(f"wrote {Path(out, name)}")
    return EXIT_OK


def _cmd_plot(args: argparse.Namespace) -> int:
    out = args.out_dir or "."
    with staged(out) as stage:
        plots = write_plots(*read_trial(args.scenario, args.estimates), stage)
    for path in plots:
        print(f"wrote {Path(out, path.name)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geoglmb",
        description="Clay property profile estimation with multi-object Bayes filtering",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="synthesize an observation scenario only")
    _add_config_flags(p_synth)
    p_synth.set_defaults(func=_cmd_synth)

    p_run = sub.add_parser("run", help="full pipeline: synth, filter, report, plots")
    _add_config_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_eval = sub.add_parser(
        "eval",
        help="metrics from existing scenario/estimates CSVs",
        description=_CSV_VIEW + " A scenario.csv does not record the run's settings, "
        'so report.json states mode "joint" for any run.',
    )
    p_eval.add_argument("--scenario", required=True, type=Path)
    p_eval.add_argument("--estimates", required=True, type=Path)
    p_eval.add_argument("--out", dest="out_dir")
    p_eval.set_defaults(func=_cmd_eval)

    p_plot = sub.add_parser(
        "plot",
        help="SVG profiles from existing CSVs",
        description=_CSV_VIEW,
    )
    p_plot.add_argument("--scenario", required=True, type=Path)
    p_plot.add_argument("--estimates", required=True, type=Path)
    p_plot.add_argument("--out", dest="out_dir")
    p_plot.set_defaults(func=_cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SiteTableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (GeoGlmbError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
