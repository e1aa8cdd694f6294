"""Command line entry point.

One subcommand per experiment; each takes --config plus overrides and writes
report.json / scales.csv (and plot.svg when asked) into the output directory.
Exit code 0 on pass, 2 on fail, 1 on configuration or runtime errors.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import CascadimError, ConfigError
from .experiments import EXPERIMENTS, load_config, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascadim",
        description="cascade / percolation dimension experiments",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", type=Path, default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument("--trials", type=int, default=None, help="trial count override (experiments that draw trials)")
        p.add_argument("--threads", type=int, default=None, help="worker thread count")
        p.add_argument("--plot", action="store_true", help="also write plot.svg")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else {}
        if "experiment" in cfg and cfg["experiment"] != args.experiment:
            raise ConfigError(
                f"config is for {cfg['experiment']!r} but subcommand is {args.experiment!r}"
            )
        cfg["experiment"] = args.experiment
        for key in ("seed", "trials", "threads"):
            value = getattr(args, key)
            if value is not None:
                cfg[key] = value
        # an unwritable output directory fails here, not after the run
        outdir = args.out or Path("out") / args.experiment
        outdir.mkdir(parents=True, exist_ok=True)
        report = run_experiment(cfg)
    except (CascadimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report.write(outdir, plot=args.plot)
    print(
        f"{report.experiment}: estimate {report.estimate['value']:.4f} "
        f"(stderr {report.estimate['stderr']:.4f}) vs target {report.target['value']:.4f} "
        f"-> {report.verdict} [outputs in {outdir}]"
    )
    for w in report.warnings:
        print(f"warning: {w}")
    if report.verdict.endswith("pass"):
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
