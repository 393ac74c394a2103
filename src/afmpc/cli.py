"""Command-line entry points for running and comparing the controllers.

Exit codes: 0 success, 1 configuration error, 2 runtime divergence,
3 output I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from . import harness

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_IO = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afmpc",
        description=(
            "Simulate classical and adaptive fuzzy model predictive control "
            "of a rotational inverted pendulum."
        ),
    )
    parser.add_argument(
        "--print-defaults",
        action="store_true",
        help="dump the full default configuration and exit",
    )
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="run one controller and write a CSV log")
    run_p.add_argument("--config", required=True, help="path to the scenario config file")
    run_p.add_argument(
        "--controller", required=True, choices=harness.CONTROLLERS,
        help="which controller to simulate",
    )
    run_p.add_argument("--out", required=True, help="output CSV path")
    run_p.add_argument("--seed", type=int, default=None, help="override run.seed")

    cmp_p = sub.add_parser("compare", help="run both controllers and write a report")
    cmp_p.add_argument("--config", required=True, help="path to the scenario config file")
    cmp_p.add_argument("--out-dir", required=True, help="directory for CSVs and report.txt")
    return parser


def _cmd_run(args) -> int:
    overrides = {"controller": args.controller}
    if args.seed is not None:
        overrides["run.seed"] = str(args.seed)
    config = harness.load_config(args.config, overrides)
    log, metrics = harness.run_scenario(config)
    try:
        harness.export_csv(log, args.out)
    except OSError as exc:
        print(exc, file=sys.stderr)
        return EXIT_IO
    print(harness._metrics_line(args.controller, metrics))
    if log.diverged:
        print("run diverged before the configured duration", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def _cmd_compare(args) -> int:
    config = harness.load_config(args.config)
    log_c, met_c, log_a, met_a, report = harness.run_comparison(config)
    try:
        os.makedirs(args.out_dir, exist_ok=True)
        harness.export_csv(log_c, os.path.join(args.out_dir, "classical.csv"))
        harness.export_csv(log_a, os.path.join(args.out_dir, "afmpc.csv"))
        report_path = os.path.join(args.out_dir, "report.txt")
        with open(report_path, "w", encoding="utf-8") as handle:
            handle.write(report)
    except OSError as exc:
        print(f"failed writing comparison outputs: {exc}", file=sys.stderr)
        return EXIT_IO
    print(report, end="")
    if log_c.diverged or log_a.diverged:
        print("at least one run diverged before the configured duration", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.print_defaults:
        print(harness.dump_config(), end="")
        return EXIT_OK
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    try:
        return _cmd_run(args) if args.command == "run" else _cmd_compare(args)
    except harness.ConfigError as exc:
        print(f"config error:\n{exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
