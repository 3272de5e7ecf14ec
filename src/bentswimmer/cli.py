"""Command-line front end: scenario-driven simulations and analyses.

Subcommands:
  simulate             run a closed_loop or open_loop scenario
  scan-determinant     map the tracking determinant (determinant_scan mode)
  check-controllability  rank test and determinant cross-check
  validate             parse and validate a scenario file

Exit codes: 0 completed, 2 singular_abort, 3 integrator_failure, 4 config error.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .scenario import (
    EXIT_CONFIG_ERROR,
    ScenarioError,
    load_scenario,
    run_scenario,
)


@functools.cache  # built on first use, then shared: parse_args leaves it as it is
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bentswimmer",
        description=(
            "Simulate and control a bent three-link magnetic microswimmer "
            "(positions in um, times in s, fields in uT)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scenario", help="path to a scenario JSON file")
        p.add_argument(
            "--output-dir",
            default=".",
            help="directory for CSV/JSON outputs (default: current directory)",
        )
        return p

    add("simulate", "run a closed_loop or open_loop scenario")
    add("scan-determinant", "map the tracking determinant over the shape square")
    add("check-controllability", "linearize, build the Kalman matrix, run the rank test")
    add("validate", "parse and validate a scenario file without running it")
    return parser


_EXPECTED_MODE = {
    "simulate": ("closed_loop", "open_loop"),
    "scan-determinant": ("determinant_scan",),
    "check-controllability": ("controllability",),
}


def _print_matrix(name: str, m) -> None:
    print(f"{name} =")
    for row in np.asarray(m):
        print("   " + "  ".join(f"{v:+.6e}" for v in row))


def _config_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_CONFIG_ERROR


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        return _config_error(str(exc))

    if args.command == "validate":
        print(f"{args.scenario}: OK ({scenario.mode} mode, sha256 {scenario.sha256[:12]})")
        print(json.dumps(scenario.params.table_units(), indent=2))
        return 0

    expected = _EXPECTED_MODE[args.command]
    if scenario.mode not in expected:
        return _config_error(f"{args.command} expects a scenario in mode "
                             f"{' or '.join(expected)}, got {scenario.mode!r}")
    try:
        Path(args.output_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file, or a path under one
        return _config_error(f"--output-dir: cannot create {args.output_dir}: {exc.strerror}")

    # a blocked output path is found before the run and writes nothing; only
    # after an error at the write (a permission, a full disk) earlier files stay
    try:
        summary = run_scenario(scenario, args.output_dir)
    except OSError as exc:
        return _config_error(f"cannot write {exc.filename or args.output_dir}: {exc.strerror}")
    except ScenarioError as exc:  # params the run cannot evaluate, found before a write
        return _config_error(str(exc))

    if args.command == "check-controllability":
        _print_matrix("A", summary["a_matrix"])
        _print_matrix("B", summary["b_matrix"])
        _print_matrix("K", summary["kalman_matrix"])
        det = summary["submatrix_determinant"]
        print(
            f"rank of first {summary['p_rows']} Kalman rows: {summary['rank']} "
            f"-> partially controllable: {summary['partially_controllable']}"
        )
        if summary["kalman_first_row_zero"]:
            print("first Kalman row is identically zero (straight rest shape)")
        print(
            "position submatrix determinant: "
            f"closed form {det['closed_form']:+.9e}, numeric {det['numeric']:+.9e}"
        )
        if det["ratio_numeric_over_closed"] is not None:
            print(
                f"ratio numeric/closed = {det['ratio_numeric_over_closed']:+.9f} "
                "(expected -1; opposite elastic-torque sign conventions)"
            )
    elif args.command == "scan-determinant":
        print(
            f"D(0,0) = {summary['d_origin']:.3e}; min |D| off-origin "
            f"= {summary['min_abs_d_off_origin']:.6e} at "
            f"{tuple(summary['argmin_off_origin'])}"
        )
    else:
        line = (
            f"{scenario.name}: {summary['termination']} at t = {summary['t_stop_s']:.6g} s; "
            f"min |D| = {summary['min_abs_d']:.3e}, max |H| = "
            f"{summary['max_field_norm_uT']:.3e} uT"
        )
        if "tracking_error_um" in summary:
            line += f", tracking error = {summary['tracking_error_um']:.3e} um"
        print(line)

    print(f"summary written to {summary['summary_path']}")
    return summary["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
