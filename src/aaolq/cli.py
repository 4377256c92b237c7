"""Command line front end.

Subcommands (the first three all write conditions.txt and summary.txt):

* ``check``    validate a scenario, solve backward, verify the solution
* ``solve``    check plus solution.csv
* ``simulate`` solve plus trajectory.csv, distances.csv (even state
               dimension) and positions.csv (pursuit scenarios)
* ``sweep``    simulate every horizon in --tf-list off one lockstep
               backward solve of every mode per step, write sweep.csv

Exit codes: 0 success, 2 validation or scenario failure, 3 backward solve
blow-up or a solve past ``SUBSTEP_BUDGET`` (for ``sweep``, any failed
cell), 4 closed-loop divergence.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import AaolqError, ScenarioError, ValidationError
from .runner import EXIT_BLOWUP, EXIT_OK, EXIT_VALIDATION, run, run_sweep
from .scenario import Scenario, load_scenario


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--scenario", required=True, help="path to a scenario JSON document")
    p.add_argument("--mode", help="override the run mode (nash or team; sweep accepts 'nash,team')")
    p.add_argument("--alphas", help="override team weights, comma separated")
    p.add_argument("--dt", type=float, help="override the integration step")
    p.add_argument("--out", help="override the output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aaolq",
        description="solve, verify and simulate all-against-one linear-quadratic games",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("check", "validate the game and write the conditions report"),
        ("solve", "check plus the backward solution dump"),
        ("simulate", "full pipeline including the closed-loop run"),
    ):
        p = sub.add_parser(name, help=text)
        _add_common(p)
        p.add_argument("--tf", type=float, help="override the horizon end time")
    # No abbreviated options: a sweep would read --tf as --tf-list.
    p = sub.add_parser(
        "sweep",
        help="simulate a list of horizons off one backward solve and tabulate distances",
        allow_abbrev=False,
    )
    _add_common(p)
    p.add_argument("--tf-list", required=True, help="comma separated horizon end times")
    return parser


def _parse_floats(text: str, what: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError as exc:
        raise ScenarioError(f"{what}: expected comma separated numbers, got {text!r}") from exc
    if not values:
        raise ScenarioError(f"{what}: expected at least one value")
    return values


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    """``scenario`` with the command line's overrides, rebuilt at most once;
    the scenario checks them."""
    updates = {}
    if args.mode is not None and args.command != "sweep":
        updates["mode"] = args.mode
    if args.alphas is not None:
        updates["alphas"] = _parse_floats(args.alphas, "--alphas")
    if args.dt is not None:
        updates["dt"] = args.dt
    if args.out is not None:
        updates["out_dir"] = args.out
    changes = {"run": dataclasses.replace(scenario.run, **updates)} if updates else {}
    if getattr(args, "tf", None) is not None:
        return scenario.with_tf(args.tf, **changes)
    return dataclasses.replace(scenario, **changes) if changes else scenario


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        scenario = _apply_overrides(scenario, args)
        if args.command == "sweep":
            modes = tuple(m.strip() for m in args.mode.split(",")) if args.mode else None
            tf_list = _parse_floats(args.tf_list, "--tf-list")
            result = run_sweep(scenario, tf_list, modes=modes)
            bad = [c for c in result.cells if c.status != "ok"]
            print(f"sweep: {len(result.cells)} cells, {len(bad)} failed")
            return EXIT_OK if not bad else EXIT_BLOWUP
        result = run(scenario, level=args.command)
        for msg in result.messages:
            print(msg)
        print(f"{args.command}: exit {result.exit_code}, artifacts in {result.out_dir}")
        return result.exit_code
    except (ScenarioError, OSError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (AaolqError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
