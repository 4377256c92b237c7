"""Command line front end.

Subcommands:

* ``check``    validate a scenario, solve backward, write conditions.txt
* ``solve``    check plus solution.csv
* ``simulate`` full pipeline: trajectory, distances, summary
* ``sweep``    simulate every horizon in --tf-list off one backward solve
               per mode and step, write sweep.csv

Exit codes: 0 success, 2 validation or scenario failure, 3 backward solve
blow-up, 4 closed-loop divergence.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import AaolqError, DivergenceError, ScenarioError, ValidationError
from .runner import EXIT_BLOWUP, EXIT_DIVERGENCE, EXIT_OK, EXIT_VALIDATION, run, run_sweep
from .scenario import RunConfig, Scenario, load_scenario


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--scenario", required=True, help="path to a scenario JSON document")
    p.add_argument("--mode", help="override the run mode (nash or team; sweep accepts 'nash,team')")
    p.add_argument("--alphas", help="override team weights, comma separated")
    p.add_argument("--dt", type=float, help="override the integration step")
    p.add_argument("--tf", type=float, help="override the horizon end time")
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
    p = sub.add_parser(
        "sweep",
        help="simulate a list of horizons off one backward solve and tabulate distances",
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
    run_cfg = scenario.run
    updates = {}
    if args.mode is not None and args.command != "sweep":
        updates["mode"] = args.mode
    if args.alphas is not None:
        updates["alphas"] = _parse_floats(args.alphas, "--alphas")
    if args.dt is not None:
        if not args.dt > 0:
            raise ScenarioError("--dt: dt must be positive")
        updates["dt"] = args.dt
    if args.out is not None:
        updates["out_dir"] = args.out
    if updates:
        try:
            run_cfg = dataclasses.replace(run_cfg, **updates)
        except ValidationError as exc:
            raise ScenarioError(str(exc)) from exc
    scenario = dataclasses.replace(scenario, run=run_cfg)
    if args.tf is not None:
        if scenario.pursuit is not None:
            scenario = dataclasses.replace(
                scenario, pursuit=dataclasses.replace(scenario.pursuit, tf=args.tf)
            )
        else:
            scenario = dataclasses.replace(
                scenario, explicit=dataclasses.replace(scenario.explicit, tf=args.tf)
            )
    return scenario


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        scenario = _apply_overrides(scenario, args)
        if args.command == "sweep":
            modes = tuple(m.strip() for m in args.mode.split(",")) if args.mode else None
            tf_list = _parse_floats(args.tf_list, "--tf-list")
            result = run_sweep(scenario, tf_list, modes=modes, out_dir=args.out)
            bad = [c for c in result.cells if c.status != "ok"]
            print(f"sweep: {len(result.cells)} cells, {len(bad)} failed")
            return EXIT_OK if not bad else EXIT_BLOWUP
        result = run(scenario, out_dir=args.out, level=args.command)
        for msg in result.messages:
            print(msg)
        print(f"{args.command}: exit {result.exit_code}, artifacts in {result.out_dir}")
        return result.exit_code
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except AaolqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
