#!/usr/bin/env python3
"""Wall-clock medians of the stages of ``run()`` and of the paper-table
sweep, or an in-process comparison of two source trees on CPU time.

One table (``_stage_calls``) defines the stages, each as one call that does
the stage's work once, as the pipeline calls it; the scenario's solve must
complete. In order: ``solve`` (of the team reduction in team mode),
``verify_solution``, ``solution.csv``, ``gains + simulate``,
``lyapunov_check`` (a ``NotApplicableError`` is part of the call), ``other
writers`` (trajectory.csv, the pursuit report with distances.csv,
positions.csv), ``sweep solve`` (the lockstep march of the nash and team
games of the table's longest horizon, folding nodes into closed-loop
matrices as ``run_sweep`` does) and ``sweep forward`` (each mode's forward
pass over those matrices from one start per horizon, tf = 2, 4, ..., 14).

By default it calls every stage, a whole ``run(level="simulate")`` and a
whole ``run_sweep`` of the table ``--repeats`` times, and prints the median
[min, max] of each call's wall-clock seconds and the ``tracemalloc`` peak
of one more call above the traced memory at its start. The solve line
adds microseconds per RK4 substep, each writer line the bytes its call
wrote, and the sweep solve line each game's substeps and the lockstep
iterations (one RK4 substep of every game still marching), counted in one
more, untimed, call that wraps ``riccati._Stages.step``. The first and
last lines give the process's max RSS after import and at exit.

With ``--against PATH`` it instead compares this tree's ``aaolq`` (the one
on the import path) with the ``aaolq`` of the source tree at PATH, loaded
in the same process as ``aaolq_against`` (it must have the ``runner`` names
the table calls, such as ``_ClosedLoopFold``), stage by stage in pairs of
calls on CPU time (``time_against``): wall-clock medians of separate
processes cannot resolve a few percent. Per stage it prints the median and
quartiles of the pairs' ratios (this tree / PATH), the pairs where either
tree was faster, each tree's median seconds per call and the ratios.

Artifacts go to a temporary directory that is removed on exit. Pin the
BLAS thread count, and for ``--against`` the CPU, for comparable numbers:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/time_stages.py \\
        --scenario scenarios/pursuit_benchmark.json --repeats 5
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src taskset -c 1 python scripts/time_stages.py \\
        --against ../parent --repeats 20
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.util
import resource
import statistics
import sys
import tempfile
import time
import tracemalloc
from collections import defaultdict
from functools import partial
from pathlib import Path

import numpy as np

import aaolq
from aaolq import load_scenario, riccati, run, run_sweep

ROOT = Path(__file__).resolve().parent.parent
TF_LIST = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0]
MODES = ("nash", "team")
#: Package name of the tree loaded by ``--against``.
AGAINST = "aaolq_against"
#: Calls of each stage per tree in one ``--against`` pair.
ROUNDS = 5


def _max_rss_mb() -> float:
    """The process's max resident set size so far, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_tree(path: Path):
    """The ``aaolq`` package of the source tree at ``path``, imported as ``AGAINST``.

    ``aaolq`` imports its own modules only relatively, so the copy runs
    entirely from ``path``, beside the ``aaolq`` on the import path.
    """
    init = path / "src" / "aaolq" / "__init__.py"
    if not init.is_file():
        raise FileNotFoundError(f"{path} holds no src/aaolq/__init__.py")
    spec = importlib.util.spec_from_file_location(
        AGAINST, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[AGAINST] = package
    spec.loader.exec_module(package)
    return package


def _stage_calls(tree, scenario, out: Path) -> dict:
    """Stage name -> a call on ``tree`` that does the stage's work once.

    Each operand a later stage reads is made once, here, by the earlier
    stage's call. A writer stage's call returns the directory under
    ``out`` that it writes into.
    """
    runner = tree.runner
    game = scenario.build_game()
    team = runner._team_game(scenario, game, scenario.run.mode)
    active = game if team is None else team.reduced
    dt, radius = scenario.run.dt, scenario.capture_radius
    solve = partial(tree.solve_coupled, active, tree.TimeGrid.from_step(game.t0, game.tf, dt))
    sol = solve()
    if not sol.complete:
        raise SystemExit(f"the scenario's solve ended with status {sol.status.value}")
    bound_q, x0_norm = scenario.run.bound_q, float(np.linalg.norm(scenario.x0))
    verify = partial(tree.verify_solution, active, sol, bound_q, x0_norm=x0_norm, r=radius)
    conditions = verify()

    def gains_simulate():
        return tree.simulate(game, runner._player_gains(game, team, sol), scenario.x0)

    traj = gains_simulate()
    solution_dir, writers_dir = out / "solution", out / "writers"
    for directory in (solution_dir, writers_dir):
        directory.mkdir(parents=True)

    def solution_csv():
        runner.write_solution_csv(solution_dir / "solution.csv", sol)
        return solution_dir

    def lyapunov():
        with contextlib.suppress(tree.NotApplicableError):
            tree.lyapunov_check(traj, sol, conditions)

    def other_writers():
        runner.write_trajectory_csv(writers_dir / "trajectory.csv", traj)
        if game.n % 2 == 0:
            report = tree.pursuit_report(traj, radius)
            runner.write_distances_csv(writers_dir / "distances.csv", traj, report)
        if scenario.pursuit is not None:
            runner.write_positions_csv(writers_dir / "positions.csv", traj, scenario.pursuit)
        return writers_dir

    long_game = scenario.with_tf(max(TF_LIST)).build_game()
    long_grid = tree.TimeGrid.from_step(long_game.t0, long_game.tf, dt)
    sweep_teams = [runner._team_game(scenario, long_game, mode) for mode in MODES]
    sweep_games = [long_game if t is None else t.reduced for t in sweep_teams]

    def sweep_solve():
        folds = [runner._ClosedLoopFold(long_game, t, long_grid) for t in sweep_teams]
        _, stats = runner.march_lockstep(sweep_games, long_grid, folds)
        return [fold.finish() for fold in folds], stats

    acls, _ = sweep_solve()
    grids = [tree.TimeGrid.from_step(long_game.t0, tf, dt) for tf in TF_LIST]
    starts = [long_grid.steps - grid.steps for grid in grids]

    def sweep_forward():
        for acl in acls:
            runner._propagate(long_grid, acl, scenario.x0, starts)

    return {
        "solve": solve,
        "verify_solution": verify,
        "solution.csv": solution_csv,
        "gains + simulate": gains_simulate,
        "lyapunov_check": lyapunov,
        "other writers": other_writers,
        "sweep solve": sweep_solve,
        "sweep forward": sweep_forward,
    }


def _traced(call):
    """``call()``'s result and its ``tracemalloc`` peak in bytes; tracing
    starts with the call, so the peak is above the traced memory at its start."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _iterations(call):
    """``call()``'s result and the lockstep iterations it ran, counted as
    ``riccati._Stages.step`` calls."""
    step = riccati._Stages.step
    count = 0

    def counting_step(self, *args):
        nonlocal count
        count += 1
        return step(self, *args)

    riccati._Stages.step = counting_step
    try:
        return call(), count
    finally:
        riccati._Stages.step = step


def time_stages(scenario_path: str, repeats: int, work: Path) -> list[str]:
    """Every stage's line, then the whole ``run()``'s and ``run_sweep``'s."""
    scenario = load_scenario(scenario_path)
    lines = [
        f"{scenario_path}, mode {scenario.run.mode}: {repeats} repeats, medians [min, max] of"
        f" wall-clock seconds; max RSS after import {_max_rss_mb():.1f} MB",
        f"  {'stage':<18}{'median':>9}    [min, max]          tracemalloc peak of one more call",
    ]
    calls = _stage_calls(aaolq, scenario, work)
    calls["run()"] = lambda: run(scenario, work / "run", level="simulate")
    calls["run_sweep()"] = lambda: run_sweep(scenario, TF_LIST, modes=MODES, out_dir=work / "sweep")
    seconds = defaultdict(list)
    for _ in range(repeats):
        for stage, call in calls.items():
            start = time.perf_counter()
            call()
            seconds[stage].append(time.perf_counter() - start)
    for stage, call in calls.items():
        result, peak = _traced(call)
        median = statistics.median(seconds[stage])
        text = (
            f"  {stage:<18}{median:9.4f} s  [{min(seconds[stage]):.4f}, {max(seconds[stage]):.4f}]"
            f"  {peak / 2**20:7.2f} MiB"
        )
        if stage == "solve":
            per = 1e6 * median / max(result.stats.substeps, 1)
            text += f"  {result.stats.substeps:>7,} substeps  {per:6.1f} us/substep"
        elif isinstance(result, Path):
            text += f"  {sum(path.stat().st_size for path in result.iterdir()):>13,} bytes"
        elif stage == "sweep solve":
            (_, stats), iterations = _iterations(call)
            games = " + ".join(f"{mode} {s.substeps:,}" for mode, s in zip(MODES, stats))
            per = 1e6 * median / max(iterations, 1)
            text += f"  {games} substeps in {iterations:,} iterations  {per:6.1f} us/iteration"
        elif stage == "run()":
            text += f"  exit code {result.exit_code}"
        elif stage == "run_sweep()":
            text += f"  modes {','.join(MODES)}, tf {','.join(f'{t:g}' for t in TF_LIST)}"
        lines.append(text)
    return lines + [f"max RSS at exit {_max_rss_mb():.1f} MB"]


def _ratio_lines(label: str, ratios: list[float], mine: list[float], theirs: list[float],
                 substeps=None) -> list[str]:
    """The median [quartiles] of the per-pair ratios, the pairs where this
    tree was faster and slower, each tree's median seconds per call and,
    given each tree's substeps, microseconds per substep; then the ratios."""
    if len(ratios) > 1:
        quartiles = statistics.quantiles(ratios, n=4, method="inclusive")
    else:
        quartiles = ratios * 3
    faster = sum(r < 1.0 for r in ratios)
    slower = sum(r > 1.0 for r in ratios)
    a, b = statistics.median(mine), statistics.median(theirs)
    text = (
        f"  {label:<18}{quartiles[1]:7.3f}  [{quartiles[0]:.3f}, {quartiles[2]:.3f}]"
        f"  {faster:>3}/{len(ratios)} faster {slower:>3} slower  {a:8.4f} s {b:8.4f} s"
    )
    if substeps is not None:
        per = [1e6 * t / max(n, 1) for t, n in zip((a, b), substeps)]
        text += f"  {per[0]:6.1f} {per[1]:6.1f} us/substep"
    return [text, "    pairs: " + " ".join(f"{r:.3f}" for r in ratios)]


def time_against(other, scenario_path: str, pairs: int, work: Path) -> list[str]:
    """Alternate every stage of this tree and of ``other`` on CPU time.

    A pair runs each stage ``ROUNDS`` times on each tree, the two trees
    taking turns call by call and the first alternating (ABBA...); its
    ratio is the median of the rounds' ratios this / other. Calls this
    close together see the same load on the machine, and the median drops
    a round that a burst of it hit.
    """
    trees = {"this": aaolq, "against": other}
    calls, substeps = {}, {}
    for side, tree in trees.items():
        scenario = tree.load_scenario(scenario_path)
        calls[side] = _stage_calls(tree, scenario, work / side)
        results = {stage: call() for stage, call in calls[side].items()}  # lazy set-up, untimed
        substeps[side] = results["solve"].stats.substeps
    seconds = {side: defaultdict(list) for side in trees}
    ratios = defaultdict(list)
    for i in range(pairs):
        for stage in calls["this"]:
            rounds = {side: [] for side in trees}
            for r in range(ROUNDS):
                for side in ("this", "against") if (i + r) % 2 == 0 else ("against", "this"):
                    call = calls[side][stage]
                    start = time.process_time()
                    call()
                    rounds[side].append(time.process_time() - start)
            ratios[stage].append(
                statistics.median(a / b for a, b in zip(rounds["this"], rounds["against"]))
            )
            for side in trees:
                seconds[side][stage] += rounds[side]
    lines = [
        f"A/B on CPU time: {pairs} pairs of {ROUNDS} rounds, {scenario_path},"
        f" this tree {Path(aaolq.__file__).parent} against {Path(other.__file__).parent}",
        f"  {'stage':<18}{'ratio':>7}  [q1, q3]          pairs                this s  against s",
    ]
    for stage, stage_ratios in ratios.items():
        counts = (substeps["this"], substeps["against"]) if stage == "solve" else None
        lines += _ratio_lines(
            stage, stage_ratios, seconds["this"][stage], seconds["against"][stage], counts
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--scenario",
        default=str(ROOT / "scenarios" / "pursuit_benchmark.json"),
        help="scenario to run (default: bundled benchmark)",
    )
    parser.add_argument(
        "--repeats", type=int, default=5, help="timed repeats of each call, or pairs with --against"
    )
    parser.add_argument(
        "--against",
        metavar="PATH",
        help="compare with the source tree at PATH, in this process on CPU time",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.against is not None:
        try:
            other = load_tree(Path(args.against))
        except FileNotFoundError as exc:
            parser.error(f"--against: {exc}")
    with tempfile.TemporaryDirectory() as tmp:
        if args.against is None:
            lines = time_stages(args.scenario, args.repeats, Path(tmp))
        else:
            lines = time_against(other, args.scenario, args.repeats, Path(tmp))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
