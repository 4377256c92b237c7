#!/usr/bin/env python3
"""Wall-clock medians of the stages of ``run()`` and of a sweep's solves,
or an in-process comparison of two source trees on CPU time.

Runs ``run(level="simulate")`` on one scenario ``--repeats`` times and
times each stage: the backward solve, ``verify_solution``, solution.csv,
gain synthesis plus ``simulate``, ``lyapunov_check``, the other CSV writers
and the rest of ``run()`` (validation, conditions.txt, summary.txt, the
pursuit report). Beside each stage of the first repeat it prints the
process's max RSS (``ru_maxrss``, the high-water mark) when that stage
returned, and the header line gives it after import. A high-water mark
cannot show a stage whose peak stays below an earlier stage's, so one
more, untimed, run gives each stage's ``tracemalloc`` peak above the
traced memory at the stage's start (the largest over its calls), and the
whole run's peak on the total line. Then it runs
``run_sweep`` over the paper's horizons tf = 2, 4, ..., 14 in nash and
team mode together, as the benchmark's ``sweep_table`` workload does, as
many times. It times the one lockstep march of each step group, without
the folds of nodes into closed-loop matrices that run inside it, and
then every fold (gains and closed-loop matrices) plus the forward passes
of both modes. The run's solve line gives microseconds per RK4 substep
from the solve's ``SolveStats``; a lockstep line gives every game's
substeps, the lockstep iterations of the loop (one RK4 substep of every
game still marching) and microseconds per iteration. These are medians
of wall-clock seconds. One more, untimed, sweep gives the sweep's
``tracemalloc`` peak.

With ``--against PATH`` it instead compares this tree's ``aaolq`` (the one
on the import path) with the ``aaolq`` of the source tree at PATH, loaded
in the same process under the package name ``aaolq_against``, on CPU time
(``time.process_time``). The stages are the run's solve,
``verify_solution``, gains plus ``simulate``, the CSV writers and the
sweep's lockstep march with its folds, each called as the pipeline calls
it, so both trees must fold the sweep's march (``runner._ClosedLoopFold``).
A pair calls each stage ``ROUNDS`` times on each tree, the trees taking
turns call by call, and its ratio is the median of the rounds' ratios (this
tree / PATH). Per stage it prints the median and quartiles of the pairs'
ratios, the pairs where this tree was faster and where it was slower,
each tree's median seconds per call and the pairs' ratios; the solve line
adds each tree's microseconds per substep. Calls this close together in
one process see the same load on the machine, so a change of a few
percent shows where wall-clock medians of separate processes cannot.

The wall-clock mode times stages by replacing, for the duration of the
script, the module attributes that ``run()`` and ``run_sweep()`` look up
at call time with timing wrappers, so the pipeline itself runs unchanged; lockstep
iterations are counted by a wrapper around ``riccati._Stages.step``,
which adds one Python call per iteration, and folds are timed by one
around ``runner._ClosedLoopFold._fold``. Artifacts go to a
temporary directory that is removed on exit; no timing reaches an
artifact. The RSS column reads a high-water mark, so it compares only
between fresh processes. Pin the BLAS thread count, and for ``--against``
the CPU, for comparable numbers:

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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import aaolq
from aaolq import analysis, load_scenario, riccati, run, run_sweep, runner

ROOT = Path(__file__).resolve().parent.parent
TF_LIST = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0]
MODES = ("nash", "team")
#: Package name of the tree loaded by ``--against``.
AGAINST = "aaolq_against"
#: Calls of each stage per tree in one ``--against`` pair.
ROUNDS = 5

#: Stage name -> the (module, attribute) pairs ``run()`` calls for it.
STAGES = {
    "solve": ((runner, "solve_coupled"),),
    "verify_solution": ((analysis, "verify_solution"),),
    "solution.csv": ((runner, "write_solution_csv"),),
    "gains + simulate": (
        (runner, "gains"),
        (runner, "team_gains_to_players"),
        (runner, "simulate"),
    ),
    "lyapunov_check": ((runner, "lyapunov_check"),),
    "other writers": (
        (runner, "write_trajectory_csv"),
        (runner, "write_distances_csv"),
        (runner, "write_positions_csv"),
    ),
}


def _max_rss_mb() -> float:
    """The process's max resident set size so far, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextlib.contextmanager
def wrapped(stages: dict, wrap):
    """Replace every stage attribute ``fn`` with ``wrap(stage, fn)`` in the body."""
    saved = []
    try:
        for stage, targets in stages.items():
            for module, attr in targets:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, wrap(stage, fn))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def timed(stages: dict, log: list):
    """Wrap every stage attribute; each call appends (stage, seconds, result,
    max RSS in MB when it returned).

    A call that raises (``lyapunov_check`` on a game it does not apply to)
    is logged with the result None.
    """

    def wrap(stage, fn):
        def timed_call(*args, **kwargs):
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                log.append((stage, time.perf_counter() - start, result, _max_rss_mb()))

        return timed_call

    return wrapped(stages, wrap)


def traced_peaks(scenario, out: Path) -> dict[str, int]:
    """Bytes of each stage's ``tracemalloc`` peak over one run into ``out``.

    A stage's peak is the largest, over its calls, above the traced memory
    at the call's start; "total" is the whole run's peak.
    """
    peaks = defaultdict(int)

    def wrap(stage, fn):
        def traced_call(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            peaks["total"] = max(peaks["total"], peak)
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                peaks[stage] = max(peaks[stage], peak - current)
                peaks["total"] = max(peaks["total"], peak)

        return traced_call

    tracemalloc.start()
    try:
        with wrapped(STAGES, wrap):
            run(scenario, out, level="simulate")
        peaks["total"] = max(peaks["total"], tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return peaks


def _line(label: str, seconds: list[float], sol=None, rss_mb=None, peak=None) -> str:
    """Median and range of ``seconds``; with ``rss_mb``, the max RSS column;
    with ``peak`` (bytes), the traced peak column; with a solve, its
    substeps and the median microseconds per substep."""
    median = statistics.median(seconds)
    text = f"  {label:<18}{median:9.4f} s  [{min(seconds):.4f}, {max(seconds):.4f}]"
    if rss_mb is not None:
        text += f"  {rss_mb:7.1f} MB"
    if peak is not None:
        text += f"  {peak / 2**20:7.2f} MiB"
    if sol is not None:
        per = 1e6 * median / max(sol.stats.substeps, 1)
        text += f"  {sol.stats.substeps:>7,} substeps  {per:6.1f} us/substep"
    return text


def time_run(scenario, repeats: int, work: Path) -> list[str]:
    per_stage = defaultdict(list)
    rss_after = {}
    for i in range(repeats):
        log = []
        with timed(STAGES, log):
            start = time.perf_counter()
            result = run(scenario, work / f"run{i}", level="simulate")
            total = time.perf_counter() - start
        for stage in STAGES:
            per_stage[stage].append(sum(s for name, s, _, _ in log if name == stage))
        per_stage["rest"].append(total - sum(s for _, s, _, _ in log))
        per_stage["total"].append(total)
        if i == 0:
            rss_after = {name: rss for name, _, _, rss in log}  # the stage's last call
            rss_after["total"] = _max_rss_mb()
    peaks = traced_peaks(scenario, work / "run_traced")
    lines = [
        f"run(level='simulate'), mode {scenario.run.mode}, exit code {result.exit_code}",
        f"  {'stage':<18}{'median':>9}    [min, max]          max RSS after stage (first repeat),"
        " tracemalloc peak in stage (one untimed run)",
    ]
    for stage, seconds in per_stage.items():
        sol = result.sol if stage == "solve" else None
        lines.append(_line(stage, seconds, sol, rss_after.get(stage), peaks.get(stage)))
    return lines


@dataclass
class LockstepSolve:
    """What one ``runner.march_lockstep`` call did: its horizon, each game's
    RK4 substeps, the lockstep iterations, counted as ``_Stages.step``
    calls, and its seconds. ``fold_s`` is the seconds of every fold of its
    group, ``nested_s`` of those that ran inside the march."""

    tf: float = 0.0
    substeps: tuple[int, ...] = ()
    iterations: int = 0
    seconds: float = 0.0
    fold_s: float = 0.0
    nested_s: float = 0.0


@contextlib.contextmanager
def recorded_solves():
    """Record every lockstep march in the body as one ``LockstepSolve``."""
    records = []
    marching = [False]
    step, march = riccati._Stages.step, runner.march_lockstep
    fold = runner._ClosedLoopFold._fold

    def counting_step(self, *args):
        records[-1].iterations += 1
        return step(self, *args)

    def recording_march(games, grid, stores):
        record = LockstepSolve(tf=grid.tf)
        records.append(record)
        marching[0] = True
        start = time.perf_counter()
        try:
            failed, stats = march(games, grid, stores)
        finally:
            record.seconds = time.perf_counter() - start
            marching[0] = False
        record.substeps = tuple(stat.substeps for stat in stats)
        return failed, stats

    def timed_fold(self):
        start = time.perf_counter()
        fold(self)
        seconds = time.perf_counter() - start
        records[-1].fold_s += seconds
        if marching[0]:
            records[-1].nested_s += seconds

    riccati._Stages.step, runner.march_lockstep = counting_step, recording_march
    runner._ClosedLoopFold._fold = timed_fold
    try:
        yield records
    finally:
        riccati._Stages.step, runner.march_lockstep = step, march
        runner._ClosedLoopFold._fold = fold


def time_sweep(scenario, repeats: int, work: Path) -> list[str]:
    stages = {"forward": ((runner, "_propagate"),)}
    solve_s = defaultdict(list)
    forward_s = []
    total_s = []
    for i in range(repeats):
        log = []
        with recorded_solves() as solves, timed(stages, log):
            start = time.perf_counter()
            run_sweep(scenario, TF_LIST, modes=MODES, out_dir=work / f"sweep{i}")
            total_s.append(time.perf_counter() - start)
        for j, solve in enumerate(solves):
            solve_s[j].append(solve.seconds - solve.nested_s)
        forward_s.append(
            sum(solve.fold_s for solve in solves) + sum(s for _, s, _, _ in log)
        )
    tracemalloc.start()
    try:
        run_sweep(scenario, TF_LIST, modes=MODES, out_dir=work / "sweep_traced")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lines = [f"run_sweep, modes {','.join(MODES)}, tf {','.join(f'{t:g}' for t in TF_LIST)}"]
    for j, solve in enumerate(solves):
        games = " + ".join(f"{mode} {n:,}" for mode, n in zip(MODES, solve.substeps))
        per = 1e6 * statistics.median(solve_s[j]) / max(solve.iterations, 1)
        lines.append(
            f"{_line(f'lockstep tf={solve.tf:g}', solve_s[j])}  {games} substeps"
            f" in {solve.iterations:,} iterations  {per:6.1f} us/iteration"
        )
    lines.append(_line("gains + forward", forward_s))
    lines.append(_line("total", total_s))
    lines.append(f"  {'tracemalloc peak':<18}{peak / 2**20:9.2f} MiB  (one untimed sweep)")
    return lines


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


def _stage_calls(tree, scenario, out: Path):
    """Each stage of ``run()`` and the lockstep march of the paper-table
    sweep as a call on ``tree`` that does the stage's work once, as the
    pipeline calls it, and the substeps of the run's solve.

    The solve, the gains and the trajectory that later stages read are
    made once, here; the scenario's solve must complete.
    """
    runner = tree.runner
    game = scenario.build_game()
    team = runner._team_game(scenario, game, scenario.run.mode)
    active = game if team is None else team.reduced
    grid = tree.TimeGrid.from_step(game.t0, game.tf, scenario.run.dt)
    sol = tree.solve_coupled(active, grid)
    if not sol.complete:
        raise SystemExit(f"the scenario's solve ended with status {sol.status.value}")
    traj = tree.simulate(game, runner._player_gains(game, team, sol), scenario.x0)
    long_game = scenario.with_tf(max(TF_LIST)).build_game()
    long_grid = tree.TimeGrid.from_step(long_game.t0, long_game.tf, scenario.run.dt)
    sweep_teams = [runner._team_game(scenario, long_game, mode) for mode in MODES]
    sweep_games = [long_game if t is None else t.reduced for t in sweep_teams]

    def sweep_solve():
        folds = [runner._ClosedLoopFold(long_game, t, long_grid) for t in sweep_teams]
        runner.march_lockstep(sweep_games, long_grid, folds)
        return [fold.finish() for fold in folds]

    def writers():
        runner.write_solution_csv(out / "solution.csv", sol)
        runner.write_trajectory_csv(out / "trajectory.csv", traj)
        if game.n % 2 == 0:
            report = tree.pursuit_report(traj, scenario.capture_radius)
            runner.write_distances_csv(out / "distances.csv", traj, report)
        if scenario.pursuit is not None:
            runner.write_positions_csv(out / "positions.csv", traj, scenario.pursuit)

    calls = {
        "solve": lambda: tree.solve_coupled(active, grid),
        "verify_solution": lambda: tree.verify_solution(
            active,
            sol,
            scenario.run.bound_q,
            x0_norm=float(np.linalg.norm(scenario.x0)),
            r=scenario.capture_radius,
        ),
        "gains + simulate": lambda: tree.simulate(
            game, runner._player_gains(game, team, sol), scenario.x0
        ),
        "writers": writers,
        "sweep solve": sweep_solve,
    }
    return calls, sol.stats.substeps


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
        (work / side).mkdir()
        scenario = tree.load_scenario(scenario_path)
        calls[side], substeps[side] = _stage_calls(tree, scenario, work / side)
        for call in calls[side].values():
            call()  # untimed, so that lazy set-up is done
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
        "--repeats", type=int, default=5, help="timed repeats of each part, or pairs with --against"
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
            for line in time_against(other, args.scenario, args.repeats, Path(tmp)):
                print(line)
        return 0
    import_rss = _max_rss_mb()
    scenario = load_scenario(args.scenario)
    print(
        f"{args.scenario}: {args.repeats} repeats, medians [min, max] of wall-clock seconds;"
        f" max RSS after import {import_rss:.1f} MB"
    )
    with tempfile.TemporaryDirectory() as tmp:
        for line in time_run(scenario, args.repeats, Path(tmp)):
            print(line)
        for line in time_sweep(scenario, args.repeats, Path(tmp)):
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
