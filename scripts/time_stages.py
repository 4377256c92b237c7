#!/usr/bin/env python3
"""Wall-clock medians of the stages of ``run()`` and of a sweep's solves.

Runs ``run(level="simulate")`` on one scenario ``--repeats`` times and
times each stage: the backward solve, ``verify_solution``, solution.csv,
gain synthesis plus ``simulate``, ``lyapunov_check``, the other CSV writers
and the rest of ``run()`` (validation, conditions.txt, summary.txt, the
pursuit report). Beside each stage of the first repeat it prints the
process's max RSS (``ru_maxrss``, the high-water mark) when that stage
returned, and the header line gives it after import. Then it runs
``run_sweep`` over the paper's horizons tf = 2, 4, ..., 14 in nash and
team mode together, as the benchmark's ``sweep_table`` workload does, as
many times. It times the one lockstep backward solve of each step group,
and the gain synthesis plus the forward passes of both modes. The run's solve line gives microseconds per
RK4 substep from the solve's ``SolveStats``; a lockstep solve line gives
every game's substeps, the lockstep iterations of the loop (one RK4
substep of every game still marching) and microseconds per iteration.

Stages are timed by replacing, for the duration of the script, the module
attributes that ``run()`` and ``run_sweep()`` look up at call time with
timing wrappers, so the pipeline itself runs unchanged; lockstep
iterations are counted by a wrapper around ``riccati._Stages.step``,
which adds one Python call per iteration. Artifacts go to a
temporary directory that is removed on exit; no timing reaches an
artifact. The RSS column reads a high-water mark, so it compares only
between fresh processes. Pin the BLAS thread count for comparable numbers:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/time_stages.py \\
        --scenario scenarios/pursuit_benchmark.json --repeats 5
"""
from __future__ import annotations

import argparse
import contextlib
import resource
import statistics
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from aaolq import analysis, load_scenario, riccati, run, run_sweep, runner

ROOT = Path(__file__).resolve().parent.parent
TF_LIST = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0]
MODES = ("nash", "team")

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
def timed(stages: dict, log: list):
    """Wrap every stage attribute; each call appends (stage, seconds, result,
    max RSS in MB when it returned).

    A call that raises (``lyapunov_check`` on a game it does not apply to)
    is logged with the result None.
    """
    saved = []

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

    try:
        for stage, targets in stages.items():
            for module, attr in targets:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, wrap(stage, fn))
        yield log
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def _line(label: str, seconds: list[float], sol=None, rss_mb=None) -> str:
    """Median and range of ``seconds``; with ``rss_mb``, the max RSS column;
    with a solve, its substeps and the median microseconds per substep."""
    median = statistics.median(seconds)
    text = f"  {label:<18}{median:9.4f} s  [{min(seconds):.4f}, {max(seconds):.4f}]"
    if rss_mb is not None:
        text += f"  {rss_mb:7.1f} MB"
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
    lines = [
        f"run(level='simulate'), mode {scenario.run.mode}, exit code {result.exit_code}",
        f"  {'stage':<18}{'median':>9}    [min, max]          max RSS after stage (first repeat)",
    ]
    for stage, seconds in per_stage.items():
        sol = result.sol if stage == "solve" else None
        lines.append(_line(stage, seconds, sol, rss_after.get(stage)))
    return lines


@dataclass
class LockstepSolve:
    """What one ``runner.solve_lockstep`` call did: its horizon, each game's
    RK4 substeps and the lockstep iterations, counted as ``_Stages.step``
    calls."""

    tf: float = 0.0
    substeps: tuple[int, ...] = ()
    iterations: int = 0


@contextlib.contextmanager
def recorded_solves():
    """Record every lockstep solve in the body as one ``LockstepSolve``.

    The record is taken before the sweep releases the solutions.
    """
    records = []
    step, solve = riccati._Stages.step, runner.solve_lockstep

    def counting_step(self, *args):
        records[-1].iterations += 1
        return step(self, *args)

    def recording_solve(games, grid):
        records.append(LockstepSolve(tf=grid.tf))
        sols = solve(games, grid)
        records[-1].substeps = tuple(sol.stats.substeps for sol in sols)
        return sols

    riccati._Stages.step, runner.solve_lockstep = counting_step, recording_solve
    try:
        yield records
    finally:
        riccati._Stages.step, runner.solve_lockstep = step, solve


def time_sweep(scenario, repeats: int, work: Path) -> list[str]:
    stages = {
        "solve": ((runner, "solve_lockstep"),),
        "forward": (
            (runner, "gains"),
            (runner, "team_gains_to_players"),
            (runner, "_propagate"),
        ),
    }
    solve_s = defaultdict(list)
    forward_s = []
    total_s = []
    for i in range(repeats):
        log = []
        with recorded_solves() as solves, timed(stages, log):
            start = time.perf_counter()
            run_sweep(scenario, TF_LIST, modes=MODES, out_dir=work / f"sweep{i}")
            total_s.append(time.perf_counter() - start)
        for j, (_, seconds, _, _) in enumerate(e for e in log if e[0] == "solve"):
            solve_s[j].append(seconds)
        forward_s.append(sum(s for name, s, _, _ in log if name == "forward"))
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
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--scenario",
        default=str(ROOT / "scenarios" / "pursuit_benchmark.json"),
        help="scenario to run (default: bundled benchmark)",
    )
    parser.add_argument("--repeats", type=int, default=5, help="timed repeats of each part")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
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
