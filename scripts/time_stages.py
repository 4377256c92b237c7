#!/usr/bin/env python3
"""CPU-time medians of the stages of ``run()`` and of the paper-table sweep,
each stage paired with an identical control tree and, optionally, another tree.

One table (``_stage_calls``) defines the stages, each as one call that does
the stage's work once. Its operands are one ``run(level="simulate")``'s
result, and each ``run()`` stage is the call ``run()`` makes on it. In
order: ``solve`` (of ``RunResult.solved_game``), ``verify_solution``
(``runner._verify``), ``solution.csv``, ``gains + simulate``
(``runner._simulate``), ``lyapunov_check`` (a ``NotApplicableError`` is
part of the call), ``other writers`` (``runner._write_forward``:
trajectory.csv, the pursuit report with distances.csv, positions.csv),
``sweep solve`` (``runner._sweep_closed_loops``: the lockstep march of the
nash and team games of the table's longest horizon, folding nodes into
closed-loop matrices), ``sweep forward`` (``runner._sweep_cells``: each
mode's forward pass over those matrices from one start per horizon of
``reproduce_table.TF_LIST``, and the cells' pursuit reports), then a whole
``run(level="simulate")`` and a whole ``run_sweep`` of the table.

Every tree is loaded by ``load_tree`` under its own package name:
``aaolq_this`` and ``aaolq_control`` both from this checkout, and
``aaolq_against`` from ``--against PATH``. A tree that lacks a name the
table reads is refused with exit code 2 and a message that names it; to
time a tree older than ``runner._verify``, run that tree's own
``scripts/time_stages.py --against`` this checkout, which has every name it
reads. No stage calls the ``aaolq`` on the import path, so no tree holds a
place the others lack. A pair calls every stage ``ROUNDS`` times on each
tree, the trees taking turns call by call in every order equally often; the
pair's ratio of two trees is the median of its rounds' ratios. The control
runs the same code as this tree, so this/control shows the timer's own
noise and bias beside every other figure.

Per stage one line gives this tree's median [quartiles] CPU seconds per
call; the ``tracemalloc`` peak of one more call above the traced memory at
its start; this/control as the median [quartiles] of the pairs' ratios,
with the pairs where this tree was faster and slower; with ``--against``,
this/against the same way and ``resolved`` when its median lies outside the
control's quartiles, else ``unresolved``; and the stage's work: substeps
and microseconds per substep for the solve, the bytes each writer wrote,
and for the sweep solve each game's substeps and the lockstep iterations
(one RK4 substep of every game still marching), counted in one more,
untimed call that wraps ``riccati._Stages.step``.

Artifacts go to a temporary directory that is removed on exit. Pin the
BLAS thread count and the CPU for comparable numbers:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src taskset -c 1 python scripts/time_stages.py \\
        --against ../parent --repeats 12
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.util
import inspect
import statistics
import sys
import tempfile
import time
import tracemalloc
from collections import defaultdict
from functools import partial
from itertools import permutations
from pathlib import Path

from reproduce_table import MODES, TF_LIST

ROOT = Path(__file__).resolve().parent.parent
#: Calls of each stage per tree in one pair: every order of two or of three
#: trees equally often, since a call timed later in a round reads slower.
#: Each order of three comes twice: a pair's ratio spreads about as one over
#: the square root of its rounds, and at six rounds the control's quartiles
#: on the benchmark solve could hide a 2.5% change (one more numpy call per
#: RK4 substep).
ROUNDS = 12


def load_tree(path: Path, name: str):
    """The ``aaolq`` package of the source tree at ``path``, imported as ``name``.

    ``aaolq`` imports its own modules only relatively, so each copy runs
    entirely from its own ``path``, beside every other copy.
    """
    init = path / "src" / "aaolq" / "__init__.py"
    if not init.is_file():
        raise FileNotFoundError(f"{path} holds no src/aaolq/__init__.py")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def _stage_calls(tree, scenario, out: Path) -> dict:
    """Stage name -> a call on ``tree`` that does the stage's work once.

    The operands are one ``run()``'s; a writer stage's call returns the
    directory under ``out`` that it writes into.
    """
    runner = tree.runner
    # Read before the run, which calls them too: a tree without one is named.
    verify, simulate, write_forward = runner._verify, runner._simulate, runner._write_forward
    result = tree.run(scenario, out / "run", level="simulate")
    if result.traj is None:
        raise SystemExit(f"the scenario's run ended with exit code {result.exit_code}")
    solution_dir, writers_dir = out / "solution", out / "writers"
    for directory in (solution_dir, writers_dir):
        directory.mkdir(parents=True)

    def solution_csv():
        runner.write_solution_csv(solution_dir / "solution.csv", result.sol)
        return solution_dir

    def lyapunov():
        with contextlib.suppress(tree.NotApplicableError):
            tree.lyapunov_check(result.traj, result.sol, result.conditions)

    def other_writers():
        write_forward(writers_dir, scenario, result)
        return writers_dir

    sweep_solve = partial(runner._sweep_closed_loops, scenario, MODES, max(TF_LIST))
    long_grid, failed, _, acls = sweep_solve()
    grids = {tf: scenario.with_tf(tf).grid for tf in TF_LIST}

    def sweep_forward():
        # A fresh list each call: _sweep_cells releases each mode's entry.
        return runner._sweep_cells(scenario, MODES, long_grid, grids, failed, list(acls))

    return {
        "solve": partial(tree.solve_coupled, result.solved_game, result.grid),
        "verify_solution": partial(verify, scenario, result),
        "solution.csv": solution_csv,
        "gains + simulate": partial(simulate, scenario, result),
        "lyapunov_check": lyapunov,
        "other writers": other_writers,
        "sweep solve": sweep_solve,
        "sweep forward": sweep_forward,
        "run()": partial(tree.run, scenario, out / "run", level="simulate"),
        "run_sweep()": partial(tree.run_sweep, scenario, TF_LIST, MODES, out / "sweep"),
    }


def _traced(call):
    """``call()``'s result and its ``tracemalloc`` peak in bytes; tracing
    starts with the call, so the peak is above the traced memory at its start."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _iterations(tree, call) -> int:
    """The lockstep iterations ``call()`` runs, counted as ``tree``'s
    ``riccati._Stages.step`` calls."""
    stages = tree.riccati._Stages
    step = stages.step
    count = 0

    def counting_step(self, *args):
        nonlocal count
        count += 1
        return step(self, *args)

    stages.step = counting_step
    try:
        call()
        return count
    finally:
        stages.step = step


def _quartiles(values: list[float]) -> list[float]:
    """The first quartile, median and third quartile of ``values``."""
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def _ratio_text(label: str, ratios: list[float]) -> str:
    """The median [quartiles] of the pairs' ratios and the pairs where this
    tree was faster and slower."""
    low, median, high = _quartiles(ratios)
    faster, slower = sum(r < 1.0 for r in ratios), sum(r > 1.0 for r in ratios)
    return (
        f"  {label} {median:.3f} [{low:.3f}, {high:.3f}]"
        f" {faster:>2}/{len(ratios)} faster {slower:>2} slower"
    )


def time_trees(trees: dict, scenario_path: str, pairs: int, work: Path) -> list[str]:
    """Every stage's line, timing the trees (this one first) in ``pairs`` pairs."""
    calls = {}
    for label, tree in trees.items():
        scenario = tree.load_scenario(scenario_path)
        calls[label] = _stage_calls(tree, scenario, work / label)
        for call in calls[label].values():
            call()  # lazy set-up, untimed
    labels = list(trees)
    orders = list(permutations(labels))
    seconds = defaultdict(list)
    ratios = {label: defaultdict(list) for label in labels[1:]}
    for _ in range(pairs):
        for stage in calls["this"]:
            rounds = {label: [] for label in labels}
            for r in range(ROUNDS):
                for label in orders[r % len(orders)]:
                    start = time.process_time()
                    calls[label][stage]()
                    rounds[label].append(time.process_time() - start)
            for label in labels[1:]:
                pair = zip(rounds["this"], rounds[label])
                ratios[label][stage].append(statistics.median(a / b for a, b in pair))
            seconds[stage] += rounds["this"]
    lines = [
        f"{scenario_path}, mode {scenario.run.mode}: {pairs} pairs of {ROUNDS} rounds on CPU"
        f" time; sweeps of modes {','.join(MODES)}, tf {','.join(f'{t:g}' for t in TF_LIST)}",
        *(f"  {label:<8}{Path(tree.__file__).parent}" for label, tree in trees.items()),
        f"  {'stage':<18}{'this s':>8}   [q1, q3]          tracemalloc peak  pair ratios"
        " median [q1, q3], pairs this tree won and lost; work",
    ]
    for stage, call in calls["this"].items():
        result, peak = _traced(call)
        low, median, high = _quartiles(seconds[stage])
        text = (
            f"  {stage:<18}{median:8.4f} s [{low:.4f}, {high:.4f}] {peak / 2**20:7.2f} MiB"
            + _ratio_text("control", ratios["control"][stage])
        )
        if "against" in ratios:
            q1, _, q3 = _quartiles(ratios["control"][stage])
            resolved = not q1 <= _quartiles(ratios["against"][stage])[1] <= q3
            text += _ratio_text("against", ratios["against"][stage])
            text += " resolved" if resolved else " unresolved"
        if stage == "solve":
            per = 1e6 * median / max(result.stats.substeps, 1)
            text += f"  {result.stats.substeps:,} substeps {per:.1f} us/substep"
        elif isinstance(result, Path):
            text += f"  {sum(path.stat().st_size for path in result.iterdir()):,} bytes"
        elif stage == "sweep solve":
            iterations = _iterations(trees["this"], call)
            games = " + ".join(f"{mode} {s.substeps:,}" for mode, s in zip(MODES, result[2]))
            per = 1e6 * median / max(iterations, 1)
            text += f"  {games} substeps in {iterations:,} iterations {per:.1f} us/iteration"
        elif stage == "run()":
            text += f"  exit code {result.exit_code}"
        lines.append(text)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--scenario",
        default=str(ROOT / "scenarios" / "pursuit_benchmark.json"),
        help="scenario to run (default: bundled benchmark)",
    )
    parser.add_argument("--repeats", type=int, default=5, help="pairs of rounds to time")
    parser.add_argument(
        "--against", metavar="PATH", help="also time the source tree at PATH against this one"
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    paths = {"this": ROOT, "control": ROOT}
    if args.against is not None:
        paths["against"] = Path(args.against)
    try:
        trees = {label: load_tree(path, f"aaolq_{label}") for label, path in paths.items()}
    except FileNotFoundError as exc:
        parser.error(f"--against: {exc}")
    with tempfile.TemporaryDirectory() as tmp:
        try:
            lines = time_trees(trees, args.scenario, args.repeats, Path(tmp))
        except AttributeError as exc:
            # A name PATH's tree lacks, of a module, a class or an instance; others are faults.
            obj, module = exc.obj, inspect.getmodule(exc.obj)
            if not getattr(module, "__name__", "").startswith("aaolq_against."):
                raise
            owner = obj if isinstance(obj, type) else type(obj)
            name = exc.name if obj is module else f"{owner.__qualname__}.{exc.name}"
            parser.error(f"--against: {module.__file__} has no {name!r}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
