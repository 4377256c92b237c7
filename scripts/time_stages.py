#!/usr/bin/env python3
"""CPU-time medians of the stages of ``run()`` and of the paper-table sweep,
each stage paired with an identical control tree and, optionally, another tree.

A round of a tree is one ``run(level="simulate")`` and one ``run_sweep`` of
the table. Each stage's CPU seconds are those the two results report in
their ``timings``; the timer times the whole ``run()`` and ``run_sweep()``
with the same ``runner._stage``. In order: ``solve``, ``verify_solution``,
``solution.csv``, ``gains + simulate``, ``lyapunov_check`` (a
``NotApplicableError`` is part of it), ``other writers`` (trajectory.csv,
the pursuit report with distances.csv, positions.csv), ``sweep solve`` (the
lockstep march of the nash and team games of the table's longest horizon,
folding nodes into closed-loop matrices) and ``sweep forward`` (each mode's
forward pass from one start per horizon of ``reproduce_table.TF_LIST`` into
the cells' capture receivers), then the whole ``run()`` and ``run_sweep()``.
A scenario whose run ends with a non-zero exit code, or a round whose
results lack a stage, is refused.

Every tree is loaded by ``load_tree`` under its own package name:
``aaolq_this`` and ``aaolq_control`` both from this checkout, and
``aaolq_against`` from ``--against PATH``. A tree whose ``runner`` has no
``_stage`` is refused with exit code 2 and a message that names it. No
round calls the ``aaolq`` on the import path, so no tree holds a place the
others lack. Every tree runs one untimed round first; then a pair runs
``ROUNDS`` rounds of every tree, the trees taking turns in every order
equally often, and the pair's ratio of two trees is the median of its
rounds' ratios. The control runs the same code as this tree, so
this/control shows the timer's own noise and bias beside every other figure.

Per stage one line gives this tree's median [quartiles] CPU seconds per
round; the ``tracemalloc`` peak above the traced memory at the stage's start
in one more round of this tree, traced, into an empty directory (the only
round that replaces anything: ``runner._stage``, with a wrapper that traces
each stage); this/control as the median [quartiles] of the pairs' ratios,
with the pairs where this tree was faster and slower; with ``--against``,
this/against the same way and ``resolved`` when its median lies outside the
control's quartiles, else ``unresolved``; and the work of the traced round:
substeps and microseconds per substep for the solve, the bytes of each
writer's files, and for the sweep solve each game's substeps and the
lockstep iterations (``SweepResult.solves``; one RK4 substep of every game
still marching).

Artifacts go to a temporary directory that is removed on exit. Pin the
BLAS thread count and the CPU for comparable numbers:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src taskset -c 1 python scripts/time_stages.py \\
        --against ../parent --repeats 12
"""
from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import tempfile
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from itertools import permutations
from pathlib import Path

from reproduce_table import MODES, TF_LIST

ROOT = Path(__file__).resolve().parent.parent
#: Rounds of every tree in one pair: every order of two or of three trees
#: equally often, since a tree timed later in a round reads slower. Each
#: order of three comes twice: a pair's ratio spreads about as one over the
#: square root of its rounds, and at six rounds the control's quartiles on
#: the benchmark solve could hide a 2.5% change (one more numpy call per RK4
#: substep).
ROUNDS = 12
#: The stages ``run()`` and ``run_sweep()`` time, in order, then the two whole calls.
LINES = (
    "solve", "verify_solution", "solution.csv", "gains + simulate", "lyapunov_check",
    "other writers", "sweep solve", "sweep forward", "run()", "run_sweep()",
)
#: Writer stage -> the files of the run it writes.
WRITERS = {
    "solution.csv": ("solution.csv",),
    "other writers": ("trajectory.csv", "distances.csv", "positions.csv"),
}


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


class Peaks:
    """A ``runner._stage`` that also books each stage's ``tracemalloc`` peak
    above the traced memory at its start; a stage begun while no tracing
    runs is a whole call, and starts and stops it."""

    def __init__(self, stage):
        self.stage, self.peaks = stage, defaultdict(int)
        # The whole call's traced peak before a stage's reset_peak().
        self.high = 0

    @contextmanager
    def __call__(self, timings: dict, name: str):
        whole = not tracemalloc.is_tracing()
        if whole:
            tracemalloc.start()
        base, high = tracemalloc.get_traced_memory()
        self.high = 0 if whole else max(self.high, high)
        tracemalloc.reset_peak()
        try:
            with self.stage(timings, name):
                yield
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            if whole:
                peak = max(peak, self.high)
                tracemalloc.stop()
            self.peaks[name] = max(self.peaks[name], peak - base)


def _round(tree, scenario, out: Path, peaks: Peaks | None = None):
    """One ``run()`` and one table ``run_sweep()`` of ``tree`` into ``out``:
    both results and every line's CPU seconds. With ``peaks``, it stands in
    for ``runner._stage`` for the round."""
    runner, whole = tree.runner, {}
    stage = runner._stage
    out.mkdir(parents=True, exist_ok=True)
    try:
        if peaks is not None:
            runner._stage = peaks
        with runner._stage(whole, "run()"):
            result = tree.run(scenario, out / "run", level="simulate")
        if result.exit_code:
            raise SystemExit(f"the scenario's run ended with exit code {result.exit_code}")
        with runner._stage(whole, "run_sweep()"):
            sweep = tree.run_sweep(scenario, TF_LIST, MODES, out / "sweep")
    finally:
        runner._stage = stage
    timings = {**result.timings, **sweep.timings, **whole}
    missing = [name for name in LINES if name not in timings]
    if missing:
        raise SystemExit(f"{tree.__name__}'s results did not time {', '.join(missing)}")
    return result, sweep, {name: cpu for name, (cpu, _) in timings.items()}


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
    scenarios = {label: tree.load_scenario(scenario_path) for label, tree in trees.items()}
    for label, tree in trees.items():
        # Untimed: lazy set-up, and the artifacts every later round replaces.
        _round(tree, scenarios[label], work / label)
    labels = list(trees)
    orders = list(permutations(labels))
    seconds = defaultdict(list)
    ratios = {label: defaultdict(list) for label in labels[1:]}
    for _ in range(pairs):
        pair = {label: defaultdict(list) for label in labels}
        for r in range(ROUNDS):
            for label in orders[r % len(orders)]:
                for stage, s in _round(trees[label], scenarios[label], work / label)[2].items():
                    pair[label][stage].append(s)
        for stage in LINES:
            for label in labels[1:]:
                ratio = zip(pair["this"][stage], pair[label][stage])
                ratios[label][stage].append(statistics.median(a / b for a, b in ratio))
            seconds[stage] += pair["this"][stage]
    traced = Peaks(trees["this"].runner._stage)
    result, sweep, _ = _round(trees["this"], scenarios["this"], work / "traced", traced)
    sizes = {path.name: path.stat().st_size for path in (work / "traced" / "run").iterdir()}
    lines = [
        f"{scenario_path}, mode {scenarios['this'].run.mode}: {pairs} pairs of {ROUNDS} rounds"
        f" on CPU time; sweeps of modes {','.join(MODES)}, tf {','.join(f'{t:g}' for t in TF_LIST)}",
        *(f"  {label:<8}{Path(tree.__file__).parent}" for label, tree in trees.items()),
        f"  {'stage':<18}{'this s':>8}   [q1, q3]          tracemalloc peak  pair ratios"
        " median [q1, q3], pairs this tree won and lost; work",
    ]
    for stage in LINES:
        low, median, high = _quartiles(seconds[stage])
        text = (
            f"  {stage:<18}{median:8.4f} s [{low:.4f}, {high:.4f}]"
            f" {traced.peaks[stage] / 2**20:7.2f} MiB"
            + _ratio_text("control", ratios["control"][stage])
        )
        if "against" in ratios:
            q1, _, q3 = _quartiles(ratios["control"][stage])
            resolved = not q1 <= _quartiles(ratios["against"][stage])[1] <= q3
            text += _ratio_text("against", ratios["against"][stage])
            text += " resolved" if resolved else " unresolved"
        if stage == "solve":
            per = 1e6 * median / max(result.sol.stats.substeps, 1)
            text += f"  {result.sol.stats.substeps:,} substeps {per:.1f} us/substep"
        elif stage in WRITERS:
            text += f"  {sum(sizes.get(name, 0) for name in WRITERS[stage]):,} bytes"
        elif stage == "sweep solve":
            # Each game's substeps and the iterations, summed over the step groups.
            games = " + ".join(
                f"{mode} {sum(stats[m].substeps for stats, _ in sweep.solves):,}"
                for m, mode in enumerate(MODES)
            )
            iterations = sum(n for _, n in sweep.solves)
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
    if "against" in trees and not hasattr(trees["against"].runner, "_stage"):
        parser.error(f"--against: {trees['against'].runner.__file__} has no '_stage'")
    with tempfile.TemporaryDirectory() as tmp:
        lines = time_trees(trees, args.scenario, args.repeats, Path(tmp))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
