"""Smoke tests of ``scripts/time_stages.py`` on the coarse pursuit scenario."""
from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from aaolq import load_scenario, run

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "time_stages.py"
COARSE = ROOT / "scenarios" / "pursuit_coarse.json"
RUN_STAGES = (
    "solve", "verify_solution", "solution.csv", "gains + simulate", "lyapunov_check",
    "other writers",
)
SWEEP_STAGES = ("sweep solve", "sweep forward")
STAGES = (*RUN_STAGES, *SWEEP_STAGES, "run()", "run_sweep()")
#: A ratio of one pair: median, quartiles, pairs this tree won and lost.
RATIO = r"(\d+\.\d{3}) \[(\d+\.\d{3}), (\d+\.\d{3})\] +([01])/1 faster +([01]) slower"
#: A stage line: label, median, quartiles, traced peak in MiB, this/control,
#: then this/against with its verdict, or nothing, and the stage's work.
LINE = re.compile(
    rf"^  (\S.*?) +(\d+\.\d{{4}}) s \[(\d+\.\d{{4}}), (\d+\.\d{{4}})\] +(\d+\.\d{{2}}) MiB"
    rf"  control {RATIO}((?:  against {RATIO} (?:resolved|unresolved))?)(.*)$",
    re.M,
)


def _script(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _one_pair(cwd: Path, *args: str) -> tuple[str, dict]:
    """One pair's output and its stage lines, keyed by stage."""
    child = _script(cwd, "--scenario", str(COARSE), "--repeats", "1", *args)
    assert child.returncode == 0, child.stderr
    return child.stdout, {match[0]: match[1:] for match in LINE.findall(child.stdout)}


@pytest.fixture(scope="module")
def control_run(tmp_path_factory):
    """One pair of this tree and its control, and the directory it ran in."""
    cwd = tmp_path_factory.mktemp("control")
    return (*_one_pair(cwd), cwd)


@pytest.fixture(scope="module")
def against_run(tmp_path_factory):
    """One pair of three trees, this one loaded a third time as ``--against``,
    and the directory it ran in."""
    cwd = tmp_path_factory.mktemp("against")
    return (*_one_pair(cwd, "--against", str(ROOT)), cwd)


@pytest.mark.parametrize("fixture", ["control_run", "against_run"])
def test_one_pair_prints_every_stage_and_writes_nothing(fixture, request):
    out, lines, cwd = request.getfixturevalue(fixture)
    against = fixture == "against_run"
    assert out.startswith(
        f"{COARSE}, mode team: 1 pairs of 12 rounds on CPU time;"
        " sweeps of modes nash,team, tf 2,4,6,8,10,12,14\n"
    )
    trees = re.findall(r"^  (this|control|against) +(\S+)$", out, re.M)
    source = str(ROOT / "src" / "aaolq")
    assert trees == [("this", source), ("control", source)] + [("against", source)] * against
    assert list(lines) == list(STAGES)
    for stage, fields in lines.items():
        median, low, high = (float(v) for v in fields[:3])
        # Twelve rounds of this tree; lyapunov_check raises at once on a team game.
        assert 0.0 <= low <= median <= high, stage
        assert median > 0.0 or stage == "lyapunov_check", stage
        # One pair: its ratio is its own median and quartiles, won or lost once.
        ratio, q1, q3, faster, slower = fields[4:9]
        assert float(q1) == float(ratio) == float(q3) > 0.0, stage
        assert int(faster) + int(slower) <= 1, stage
        assert bool(fields[9]) == against, stage
        if against:
            verdict = re.fullmatch(rf"  against {RATIO} (resolved|unresolved)", fields[9])
            a_ratio, a_q1, a_q3 = (float(v) for v in verdict.groups()[:3])
            assert a_q1 == a_ratio == a_q3 > 0.0, stage
            # With one pair, the control's quartiles are its one ratio.
            if a_ratio != float(ratio):
                assert verdict[6] == "resolved", stage
    # The traced peak of one more call above its start, never above the
    # whole run()'s or run_sweep()'s; lyapunov_check raises at once.
    peaks = {stage: float(fields[3]) for stage, fields in lines.items()}
    for stage in RUN_STAGES:
        if stage != "lyapunov_check":
            assert 0.0 < peaks[stage] <= peaks["run()"], stage
    for stage in SWEEP_STAGES:
        assert 0.0 < peaks[stage] <= peaks["run_sweep()"], stage
    work = {stage: fields[-1] for stage, fields in lines.items()}
    # The run's solve, in microseconds per RK4 substep, and only it.
    assert len(re.findall(r"us/substep$", out, re.M)) == 1
    solve = re.fullmatch(r"  ([\d,]+) substeps (\d+\.\d) us/substep", work["solve"])
    assert solve and int(solve[1].replace(",", "")) > 0 and float(solve[2]) > 0.0
    # The bytes each writer stage wrote.
    for stage in ("solution.csv", "other writers"):
        written = re.fullmatch(r"  ([\d,]+) bytes", work[stage])
        assert written and int(written[1].replace(",", "")) > 0, stage
    # The sweep's lockstep solve of both modes' longest horizon: each
    # game's substeps, and the loop's iterations, at least the larger.
    lockstep = re.fullmatch(
        r"  nash ([\d,]+) \+ team ([\d,]+) substeps in ([\d,]+) iterations (\d+\.\d) us/iteration",
        work["sweep solve"],
    )
    assert lockstep
    nash, team, iterations = (int(v.replace(",", "")) for v in lockstep.groups()[:3])
    assert 0 < min(nash, team) and max(nash, team) <= iterations <= nash + team
    assert float(lockstep[4]) > 0.0
    assert work["run()"] == "  exit code 0"
    for stage in ("verify_solution", "gains + simulate", "lyapunov_check", "sweep forward",
                  "run_sweep()"):
        assert work[stage] == "", stage
    assert list(cwd.iterdir()) == []


def test_writer_bytes_equal_those_of_a_run(control_run, tmp_path):
    work = {stage: fields[-1] for stage, fields in control_run[1].items()}
    run(load_scenario(COARSE), tmp_path, level="simulate")
    size = {path.name: path.stat().st_size for path in tmp_path.iterdir()}
    others = size["trajectory.csv"] + size["distances.csv"] + size["positions.csv"]
    assert work["solution.csv"] == f"  {size['solution.csv']:,} bytes"
    assert work["other writers"] == f"  {others:,} bytes"


def test_each_loaded_tree_is_its_own_package(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import time_stages

    names = ("aaolq_test_first", "aaolq_test_second")
    try:
        first, second = (time_stages.load_tree(ROOT, name) for name in names)
        assert first is not second
        assert first.runner is not second.runner
        assert first.runner.__name__ == "aaolq_test_first.runner"
    finally:
        for name in list(sys.modules):
            if name.partition(".")[0] in names:
                del sys.modules[name]


def test_against_a_path_without_a_source_tree_is_an_error(tmp_path):
    child = _script(tmp_path, "--against", str(tmp_path))
    assert child.returncode == 2
    assert f"--against: {tmp_path} holds no src/aaolq/__init__.py" in child.stderr


def test_against_a_tree_without_a_stage_table_name_is_an_error(tmp_path):
    # A tree whose runner lacks one of the names the stage table calls.
    tree = tmp_path / "tree"
    package = tree / "src" / "aaolq"
    shutil.copytree(ROOT / "src" / "aaolq", package, ignore=shutil.ignore_patterns("__pycache__"))
    with (package / "runner.py").open("a") as runner_py:
        runner_py.write("\ndel _sweep_closed_loops\n")
    child = _script(tmp_path, "--scenario", str(COARSE), "--repeats", "1", "--against", str(tree))
    assert child.returncode == 2
    assert child.stderr.endswith(
        f"--against: {package / 'runner.py'} has no '_sweep_closed_loops'\n"
    ), child.stderr
