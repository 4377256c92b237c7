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
#: A default-mode line: label, median, min, max, traced peak in MiB, the rest.
TIMED = re.compile(
    r"^  (\S.*?) +(\d+\.\d{4}) s  \[(\d+\.\d{4}), (\d+\.\d{4})\] +(\d+\.\d{2}) MiB(.*)$", re.M
)
#: An ``--against`` line: label, median ratio, quartiles, sign counts, seconds.
PAIRED = re.compile(
    r"^  (\S.*?) +(\d+\.\d{3})  \[(\d+\.\d{3}), (\d+\.\d{3})\]"
    r" +([01])/1 faster +([01]) slower +(\d+\.\d{4}) s +(\d+\.\d{4}) s",
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


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """The default mode's output, one repeat, and the directory it ran in."""
    cwd = tmp_path_factory.mktemp("default")
    child = _script(cwd, "--scenario", str(COARSE), "--repeats", "1")
    assert child.returncode == 0, child.stderr
    return child.stdout, cwd


@pytest.fixture(scope="module")
def against_run(tmp_path_factory):
    """An A/A run's output, this tree loaded a second time under another
    name, one pair, and the directory it ran in."""
    cwd = tmp_path_factory.mktemp("against")
    child = _script(cwd, "--scenario", str(COARSE), "--repeats", "1", "--against", str(ROOT))
    assert child.returncode == 0, child.stderr
    return child.stdout, cwd


def test_one_repeat_prints_every_stage_and_writes_nothing(default_run):
    out, cwd = default_run
    assert re.search(
        rf"^{re.escape(str(COARSE))}, mode team: 1 repeats, .*; max RSS after import \d+\.\d MB$",
        out,
        re.M,
    )
    assert re.search(r"^max RSS at exit \d+\.\d MB$", out, re.M)
    lines = {match[0]: match[1:] for match in TIMED.findall(out)}
    assert list(lines) == [*RUN_STAGES, *SWEEP_STAGES, "run()", "run_sweep()"]
    for stage, (median, low, high, _, _) in lines.items():
        assert 0.0 <= float(low) == float(median) == float(high), stage
    # The traced peak of one more call above its start, never above the
    # whole run()'s or run_sweep()'s; lyapunov_check does not apply to a
    # team game and raises at once.
    peaks = {stage: float(fields[3]) for stage, fields in lines.items()}
    for stage in RUN_STAGES:
        if stage != "lyapunov_check":
            assert 0.0 < peaks[stage] <= peaks["run()"], stage
    for stage in SWEEP_STAGES:
        assert 0.0 < peaks[stage] <= peaks["run_sweep()"], stage
    # The run's solve, in microseconds per RK4 substep, and only it.
    assert len(re.findall(r"us/substep$", out, re.M)) == 1
    solve = re.fullmatch(r" +([\d,]+) substeps +(\d+\.\d) us/substep", lines["solve"][4])
    assert solve and int(solve.group(1).replace(",", "")) > 0 and float(solve.group(2)) > 0.0
    # The bytes each writer stage wrote.
    for stage in ("solution.csv", "other writers"):
        written = re.fullmatch(r" +([\d,]+) bytes", lines[stage][4])
        assert written and int(written.group(1).replace(",", "")) > 0, stage
    # The sweep's lockstep solve of both modes' longest horizon: each
    # game's substeps, and the loop's iterations, at least the larger.
    lockstep = re.fullmatch(
        r"  nash ([\d,]+) \+ team ([\d,]+) substeps in ([\d,]+) iterations +(\d+\.\d) us/iteration",
        lines["sweep solve"][4],
    )
    assert lockstep
    nash, team, iterations = (int(v.replace(",", "")) for v in lockstep.groups()[:3])
    assert 0 < min(nash, team) and max(nash, team) <= iterations <= nash + team
    assert float(lockstep.group(4)) > 0.0
    assert lines["run()"][4] == "  exit code 0"
    assert lines["run_sweep()"][4] == "  modes nash,team, tf 2,4,6,8,10,12,14"
    assert list(cwd.iterdir()) == []


def test_writer_bytes_equal_those_of_a_run(default_run, tmp_path):
    lines = {match[0]: match[5] for match in TIMED.findall(default_run[0])}
    run(load_scenario(COARSE), tmp_path, level="simulate")
    size = {path.name: path.stat().st_size for path in tmp_path.iterdir()}
    others = size["trajectory.csv"] + size["distances.csv"] + size["positions.csv"]
    assert re.fullmatch(rf" +{size['solution.csv']:,} bytes", lines["solution.csv"])
    assert re.fullmatch(rf" +{others:,} bytes", lines["other writers"])


def test_one_pair_against_this_tree_prints_every_stage(against_run):
    out, cwd = against_run
    assert out.startswith(f"A/B on CPU time: 1 pairs of 5 rounds, {COARSE}, this tree ")
    lines = {match[0]: match[1:] for match in PAIRED.findall(out)}
    assert list(lines) == [*RUN_STAGES, *SWEEP_STAGES]
    for stage, (ratio, low, high, faster, slower, this_s, against_s) in lines.items():
        assert float(low) == float(ratio) == float(high) > 0.0, stage
        assert int(faster) + int(slower) <= 1, stage
        # lyapunov_check raises at once on a team game, so it may read 0.0000 s.
        if stage != "lyapunov_check":
            assert float(this_s) > 0.0 and float(against_s) > 0.0, stage
    assert len(re.findall(r"^    pairs: \d+\.\d{3}$", out, re.M)) == len(lines)
    # Both trees take the same substeps, so both per-substep costs show.
    assert re.search(r"^  solve .* +\d+\.\d +\d+\.\d us/substep$", out, re.M)
    assert list(cwd.iterdir()) == []


def test_both_modes_time_the_same_stages_in_order(default_run, against_run):
    timed = [match[0] for match in TIMED.findall(default_run[0])]
    paired = [match[0] for match in PAIRED.findall(against_run[0])]
    assert timed == paired + ["run()", "run_sweep()"]


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
