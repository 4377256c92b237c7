"""Smoke test of ``scripts/time_stages.py`` on the coarse pursuit scenario."""
from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "time_stages.py"
COARSE = ROOT / "scenarios" / "pursuit_coarse.json"


def test_one_repeat_prints_every_stage_and_writes_nothing(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.run(
        [sys.executable, str(SCRIPT), "--scenario", str(COARSE), "--repeats", "1"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    out = child.stdout
    assert "run(level='simulate'), mode team, exit code 0" in out
    stages = (
        "solve", "verify_solution", "solution.csv", "gains + simulate",
        "lyapunov_check", "other writers", "rest", "total",
    )
    for stage in stages:
        assert re.search(rf"^  {re.escape(stage)} +\d+\.\d{{4}} s  \[", out, re.M), stage
    # Max RSS after each stage of the first repeat; "rest" is no one point.
    assert re.search(r"max RSS after import \d+\.\d MB$", out, re.M)
    assert "max RSS after stage" in out
    rss = {}
    for stage in stages:
        match = re.search(
            rf"^  {re.escape(stage)} +\d+\.\d{{4}} s  \[[^]]*\] +(\d+\.\d) MB", out, re.M
        )
        assert (match is None) == (stage == "rest"), stage
        if match:
            rss[stage] = float(match.group(1))
    assert 0.0 < rss["solve"] <= rss["solution.csv"] <= rss["other writers"] <= rss["total"]
    # The traced peak of each stage in one more, untimed, run: above the
    # traced memory at the stage's start, so never above the run's own.
    assert "tracemalloc peak in stage (one untimed run)" in out
    peaks = {}
    for stage in stages:
        match = re.search(
            rf"^  {re.escape(stage)} +\d+\.\d{{4}} s  \[[^]]*\] +\d+\.\d MB +(\d+\.\d{{2}}) MiB",
            out,
            re.M,
        )
        assert (match is None) == (stage == "rest"), stage
        if match:
            peaks[stage] = float(match.group(1))
    for stage in ("solve", "verify_solution", "solution.csv", "gains + simulate", "other writers"):
        assert 0.0 < peaks[stage] <= peaks["total"], stage
    assert "run_sweep, modes nash,team, tf 2,4,6,8,10,12,14" in out
    # The run's solve, in microseconds per RK4 substep.
    per_substep = re.findall(r"([\d,]+) substeps +(\d+\.\d) us/substep$", out, re.M)
    assert len(per_substep) == 1
    assert all(int(n.replace(",", "")) > 0 and float(us) > 0.0 for n, us in per_substep)
    # The sweep's one lockstep solve of both modes' longest horizon: each
    # game's substeps, and the loop's iterations, at least the larger.
    lockstep = re.findall(
        r"^  lockstep tf=14 +\d+\.\d{4} s  \[.*\]  nash ([\d,]+) \+ team ([\d,]+) substeps"
        r" in ([\d,]+) iterations +(\d+\.\d) us/iteration$",
        out,
        re.M,
    )
    assert len(lockstep) == 1
    nash, team, iterations = (int(v.replace(",", "")) for v in lockstep[0][:3])
    assert 0 < min(nash, team) and max(nash, team) <= iterations <= nash + team
    assert float(lockstep[0][3]) > 0.0
    # Both modes' gains and forward passes, and the whole sweep.
    forward = re.findall(r"^  gains \+ forward +(\d+\.\d{4}) s  \[", out, re.M)
    assert len(forward) == 1 and float(forward[0]) > 0.0
    assert len(re.findall(r"^  total +\d+\.\d{4} s  \[", out, re.M)) == 2
    # The traced peak of one more, untimed, sweep.
    peak = re.findall(r"^  tracemalloc peak +(\d+\.\d{2}) MiB  \(one untimed sweep\)$", out, re.M)
    assert len(peak) == 1 and float(peak[0]) > 0.0
    assert list(tmp_path.iterdir()) == []


def test_one_pair_against_this_tree_prints_every_stage(tmp_path):
    # An A/A run: this tree loaded a second time, under another name.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.run(
        [
            sys.executable, str(SCRIPT), "--scenario", str(COARSE), "--repeats", "1",
            "--against", str(ROOT),
        ],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    out = child.stdout
    assert out.startswith(f"A/B on CPU time: 1 pairs of 5 rounds, {COARSE}, this tree ")
    stages = ("solve", "verify_solution", "gains + simulate", "writers", "sweep solve")
    for stage in stages:
        match = re.search(
            rf"^  {re.escape(stage)} +(\d+\.\d{{3}})  \[(\d+\.\d{{3}}), (\d+\.\d{{3}})\]"
            rf" +([01])/1 faster +([01]) slower +(\d+\.\d{{4}}) s +(\d+\.\d{{4}}) s",
            out,
            re.M,
        )
        assert match, stage
        ratio, low, high = (float(v) for v in match.groups()[:3])
        assert low == ratio == high > 0.0
        assert int(match.group(4)) + int(match.group(5)) <= 1
        assert float(match.group(6)) > 0.0 and float(match.group(7)) > 0.0
    assert len(re.findall(r"^    pairs: \d+\.\d{3}$", out, re.M)) == len(stages)
    # Both trees take the same substeps, so both per-substep costs show.
    assert re.search(r"^  solve .* +\d+\.\d +\d+\.\d us/substep$", out, re.M)
    assert list(tmp_path.iterdir()) == []


def test_against_a_path_without_a_source_tree_is_an_error(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.run(
        [sys.executable, str(SCRIPT), "--against", str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode == 2
    assert f"--against: {tmp_path} holds no src/aaolq/__init__.py" in child.stderr
