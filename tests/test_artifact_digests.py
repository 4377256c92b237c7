"""Smoke tests of ``scripts/artifact_digests.py`` on the coarse pursuit scenario
and on the small explicit one."""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from aaolq import load_scenario, run, run_sweep

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "artifact_digests.py"
COARSE = ROOT / "scenarios" / "pursuit_coarse.json"
EXPLICIT = ROOT / "scenarios" / "explicit_small.json"
ARTIFACTS = [
    "conditions.txt",
    "distances.csv",
    "positions.csv",
    "solution.csv",
    "summary.txt",
    "trajectory.csv",
]


def _report(scenario: Path, cwd: Path) -> dict:
    """The script's object for ``scenario``, run in the empty ``cwd``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.run(
        [sys.executable, str(SCRIPT), str(scenario)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    assert list(cwd.iterdir()) == []
    report = json.loads(child.stdout)
    assert list(report) == [scenario.name]
    return report


def test_coarse_scenario_digests_match_its_runs(tmp_path):
    report = _report(COARSE, tmp_path)
    entry = report["pursuit_coarse.json"]
    assert list(entry) == ["nash", "team", "sweep.csv"]
    assert len(entry["sweep.csv"]) == 64
    scenario = load_scenario(COARSE)
    for mode in ("nash", "team"):
        assert entry[mode]["exit_code"] == 0
        assert list(entry[mode]["artifacts"]) == ARTIFACTS
        moded = dataclasses.replace(scenario, run=dataclasses.replace(scenario.run, mode=mode))
        run(moded, tmp_path / mode, level="simulate")
        for name, digest in entry[mode]["artifacts"].items():
            assert hashlib.sha256((tmp_path / mode / name).read_bytes()).hexdigest() == digest


def test_explicit_scenario_digests_its_table_sweep(tmp_path):
    # n = 2 is even, so the explicit game is swept too, through the
    # explicit branch of Scenario.with_tf.
    entry = _report(EXPLICIT, tmp_path)["explicit_small.json"]
    assert list(entry) == ["nash", "team", "sweep.csv"]
    # The paper's table, as the script sweeps it.
    tf_list = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0]
    result = run_sweep(
        load_scenario(EXPLICIT), tf_list, modes=("nash", "team"), out_dir=tmp_path / "sweep"
    )
    assert [c.status for c in result.cells] == ["ok"] * 14
    digest = hashlib.sha256((tmp_path / "sweep" / "sweep.csv").read_bytes()).hexdigest()
    assert entry["sweep.csv"] == digest
