"""Smoke test of ``scripts/artifact_digests.py`` on the coarse pursuit scenario."""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from aaolq import load_scenario, run

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "artifact_digests.py"
COARSE = ROOT / "scenarios" / "pursuit_coarse.json"
ARTIFACTS = [
    "conditions.txt",
    "distances.csv",
    "positions.csv",
    "solution.csv",
    "summary.txt",
    "trajectory.csv",
]


def test_coarse_scenario_digests_match_its_runs(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.run(
        [sys.executable, str(SCRIPT), str(COARSE)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    assert list(tmp_path.iterdir()) == []
    report = json.loads(child.stdout)
    assert list(report) == ["pursuit_coarse.json"]
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
