"""Smoke test of ``scripts/reproduce_table.py`` on the coarse pursuit scenario."""
from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "reproduce_table.py"
COARSE = ROOT / "scenarios" / "pursuit_coarse.json"


def test_coarse_scenario_prints_the_whole_table(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.run(
        [sys.executable, str(SCRIPT), "--scenario", str(COARSE), "--out", str(tmp_path / "table")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    lines = child.stdout.splitlines()
    # A header, 14 table rows (every cell solved), the tf = 18 line and the
    # artifact directory.
    assert [line.split()[:2] for line in lines[1:15]] == [
        [mode, str(tf)] for mode in ("nash", "team") for tf in range(2, 15, 2)
    ]
    # Each row ends with its change between dt and dt / 2, before any marker.
    assert lines[0].split()[-4:] == ["dev", "dt/2", "max", "|dd|"]
    changes = [float(line.split("<-")[0].split()[-1]) for line in lines[1:15]]
    assert all(math.isfinite(c) for c in changes)
    assert lines[15].startswith("team tf=18: P1 distance")
    assert len(lines) == 17
    assert (tmp_path / "table" / "sweep.csv").is_file()
