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
    for mode in ("nash", "team"):
        assert f"run_sweep, mode {mode}, tf 2,4,6,8,10,12,14" in out
    # The run's solve and each sweep's one solve of its longest horizon.
    per_substep = re.findall(r"([\d,]+) substeps +(\d+\.\d) us/substep$", out, re.M)
    assert len(per_substep) == 3
    assert all(int(n.replace(",", "")) > 0 and float(us) > 0.0 for n, us in per_substep)
    assert len(re.findall(r"^  solve tf=14 ", out, re.M)) == 2
    # Each sweep's gains and its one forward pass shared by every horizon.
    forward = re.findall(r"^  gains \+ forward +(\d+\.\d{4}) s  \[", out, re.M)
    assert len(forward) == 2 and all(float(s) > 0.0 for s in forward)
    assert list(tmp_path.iterdir()) == []
