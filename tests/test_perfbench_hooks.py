"""The benchmark's hooks into the package still resolve.

``perfbench/spans.py`` wraps module attributes by name and reads
``verify_solution``'s ``screen_stride`` default when it is imported, so an
API edit that drops one of them fails every benchmark op at import. The
benchmark's own tests also call ``parse_scenario``, ``Scenario.build_game``
and ``check_diagonal_subclass`` on a generated workload, so the child makes
those calls too. The checks run in a child process: ``perfbench`` has modules named like the
ones in ``tests`` and cannot be imported into this session.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import env
import spans
import workloads
from aaolq import check_diagonal_subclass, parse_scenario

env.check_source()
game = parse_scenario(workloads.generate_explicit(7)[0]).build_game()
assert check_diagonal_subclass(game).applicable
for name, (mod, attr) in spans.ENTRY_POINTS.items():
    assert callable(getattr(mod, attr)), name
tracer = spans.Tracer()
with tracer.installed():
    for name, (mod, attr) in spans.ENTRY_POINTS.items():
        assert getattr(mod, attr).__wrapped__ is not None, name
for name, (mod, attr) in spans.ENTRY_POINTS.items():
    assert not hasattr(getattr(mod, attr), "__wrapped__"), name
print(len(spans.ENTRY_POINTS), spans._SCREEN_STRIDE)
"""


def test_entry_points_and_screen_stride_resolve():
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, str(PERFBENCH)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    count, stride = child.stdout.split()
    assert int(count) >= 1
    assert int(stride) >= 1


_SPANS_CHILD = """
import json
import sys
import tempfile
from collections import Counter
sys.path.insert(0, sys.argv[1])
import spans
import workloads
from aaolq import load_scenario, run, run_sweep

scenario = load_scenario(workloads.ROOT / "scenarios" / "pursuit_coarse.json")
tracer = spans.Tracer()
with tempfile.TemporaryDirectory() as out, tracer.installed():
    assert run(scenario, out + "/run", level="simulate").exit_code == 0
    run_sweep(scenario, workloads.SWEEP_TF, workloads.SWEEP_MODES, out + "/sweep")
names = [s.name for s in tracer.spans]
print(json.dumps(Counter(
    f"{s.name} < {'op' if s.parent is None else names[s.parent]}" for s in tracer.spans
)))
"""

#: Spans of one simulate run and one table sweep of ``pursuit_coarse.json``,
#: counted by name under their parent's name, as the benchmark's tracer
#: booked them before ``runner`` timed its own stages.
SPANS = {
    "analysis.verify_solution < op": 1,
    "game.validate < op": 2,
    "linalg.spd_inverse < op": 4,
    "linalg.spd_inverse < team.build_team_game": 4,
    "linalg.sym_eigenvalues < analysis.verify_solution": 13,
    "linalg.sym_eigenvalues < game.validate": 24,
    "riccati.gains < op": 40,
    "riccati.solve_coupled < op": 1,
    "runner.write_distances_csv < op": 1,
    "runner.write_positions_csv < op": 1,
    "runner.write_solution_csv < op": 1,
    "runner.write_trajectory_csv < op": 1,
    "sim.lyapunov_check < op": 1,
    "sim.pursuit_report < op": 1,
    "sim.simulate < op": 1,
    "team.build_team_game < op": 2,
}


def test_a_run_and_a_sweep_book_every_span():
    # A stage inlined into run() or run_sweep() must keep calling the module
    # attributes the tracer wraps, or its span silently goes.
    child = subprocess.run(
        [sys.executable, "-c", _SPANS_CHILD, str(PERFBENCH)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == SPANS
