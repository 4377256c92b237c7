"""The benchmark's hooks into the package still resolve.

``perfbench/spans.py`` wraps module attributes by name and reads
``verify_solution``'s ``screen_stride`` default when it is imported, so an
API edit that drops one of them fails every benchmark op at import. The
benchmark's own tests also call ``parse_scenario``, ``Scenario.build_game``
and ``check_diagonal_subclass`` on a generated workload, so the child makes
those calls too. The check runs in a child process: ``perfbench`` has modules named like the
ones in ``tests`` and cannot be imported into this session.
"""
from __future__ import annotations

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
