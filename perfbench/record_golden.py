#!/usr/bin/env python3
"""Record the golden values ``simulate_nash`` and ``sweep_table`` are checked
against: exit code, final distances, costs, sweep cells and the sha256 of
every artifact. Run it only on a commit whose outputs define "correct":

    python3 perfbench/record_golden.py
"""
from __future__ import annotations

import json
import tempfile
from pathlib import Path

import env  # noqa: F401  (pins threads and the import path before numpy loads)
import workloads


def main() -> int:
    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in (workloads.SimulateNash({}), workloads.SweepTable({})):
            out_dir = Path(tmp) / workload.name
            golden[workload.name] = workload.record(workload.op(0, out_dir), out_dir)
    workloads.GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {workloads.GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
