#!/usr/bin/env python3
"""sha256 of every artifact the pipeline writes, printed as one JSON object.

For each scenario, in nash and in team mode, it runs ``run(level="simulate")``
and records the exit code and the sha256 of every file the run writes. For
each pursuit scenario it also records the sha256 of the ``sweep.csv`` of the
paper's table: tf = 2, 4, ..., 14 in both modes. Artifacts go to a temporary
directory that is removed on exit.

A change that must keep every artifact byte-identical prints the same
object as its parent; compare the two with ``diff``. Pin the BLAS thread
count, since it may move the last bits of some products:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/artifact_digests.py > digests.json
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

from aaolq import load_scenario, run, run_sweep

ROOT = Path(__file__).resolve().parent.parent
TF_LIST = (2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0)
MODES = ("nash", "team")


def _digests(directory: Path) -> dict[str, str]:
    """sha256 of every file in ``directory``, each read in blocks, not whole."""
    digests = {}
    for path in sorted(directory.iterdir()):
        with path.open("rb") as file:
            digests[path.name] = hashlib.file_digest(file, "sha256").hexdigest()
    return digests


def scenario_digests(path: Path, work: Path) -> dict:
    """Exit code and artifact digests of each mode's run, and the table sweep's."""
    scenario = load_scenario(path)
    out = {}
    for mode in MODES:
        moded = dataclasses.replace(scenario, run=dataclasses.replace(scenario.run, mode=mode))
        result = run(moded, work / mode, level="simulate")
        out[mode] = {"exit_code": result.exit_code, "artifacts": _digests(work / mode)}
    if scenario.pursuit is not None:
        run_sweep(scenario, TF_LIST, modes=MODES, out_dir=work / "sweep")
        out["sweep.csv"] = _digests(work / "sweep")["sweep.csv"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "scenarios",
        nargs="*",
        type=Path,
        help="scenario files (default: every file in scenarios/)",
    )
    args = parser.parse_args(argv)
    paths = args.scenarios or sorted((ROOT / "scenarios").iterdir())
    report = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, path in enumerate(paths):
            report[path.name] = scenario_digests(path, Path(tmp) / str(i))
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
