#!/usr/bin/env python3
"""Reproduce the horizon-sweep distance table for both strategy modes.

Sweeps tf over {2, 4, ..., 14} in nash and team mode on the bundled
benchmark, prints measured final distances next to the reference values,
and runs the extra team-mode tf = 18 point that ends in capture.

Known discrepancy: the nash rows at tf = 2, 4, 6 deviate from the
reference by far more than the 0.02 print-rounding tolerance. The
backward solution passes every independent check (equation residuals,
convergence order, stationarity of the simulated equilibrium), and the
deviation shrinks monotonically as tf grows, so the short-horizon
reference rows could not be reproduced from the stated scenario; see
README "Numerical notes".
"""
from __future__ import annotations

import argparse
from pathlib import Path

from aaolq import load_scenario, run_sweep

ROOT = Path(__file__).resolve().parent.parent
TF_LIST = (2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0)
REFERENCE = {
    "nash": {
        2.0: (8.25, 9.59, 7.19),
        4.0: (1.42, 2.22, 1.29),
        6.0: (0.25, 0.40, 0.16),
        8.0: (0.03, 0.05, 0.02),
        10.0: (0.00, 0.00, 0.00),
        12.0: (0.00, 0.00, 0.00),
        14.0: (0.00, 0.00, 0.00),
    },
    "team": {
        2.0: (1.90, 5.94, 7.39),
        4.0: (1.34, 4.18, 5.21),
        6.0: (0.91, 2.85, 3.55),
        8.0: (0.61, 1.92, 2.38),
        10.0: (0.41, 1.28, 1.59),
        12.0: (0.27, 0.85, 1.06),
        14.0: (0.18, 0.57, 0.70),
    },
}
TOL = 0.02


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scenario",
        default=str(ROOT / "scenarios" / "pursuit_benchmark.json"),
        help="pursuit scenario to sweep (default: bundled benchmark)",
    )
    parser.add_argument("--out", default="out/table", help="artifact directory")
    args = parser.parse_args(argv)

    scenario = load_scenario(args.scenario)
    sweep = run_sweep(scenario, TF_LIST, modes=("nash", "team"), out_dir=args.out)

    failed_cells = 0
    print(f"{'mode':<6}{'tf':>4}   {'measured d1/d2/d3':<26}{'reference':<22}{'max dev':>8}")
    for mode in ("nash", "team"):
        for tf in TF_LIST:
            cell = sweep.cell(mode, tf)
            ref = REFERENCE[mode][tf]
            if cell.status != "ok" or cell.distances is None:
                failed_cells += 1
                print(f"{mode:<6}{tf:>4.0f}   solver failed: {cell.status}")
                continue
            measured = "/".join(f"{d:7.4f}" for d in cell.distances)
            reference = "/".join(f"{r:5.2f}" for r in ref)
            dev = max(abs(d - r) for d, r in zip(cell.distances, ref))
            marker = "" if dev <= TOL else "  <- exceeds 0.02"
            print(f"{mode:<6}{tf:>4.0f}   {measured:<26}{reference:<22}{dev:8.4f}{marker}")

    long = run_sweep(scenario, [18.0], modes=("team",), out_dir=Path(args.out) / "tf18")
    cell = long.cell("team", 18.0)
    if cell.status == "ok" and cell.distances is not None:
        print(
            f"team tf=18: P1 distance {cell.distances[0]:.4f} (reference 0.08), "
            f"captured = {cell.captured}"
        )
    else:
        failed_cells += 1
        print(f"team tf=18: solver failed: {cell.status}")

    print(f"sweep artifacts in {args.out}")
    return 3 if failed_cells else 0


if __name__ == "__main__":
    raise SystemExit(main())
