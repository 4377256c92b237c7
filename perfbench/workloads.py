"""The benchmark's workloads: inputs made from a seed, one op, and its check.

Every op goes through the public API only (``load_scenario`` /
``parse_scenario``, ``run``, ``run_sweep``). A workload's ``op`` is the
timed call; ``check`` runs after the timer stops and returns the problems
it found, each of which makes the op count as failed.
"""
from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np

from aaolq import load_scenario, run, run_sweep, scenario

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PURSUIT = ROOT / "scenarios" / "pursuit_benchmark.json"
GOLDEN = HERE / "golden.json"

SWEEP_TF = (2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0)
SWEEP_MODES = ("nash", "team")

#: Final distances (d1, d2, d3) of the source paper's horizon table.
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
#: Print rounding of the reference table; the team rows reproduce within it.
REFERENCE_TOL = 0.02

#: Agreement with the golden values recorded at the seed commit. Final
#: distances: |d - golden| <= GOLDEN_ATOL + GOLDEN_RTOL * |golden|; costs:
#: |J - golden| <= GOLDEN_RTOL * |golden|. Tight enough to catch a wrong
#: result, loose enough for a reordered floating-point sum.
GOLDEN_ATOL = 1e-6
GOLDEN_RTOL = 1e-6

#: Twin games in ``explicit_batch`` are the same game in a rotated basis, so
#: their costs agree up to rounding: |J_twin - J| <= TWIN_RTOL * max_i |J_i|.
TWIN_RTOL = 1e-9


def artifact_digests(out_dir: Path) -> dict[str, str]:
    """File name -> sha256 for every artifact an op wrote."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(Path(out_dir).iterdir())}


def _facts(out_dir: Path, golden_digests: dict | None, ref_dev: float = 0.0, sweep_cells: int = 0) -> dict:
    """Counters read off one op's files and results.

    ``runner.artifacts_changed`` counts artifacts whose sha256 differs from
    the golden one (0 where there is none); it is reported, never gated.
    """
    changed = 0
    if golden_digests is not None:
        digests = artifact_digests(out_dir)
        changed = sum(digests.get(k) != golden_digests.get(k) for k in digests.keys() | golden_digests.keys())
    return {
        "artifacts": {p.name: p.stat().st_size for p in sorted(Path(out_dir).iterdir())},
        "runner.artifacts_changed": changed,
        "runner.ref_dev_max": ref_dev,
        "runner.sweep_cells": sweep_cells,
    }


def _close(value: float, golden: float, atol: float) -> bool:
    return abs(value - golden) <= atol + GOLDEN_RTOL * abs(golden)


class SimulateNash:
    """``run(level="simulate")`` on the bundled pursuit benchmark, nash mode."""

    name = "simulate_nash"
    inputs = 1

    def __init__(self, golden: dict):
        self.scenario = load_scenario(PURSUIT)
        self.golden = golden

    def op(self, i: int, out_dir: Path):
        return run(self.scenario, out_dir, level="simulate")

    def record(self, result, out_dir: Path) -> dict:
        """Golden values of one op, in the form ``check`` compares against."""
        return {
            "exit_code": result.exit_code,
            "final_distances": [float(d) for d in result.pursuit.final_distances],
            "costs": [float(c) for c in result.traj.costs],
            "artifacts": artifact_digests(out_dir),
        }

    def check(self, i: int, result, out_dir: Path) -> tuple[list[str], dict]:
        g = self.golden
        problems = []
        if result.exit_code != g["exit_code"]:
            problems.append(f"exit code {result.exit_code}, expected {g['exit_code']}")
            return problems, {}
        for j, (d, ref) in enumerate(zip(result.pursuit.final_distances, g["final_distances"])):
            if not _close(float(d), ref, GOLDEN_ATOL):
                problems.append(f"final d{j + 1} = {float(d)!r}, golden {ref!r}")
        for j, (c, ref) in enumerate(zip(result.traj.costs, g["costs"])):
            if not _close(float(c), ref, 0.0):
                problems.append(f"J{j + 1} = {float(c)!r}, golden {ref!r}")
        reference = REFERENCE["nash"][self.scenario.pursuit.tf]
        ref_dev = max(abs(float(d) - r) for d, r in zip(result.pursuit.final_distances, reference))
        return problems, _facts(out_dir, g["artifacts"], ref_dev)


class SweepTable:
    """``run_sweep`` over the paper's horizons in both modes: 14 cells."""

    name = "sweep_table"
    inputs = 1

    def __init__(self, golden: dict):
        self.scenario = load_scenario(PURSUIT)
        self.golden = golden

    def op(self, i: int, out_dir: Path):
        return run_sweep(self.scenario, SWEEP_TF, modes=SWEEP_MODES, out_dir=out_dir)

    def record(self, result, out_dir: Path) -> dict:
        """Golden values of one op, in the form ``check`` compares against."""
        cells = [
            {
                "mode": c.mode,
                "tf": c.tf,
                "status": c.status,
                "distances": None if c.distances is None else [float(d) for d in c.distances],
            }
            for c in result.cells
        ]
        return {"cells": cells, "artifacts": artifact_digests(out_dir)}

    def check(self, i: int, result, out_dir: Path) -> tuple[list[str], dict]:
        problems = []
        golden_cells = {(c["mode"], c["tf"]): c for c in self.golden["cells"]}
        if len(result.cells) != len(golden_cells):
            problems.append(f"{len(result.cells)} cells, expected {len(golden_cells)}")
        ref_dev = 0.0
        for cell in result.cells:
            g = golden_cells.get((cell.mode, cell.tf))
            where = f"{cell.mode} tf={cell.tf:g}"
            if g is None:
                problems.append(f"unexpected cell {where}")
                continue
            if cell.status != g["status"]:
                problems.append(f"{where}: status {cell.status}, expected {g['status']}")
                continue
            for j, (d, ref) in enumerate(zip(cell.distances, g["distances"])):
                if not _close(float(d), ref, GOLDEN_ATOL):
                    problems.append(f"{where}: d{j + 1} = {float(d)!r}, golden {ref!r}")
            dev = max(abs(float(d) - r) for d, r in zip(cell.distances, REFERENCE[cell.mode][cell.tf]))
            ref_dev = max(ref_dev, dev)
            if cell.mode == "team" and dev > REFERENCE_TOL:
                problems.append(f"{where}: {dev:.4f} off the paper's table (tolerance {REFERENCE_TOL})")
        return problems, _facts(out_dir, self.golden["artifacts"], ref_dev, len(result.cells))


def _rotated(rng, n: int) -> np.ndarray:
    """Random orthogonal n x n matrix (QR of a Gaussian, signs fixed)."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _sym(m: np.ndarray) -> list:
    return (0.5 * (m + m.T)).tolist()


def generate_explicit(seed: int) -> list[str]:
    """Explicit all-against-one games as scenario JSON, each followed by its twin.

    Every (n, M) with n in 1..8 and M in 2..5 appears once and runs in both
    modes, so every seed does about the same work: the k-th size, in order
    of n then M, takes its horizon from the k-th of 32 equal slices of
    [1, 4]. The seed draws the horizon within its slice, the matrices, and
    the order: each run of eight games takes one from every eighth of that
    size order, so a run that stops part-way through a pass still sees
    small and large games alike. Games are diagonal with H_i >= H_1 and
    regulator weights outweighing the opponent's even after the uniform team
    weighting, which puts them in the diagonal subclass: a solution exists
    on every horizon. The twin is the same game in a random orthogonal basis
    x' = U'x, so its costs are the same.
    """
    rng = np.random.default_rng(seed)
    sizes = [(n, m) for n in range(1, 9) for m in range(2, 6)]
    strata = rng.permuted(np.arange(len(sizes)).reshape(8, -1), axis=1)  # 8 x 4
    order = np.concatenate([rng.permutation(column) for column in strata.T])
    texts = []
    for k in order:
        n, m = sizes[k]
        tf = round(1.0 + 3.0 * (k + rng.uniform()) / len(sizes), 3)
        a = rng.uniform(-0.5, 0.5, n)
        r = rng.uniform(0.5, 2.0, (m, n))
        b = np.empty((m, n))
        b[0] = rng.choice((-1.0, 1.0), n) * rng.uniform(0.5, 1.5, n)
        h_opp = b[0] ** 2 / r[0]
        b[1:] = rng.choice((-1.0, 1.0), (m - 1, n)) * np.sqrt(r[1:] * h_opp * rng.uniform(1.0, 3.0, (m - 1, n)))
        q = np.empty((m, n))
        s = np.empty((m, n))
        q[1:] = rng.uniform(0.2, 2.0, (m - 1, n))
        s[1:] = rng.uniform(0.2, 2.0, (m - 1, n))
        q[0] = -rng.uniform(0.1, 0.8, n) * q[1:].mean(axis=0)
        s[0] = -rng.uniform(0.1, 0.8, n) * s[1:].mean(axis=0)
        x0 = rng.normal(0.0, 2.0, n)
        u = _rotated(rng, n)
        for mode, basis in itertools.product(("nash", "team"), (np.eye(n), u)):
            doc = {
                "schema_version": 1,
                "explicit": {
                    "A": (basis.T @ np.diag(a) @ basis).tolist(),
                    "B": [(basis.T @ np.diag(b[i])).tolist() for i in range(m)],
                    "Q": [_sym(basis.T @ np.diag(q[i]) @ basis) for i in range(m)],
                    "R": [np.diag(r[i]).tolist() for i in range(m)],
                    "S_f": [_sym(basis.T @ np.diag(s[i]) @ basis) for i in range(m)],
                    "t0": 0.0,
                    "tf": float(tf),
                    "x0": (basis.T @ x0).tolist(),
                },
                "run": {"mode": mode, "dt": 0.01},
            }
            texts.append(json.dumps(doc))
    return texts


class ExplicitBatch:
    """``parse_scenario`` then ``run(level="simulate")`` on generated games."""

    name = "explicit_batch"

    def __init__(self, seed: int):
        self.texts = generate_explicit(seed)
        self.inputs = len(self.texts)
        self._costs: dict[int, np.ndarray] = {}

    def op(self, i: int, out_dir: Path):
        return run(scenario.parse_scenario(self.texts[i % self.inputs]), out_dir, level="simulate")

    def check(self, i: int, result, out_dir: Path) -> tuple[list[str], dict]:
        k = i % self.inputs
        pair, twin = divmod(k, 2)
        if result.exit_code != 0:
            return [f"input {k}: exit code {result.exit_code}"], {}
        costs = np.asarray(result.traj.costs)
        problems = []
        if not twin:
            self._costs[pair] = costs
        elif pair in self._costs:
            base = self._costs.pop(pair)
            dev = float(np.max(np.abs(costs - base)))
            scale = float(np.max(np.abs(base)))
            if not dev <= TWIN_RTOL * scale:
                problems.append(f"input {k}: twin costs differ by {dev:.3e} (scale {scale:.3e})")
        return problems, _facts(out_dir, None)


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


WORKLOADS = ("simulate_nash", "sweep_table", "explicit_batch")


def make(name: str, seed: int):
    """The named workload with its inputs ready."""
    if name == "simulate_nash":
        return SimulateNash(load_golden()["simulate_nash"])
    if name == "sweep_table":
        return SweepTable(load_golden()["sweep_table"])
    if name == "explicit_batch":
        return ExplicitBatch(seed)
    raise ValueError(f"unknown workload {name!r}")
