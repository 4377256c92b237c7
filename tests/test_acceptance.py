"""End-to-end acceptance checks for the shipped claims.

One test per claim. Each test appends a verdict line to
``conftest.ACCEPTANCE_LINES`` *before* asserting, so the scorecard printed
in the terminal summary stays complete even when a criterion fails.
"""
from __future__ import annotations

import dataclasses
import importlib.util
import math
import re
from pathlib import Path

import numpy as np
import pytest

import conftest
from aaolq import (
    TimeGrid,
    gains,
    load_scenario,
    lyapunov_check,
    run,
    run_sweep,
    simulate,
    solve_coupled,
    solve_envelope,
    team_gains_to_players,
)
from helpers import random_diagonal_game, scalar_lqr, stationarity_probe

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"


# The paper's final distances (pursuers 1..3) per horizon, rounded to 2 d.p.,
# its horizons and that rounding's tolerance: one copy, in the script that
# prints the table.
_spec = importlib.util.spec_from_file_location(
    "reproduce_table", ROOT / "scripts" / "reproduce_table.py"
)
_table = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_table)
TF_LIST, REFERENCE, TABLE_TOL = _table.TF_LIST, _table.REFERENCE, _table.TOL


def record(number: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    conftest.ACCEPTANCE_LINES.append(f"criterion {number:2d} {verdict}: {detail}")


@pytest.fixture(scope="module")
def benchmark_scenario():
    return load_scenario(SCENARIO_DIR / "pursuit_benchmark.json")


@pytest.fixture(scope="module")
def table_sweep(benchmark_scenario, tmp_path_factory):
    out = tmp_path_factory.mktemp("table_sweep")
    return run_sweep(benchmark_scenario, TF_LIST, modes=("nash", "team"), out_dir=out)


@pytest.fixture(scope="module")
def diagonal_suite():
    """Twenty random games in the diagonal subclass, solved at dt = 1e-3."""
    rng = np.random.default_rng(20250814)
    suite = []
    for _ in range(20):
        game = random_diagonal_game(rng)
        grid = TimeGrid.from_step(game.t0, game.tf, 1e-3)
        sol = solve_coupled(game, grid)
        assert sol.complete, "diagonal-subclass game unexpectedly blew up"
        suite.append((game, sol))
    return suite


def _table_deviations(sweep, mode, table):
    devs = {}
    for tf in TF_LIST:
        cell = sweep.cell(mode, tf)
        if cell.status != "ok" or cell.distances is None:
            devs[tf] = math.inf
        else:
            devs[tf] = float(np.max(np.abs(cell.distances - np.array(table[tf]))))
    return devs


def test_criterion_01_nash_table(table_sweep):
    devs = _table_deviations(table_sweep, "nash", REFERENCE["nash"])
    ok = all(d <= TABLE_TOL for d in devs.values())
    detail = "nash max|d - ref| by tf: " + ", ".join(
        f"{tf:g}->{d:.4f}" for tf, d in devs.items()
    ) + f" (tol {TABLE_TOL})"
    record(1, ok, detail)
    assert ok, detail


def test_criterion_02_team_table(table_sweep, benchmark_scenario, tmp_path):
    devs = _table_deviations(table_sweep, "team", REFERENCE["team"])
    long = run_sweep(benchmark_scenario, [18.0], modes=("team",), out_dir=tmp_path)
    cell = long.cell("team", 18.0)
    p1 = float(cell.distances[0]) if cell.distances is not None else math.nan
    ok = (
        all(d <= TABLE_TOL for d in devs.values())
        and cell.status == "ok"
        and abs(p1 - 0.08) <= TABLE_TOL
        and cell.captured is True
    )
    detail = (
        f"team worst |d - ref| = {max(devs.values()):.4f} over tf 2..14 (tol {TABLE_TOL}); "
        f"tf=18: P1 = {p1:.4f} (ref 0.08), captured = {cell.captured}"
    )
    record(2, ok, detail)
    assert ok, detail


def test_criterion_03_condition_witnesses(benchmark_scenario, tmp_path):
    pattern = re.compile(r"sum_(Q|Sf)_pd: \w+ \(min_eig=([^)]+)\)")

    def witnesses(mode):
        scenario = dataclasses.replace(
            benchmark_scenario, run=dataclasses.replace(benchmark_scenario.run, mode=mode)
        )
        result = run(scenario, out_dir=tmp_path / mode, level="check")
        assert result.exit_code == 0
        found = dict(pattern.findall((tmp_path / mode / "conditions.txt").read_text()))
        return float(found["Q"]), float(found["Sf"])

    nash_q, nash_sf = witnesses("nash")
    team_q, team_sf = witnesses("team")
    ok = (
        abs(nash_q - 0.25) <= 1e-9
        and abs(nash_sf - 0.25) <= 1e-9
        and abs(team_q - (-3.92)) <= 0.005
        and abs(team_sf - (-11.92)) <= 0.005
    )
    detail = (
        f"nash min_eig Q-sum = {nash_q}, Sf-sum = {nash_sf} (ref 0.25 +/- 1e-9); "
        f"team Q-sum = {team_q:.4f} (ref -3.92), Sf-sum = {team_sf:.4f} (ref -11.92, +/- 0.005)"
    )
    record(3, ok, detail)
    assert ok, detail


def test_criterion_04_definiteness_preservation(benchmark_sol, diagonal_suite):
    def margins(sol):
        opp_max = float(np.linalg.eigvalsh(sol.S[0]).max())
        reg_min = float(min(np.linalg.eigvalsh(sol.S[i]).min() for i in range(1, len(sol.S))))
        return opp_max, reg_min

    bench_opp, bench_reg = margins(benchmark_sol)
    suite_opp = max(margins(sol)[0] for _, sol in diagonal_suite)
    suite_reg = min(margins(sol)[1] for _, sol in diagonal_suite)
    ok = (
        bench_opp < 1e-9
        and bench_reg > -1e-9
        and suite_opp < 1e-9
        and suite_reg > -1e-9
    )
    detail = (
        f"benchmark: max eig(S_1) = {bench_opp:.3e}, min eig(S_i) = {bench_reg:.3e}; "
        f"20 random diagonal games: max eig(S_1) = {suite_opp:.3e}, "
        f"min eig(S_i) = {suite_reg:.3e} (thresholds +/- 1e-9)"
    )
    record(4, ok, detail)
    assert ok, detail


def test_criterion_05_envelope_membership(diagonal_suite):
    worst_excess = -math.inf
    worst_lower = math.inf
    worst_upper = math.inf
    for game, sol in diagonal_suite:
        env = solve_envelope(game, None, sol.grid)
        norms = np.einsum("pkij,pkij->pk", sol.S, sol.S)
        worst_excess = max(worst_excess, float(norms.max() - env.bound))
        combo = -sol.S[0] + sol.S[1:].sum(axis=0)
        worst_lower = min(worst_lower, float(np.linalg.eigvalsh(combo).min()))
        worst_upper = min(worst_upper, float(np.linalg.eigvalsh(env.L - combo).min()))
    ok = worst_excess <= 0.0 and worst_lower >= -1e-7 and worst_upper >= -1e-7
    detail = (
        f"membership worst (norm - bound) = {worst_excess:.3e} (need <= 0); "
        f"ordering slack: min eig(-S_1 + sum S_i) = {worst_lower:.3e}, "
        f"min eig(L - (-S_1 + sum S_i)) = {worst_upper:.3e} (tol -1e-7)"
    )
    record(5, ok, detail)
    assert ok, detail


def test_criterion_06_scalar_oracle():
    game = scalar_lqr(tf=1.0)

    def s0(steps):
        sol = solve_coupled(game, TimeGrid(game.t0, game.tf, steps))
        return float(sol.S[0, 0, 0, 0]), sol

    value, sol = s0(1000)
    s_err = abs(value - math.tanh(1.0))
    traj = simulate(game, gains(game, sol), [1.0])
    cost_err = abs(float(traj.costs[0]) - 0.5 * math.tanh(1.0))
    reference = s0(400)[0]
    ratio = abs(s0(50)[0] - reference) / abs(s0(100)[0] - reference)
    ok = s_err <= 1e-6 and cost_err <= 1e-5 and 12.0 <= ratio <= 20.0
    detail = (
        f"S(t0) error {s_err:.2e} (tol 1e-6); cost error {cost_err:.2e} (tol 1e-5); "
        f"halving-step error ratio {ratio:.1f} (need 16 +/- 4)"
    )
    record(6, ok, detail)
    assert ok, detail


def test_criterion_07_decay_certificate(benchmark_traj, benchmark_sol, benchmark_conditions):
    report = lyapunov_check(benchmark_traj, benchmark_sol, benchmark_conditions)
    x = benchmark_traj.x
    v = np.einsum("kn,knm,km->k", x, benchmark_sol.S.sum(axis=0), x)
    rises = int(np.sum(np.diff(v) > 1e-9))
    horizon = benchmark_conditions.horizon_bound
    if horizon is None:  # the report's notes say why
        horizon = math.nan
    horizon_ok = math.isfinite(horizon) and horizon > 0.0
    # The guaranteed-capture horizon is astronomically large (the decay-rate
    # bound is nearly zero); integrating that long is not feasible, so the
    # run-to-capture clause goes unattempted rather than faked.
    run_clause_ok = False
    ok = report.ok and horizon_ok and run_clause_ok
    detail = (
        f"monotone decrease {'PASS' if report.monotone_ok else 'FAIL'}"
        f" (V rises at {rises}/{benchmark_traj.grid.steps} steps,"
        f" max increase {report.max_increase:.3e}); "
        f"exp bound {'PASS' if report.exp_bound_ok else 'FAIL'}; "
        f"ratio bound {'PASS' if report.ratio_bound_ok else 'FAIL'}; "
        f"min_horizon = {horizon:.4e} finite>0 {'PASS' if horizon_ok else 'FAIL'}; "
        f"run with tf >= min_horizon NOT ATTEMPTED (horizon ~1e11 time units)"
    )
    record(7, ok, detail)
    assert ok, detail


def test_criterion_08_nash_stationarity(
    benchmark_game, benchmark_gains, benchmark_traj, benchmark_params
):
    rng = np.random.default_rng(12345)
    eps = 1e-3
    worst = 0.0
    passed = 0
    total = 0
    for player in range(benchmark_game.num_players):
        for _ in range(3):
            direction = rng.standard_normal(benchmark_gains[player].K.shape[1:])
            direction /= np.linalg.norm(direction)
            samples = stationarity_probe(
                benchmark_game,
                benchmark_gains,
                np.array(benchmark_params.x0),
                player,
                direction,
                [-eps, 0.0, eps],
            )
            costs = {s.epsilon: s.cost for s in samples}
            assert not any(s.diverged for s in samples)
            slope = abs(costs[eps] - costs[-eps]) / (2.0 * eps)
            tol = 1e-3 * (1.0 + abs(costs[0.0]))
            total += 1
            passed += slope <= tol
            worst = max(worst, slope / tol)
    ok = passed == total
    detail = f"{passed}/{total} gain perturbations first-order stationary; worst |slope|/tol = {worst:.3f}"
    record(8, ok, detail)
    assert ok, detail


def test_criterion_09_team_consistency(
    benchmark_game, benchmark_team, benchmark_params, team_gains, team_traj
):
    realloc = team_gains_to_players(benchmark_team, team_gains[1])
    full_gains = [team_gains[0], *realloc]
    feedback_full = sum(
        np.einsum("ij,kjl->kil", benchmark_game.B[i], full_gains[i].K)
        for i in range(benchmark_game.num_players)
    )
    reduced = benchmark_team.reduced
    feedback_team = sum(
        np.einsum("ij,kjl->kil", reduced.B[i], team_gains[i].K) for i in range(2)
    )
    a_diff = float(np.max(np.abs(feedback_full - feedback_team)))

    full = simulate(benchmark_game, full_gains, np.array(benchmark_params.x0))
    j_team = float(team_traj.costs[1])
    weighted = float(
        sum(
            benchmark_team.weights.alpha[i] * full.costs[i + 1]
            for i in range(len(realloc))
        )
    )
    cost_rel = abs(j_team - weighted) / (1.0 + abs(j_team))
    ok = a_diff <= 1e-12 and cost_rel <= 1e-9
    detail = (
        f"closed-loop feedback mismatch {a_diff:.2e} (tol 1e-12); "
        f"|J_T - sum alpha_i J_i| (relative) = {cost_rel:.2e} (tol 1e-9)"
    )
    record(9, ok, detail)
    assert ok, detail


def test_criterion_10_determinism(tmp_path):
    compared = 0
    identical = True
    for name in ("pursuit_benchmark.json", "pursuit_coarse.json", "explicit_small.json"):
        scenario = load_scenario(SCENARIO_DIR / name)
        stem = name.removesuffix(".json")
        run(scenario, out_dir=tmp_path / stem / "a")
        run(scenario, out_dir=tmp_path / stem / "b")
        for path in sorted((tmp_path / stem / "a").iterdir()):
            compared += 1
            if path.read_bytes() != (tmp_path / stem / "b" / path.name).read_bytes():
                identical = False
    ok = identical and compared > 0
    detail = f"3 scenarios x 2 runs: {compared} artifacts compared, byte-identical = {identical}"
    record(10, ok, detail)
    assert ok, detail
