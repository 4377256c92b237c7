"""Certificate module contract: existence map, envelope, subclass, horizons."""
from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from aaolq import (
    GameDefinition,
    RiccatiSolution,
    SolveStatus,
    TimeGrid,
    build_team_game,
    check_diagonal_subclass,
    existence_map,
    load_scenario,
    min_horizon,
    solve_coupled,
    solve_envelope,
    sum_matrices,
    verify_solution,
)
from aaolq.analysis import compute_P, lyapunov_weight_series
from aaolq.errors import (
    IncompleteSolutionError,
    NotApplicableError,
    ValidationError,
)
from aaolq.game import control_coupling
from aaolq.linalg import frob_norm
from helpers import (
    random_diagonal_game,
    random_orthogonal,
    reference_existence_min,
    scalar_game,
    scalar_lqr,
    single_player_matrix_game,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _crafted_solution(p_values, q1=-1.0, q2=2.0):
    """Two-player scalar game plus a hand-built solution whose P(t_k) series
    equals ``p_values`` (player 1 pinned at -1)."""
    game = scalar_game(0.0, [1.0, 1.0], [q1, q2], [1.0, 1.0], [-1.0, 2.0], tf=1.0)
    steps = len(p_values) - 1
    grid = TimeGrid(0.0, 1.0, steps)
    s = np.empty((2, steps + 1, 1, 1))
    s[0] = -1.0
    for k, p in enumerate(p_values):
        s[1, k, 0, 0] = p + 1.0
    sol = RiccatiSolution(
        grid=grid,
        S=s,
        status=SolveStatus.COMPLETE,
        failure_time=None,
        failure_reason=None,
        max_symmetry_residual=0.0,
    )
    return game, sol


class TestExistenceMap:
    def test_zero_arguments_return_q(self, benchmark_game):
        q = np.diag([1.0, -2.0, 3.0, 0.5, 0.0, 4.0])
        res = existence_map(benchmark_game, q, [np.zeros((6, 6))] * 4)
        assert np.array_equal(res.value, q)
        assert res.psd is False

    def test_scalar_two_player_positive_case(self):
        game = scalar_game(0.0, [1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0])
        res = existence_map(game, None, [np.array([[-1.0]]), np.array([[2.0]])])
        assert res.value[0, 0] == pytest.approx(3.0, abs=1e-12)
        assert res.min_eigenvalue == pytest.approx(3.0, abs=1e-12)
        assert res.psd is True

    def test_scalar_dominant_opponent_fails(self):
        # second player unactuated: B_2 = 0 so H_2 = 0
        game = scalar_game(0.0, [1.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0])
        res = existence_map(game, None, [np.array([[-1.0]]), np.array([[0.0]])])
        assert res.value[0, 0] == pytest.approx(-1.0, abs=1e-12)
        assert res.psd is False

    def test_single_nonzero_regulator_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            game = random_diagonal_game(rng)
            if game.num_players < 2:
                continue
            i = int(rng.integers(1, game.num_players))
            w = np.diag(rng.uniform(-1.0, 1.0, game.n))
            args = [np.zeros((game.n, game.n))] * game.num_players
            args[i] = w
            q = np.diag(rng.uniform(-0.5, 0.5, game.n))
            res = existence_map(game, q, args)
            h = control_coupling(game, i)
            # all but one product term cancel, leaving Q + W H W
            expected = q + w @ h @ w
            assert np.max(np.abs(res.value - expected)) <= 1e-12

    def test_dimension_mismatch_rejected(self, benchmark_game):
        with pytest.raises(ValidationError):
            existence_map(benchmark_game, None, [np.zeros((6, 6))] * 3)


def _rotated(game: GameDefinition, rng: np.random.Generator) -> GameDefinition:
    """The same game in a random orthonormal basis of the state space."""
    q = random_orthogonal(rng, game.n)
    return dataclasses.replace(
        game,
        A=q @ game.A @ q.T,
        B=tuple(q @ b for b in game.B),
        Q=tuple(q @ m @ q.T for m in game.Q),
        S_f=tuple(q @ m @ q.T for m in game.S_f),
    )


def _screen_games():
    """(game, dt) params: pursuit_coarse in both modes and seeded explicit games."""
    coarse = load_scenario(SCENARIO_DIR / "pursuit_coarse.json")
    nash = coarse.build_game()
    yield pytest.param(nash, coarse.run.dt, id="coarse_nash")
    yield pytest.param(build_team_game(nash).reduced, coarse.run.dt, id="coarse_team")
    rng = np.random.default_rng(17)
    for k in range(3):
        game = random_diagonal_game(rng)
        yield pytest.param(game, 1e-2, id=f"diagonal_{k}_n{game.n}_m{game.num_players}")
    yield pytest.param(_rotated(random_diagonal_game(np.random.default_rng(2)), rng), 1e-2, id="rotated_n3")
    yield pytest.param(single_player_matrix_game(), 1e-2, id="single_player_n2")
    yield pytest.param(scalar_lqr(), 1e-2, id="scalar_lqr_n1")


class TestExistenceScreen:
    """verify_solution's stacked screen against per-node evaluations."""

    @pytest.mark.parametrize("game,dt", list(_screen_games()))
    def test_every_node_matches_pointwise_maps(self, game, dt):
        sol = solve_coupled(game, TimeGrid.from_step(game.t0, game.tf, dt))
        assert sol.complete
        m = game.num_players
        pointwise = min(
            existence_map(game, None, [sol.S[i, k] for i in range(m)]).min_eigenvalue
            for k in range(sol.grid.steps + 1)
        )
        screened = verify_solution(game, sol).rq_screen_min_eig
        assert abs(screened - pointwise) <= 1e-12 * (1.0 + abs(pointwise))
        reference = reference_existence_min(game, sol.S)
        assert abs(screened - reference) <= 1e-12 * (1.0 + abs(reference))

    def test_stride_samples_old_node_set_with_terminal(self):
        # 105 steps: the stride-10 sample ends at node 100, so the terminal
        # node 105 (where this game's map is smallest) must be added.
        game = dataclasses.replace(single_player_matrix_game(), tf=1.05)
        sol = solve_coupled(game, TimeGrid(game.t0, game.tf, 105))
        steps = sol.grid.steps
        per_node = [existence_map(game, None, [sol.S[0, k]]).min_eigenvalue for k in range(steps + 1)]
        sample = sorted(set(range(0, steps + 1, 10)) | {steps})
        assert min(per_node[k] for k in sample) < min(per_node[k] for k in range(0, steps + 1, 10))
        report = verify_solution(game, sol, screen_stride=10)
        assert report.rq_screen_min_eig == min(per_node[k] for k in sample)

    def test_default_screens_every_node(self, benchmark_game, benchmark_sol):
        # The benchmark's map is smallest off the stride-10 nodes.
        strided = verify_solution(benchmark_game, benchmark_sol, screen_stride=10)
        full = verify_solution(benchmark_game, benchmark_sol)
        assert full.rq_screen_min_eig < strided.rq_screen_min_eig
        assert full.rq_screen_min_eig == pytest.approx(-2.5508943822521214e10, rel=1e-9)


class TestSolveEnvelope:
    def test_benchmark_closed_form(self, benchmark_game, benchmark_grid):
        env = solve_envelope(benchmark_game, None, benchmark_grid)
        assert np.max(np.abs(env.L[-1] - 36.25 * np.eye(6))) == 0.0
        assert np.max(np.abs(env.L[0] - 158.75 * np.eye(6))) <= 1e-9
        assert env.bound == pytest.approx(6 * 158.75**2, rel=1e-12)

    def test_zero_horizon_terminal_value(self):
        game = scalar_game(0.0, [1.0, 1.0], [-1.0, 2.0], [1.0, 1.0], [-1.0, 2.0], tf=0.0)
        env = solve_envelope(game, None, TimeGrid(0.0, 0.0, 0))
        assert env.L.shape == (1, 1, 1)
        assert env.L[0, 0, 0] == 3.0
        assert env.bound == 9.0

    def test_unit_drift_from_free_matrix(self):
        game = scalar_game(0.0, [1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0], tf=1.0)
        env = solve_envelope(game, np.array([[1.0]]), TimeGrid.from_step(0.0, 1.0, 1e-3))
        assert env.L[0, 0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_single_player_not_applicable(self):
        game = scalar_lqr()
        with pytest.raises(NotApplicableError):
            solve_envelope(game, None, TimeGrid.from_step(0.0, 1.0, 1e-3))

    def test_ode_residual_second_order(self):
        game = scalar_game(
            0.5, [1.0, 1.0], [-1.0, 2.0], [1.0, 1.0], [-1.0, 2.0], tf=1.0
        )
        q_free = np.array([[0.7]])

        def max_residual(dt):
            grid = TimeGrid.from_step(0.0, 1.0, dt)
            env = solve_envelope(game, q_free, grid)
            a = game.A
            qq = q_free - game.Q[0] + game.Q[1]
            worst = 0.0
            for k in range(1, grid.steps + 1):
                lm = (env.L[k - 1] + env.L[k]) / 2.0
                rhs = -(lm @ a + a.T @ lm + qq)
                lhs = (env.L[k - 1] - env.L[k]) / (-grid.dt)
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
            return worst

        coarse = max_residual(0.02)
        fine = max_residual(0.01)
        assert coarse / fine == pytest.approx(4.0, rel=0.25)


class TestDiagonalSubclass:
    def test_benchmark_not_applicable_but_sums_ok(self, benchmark_game):
        verdict = check_diagonal_subclass(benchmark_game)
        assert verdict.applicable is False
        assert verdict.diagonal_ok is False
        assert verdict.sums_ok is True

    def test_compliant_scalar_game(self):
        game = scalar_game(0.0, [1.0, 1.0], [-1.0, 2.0], [1.0, 1.0], [-1.0, 2.0])
        verdict = check_diagonal_subclass(game)
        assert verdict.applicable is True
        assert verdict.diagonal_ok and verdict.h_order_ok and verdict.sums_ok

    def test_weak_team_coupling_breaks_ordering(self):
        game = scalar_game(0.0, [1.0, 1.0], [-1.0, 2.0], [1.0, 2.0], [-1.0, 2.0])
        verdict = check_diagonal_subclass(game)
        assert verdict.h_order_ok is False
        assert verdict.applicable is False

    def test_random_diagonal_games_accepted(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            verdict = check_diagonal_subclass(random_diagonal_game(rng))
            assert verdict.applicable is True


class TestSumMatrices:
    def test_benchmark_sums(self, benchmark_game):
        sums = sum_matrices(benchmark_game)
        assert np.max(np.abs(sums.q_sum - 0.25 * np.eye(6))) <= 1e-12
        assert np.max(np.abs(sums.sf_sum - 0.25 * np.eye(6))) <= 1e-12

    def test_team_reduction_sums(self, benchmark_team):
        sums = sum_matrices(benchmark_team.reduced)
        assert sums.q_sum[0, 0] == pytest.approx(-3.92, abs=0.005)
        assert sums.sf_sum[0, 0] == pytest.approx(-11.92, abs=0.005)

    def test_zero_weights(self):
        game = scalar_game(0.0, [1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0])
        sums = sum_matrices(game)
        assert np.array_equal(sums.q_sum, np.zeros((1, 1)))
        assert np.array_equal(sums.sf_sum, np.zeros((1, 1)))


class TestComputeP:
    def test_benchmark_terminal(self, benchmark_sol):
        p_tf = compute_P(benchmark_sol, benchmark_sol.grid.steps)
        assert np.max(np.abs(p_tf - 0.25 * np.eye(6))) <= 1e-12

    def test_zero_solution(self):
        game = scalar_game(0.0, [1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0], tf=0.0)
        sol = solve_coupled(game, TimeGrid(0.0, 0.0, 0))
        assert compute_P(sol, 0)[0, 0] == 0.0

    def test_single_player_is_identity(self):
        game = scalar_lqr()
        sol = solve_coupled(game, TimeGrid.from_step(0.0, 1.0, 1e-3))
        assert compute_P(sol, 0)[0, 0] == sol.S[0, 0, 0, 0]

    def test_index_range_checked(self, benchmark_sol):
        with pytest.raises(ValidationError):
            compute_P(benchmark_sol, benchmark_sol.grid.steps + 1)

    def test_series_matches_pointwise(self, benchmark_sol):
        series = lyapunov_weight_series(benchmark_sol)
        for k in (0, 777, benchmark_sol.grid.steps):
            assert np.array_equal(series[k], compute_P(benchmark_sol, k))


class TestMinHorizon:
    def test_formula_evaluation(self):
        game, sol = _crafted_solution([2.0, 1.5, 1.0])
        value = min_horizon(game, sol, x0_norm=10.0, r=0.1)
        expected = 2.0 * (2.0 * math.log(100.0) + math.log(2.0))
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(19.8064, abs=1e-3)

    def test_equal_start_and_radius_leaves_ln_term(self):
        game, sol = _crafted_solution([2.0, 1.5, 1.0])
        value = min_horizon(game, sol, x0_norm=0.1, r=0.1)
        assert value == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_flat_p_leaves_distance_term(self):
        game, sol = _crafted_solution([2.0, 2.0, 2.0])
        value = min_horizon(game, sol, x0_norm=10.0, r=0.1)
        assert value == pytest.approx(4.0 * math.log(100.0), abs=1e-12)

    def test_monotone_in_radius_and_start(self):
        game, sol = _crafted_solution([2.0, 1.5, 1.0])
        radii = [0.05, 0.1, 0.2, 0.5]
        values = [min_horizon(game, sol, 10.0, r) for r in radii]
        assert all(a > b for a, b in zip(values, values[1:]))
        starts = [1.0, 2.0, 5.0, 10.0]
        values = [min_horizon(game, sol, s, 0.1) for s in starts]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_not_applicable_when_sums_fail(self):
        game, sol = _crafted_solution([2.0, 1.5, 1.0], q1=-1.0, q2=0.5)
        with pytest.raises(NotApplicableError):
            min_horizon(game, sol, 10.0, 0.1)

    def test_invalid_inputs_rejected(self):
        game, sol = _crafted_solution([2.0, 1.5, 1.0])
        with pytest.raises(ValidationError):
            min_horizon(game, sol, 10.0, 0.0)
        with pytest.raises(ValidationError):
            min_horizon(game, sol, 0.0, 0.1)

    def test_benchmark_value_finite_positive(self, benchmark_game, benchmark_sol):
        value = min_horizon(benchmark_game, benchmark_sol, math.sqrt(599.0), 0.1)
        assert math.isfinite(value) and value > 0.0


class TestVerifySolution:
    def test_benchmark_report(self, benchmark_game, benchmark_sol, benchmark_params):
        x0_norm = float(np.linalg.norm(benchmark_params.x0))
        report = verify_solution(
            benchmark_game, benchmark_sol, x0_norm=x0_norm, r=0.1
        )
        assert report.sum_q_pd and report.sum_q_min_eig == pytest.approx(0.25, abs=1e-9)
        assert report.sum_sf_pd and report.sum_sf_min_eig == pytest.approx(0.25, abs=1e-9)
        assert report.definiteness_ok is True
        assert report.opponent_max_eig < 0.0
        assert report.regulator_min_eig == pytest.approx(0.224, abs=1e-3)
        assert report.p_pd is True and report.p_min_eig > 0.0
        # The existence screen fails at the visited iterates (the near-terminal
        # transient is enormous), so the conditional certificates stay open.
        assert report.rq_screen_psd is False
        assert report.e_membership is None
        assert report.notes
        assert report.horizon_bound is not None and report.horizon_bound > 0.0

    def test_degenerate_horizon_reduces_to_terminal_checks(self):
        game = scalar_game(0.0, [1.0, 1.0], [-1.0, 2.0], [1.0, 1.0], [-1.0, 2.0], tf=0.0)
        sol = solve_coupled(game, TimeGrid(0.0, 0.0, 0))
        report = verify_solution(game, sol)
        assert report.definiteness_ok is True
        assert report.rq_screen_psd is True
        assert report.e_membership is True
        assert report.psd_chain_ok is True
        assert report.p_pd is True

    def test_compliant_diagonal_game_membership(self):
        rng = np.random.default_rng(42)
        game = random_diagonal_game(rng)
        sol = solve_coupled(game, TimeGrid.from_step(game.t0, game.tf, 1e-3))
        report = verify_solution(game, sol)
        assert report.rq_screen_psd is True
        assert report.e_membership is True
        assert report.psd_chain_ok is True
        assert report.max_solution_norm <= report.envelope_bound

    def test_incomplete_solution_rejected(self):
        game = scalar_game(0.0, [1.0, 1.0], [-100.0, 0.0], [1.0, 1e6], [-1.0, 0.0])
        sol = solve_coupled(game, TimeGrid.from_step(0.0, 1.0, 1e-3))
        with pytest.raises(IncompleteSolutionError):
            verify_solution(game, sol)

    def test_player_count_mismatch_rejected(self, benchmark_sol):
        game = scalar_game(0.0, [1.0, 1.0], [-1.0, 2.0], [1.0, 1.0], [-1.0, 2.0])
        with pytest.raises(ValidationError):
            verify_solution(game, benchmark_sol)


class TestDiagonalPreservation:
    def test_diagonal_games_stay_diagonal(self):
        rng = np.random.default_rng(99)
        for _ in range(3):
            game = random_diagonal_game(rng)
            sol = solve_coupled(game, TimeGrid.from_step(game.t0, game.tf, 1e-3))
            assert sol.complete
            n = game.n
            mask = ~np.eye(n, dtype=bool)
            off = float(np.max(np.abs(sol.S[..., mask]))) if n > 1 else 0.0
            assert off <= 1e-9

    def test_ordering_chain_on_compliant_game(self):
        rng = np.random.default_rng(1234)
        game = random_diagonal_game(rng)
        grid = TimeGrid.from_step(game.t0, game.tf, 1e-3)
        sol = solve_coupled(game, grid)
        env = solve_envelope(game, None, grid)
        combo = -sol.S[0] + sol.S[1:].sum(axis=0)
        for k in range(0, grid.steps + 1, 50):
            lower = np.linalg.eigvalsh(combo[k])[0]
            upper = np.linalg.eigvalsh(env.L[k] - combo[k])[0]
            assert lower >= -1e-7
            assert upper >= -1e-7
            assert frob_norm(sol.S[0, k]) <= env.bound
