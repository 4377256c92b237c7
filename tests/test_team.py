"""Team reduction contract: folding regulators into one player and back."""
from __future__ import annotations

import math

import numpy as np
import pytest

from aaolq import (
    FeedbackGain,
    PursuitParams,
    TeamWeights,
    TimeGrid,
    build_pursuit_example,
    build_team_game,
    gains,
    simulate,
    solve_coupled,
    team_gains_to_players,
)
from aaolq.errors import ValidationError
from helpers import closed_loop_A, riccati_rhs, scalar_game, scalar_lqr


class TestTeamWeights:
    def test_uniform(self):
        w = TeamWeights.uniform(3)
        assert w.alpha == (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)

    def test_uniform_needs_a_regulator(self):
        with pytest.raises(
            ValidationError, match=r"^uniform weights need at least one regulator$"
        ):
            TeamWeights.uniform(0)

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValidationError):
            TeamWeights(alpha=())
        with pytest.raises(ValidationError):
            TeamWeights(alpha=(0.5, 0.5, 0.0))
        with pytest.raises(ValidationError):
            TeamWeights(alpha=(0.4, 0.4))

    @pytest.mark.parametrize(
        "alpha", [(math.nan, 0.5, 0.5), (math.nan,), (math.inf, 0.5), (1.0, math.inf, -math.inf)]
    )
    def test_non_finite_weights_rejected(self, alpha):
        # Comparisons with NaN are false, so the checks must be written to
        # fail on it; a command line override can carry nan and inf.
        with pytest.raises(ValidationError):
            TeamWeights(alpha=alpha)


class TestBuildTeamGame:
    def test_benchmark_reduction(self, benchmark_team):
        reduced = benchmark_team.reduced
        assert reduced.num_players == 2
        assert np.max(np.abs(reduced.Q[1] - (6.25 / 3.0) * np.eye(6))) <= 1e-12
        assert np.max(np.abs(reduced.S_f[1] - (18.25 / 3.0) * np.eye(6))) <= 1e-12
        assert np.max(np.abs(reduced.R[1] - 50.0 * np.eye(6))) <= 1e-12
        assert reduced.Q[1][0, 0] == pytest.approx(2.0833, abs=5e-5)
        assert reduced.S_f[1][0, 0] == pytest.approx(6.0833, abs=5e-5)

    def test_benchmark_team_input_matrix(self, benchmark_team):
        assert np.array_equal(benchmark_team.reduced.B[1], -np.eye(6))

    def test_single_member_team_identity(self):
        game = scalar_game(0.0, [1.0, 1.0], [-1.0, 2.0], [1.0, 1.0], [-1.0, 2.0])
        team = build_team_game(game, TeamWeights(alpha=(1.0,)))
        reduced = team.reduced
        assert np.array_equal(reduced.B[1], game.B[1])
        assert np.array_equal(reduced.Q[1], game.Q[1])
        assert np.array_equal(reduced.R[1], game.R[1])
        assert np.array_equal(reduced.S_f[1], game.S_f[1])

    def test_two_identical_pursuers(self):
        params = PursuitParams(
            num_pursuers=2,
            pursuer_terminal_weights=(1.0, 1.0),
            pursuer_state_weights=(0.5, 0.5),
            pursuer_control_weights=(150.0, 150.0),
            x0=(1.0, 0.0, 0.0, 1.0),
        )
        game = build_pursuit_example(params)
        team = build_team_game(game, TeamWeights(alpha=(0.5, 0.5)))
        reduced = team.reduced
        assert np.max(np.abs(reduced.Q[1] - game.Q[1])) <= 1e-15
        assert np.max(np.abs(reduced.S_f[1] - game.S_f[1])) <= 1e-15
        expected_r = np.kron(np.eye(2), 75.0 * np.eye(2))
        assert np.max(np.abs(reduced.R[1] - expected_r)) <= 1e-13

    def test_opponent_carried_bitwise(self, benchmark_game, benchmark_team):
        reduced = benchmark_team.reduced
        assert np.array_equal(reduced.A, benchmark_game.A)
        assert np.array_equal(reduced.B[0], benchmark_game.B[0])
        assert np.array_equal(reduced.Q[0], benchmark_game.Q[0])
        assert np.array_equal(reduced.R[0], benchmark_game.R[0])
        assert np.array_equal(reduced.S_f[0], benchmark_game.S_f[0])

    def test_single_player_rejected(self):
        with pytest.raises(ValidationError):
            build_team_game(scalar_lqr())

    def test_weight_count_checked(self, benchmark_game):
        with pytest.raises(ValidationError):
            build_team_game(benchmark_game, TeamWeights(alpha=(0.5, 0.5)))

    def test_coupling_identity(self, benchmark_game, benchmark_team):
        h_team = benchmark_team.reduced.H[1]
        expected = sum(
            (1.0 / benchmark_team.weights.alpha[i - 1]) * benchmark_game.H[i]
            for i in range(1, 4)
        )
        assert np.max(np.abs(h_team - expected)) <= 1e-10


class TestTeamGainsToPlayers:
    def test_round_trip_bitwise(self, benchmark_team, team_gains):
        players = team_gains_to_players(benchmark_team, team_gains[1])
        stacked = np.concatenate([p.K for p in players], axis=1)
        assert np.array_equal(stacked, team_gains[1].K)

    def test_single_member_equals_team_gain(self):
        game = scalar_game(0.0, [1.0, 1.0], [-1.0, 2.0], [1.0, 1.0], [-1.0, 2.0])
        team = build_team_game(game)
        sol = solve_coupled(team.reduced, TimeGrid.from_step(0.0, 1.0, 1e-3))
        team_gain = gains(team.reduced, sol)[1]
        players = team_gains_to_players(team, team_gain)
        assert len(players) == 1
        assert np.array_equal(players[0].K, team_gain.K)

    def test_wrong_player_rejected(self, benchmark_team, team_gains):
        with pytest.raises(ValidationError):
            team_gains_to_players(benchmark_team, team_gains[0])

    def test_wrong_row_count_rejected(self):
        team = build_team_game(scalar_game(0.0, [1.0, 1.0], [-1.0, 2.0], [1.0, 1.0], [-1.0, 2.0]))
        grid = TimeGrid(0.0, 1.0, 2)
        gain = FeedbackGain(player=1, grid=grid, K=np.zeros((3, 2, 1)))
        with pytest.raises(ValidationError, match=r"^team gain has 2 control rows, expected 1$"):
            team_gains_to_players(team, gain)

    def test_closed_loop_equivalence(
        self, benchmark_game, benchmark_team, team_sol, team_gains
    ):
        players = team_gains_to_players(benchmark_team, team_gains[1])
        for k in (0, 5_000, 10_000):
            s_team = [team_sol.S[0, k], team_sol.S[1, k]]
            acl_team = closed_loop_A(benchmark_team.reduced, s_team)
            acl_players = np.array(benchmark_game.A)
            acl_players -= benchmark_game.B[0] @ team_gains[0].K[k]
            for j, p in enumerate(players):
                acl_players -= benchmark_game.B[j + 1] @ p.K[k]
            assert np.max(np.abs(acl_team - acl_players)) <= 1e-12


class TestTeamDynamicsConsistency:
    def test_reduced_equations_residual_second_order(self):
        # Smooth scalar instance: the midpoint finite-difference residual of
        # the two reduced equations must shrink at second order in dt.
        game = scalar_game(
            0.2, [1.0, 1.0, 1.0], [-1.0, 1.5, 1.5], [1.0, 0.8, 1.2], [-1.0, 1.0, 2.0], tf=1.0
        )
        team = build_team_game(game, TeamWeights(alpha=(0.5, 0.5)))

        def max_residual(dt):
            grid = TimeGrid.from_step(0.0, 1.0, dt)
            sol = solve_coupled(team.reduced, grid)
            assert sol.complete
            worst = 0.0
            for k in range(1, grid.steps + 1):
                mid = [(sol.S[i, k - 1] + sol.S[i, k]) / 2.0 for i in range(2)]
                rhs = riccati_rhs(team.reduced, mid)
                for i in range(2):
                    lhs = (sol.S[i, k - 1] - sol.S[i, k]) / (-grid.dt)
                    worst = max(worst, float(np.max(np.abs(lhs - rhs[i]))))
            return worst

        coarse = max_residual(0.01)
        fine = max_residual(0.005)
        assert coarse / fine == pytest.approx(4.0, rel=0.15)

    def test_team_cost_is_weighted_player_sum(
        self, benchmark_game, benchmark_team, benchmark_params, team_gains, team_traj
    ):
        players = team_gains_to_players(benchmark_team, team_gains[1])
        full = simulate(benchmark_game, [team_gains[0], *players], np.array(benchmark_params.x0))
        assert np.max(np.abs(full.x - team_traj.x)) == 0.0
        j_team = team_traj.costs[1]
        weighted = sum(
            benchmark_team.weights.alpha[i] * full.costs[i + 1] for i in range(3)
        )
        assert abs(j_team - weighted) <= 1e-9 * (1.0 + abs(j_team))
