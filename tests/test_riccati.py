"""Backward solver contract: RHS algebra, integration, gains, interpolation."""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from aaolq import (
    FeedbackGain,
    SolveStatus,
    TimeGrid,
    gains,
    riccati_rhs,
    solve_coupled,
)
from aaolq.errors import IncompleteSolutionError, ValidationError
from aaolq.linalg import sym_extrema_stack
from aaolq.riccati import gain_series
from helpers import scalar_game, scalar_lqr, single_player_matrix_game


class TestTimeGrid:
    def test_from_step_even_count(self):
        grid = TimeGrid.from_step(0.0, 10.0, 1e-3)
        assert grid.steps == 10_000
        assert grid.dt == pytest.approx(1e-3)

    def test_from_step_rounds_to_even(self):
        assert TimeGrid.from_step(0.0, 1.0, 0.3).steps == 4
        assert TimeGrid.from_step(0.0, 1.0, 0.9).steps == 2

    def test_zero_horizon_single_point(self):
        grid = TimeGrid.from_step(2.0, 2.0, 1e-3)
        assert grid.steps == 0
        assert grid.dt == 0.0
        assert np.array_equal(grid.times(), np.array([2.0]))

    def test_invalid_grids_rejected(self):
        with pytest.raises(ValidationError):
            TimeGrid(0.0, -1.0, 10)
        with pytest.raises(ValidationError):
            TimeGrid(0.0, 1.0, 0)
        with pytest.raises(ValidationError):
            TimeGrid(1.0, 1.0, 5)
        with pytest.raises(ValidationError):
            TimeGrid.from_step(0.0, 1.0, -0.1)


class TestRhs:
    def test_single_player_scalar(self):
        game = scalar_lqr()
        out = riccati_rhs(game, [np.zeros((1, 1))])
        assert out[0][0, 0] == pytest.approx(-1.0, abs=1e-15)
        # ds/dt = -q + h s^2 once the self term in the coupling sum is folded in
        out = riccati_rhs(game, [np.array([[2.0]])])
        assert out[0][0, 0] == pytest.approx(-1.0 + 4.0, abs=1e-12)

    def test_zero_solution_gives_minus_q(self, benchmark_game):
        zeros = [np.zeros((6, 6))] * 4
        out = riccati_rhs(benchmark_game, zeros)
        for i in range(4):
            assert np.array_equal(out[i], -benchmark_game.Q[i])

    def test_two_player_scalar_cross_terms(self):
        game = scalar_game(0.0, [1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0])
        out = riccati_rhs(game, [np.array([[1.0]]), np.array([[1.0]])])
        assert out[0][0, 0] == pytest.approx(3.0, abs=1e-12)
        assert out[1][0, 0] == pytest.approx(3.0, abs=1e-12)

    def test_output_symmetric(self, benchmark_game, benchmark_sol):
        mid = benchmark_sol.S[:, benchmark_sol.grid.steps // 2]
        out = riccati_rhs(benchmark_game, list(mid))
        for d in out:
            assert np.array_equal(d, d.T)


class TestSolveCoupled:
    def test_zero_horizon_returns_terminal_data(self):
        game = scalar_game(0.0, [1.0], [1.0], [1.0], [0.75], t0=2.0, tf=2.0)
        sol = solve_coupled(game, TimeGrid(2.0, 2.0, 0))
        assert sol.complete
        assert sol.S.shape == (1, 1, 1, 1)
        assert sol.S[0, 0, 0, 0] == 0.75

    def test_scalar_lqr_matches_tanh(self):
        game = scalar_lqr()
        sol = solve_coupled(game, TimeGrid.from_step(0.0, 1.0, 1e-3))
        assert sol.complete
        assert sol.S[0, 0, 0, 0] == pytest.approx(math.tanh(1.0), abs=1e-6)

    def test_benchmark_completes_with_negative_opponent(self, benchmark_sol):
        assert benchmark_sol.status is SolveStatus.COMPLETE
        _, hi = sym_extrema_stack(benchmark_sol.S[0])
        assert float(hi.max()) < 0.0

    def test_benchmark_initial_slice_frozen_values(self, benchmark_sol):
        # Regression oracle: eigenvalue extrema of each S_i(t0), frozen from
        # a converged reference run of the same configuration.
        lo, hi = sym_extrema_stack(benchmark_sol.S[:, 0])
        expected = [
            (-2.738678, -1.094349),
            (0.224000, 492.043439),
            (0.224000, 492.043439),
            (2.370903, 494.924780),
        ]
        for i, (emin, emax) in enumerate(expected):
            assert float(lo[i]) == pytest.approx(emin, abs=5e-6)
            assert float(hi[i]) == pytest.approx(emax, abs=5e-6)

    def test_terminal_slice_bitwise(self, benchmark_game, benchmark_sol):
        for i in range(4):
            assert np.array_equal(benchmark_sol.S[i, -1], benchmark_game.S_f[i])

    def test_symmetry_residual_zero_by_construction(self, benchmark_sol):
        assert benchmark_sol.max_symmetry_residual == 0.0
        probe = benchmark_sol.S[:, 1234]
        assert np.array_equal(probe, np.swapaxes(probe, -1, -2))

    def test_grid_must_match_game_horizon(self, benchmark_game):
        with pytest.raises(ValidationError):
            solve_coupled(benchmark_game, TimeGrid.from_step(0.0, 5.0, 1e-3))

    def test_finite_escape_reported_not_raised(self):
        # The opponent's unopposed de-regulation drives a finite-time escape;
        # the status carries the first unreachable output time.
        game = scalar_game(0.0, [1.0, 1.0], [-100.0, 0.0], [1.0, 1e6], [-1.0, 0.0])
        sol = solve_coupled(game, TimeGrid.from_step(0.0, 1.0, 1e-3))
        assert sol.status is SolveStatus.BLOW_UP
        assert not sol.complete
        assert sol.failure_time is not None and 0.0 < sol.failure_time < 1.0
        assert sol.failure_reason

    def test_single_player_matches_independent_integrator(self):
        game = single_player_matrix_game()
        grid = TimeGrid.from_step(game.t0, game.tf, 1e-3)
        sol = solve_coupled(game, grid)
        assert sol.complete

        a, q, sf = game.A, game.Q[0], game.S_f[0]
        b, r = game.B[0], game.R[0]
        h = b @ np.linalg.solve(r, b.T)

        def rhs(_t, y):
            s = y.reshape(2, 2)
            ds = -(s @ a + a.T @ s + q - s @ h @ s)
            return ds.reshape(-1)

        ref = solve_ivp(
            rhs,
            (game.tf, game.t0),
            sf.reshape(-1),
            method="DOP853",
            rtol=1e-12,
            atol=1e-13,
        )
        s_ref = ref.y[:, -1].reshape(2, 2)
        rel = np.max(np.abs(sol.S[0, 0] - s_ref)) / (1.0 + np.max(np.abs(s_ref)))
        assert rel <= 1e-8

    def test_fourth_order_error_decay(self):
        game = scalar_lqr()

        def endpoint(steps):
            sol = solve_coupled(game, TimeGrid(0.0, 1.0, steps))
            return float(sol.S[0, 0, 0, 0])

        ref = endpoint(400)
        e_coarse = abs(endpoint(50) - ref)
        e_fine = abs(endpoint(100) - ref)
        ratio = e_coarse / e_fine
        assert 12.0 <= ratio <= 20.0

    def test_time_invariance_of_constant_games(self, benchmark_params):
        from aaolq import build_pursuit_example
        import dataclasses

        short = build_pursuit_example(dataclasses.replace(benchmark_params, tf=1.0))
        double = build_pursuit_example(dataclasses.replace(benchmark_params, tf=2.0))
        sol_short = solve_coupled(short, TimeGrid.from_step(0.0, 1.0, 1e-3))
        sol_double = solve_coupled(double, TimeGrid.from_step(0.0, 2.0, 1e-3))
        assert sol_short.complete and sol_double.complete
        # Same time-to-go: node k of the short solve pairs with node
        # k + steps_double - steps_short of the long one.
        offset = sol_double.grid.steps - sol_short.grid.steps
        scale = 1.0 + float(np.max(np.abs(sol_short.S)))
        diff = np.max(np.abs(sol_short.S - sol_double.S[:, offset:]))
        assert diff / scale <= 1e-8


class TestGains:
    def test_scalar_arithmetic(self):
        game = scalar_game(0.0, [1.0], [1.0], [2.0], [4.0], t0=0.0, tf=0.0)
        sol = solve_coupled(game, TimeGrid(0.0, 0.0, 0))
        k = gains(game, sol)[0]
        assert k.K[0][0, 0] == pytest.approx(2.0, abs=1e-15)

    def test_zero_solution_zero_gain(self):
        game = scalar_game(0.0, [1.0], [1.0], [1.0], [0.0], t0=0.0, tf=0.0)
        sol = solve_coupled(game, TimeGrid(0.0, 0.0, 0))
        assert np.array_equal(gains(game, sol)[0].K[0], np.zeros((1, 1)))

    def test_scalar_lqr_initial_gain(self):
        game = scalar_lqr()
        sol = solve_coupled(game, TimeGrid.from_step(0.0, 1.0, 1e-3))
        k = gains(game, sol)[0]
        assert k.K[0][0, 0] == pytest.approx(math.tanh(1.0), abs=1e-6)

    def test_incomplete_solution_rejected(self):
        game = scalar_game(0.0, [1.0, 1.0], [-100.0, 0.0], [1.0, 1e6], [-1.0, 0.0])
        sol = solve_coupled(game, TimeGrid.from_step(0.0, 1.0, 1e-3))
        with pytest.raises(IncompleteSolutionError):
            gains(game, sol)

    def test_gain_recomputation_identity(self, benchmark_game, benchmark_gains, benchmark_sol):
        rinv = [np.linalg.inv(r) for r in benchmark_game.R]
        for i in (0, 3):
            for k in (0, 5_000, 10_000):
                expected = rinv[i] @ benchmark_game.B[i].T @ benchmark_sol.S[i, k]
                assert np.max(np.abs(benchmark_gains[i].K[k] - expected)) <= 1e-12


class TestGainAt:
    """Linear interpolation of a gain between grid points, through ``gain_series``."""

    def _toy_gain(self):
        grid = TimeGrid(0.0, 1.0, 2)
        k = np.array([[[0.0]], [[2.0]], [[6.0]]])
        return FeedbackGain(player=0, grid=grid, K=k)

    def test_exact_at_grid_points(self):
        g = self._toy_gain()
        assert list(gain_series(g, [0.5, 0.0])[:, 0, 0]) == [2.0, 0.0]

    def test_linear_midpoint(self):
        g = self._toy_gain()
        assert gain_series(g, [0.25])[0, 0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_terminal_value_is_terminal_gain(self, benchmark_game, benchmark_gains):
        k_tf = gain_series(benchmark_gains[0], [10.0])[0]
        expected = (
            np.linalg.inv(benchmark_game.R[0]) @ benchmark_game.B[0].T @ benchmark_game.S_f[0]
        )
        assert np.max(np.abs(k_tf - expected)) <= 1e-12

    def test_outside_horizon_rejected(self):
        g = self._toy_gain()
        with pytest.raises(ValidationError):
            gain_series(g, [-0.1])
        with pytest.raises(ValidationError):
            gain_series(g, [0.5, 1.1])
