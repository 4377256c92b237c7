"""Backward solver contract: RHS algebra, integration, gains, interpolation."""
from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from aaolq import (
    FeedbackGain,
    GameDefinition,
    SolveStats,
    SolveStatus,
    TimeGrid,
    build_team_game,
    gains,
    load_scenario,
    parse_scenario,
    solve_coupled,
)
from aaolq import riccati
from aaolq.errors import IncompleteSolutionError, ValidationError
from aaolq.linalg import sym_eigenvalues
from aaolq.riccati import MAX_STEPS, MAX_SUBSTEPS, _Stages, march_lockstep
from helpers import (
    ESCAPE_GAME,
    assert_same_solve,
    gain_series,
    march_solutions,
    random_diagonal_game,
    reference_solve_coupled,
    reference_step,
    riccati_rhs,
    rotated_game,
    scalar_game,
    scalar_lqr,
    single_player_matrix_game,
)

COARSE = Path(__file__).resolve().parent.parent / "scenarios" / "pursuit_coarse.json"
BENCHMARK = COARSE.with_name("pursuit_benchmark.json")


def _random_game(rng, m, n, tf=1.0):
    """An M-player game with n states and dense random data, no AAO sign pattern."""
    def sym(scale):
        x = rng.standard_normal((n, n))
        return scale * (x + x.T) / 2.0

    dims = rng.integers(1, n + 1, m)
    return GameDefinition(
        A=rng.standard_normal((n, n)),
        B=tuple(0.5 * rng.standard_normal((n, d)) for d in dims),
        Q=tuple(sym(0.5) for _ in range(m)),
        R=tuple(np.diag(rng.uniform(0.5, 2.0, d)) for d in dims),
        S_f=tuple(sym(0.5) for _ in range(m)),
        t0=0.0,
        tf=tf,
    )


def _semidefinite_game(rng, m, n):
    """Dense random data with positive semidefinite weights and a mild drift.

    These games solve without a boundary layer, so rounding differences
    between two evaluation orders stay at the level of a few ulps.
    """
    def psd(scale):
        x = rng.standard_normal((n, n))
        return scale * (x @ x.T) / n

    dims = rng.integers(1, n + 1, m)
    return GameDefinition(
        A=0.5 * rng.standard_normal((n, n)),
        B=tuple(0.5 * rng.standard_normal((n, d)) for d in dims),
        Q=tuple(psd(0.5) for _ in range(m)),
        R=tuple(np.diag(rng.uniform(0.5, 2.0, d)) for d in dims),
        S_f=tuple(psd(0.5) for _ in range(m)),
        t0=0.0,
        tf=1.0,
    )


def _oracle_game(name):
    """(game, grid) for the comparison with ``reference_solve_coupled``."""
    rng = np.random.default_rng(19)
    if name.startswith("coarse"):
        scenario = load_scenario(COARSE)
        game = scenario.build_game()
        if name == "coarse_team":
            game = build_team_game(game).reduced
        return game, TimeGrid.from_step(game.t0, game.tf, scenario.run.dt)
    if name == "one_player":
        game = single_player_matrix_game()
    elif name == "odd_n":
        game = _random_game(rng, 3, 5)
    elif name == "rotated_explicit":
        game = rotated_game(random_diagonal_game(rng), rng)
    elif name == "escape_explicit":
        game = parse_scenario(json.dumps(ESCAPE_GAME)).build_game()
    else:  # escape_scalar, the game of test_finite_escape_reported_not_raised
        game = scalar_game(0.0, [1.0, 1.0], [-100.0, 0.0], [1.0, 1e6], [-1.0, 0.0])
    return game, TimeGrid.from_step(game.t0, game.tf, 1e-3)


def _nan_game(bad_first):
    """(game, grid) whose first substep leaves NaN in one player only.

    The "bad" player has no control (H = 0), so it leaves G = 0, and its
    S = s I meets the antisymmetric A in N + N' = -s (A + A'), which is
    exactly 0 until s a overflows. A is sized so that this happens only at
    the last RK4 stage of the first substep, the one stage no later stage
    reads: only the bad player's new iterate holds NaN, the other player
    stays exactly zero, and the NaN norm must stop the solve whichever
    player holds it.
    """
    s, q = 1e12, 1e12
    h = 0.5 / MAX_SUBSTEPS  # the norm of A overflows, so h is the floor
    big = np.finfo(float).max / (s + 0.75 * h * q)
    good = (np.array([[1.0], [0.0]]), np.zeros((2, 2)), np.zeros((2, 2)))
    bad = (np.zeros((2, 1)), q * np.eye(2), s * np.eye(2))
    players = (bad, good) if bad_first else (good, bad)
    game = GameDefinition(
        A=np.array([[0.0, big], [-big, 0.0]]),
        B=tuple(b for b, _, _ in players),
        Q=tuple(qi for _, qi, _ in players),
        R=(np.eye(1),) * 2,
        S_f=tuple(sf for _, _, sf in players),
        t0=0.0,
        tf=1.0,
    )
    return game, TimeGrid(0.0, 1.0, 2)


def _node_deviation(S, ref) -> float:
    """Largest per-node max|S - ref| relative to max|ref| at that node."""
    diff = np.abs(S - ref).max(axis=(0, 2, 3))
    scale = np.abs(ref).max(axis=(0, 2, 3))
    return float(np.max(diff / scale))


class TestTimeGrid:
    def test_from_step_even_count(self):
        grid = TimeGrid.from_step(0.0, 10.0, 1e-3)
        assert grid.steps == 10_000
        assert grid.dt == pytest.approx(1e-3)

    def test_from_step_rounds_to_even(self):
        assert TimeGrid.from_step(0.0, 1.0, 0.3).steps == 4
        assert TimeGrid.from_step(0.0, 1.0, 0.9).steps == 2

    def test_from_step_refuses_grids_past_the_step_cap(self):
        assert TimeGrid.from_step(0.0, 1000.0, 1e-3).steps == MAX_STEPS
        with pytest.raises(ValidationError) as err:
            TimeGrid.from_step(0.0, 10.0, 1e-9)
        assert str(err.value) == (
            "dt=1e-09 asks for 1e+10 steps over the span 10.0; at most 1,000,000 are allowed"
        )

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

    @pytest.mark.parametrize(
        "t0, tf, message",
        [
            (0.0, math.inf, "grid endpoints must be finite"),
            (0.0, math.nan, "grid endpoints must be finite"),
            (-math.inf, 1.0, "grid endpoints must be finite"),
            (0.0, -1.0, r"need tf >= t0, got t0=0.0, tf=-1.0"),
        ],
    )
    def test_from_step_endpoints_checked_by_the_grid(self, t0, tf, message):
        # Non-finite endpoints raise the grid's own error, not an
        # OverflowError or ValueError from rounding the step count.
        with pytest.raises(ValidationError, match=f"^{message}$"):
            TimeGrid.from_step(t0, tf, 1e-3)

    def test_from_step_rejects_a_step_too_small_for_the_span(self):
        # span / dt overflows: a ValidationError, not an OverflowError from
        # rounding an infinite step count.
        with pytest.raises(ValidationError, match="span / dt is not finite$"):
            TimeGrid.from_step(0.0, 1.5, 1e-320)


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

    @pytest.mark.parametrize("m", range(1, 6))
    def test_matches_literal_formula(self, m):
        # dS_i/dt = -(S_i A + A' S_i + Q_i + S_i H_i S_i
        #             - sum_j (S_i H_j S_j + S_j H_j S_i)), one player at a time.
        rng = np.random.default_rng(m)
        for n in range(1, 8):
            game = _random_game(rng, m, n)
            S = [game.S_f[i] + game.Q[i] for i in range(m)]
            h = [b @ np.linalg.inv(r) @ b.T for b, r in zip(game.B, game.R)]
            out = riccati_rhs(game, S)
            for i in range(m):
                coupling = sum(S[i] @ h[j] @ S[j] + S[j] @ h[j] @ S[i] for j in range(m))
                expected = -(
                    S[i] @ game.A + game.A.T @ S[i] + game.Q[i] + S[i] @ h[i] @ S[i] - coupling
                )
                assert np.array_equal(out[i], out[i].T)
                scale = float(np.abs(expected).max())
                assert float(np.abs(out[i] - expected).max()) <= 1e-13 * scale, (n, i)

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
        assert sol.stats == SolveStats(0, 0, 0.0, 0.5625, 2.0)

    @pytest.mark.parametrize("name", ["coarse_team", "one_player", "odd_n", "rotated_explicit"])
    def test_matches_staged_reference(self, name):
        game, grid = _oracle_game(name)
        sol = solve_coupled(game, grid)
        ref, status, _, drift = reference_solve_coupled(game, grid)
        assert status is SolveStatus.COMPLETE and sol.complete
        assert drift == 0.0 and sol.max_symmetry_residual == 0.0
        assert _node_deviation(sol.S, ref) <= 1e-12

    @pytest.mark.parametrize("m", range(1, 6))
    def test_random_games_match_staged_reference(self, m):
        rng = np.random.default_rng(100 + m)
        for n in range(1, 9):
            game = _semidefinite_game(rng, m, n)
            grid = TimeGrid.from_step(game.t0, game.tf, 1e-2)
            sol = solve_coupled(game, grid)
            ref, status, _, _ = reference_solve_coupled(game, grid)
            assert status is SolveStatus.COMPLETE and sol.complete, n
            assert sol.max_symmetry_residual == 0.0, n
            assert _node_deviation(sol.S, ref) <= 1e-12, n

    @pytest.mark.parametrize("name", ["benchmark_nash", "coarse_nash"])
    def test_boundary_layer_matches_staged_reference(self, name, request):
        # Both nash pursuit games cross the near-escape spike at time-to-go
        # 0.028, which amplifies rounding differences to about 1e-8
        # relative in the nodes further back.
        if name == "benchmark_nash":
            game = request.getfixturevalue("benchmark_game")
            grid = request.getfixturevalue("benchmark_grid")
            sol = request.getfixturevalue("benchmark_sol")
        else:
            game, grid = _oracle_game(name)
            sol = solve_coupled(game, grid)
        ref, status, _, _ = reference_solve_coupled(game, grid)
        assert status is SolveStatus.COMPLETE and sol.complete
        assert _node_deviation(sol.S, ref) <= 1e-7

    @pytest.mark.parametrize("name", ["escape_explicit", "escape_scalar"])
    def test_escape_matches_staged_reference(self, name):
        game, grid = _oracle_game(name)
        sol = solve_coupled(game, grid)
        _, status, failure_time, _ = reference_solve_coupled(game, grid)
        assert sol.status is status is SolveStatus.BLOW_UP
        assert sol.failure_time == failure_time

    @pytest.mark.parametrize("bad_first", [True, False])
    def test_nan_in_one_player_stops_the_solve(self, bad_first):
        game, grid = _nan_game(bad_first)
        with np.errstate(over="ignore"):
            sol = solve_coupled(game, grid)
            _, status, failure_time, _ = reference_solve_coupled(game, grid)
        assert sol.status is status is SolveStatus.BLOW_UP
        assert sol.failure_time == failure_time == 0.5
        assert sol.failure_reason == "non-finite entries during backward integration"
        assert sol.stats.substeps == 0

    @pytest.mark.parametrize("name", ["escape", "nan"])
    def test_failed_solve_probes_only_the_stored_nodes(self, name):
        # The unreached nodes hold NaN; the asymmetry probe must not read them.
        game, grid = _oracle_game("escape_explicit") if name == "escape" else _nan_game(True)
        with np.errstate(over="ignore"):
            sol = solve_coupled(game, grid)
        assert sol.status is SolveStatus.BLOW_UP
        assert np.isnan(sol.S[:, 0]).all()
        assert sol.max_symmetry_residual == 0.0

    def test_benchmark_solve_stats(self, benchmark_sol):
        stats = benchmark_sol.stats
        assert (stats.substeps, stats.subdivided_intervals) == (10_584, 57)
        assert stats.min_substep == pytest.approx(4.808e-7, rel=1e-3)
        # The substep iterates inside the boundary layer peak above every
        # stored node (3.47e18 at time-to-go 0.028).
        nodes = np.einsum("ikrc,ikrc->ik", benchmark_sol.S, benchmark_sol.S)
        assert stats.peak_norm >= float(nodes.max())
        assert stats.peak_norm == pytest.approx(3.064e20, rel=1e-3)
        assert benchmark_sol.grid.tf - stats.peak_time == pytest.approx(0.0278, abs=1e-4)

    def test_scalar_lqr_matches_tanh(self):
        game = scalar_lqr()
        sol = solve_coupled(game, TimeGrid.from_step(0.0, 1.0, 1e-3))
        assert sol.complete
        assert sol.S[0, 0, 0, 0] == pytest.approx(math.tanh(1.0), abs=1e-6)

    def test_benchmark_completes_with_negative_opponent(self, benchmark_sol):
        assert benchmark_sol.status is SolveStatus.COMPLETE
        assert float(sym_eigenvalues(benchmark_sol.S[0])[:, -1].max()) < 0.0

    def test_benchmark_initial_slice_frozen_values(self, benchmark_sol):
        # Regression oracle: eigenvalue extrema of each S_i(t0), frozen from
        # a converged reference run of the same configuration.
        values = sym_eigenvalues(benchmark_sol.S[:, 0])
        lo, hi = values[:, 0], values[:, -1]
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
        assert sol.failure_reason == "solution norm escaped the existence threshold"

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


class TestSolveLockstep:
    """Each game of a lockstep march gets its own ``solve_coupled`` bitwise."""

    @staticmethod
    def _solve_both_ways(games, grid):
        sols = march_solutions(games, grid)
        assert len(sols) == len(games)
        for game, sol in zip(games, sols):
            assert_same_solve(sol, solve_coupled(game, grid))
        return sols

    @pytest.mark.parametrize("nash_first", [True, False])
    def test_nash_beside_padded_team_game(self, nash_first):
        # Team plays the two-player reduction, padded to nash's four players.
        # Both cross the boundary layer, each with its own substeps.
        scenario = load_scenario(BENCHMARK).with_tf(2.0)
        nash = scenario.build_game()
        team = build_team_game(nash).reduced
        grid = TimeGrid.from_step(nash.t0, nash.tf, scenario.run.dt)
        names = ("nash", "team") if nash_first else ("team", "nash")
        games = {"nash": nash, "team": team}
        sols = dict(zip(names, self._solve_both_ways([games[n] for n in names], grid)))
        assert (sols["nash"].num_players, sols["team"].num_players) == (4, 2)
        assert (sols["nash"].stats.substeps, sols["team"].stats.substeps) == (2_584, 2_094)

    def test_iterations_count_the_lockstep_substeps(self, monkeypatch):
        # Alone, a complete game's iterations are its substeps. Beside its
        # padded team reduction, nash's iterations lie between the larger and
        # the summed substeps, and each is one _Stages.step call.
        scenario = load_scenario(BENCHMARK).with_tf(2.0)
        nash = scenario.build_game()
        team = build_team_game(nash).reduced
        grid = TimeGrid.from_step(nash.t0, nash.tf, scenario.run.dt)
        _, (alone,), iterations = march_lockstep([nash], grid, [{}])
        assert iterations == alone.substeps == 2_584
        steps = 0
        step = _Stages.step

        def counting_step(self, *args):
            nonlocal steps
            steps += 1
            return step(self, *args)

        monkeypatch.setattr(_Stages, "step", counting_step)
        failed, stats, iterations = march_lockstep([nash, team], grid, [{}, {}])
        assert not failed and [s.substeps for s in stats] == [2_584, 2_094]
        assert 2_584 <= iterations <= 2_584 + 2_094
        assert iterations == steps

    @pytest.mark.parametrize("escape_first", [True, False])
    def test_escape_beside_bounded_game(self, escape_first):
        # The bounded game is one player, padded to two, and runs on alone
        # after the other escapes at t = 0.852.
        escape, grid = _oracle_game("escape_explicit")
        bounded = single_player_matrix_game()
        games = [escape, bounded] if escape_first else [bounded, escape]
        sols = self._solve_both_ways(games, grid)
        escaped, finished = sols if escape_first else sols[::-1]
        assert escaped.status is SolveStatus.BLOW_UP and escaped.failure_time == 0.852
        assert finished.complete and np.isfinite(finished.S).all()

    @pytest.mark.parametrize("bad_first", [True, False])
    def test_nan_stays_in_its_own_game(self, bad_first):
        game, grid = _nan_game(bad_first)
        with np.errstate(over="ignore"):
            nan_sol, bounded_sol = self._solve_both_ways([game, single_player_matrix_game()], grid)
        assert nan_sol.failure_reason == "non-finite entries during backward integration"
        assert nan_sol.failure_time == 0.5
        assert bounded_sol.complete and np.isfinite(bounded_sol.S).all()

    def test_games_must_share_the_grid_and_state_dimension(self):
        game = single_player_matrix_game()
        grid = TimeGrid.from_step(0.0, 1.0, 1e-2)
        with pytest.raises(ValidationError, match="at least one game"):
            march_lockstep([], grid, [])
        with pytest.raises(ValidationError, match="does not match game horizon"):
            march_solutions([game, dataclasses.replace(game, tf=2.0)], grid)
        with pytest.raises(ValidationError, match="one state dimension"):
            march_solutions([game, scalar_lqr()], grid)


class TestSubstepBitGuard:
    """``_Stages.step`` writes the bytes of ``helpers.reference_step``, the
    same body with every output passed as a keyword."""

    @staticmethod
    def _coarse_games():
        """The coarse pursuit game in nash mode and its team reduction."""
        nash = load_scenario(COARSE).build_game()
        return nash, build_team_game(nash).reduced, TimeGrid.from_step(nash.t0, nash.tf, 0.01)

    @staticmethod
    def _stacked(sols, k, m):
        """Every game's S at node k in the player-major stack of ``_Stages``."""
        count, n = len(sols), sols[0].S.shape[-1]
        cur = np.zeros((m * count, n, n))
        for g, sol in enumerate(sols):
            for i in range(sol.num_players):
                cur[i * count + g] = sol.S[i, k]
        return cur

    @pytest.mark.parametrize("per_player", [False, True], ids=["scalar_hb", "per_player_hb"])
    @pytest.mark.parametrize("with_team", [False, True], ids=["nash", "nash_beside_team"])
    def test_step_writes_the_reference_bytes(self, per_player, with_team):
        nash, team, grid = self._coarse_games()
        games = [nash, team] if with_team else [nash]
        sols = march_solutions(games, grid)
        stages = _Stages(games)
        m, count = nash.num_players, len(games)
        if per_player:
            # As the solver fills it: each game's substep for all its rows.
            hb = np.empty((m, count, 1, 1))
            hb[:] = np.array([-1e-2, -3.7e-4][:count]).reshape(1, count, 1, 1)
            hb = hb.reshape(m * count, 1, 1)
        else:
            hb = -2.5e-3
        # Time-to-go 0.01 and 0.03, in the boundary layer, and t0.
        for k in (grid.steps - 1, grid.steps - 3, 0):
            cur = self._stacked(sols, k, m)
            got, want = np.empty_like(cur), np.empty_like(cur)
            stages.couple(cur)
            stages.step(cur, hb, got)
            slopes = stages.k_flat.copy()
            stages.couple(cur)
            reference_step(stages, cur, hb, want)
            assert np.isfinite(got).all()
            assert got.tobytes() == want.tobytes()
            assert slopes.tobytes() == stages.k_flat.tobytes()

    def test_lockstep_solve_driven_by_the_reference_step(self, monkeypatch):
        nash, team, grid = self._coarse_games()
        sols = march_solutions([nash, team], grid)
        # Both step paths run: the games subdivide differently.
        assert sols[0].stats.substeps != sols[1].stats.substeps
        monkeypatch.setattr(_Stages, "step", reference_step)
        for sol, ref in zip(sols, march_solutions([nash, team], grid)):
            assert sol.S.tobytes() == ref.S.tobytes()
            assert sol.stats == ref.stats
            assert sol.complete and ref.complete


class TestSubstepBudget:
    """``riccati.SUBSTEP_BUDGET`` stops a game as an escape does."""

    def test_game_past_the_budget_stops_the_other_runs_on(self, monkeypatch):
        # Alone, nash takes 2,584 substeps and team 2,094.
        nash = load_scenario(BENCHMARK).with_tf(2.0).build_game()
        team = build_team_game(nash).reduced
        grid = TimeGrid.from_step(nash.t0, nash.tf, 1e-3)
        full = march_solutions([nash, team], grid)
        monkeypatch.setattr(riccati, "SUBSTEP_BUDGET", 2_300)
        stopped, finished = march_solutions([nash, team], grid)
        assert_same_solve(finished, full[1])
        assert stopped.status is SolveStatus.SUBSTEP_BUDGET
        assert stopped.failure_reason == "substeps passed the budget of 2,300 for one solve"
        k = round((stopped.failure_time - grid.t0) / grid.dt)
        assert stopped.failure_time == grid.times()[k]
        assert np.isnan(stopped.S[:, : k + 1]).all()
        assert stopped.S[:, k + 1 :].tobytes() == full[0].S[:, k + 1 :].tobytes()
        assert 2_300 < stopped.stats.substeps < full[0].stats.substeps
        # It stops where its own solve stops.
        assert_same_solve(stopped, solve_coupled(nash, grid))


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

    def test_another_games_solution_rejected(self):
        sol = solve_coupled(scalar_lqr(), TimeGrid.from_step(0.0, 1.0, 0.1))
        game = scalar_game(0.0, [1.0, 1.0], [-1.0, 2.0], [1.0, 1.0], [-1.0, 2.0])
        with pytest.raises(
            ValidationError, match=r"^solution and game disagree on the player count$"
        ):
            gains(game, sol)

    def test_gain_recomputation_identity(self, benchmark_game, benchmark_gains, benchmark_sol):
        rinv = [np.linalg.inv(r) for r in benchmark_game.R]
        for i in (0, 3):
            for k in (0, 5_000, 10_000):
                expected = rinv[i] @ benchmark_game.B[i].T @ benchmark_sol.S[i, k]
                assert np.max(np.abs(benchmark_gains[i].K[k] - expected)) <= 1e-12


class TestGainAt:
    """Linear interpolation of a gain between grid points, through the test
    oracle ``helpers.gain_series``."""

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
