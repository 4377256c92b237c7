"""Game model contract: validation, coupling matrices, the pursuit builder."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aaolq import (
    GameDefinition,
    PursuitParams,
    build_pursuit_example,
    validate,
)
from aaolq.errors import ValidationError
from aaolq.game import absolute_starts
from helpers import closed_loop_A, scalar_game


class TestValidate:
    def test_benchmark_is_compliant(self, benchmark_game):
        report = validate(benchmark_game)
        assert report.aao_compliant is True
        assert all(v.ok for v in report.verdicts)

    def test_sign_flipped_opponent_weight_fails(self, benchmark_game):
        broken = dataclasses.replace(
            benchmark_game,
            Q=(6.0 * np.eye(6),) + benchmark_game.Q[1:],
        )
        report = validate(broken)
        assert report.aao_compliant is False
        bad = [v for v in report.verdicts if v.name == "Q[1]"]
        assert bad and not bad[0].ok

    def test_zero_control_weight_rejected_at_construction(self, benchmark_game):
        with pytest.raises(ValidationError, match="R\\[2\\]"):
            dataclasses.replace(
                benchmark_game,
                R=(benchmark_game.R[0], np.zeros((2, 2))) + benchmark_game.R[2:],
            )

    def test_single_player_not_compliant(self):
        report = validate(scalar_game(0.0, [1.0], [1.0], [1.0], [0.0]))
        assert report.aao_compliant is False
        assert report.notes

    def test_dimension_mismatch_names_matrix(self):
        with pytest.raises(ValidationError, match="Q\\[1\\]"):
            GameDefinition(
                A=np.eye(2),
                B=(np.eye(2),),
                Q=(np.eye(3),),
                R=(np.eye(2),),
                S_f=(np.eye(2),),
            )

    def test_verdicts_carry_eigenvalue_witnesses(self, benchmark_game):
        report = validate(benchmark_game)
        sf1 = [v for v in report.verdicts if v.name == "S_f[1]"][0]
        assert sf1.eig_min == pytest.approx(-18.0)
        assert sf1.eig_max == pytest.approx(-18.0)


class TestControlCoupling:
    def test_identity_case(self):
        game = GameDefinition(
            A=np.zeros((2, 2)),
            B=(np.eye(2),),
            Q=(np.eye(2),),
            R=(np.eye(2),),
            S_f=(np.eye(2),),
        )
        assert np.allclose(game.H[0], np.eye(2), atol=1e-15)

    def test_benchmark_evader_all_ones_blocks(self, benchmark_game):
        h1 = benchmark_game.H[0]
        expected = np.kron(np.ones((3, 3)), np.eye(2))
        assert np.max(np.abs(h1 - expected)) < 1e-12

    def test_benchmark_pursuer_single_block(self, benchmark_game):
        h2 = benchmark_game.H[1]
        e1 = np.zeros((3, 3))
        e1[0, 0] = 1.0
        expected = np.kron(e1, np.eye(2)) / 150.0
        assert np.max(np.abs(h2 - expected)) < 1e-15

    def test_singular_weight_raises(self):
        with pytest.raises(ValidationError, match="R\\[1\\]: not safely invertible"):
            GameDefinition(
                A=np.zeros((2, 2)),
                B=(np.eye(2),),
                Q=(np.eye(2),),
                R=(np.diag([2e4, 1e-8]),),
                S_f=(np.eye(2),),
            )

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_output_psd_for_random_games(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        b = rng.standard_normal((n, m))
        r = rng.standard_normal((m, m))
        r = r @ r.T + np.eye(m)
        game = GameDefinition(
            A=np.zeros((n, n)),
            B=(b,),
            Q=(np.eye(n),),
            R=(r,),
            S_f=(np.eye(n),),
        )
        assert float(np.linalg.eigvalsh(game.H[0])[0]) >= -1e-9


class TestClosedLoopA:
    def test_zero_feedback_returns_drift(self, benchmark_game):
        zeros = [np.zeros((6, 6))] * 4
        assert np.array_equal(closed_loop_A(benchmark_game, zeros), benchmark_game.A)

    def test_scalar_two_player_case(self):
        game = scalar_game(0.0, [1.0, 1.0], [-1.0, 1.0], [1.0, 1.0], [-1.0, 1.0])
        acl = closed_loop_A(game, [np.array([[-1.0]]), np.array([[2.0]])])
        assert acl[0, 0] == pytest.approx(-1.0, abs=1e-15)

    def test_scalar_single_player_case(self):
        game = scalar_game(0.7, [2.0], [1.0], [2.0], [0.0])
        # h = b^2 / r = 2, s = 3 -> a - h s = 0.7 - 6
        acl = closed_loop_A(game, [np.array([[3.0]])])
        assert acl[0, 0] == pytest.approx(0.7 - 6.0, abs=1e-12)

    def test_linearity_in_each_player(self):
        # Integer data keeps the identity exact in floating point.
        game = GameDefinition(
            A=np.array([[1.0, 2.0], [0.0, 1.0]]),
            B=(np.array([[1.0], [2.0]]), np.array([[0.0], [1.0]])),
            Q=(-np.eye(2), np.eye(2)),
            R=(np.array([[1.0]]), np.array([[0.25]])),
            S_f=(-np.eye(2), np.eye(2)),
        )
        s1 = np.array([[2.0, 1.0], [1.0, 4.0]])
        s2 = np.array([[1.0, 0.0], [0.0, 2.0]])
        d = np.array([[3.0, -1.0], [-1.0, 2.0]])
        for j, base in ((0, [s1, s2]), (1, [s1, s2])):
            bumped = list(base)
            bumped[j] = base[j] + d
            delta = closed_loop_A(game, bumped) - closed_loop_A(game, base)
            expected = -game.H[j] @ d
            assert np.array_equal(delta, expected)

    def test_wrong_count_rejected(self, benchmark_game):
        with pytest.raises(ValidationError):
            closed_loop_A(benchmark_game, [np.zeros((6, 6))] * 3)


class TestBuildPursuitExample:
    def test_default_weight_matrices(self, benchmark_game):
        game = benchmark_game
        assert np.array_equal(game.S_f[0], -18.0 * np.eye(6))
        assert np.array_equal(game.Q[0], -6.0 * np.eye(6))
        assert np.array_equal(game.R[0], np.eye(2))
        assert np.array_equal(game.S_f[1], np.eye(6))
        assert np.array_equal(game.S_f[2], np.eye(6))
        assert np.array_equal(game.S_f[3], 16.25 * np.eye(6))
        assert np.array_equal(game.Q[3], 5.25 * np.eye(6))
        for i in (1, 2, 3):
            assert np.array_equal(game.R[i], 150.0 * np.eye(2))
        assert game.tf == 10.0

    def test_default_initial_state(self, benchmark_params):
        assert benchmark_params.x0 == (2.0, 13.0, 7.0, 9.0, -10.0, 14.0)

    def test_input_matrices(self, benchmark_game):
        assert np.array_equal(benchmark_game.B[0], np.kron(np.ones((3, 1)), np.eye(2)))
        for j in range(3):
            e = np.zeros((3, 1))
            e[j, 0] = 1.0
            assert np.array_equal(benchmark_game.B[j + 1], np.kron(-e, np.eye(2)))

    def test_single_pursuer_unit_scales(self):
        params = PursuitParams(
            num_pursuers=1,
            evader_terminal_weight=-1.0,
            evader_state_weight=-1.0,
            evader_control_weight=1.0,
            pursuer_terminal_weights=(1.0,),
            pursuer_state_weights=(1.0,),
            pursuer_control_weights=(1.0,),
            x0=(1.0, 0.0),
        )
        game = build_pursuit_example(params)
        assert game.n == 2 and game.num_players == 2
        assert np.array_equal(game.B[0], np.eye(2))
        assert np.array_equal(game.B[1], -np.eye(2))

    def test_defaults_pass_validation(self, benchmark_game):
        assert validate(benchmark_game).aao_compliant is True

    def test_bad_params_rejected(self):
        for radius in (0.0, float("nan")):
            with pytest.raises(ValidationError, match="^capture_radius must be positive$"):
                PursuitParams(capture_radius=radius)
        with pytest.raises(ValidationError):
            PursuitParams(x0=(1.0, 2.0))
        with pytest.raises(ValidationError):
            PursuitParams(pursuer_state_weights=(0.5, 0.5))

    def test_absolute_starts_convention(self, benchmark_params):
        evader, pursuers = absolute_starts(benchmark_params)
        assert np.array_equal(evader, np.zeros(2))
        assert np.array_equal(pursuers[0], np.array([-2.0, -13.0]))
        assert np.array_equal(pursuers[2], np.array([10.0, -14.0]))


class TestGameDefinition:
    def test_horizon_order_enforced(self):
        with pytest.raises(ValidationError):
            scalar_game(0.0, [1.0], [1.0], [1.0], [0.0], t0=1.0, tf=0.0)

    def test_zero_length_horizon_allowed(self):
        game = scalar_game(0.0, [1.0], [1.0], [1.0], [0.0], t0=1.0, tf=1.0)
        assert game.t0 == game.tf == 1.0

    def test_matrices_frozen(self, benchmark_game):
        with pytest.raises(ValueError):
            benchmark_game.A[0, 0] = 1.0

    def test_equality_by_value(self, benchmark_params, benchmark_game):
        again = build_pursuit_example(benchmark_params)
        assert again is not benchmark_game
        assert again == benchmark_game and not again != benchmark_game
        doubled = (2.0 * again.Q[0],) + again.Q[1:]
        assert dataclasses.replace(again, Q=doubled) != benchmark_game
        assert dataclasses.replace(again, tf=11.0) != benchmark_game
        one = scalar_game(0.0, [1.0], [1.0], [1.0], [0.0])
        two = scalar_game(0.0, [1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [0.0, 0.0])
        assert one == scalar_game(0.0, [1.0], [1.0], [1.0], [0.0]) and one != two
        assert one != benchmark_game
        assert benchmark_game != "game"
        with pytest.raises(TypeError, match="unhashable type"):
            hash(benchmark_game)

    def test_properties(self, benchmark_game):
        assert benchmark_game.n == 6
        assert benchmark_game.num_players == 4
        assert tuple(b.shape[1] for b in benchmark_game.B) == (2, 2, 2, 2)
