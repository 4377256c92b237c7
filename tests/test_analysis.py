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
    SolveStats,
    SolveStatus,
    TimeGrid,
    build_pursuit_example,
    build_team_game,
    check_diagonal_subclass,
    gains,
    load_scenario,
    lyapunov_check,
    simulate,
    solve_coupled,
    solve_envelope,
    verify_solution,
)
from aaolq import sim
from aaolq.errors import (
    IncompleteSolutionError,
    NotApplicableError,
    ValidationError,
)
from aaolq.linalg import symmetrize
from aaolq.sim import Trajectory
from helpers import (
    existence_map,
    random_diagonal_game,
    reference_existence_min,
    rotated_game,
    scalar_game,
    scalar_lqr,
    single_player_matrix_game,
    traced_peak,
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
        stats=SolveStats(0, 0, grid.dt, 0.0, grid.tf),
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
            h = game.H[i]
            # all but one product term cancel, leaving Q + W H W
            expected = q + w @ h @ w
            assert np.max(np.abs(res.value - expected)) <= 1e-12

    def test_dimension_mismatch_rejected(self, benchmark_game):
        with pytest.raises(ValidationError):
            existence_map(benchmark_game, None, [np.zeros((6, 6))] * 3)


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
    yield pytest.param(rotated_game(random_diagonal_game(np.random.default_rng(2)), rng), 1e-2, id="rotated_n3")
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

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_step_map_equals_one_step_per_basis_matrix(self, n):
        # The envelope steps the n^2 basis matrices in one stacked call;
        # stepping them one at a time and iterating gives the same bytes.
        rng = np.random.default_rng(n)

        def sym():
            return symmetrize(rng.standard_normal((n, n)))

        game = GameDefinition(
            A=rng.standard_normal((n, n)),
            B=(np.eye(n), np.eye(n)),
            Q=(sym(), sym()),
            R=(np.eye(n), np.eye(n)),
            S_f=(sym(), sym()),
            t0=0.0,
            tf=1.0,
        )
        grid = TimeGrid.from_step(0.0, 1.0, 0.05)
        a, at, h, zero = game.A, game.A.T.copy(), -grid.dt, np.zeros((n, n))

        def step(lmat, const):
            def rhs(x):
                return -(x @ a + at @ x + const)

            k1 = rhs(lmat)
            k2 = rhs(lmat + (0.5 * h) * k1)
            k3 = rhs(lmat + (0.5 * h) * k2)
            k4 = rhs(lmat + h * k3)
            return lmat + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        step_t = np.stack([step(e.reshape(n, n), zero).reshape(-1) for e in np.eye(n * n)])
        offset = step(zero, game.Q[1] - game.Q[0]).reshape(-1)
        nodes = [(game.S_f[1] - game.S_f[0]).reshape(-1)]
        for _ in range(grid.steps):
            nodes.append(nodes[-1] @ step_t + offset)
        reference = symmetrize(np.stack(nodes[::-1]).reshape(-1, n, n))
        assert solve_envelope(game, None, grid).L.tobytes() == reference.tobytes()

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

    @pytest.mark.parametrize("case", ["benchmark", "coarse_team", "single_player"])
    def test_verify_solution_verdict_matches(self, case, request):
        if case == "benchmark":
            game = request.getfixturevalue("benchmark_game")
            sol = request.getfixturevalue("benchmark_sol")
        else:
            if case == "coarse_team":
                coarse = load_scenario(SCENARIO_DIR / "pursuit_coarse.json")
                game, dt = build_team_game(coarse.build_game()).reduced, coarse.run.dt
            else:
                game, dt = single_player_matrix_game(), 1e-2
            sol = solve_coupled(game, TimeGrid.from_step(game.t0, game.tf, dt))
        report = verify_solution(game, sol)
        assert report.diagonal_subclass == check_diagonal_subclass(game)


class TestSumMatrices:
    """Smallest eigenvalues of the summed state and terminal weights."""

    def test_benchmark_sums(self, benchmark_game):
        verdict = check_diagonal_subclass(benchmark_game)
        assert abs(verdict.sum_q_min_eig - 0.25) <= 1e-12
        assert abs(verdict.sum_sf_min_eig - 0.25) <= 1e-12

    def test_team_reduction_sums(self, benchmark_team):
        verdict = check_diagonal_subclass(benchmark_team.reduced)
        assert verdict.sum_q_min_eig == pytest.approx(-3.92, abs=0.005)
        assert verdict.sum_sf_min_eig == pytest.approx(-11.92, abs=0.005)

    def test_zero_weights(self):
        game = scalar_game(0.0, [1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0])
        verdict = check_diagonal_subclass(game)
        assert verdict.sum_q_min_eig == 0.0
        assert verdict.sum_sf_min_eig == 0.0


class TestLyapunovWeight:
    """V = x' P x with P(t_k) = sum_i S_i(t_k), which ``lyapunov_check`` sums per chunk."""

    def test_v_is_the_whole_grid_einsum(self, benchmark_traj, benchmark_sol, benchmark_conditions):
        x = benchmark_traj.x
        v = np.einsum("kn,knm,km->k", x, benchmark_sol.S.sum(axis=0), x)
        report = lyapunov_check(benchmark_traj, benchmark_sol, benchmark_conditions)
        times = benchmark_traj.grid.times()
        decay = np.exp(-report.decay_rate * (times - times[0]))
        assert report.v0 == v[0]
        assert report.max_increase == np.diff(v).max()
        assert report.exp_bound_max_excess == (v / (v[0] * decay)).max() - 1.0

    def test_single_player_weight_is_its_solution(self):
        game = scalar_game(0.0, [1.0], [1.0], [1.0], [1.0])
        sol = solve_coupled(game, TimeGrid.from_step(0.0, 1.0, 1e-3))
        traj = simulate(game, gains(game, sol), [2.0])
        report = lyapunov_check(traj, sol, verify_solution(game, sol))
        assert report.v0 == 4.0 * sol.S[0, 0, 0, 0]

    @pytest.mark.parametrize("solution", ["benchmark_sol", "team_sol"])
    def test_summed_weights_are_bitwise_symmetric(self, solution, request):
        # verify_solution hands each chunk of P to LAPACK with no symmetrizing pass.
        p = request.getfixturevalue(solution).S.sum(axis=0)
        assert p.tobytes() == p.swapaxes(-1, -2).copy().tobytes()


def _bits(value):
    """``value`` with every float as its hex string, so NaN and -0.0 compare by their bits."""
    if dataclasses.is_dataclass(value):
        return tuple(_bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value.hex() if isinstance(value, float) else value


def _certify(game, sol, traj, kwargs):
    """Both certificate reports as bits; the decay one is None where it does not apply."""
    x0_norm = float(np.linalg.norm(traj.x[0]))
    conditions = verify_solution(game, sol, x0_norm=x0_norm, r=0.1, **kwargs)
    decay = lyapunov_check(traj, sol, conditions) if conditions.p_pd else None
    return _bits(conditions), _bits(decay)


def _benchmark_case(get, **kwargs):
    return get("benchmark_game"), get("benchmark_sol"), None, kwargs


def _scenario_case(name):
    scenario = load_scenario(SCENARIO_DIR / f"{name}.json")
    game = scenario.build_game()
    sol = solve_coupled(game, TimeGrid.from_step(game.t0, game.tf, scenario.run.dt))
    return game, sol, scenario.x0, {}


def _scalar_case(game):
    return game, solve_coupled(game, TimeGrid.from_step(game.t0, game.tf, 1e-2)), [1.0], {}


_BUDGET_CASES = {
    "nash": _benchmark_case,
    "team": lambda get: (get("benchmark_team").reduced, get("team_sol"), None, {}),
    "nash_stride_7": lambda get: _benchmark_case(get, screen_stride=7),
    "nash_stride_10": lambda get: _benchmark_case(get, screen_stride=10),
    "pursuit_coarse": lambda get: _scenario_case("pursuit_coarse"),
    "explicit_small": lambda get: _scenario_case("explicit_small"),
    "zero_weights": lambda get: _scalar_case(
        scalar_game(0.0, [1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0])
    ),
    "negative_zero_weights": lambda get: _scalar_case(
        scalar_game(-0.0, [1.0, 1.0], [-0.0, -0.0], [1.0, 1.0], [-0.0, -0.0])
    ),
    "opponent_only": lambda get: _scalar_case(
        scalar_game(0.0, [1.0] * 3, [-0.1, 0.0, 0.0], [1.0] * 3, [-0.1, 0.0, 0.0])
    ),
    "scalar_lqr": lambda get: _scalar_case(scalar_lqr()),
}


@pytest.fixture(scope="module", params=sorted(_BUDGET_CASES))
def certified(request, benchmark_params):
    """A solved case, its trajectory and both reports with every node in one chunk."""
    game, sol, x0, kwargs = _BUDGET_CASES[request.param](request.getfixturevalue)
    traj = simulate(game, gains(game, sol), benchmark_params.x0 if x0 is None else x0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "CHUNK_VALUES", sol.S[0].size)
        whole = _certify(game, sol, traj, kwargs)
    return game, sol, traj, kwargs, whole


class TestCertificatesInChunks:
    """The certificates reduce per-chunk extrema; no budget moves a bit of either report."""

    @pytest.mark.parametrize("nodes", [1, 3, None], ids=["1-node", "3-node", "default"])
    def test_reports_match_one_whole_grid_chunk(self, certified, nodes, monkeypatch):
        game, sol, traj, kwargs, whole = certified
        if nodes is not None:
            monkeypatch.setattr(sim, "CHUNK_VALUES", nodes * game.n * game.n)
        assert _certify(game, sol, traj, kwargs) == whole

    def test_verify_memory_does_not_grow_with_the_grid(
        self, benchmark_params, benchmark_game, benchmark_sol
    ):
        # Traced peak less the envelope's L (the shape of one player's S),
        # the one array that spans the grid: holding one chunk of nodes at a
        # time keeps it flat from tf = 2 to tf = 10, where whole-grid stacks
        # grow about fivefold.
        short = build_pursuit_example(dataclasses.replace(benchmark_params, tf=2.0))
        cases = [
            (short, solve_coupled(short, TimeGrid.from_step(short.t0, short.tf, 1e-3))),
            (benchmark_game, benchmark_sol),
        ]
        peaks = [
            traced_peak(lambda: verify_solution(game, sol)) - sol.S[0].nbytes
            for game, sol in cases
        ]
        assert peaks[1] <= 1.25 * peaks[0], peaks

    def test_lyapunov_memory_stays_below_one_weight_series(
        self, benchmark_traj, benchmark_sol, benchmark_conditions
    ):
        peak = traced_peak(
            lambda: lyapunov_check(benchmark_traj, benchmark_sol, benchmark_conditions)
        )
        assert peak < benchmark_sol.S[0].nbytes, peak


def _horizon(game, sol, x0_norm, r):
    """``verify_solution``'s guaranteed-capture horizon and its notes."""
    report = verify_solution(game, sol, x0_norm=x0_norm, r=r)
    return report.horizon_bound, report.notes


class TestMinHorizon:
    """The guaranteed-capture horizon ``horizon_bound`` of ``verify_solution``."""

    def test_formula_evaluation(self):
        game, sol = _crafted_solution([2.0, 1.5, 1.0])
        value, _ = _horizon(game, sol, x0_norm=10.0, r=0.1)
        expected = 2.0 * (2.0 * math.log(100.0) + math.log(2.0))
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(19.8064, abs=1e-3)

    def test_equal_start_and_radius_leaves_ln_term(self):
        game, sol = _crafted_solution([2.0, 1.5, 1.0])
        value, _ = _horizon(game, sol, x0_norm=0.1, r=0.1)
        assert value == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_flat_p_leaves_distance_term(self):
        game, sol = _crafted_solution([2.0, 2.0, 2.0])
        value, _ = _horizon(game, sol, x0_norm=10.0, r=0.1)
        assert value == pytest.approx(4.0 * math.log(100.0), abs=1e-12)

    def test_monotone_in_radius_and_start(self):
        game, sol = _crafted_solution([2.0, 1.5, 1.0])
        radii = [0.05, 0.1, 0.2, 0.5]
        values = [_horizon(game, sol, 10.0, r)[0] for r in radii]
        assert all(a > b for a, b in zip(values, values[1:]))
        starts = [1.0, 2.0, 5.0, 10.0]
        values = [_horizon(game, sol, s, 0.1)[0] for s in starts]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_not_applicable_when_sums_fail(self):
        game, sol = _crafted_solution([2.0, 1.5, 1.0], q1=-1.0, q2=0.5)
        value, notes = _horizon(game, sol, 10.0, 0.1)
        assert value is None
        assert (
            "minimum horizon unavailable: exponential capture bound not applicable: "
            "the summed state and terminal weights must be positive definite"
        ) in notes

    def test_not_applicable_when_p_loses_definiteness(self):
        game, sol = _crafted_solution([2.0, 1.5, -1.0])
        report = verify_solution(game, sol, x0_norm=10.0, r=0.1)
        assert report.horizon_bound is None and report.p_pd is False
        assert report.p_min_eig == -1.0 and report.p_max_eig == 2.0
        assert (
            "minimum horizon unavailable: exponential capture bound not applicable: "
            "P(t) lost positive definiteness"
        ) in report.notes
        traj = Trajectory(grid=sol.grid, x=np.ones((3, 1)), u=(), costs=np.zeros(0))
        with pytest.raises(NotApplicableError, match=r"P\(t\) is not positive definite"):
            lyapunov_check(traj, sol, report)

    def test_invalid_inputs_rejected(self):
        game, sol = _crafted_solution([2.0, 1.5, 1.0])
        value, notes = _horizon(game, sol, 10.0, 0.0)
        assert value is None and "minimum horizon unavailable: r must be positive" in notes
        value, notes = _horizon(game, sol, 0.0, 0.1)
        assert value is None and "minimum horizon unavailable: x0_norm must be positive" in notes

    def test_benchmark_value_finite_positive(self, benchmark_conditions):
        value = benchmark_conditions.horizon_bound
        assert value is not None and math.isfinite(value) and value > 0.0


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

    def test_single_player_report(self):
        # One player: no regulators and no envelope, but the P(t) and
        # horizon checks still run.
        game = single_player_matrix_game()
        sol = solve_coupled(game, TimeGrid.from_step(0.0, 1.0, 1e-2))
        report = verify_solution(game, sol, x0_norm=1.0, r=0.1)
        assert report.notes == (
            "single-player game: no regulator definiteness to check",
            "envelope bound needs at least two players; not assessed",
        )
        assert report.regulator_min_eig == math.inf
        assert math.isnan(report.envelope_bound) and math.isnan(report.chain_lower_min_eig)
        assert math.isnan(report.chain_upper_min_eig)
        assert report.e_membership is None and report.psd_chain_ok is None
        assert report.horizon_bound == 19.358476830963134

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

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"q_bound": np.eye(2)}, r"^q_bound must be 1 x 1$"),
            ({"screen_stride": 0}, r"^screen_stride must be at least 1$"),
        ],
    )
    def test_bad_arguments_rejected(self, kwargs, message):
        game = scalar_game(0.0, [1.0, 1.0], [-1.0, 2.0], [1.0, 1.0], [-1.0, 2.0])
        sol = solve_coupled(game, TimeGrid.from_step(0.0, 1.0, 0.1))
        with pytest.raises(ValidationError, match=message):
            verify_solution(game, sol, **kwargs)

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
            assert float(np.sum(sol.S[0, k] ** 2)) <= env.bound  # squared-trace norm
