"""Forward simulation contract: integration, costs, capture, decay, probes."""
from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from aaolq import (
    FeedbackGain,
    GameDefinition,
    TimeGrid,
    build_team_game,
    gains,
    load_scenario,
    lyapunov_check,
    parse_scenario,
    pursuit_report,
    run,
    simulate,
    solve_coupled,
    verify_solution,
)
from aaolq import linalg, sim
from aaolq.errors import DivergenceError, NotApplicableError, ValidationError
from aaolq.sim import Trajectory
from helpers import (
    gain_series,
    random_diagonal_game,
    reference_simulate,
    regrid,
    rotated_game,
    scalar_game,
    scalar_lqr,
    stationarity_probe,
    traced_peak,
)

ROOT = Path(__file__).resolve().parent.parent
COARSE = ROOT / "scenarios" / "pursuit_coarse.json"

#: Simulates open-loop scalar games on long grids and the closed loop of
#: the scenario named by argv[1] (n = 6, stacked transition maps and 6x6
#: matrix-vector products), and prints the cost and state bits, with hashes
#: of the nash and team backward solves (the stage coupling and the RK4
#: combination are BLAS products). At these lengths a BLAS dot product of
#: the Simpson weights changed its last bits between one and two threads.
_COSTS_CHILD = """
import hashlib
import json
import sys
import numpy as np
from aaolq import (
    FeedbackGain, TimeGrid, build_team_game, gains, load_scenario, simulate, solve_coupled,
)
from helpers import scalar_game

bits = []
for steps, a in ((10_000, -0.2), (20_000, 0.1), (20_000, 0.3)):
    game = scalar_game(a, [1.0, 1.0], [-1.0, 2.0], [1.0, 1.0], [-1.0, 2.0], tf=1.0)
    grid = TimeGrid(0.0, 1.0, steps)
    zero = [FeedbackGain(player=i, grid=grid, K=np.zeros((steps + 1, 1, 1))) for i in range(2)]
    bits.append([float(c).hex() for c in simulate(game, zero, [1.0]).costs])
scenario = load_scenario(sys.argv[1])
game = scenario.build_game()
grid = TimeGrid.from_step(game.t0, game.tf, scenario.run.dt)
sol = solve_coupled(game, grid)
bits.append(hashlib.sha256(sol.S.tobytes()).hexdigest())
team_sol = solve_coupled(build_team_game(game).reduced, grid)
bits.append(hashlib.sha256(team_sol.S.tobytes()).hexdigest())
traj = simulate(game, gains(game, sol), scenario.x0)
bits.append([float(c).hex() for c in traj.costs] + [hashlib.sha256(traj.x.tobytes()).hexdigest()])
print(json.dumps(bits))
"""


def _oracle_case(name, request):
    """(game, player gains, x0) for the forward-pass oracle comparison."""
    if name == "benchmark_nash":
        x0 = np.array(request.getfixturevalue("benchmark_params").x0)
        return (
            request.getfixturevalue("benchmark_game"),
            request.getfixturevalue("benchmark_gains"),
            x0,
        )
    rng = np.random.default_rng(5)
    if name.startswith("coarse"):
        scenario = load_scenario(COARSE)
        game = scenario.build_game()
        if name == "coarse_team":
            game = build_team_game(game).reduced
        grid = TimeGrid.from_step(game.t0, game.tf, scenario.run.dt)
        x0 = scenario.x0
    elif name == "one_player_n3":
        b = rng.standard_normal((3, 1))
        q = rng.standard_normal((3, 3))
        game = GameDefinition(
            A=rng.standard_normal((3, 3)),
            B=(b,),
            Q=(q @ q.T,),
            R=(np.eye(1),),
            S_f=(np.eye(3),),
            t0=0.0,
            tf=1.5,
        )
        grid = TimeGrid.from_step(0.0, 1.5, 1e-2)
        x0 = rng.standard_normal(3)
    elif name == "rotated_explicit":
        game = rotated_game(random_diagonal_game(rng), rng)
        grid = TimeGrid.from_step(0.0, game.tf, 1e-2)
        x0 = rng.standard_normal(game.n)
    else:
        game = scalar_game(0.3, [1.0, 2.0], [-1.0, 1.0], [1.0, 1.0], [-2.0, 3.0], tf=0.0)
        grid = TimeGrid(0.0, 0.0, 0)
        x0 = [1.5]
    return game, gains(game, solve_coupled(game, grid)), x0


def _zero_gains(game, grid):
    out = []
    for i in range(game.num_players):
        k = np.zeros((grid.steps + 1, game.B[i].shape[1], game.n))
        out.append(FeedbackGain(player=i, grid=grid, K=k))
    return out


class TestSimulate:
    def test_zero_gains_static_state_closed_form_costs(self):
        game = scalar_game(0.0, [1.0, 1.0], [-1.0, 2.0], [1.0, 1.0], [-2.0, 3.0], tf=2.0)
        grid = TimeGrid.from_step(0.0, 2.0, 0.01)
        traj = simulate(game, _zero_gains(game, grid), [3.0])
        assert np.all(traj.x == 3.0)
        x0sq = 9.0
        for i, (q, sf) in enumerate(((-1.0, -2.0), (2.0, 3.0))):
            expected = 0.5 * sf * x0sq + 0.5 * 2.0 * q * x0sq
            assert traj.costs[i] == pytest.approx(expected, rel=1e-12)

    def test_wrong_size_initial_state_rejected(self):
        game = scalar_game(0.0, [1.0, 1.0], [-1.0, 2.0], [1.0, 1.0], [-2.0, 3.0])
        grid = TimeGrid.from_step(0.0, 1.0, 0.1)
        with pytest.raises(ValidationError, match=r"^x0: expected 1 entries, got 2$"):
            simulate(game, _zero_gains(game, grid), [1.0, 2.0])

    def test_wrong_gain_count_rejected(self):
        game = scalar_game(0.0, [1.0, 1.0], [-1.0, 2.0], [1.0, 1.0], [-2.0, 3.0])
        grid = TimeGrid.from_step(0.0, 1.0, 0.1)
        with pytest.raises(ValidationError, match=r"^expected 2 gains, got 1$"):
            simulate(game, _zero_gains(game, grid)[:1], [1.0])

    def test_zero_initial_state(self, benchmark_game, benchmark_gains):
        traj = simulate(benchmark_game, benchmark_gains, np.zeros(6))
        assert np.all(traj.x == 0.0)
        assert np.all(traj.costs == 0.0)

    def test_scalar_lqr_optimal_cost(self):
        game = scalar_lqr()
        sol = solve_coupled(game, TimeGrid.from_step(0.0, 1.0, 1e-3))
        traj = simulate(game, gains(game, sol), [1.0])
        assert traj.costs[0] == pytest.approx(0.5 * math.tanh(1.0), abs=1e-5)

    def test_initial_state_bitwise(self, benchmark_params, benchmark_traj):
        assert np.array_equal(benchmark_traj.x[0], np.array(benchmark_params.x0))

    def test_controls_recorded_at_nodes(self, benchmark_gains, benchmark_traj):
        for i in (0, 2):
            for k in (0, 4_000, 10_000):
                expected = -benchmark_gains[i].K[k] @ benchmark_traj.x[k]
                assert np.max(np.abs(benchmark_traj.u[i][k] - expected)) <= 1e-12

    def test_divergence_raises_with_time(self):
        game = scalar_game(5.0, [1.0, 1.0], [-1.0, 1.0], [1e12, 1e12], [-1.0, 2.0], tf=2.0)
        grid = TimeGrid.from_step(0.0, 2.0, 1e-3)
        sol = solve_coupled(game, grid)
        assert sol.complete
        with pytest.raises(DivergenceError) as err:
            simulate(game, gains(game, sol), [1e11])
        assert 0.0 < err.value.time <= 2.0
        assert err.value.norm > 1e12
        with pytest.raises(DivergenceError) as ref:
            reference_simulate(game, gains(game, sol), [1e11])
        assert err.value.time == ref.value.time

    @pytest.mark.parametrize(
        "case",
        [
            "benchmark_nash",  # 36 subdivided intervals, many chunks
            "coarse_nash",
            "coarse_team",
            "one_player_n3",
            "rotated_explicit",
            "zero_steps",
        ],
    )
    def test_matches_staged_rk4_oracle(self, case, request):
        game, player_gains, x0 = _oracle_case(case, request)
        traj = simulate(game, player_gains, x0)
        x_ref, costs_ref = reference_simulate(game, player_gains, x0)
        scale = np.abs(x_ref).max(axis=1, keepdims=True)
        assert np.all(np.abs(traj.x - x_ref) <= 1e-12 * scale)
        assert np.all(np.abs(traj.costs - costs_ref) <= 1e-12 * np.abs(costs_ref))

    def test_odd_step_grid_rejected(self, benchmark_game, benchmark_gains):
        odd = regrid(benchmark_gains, TimeGrid(0.0, 10.0, 9_999))
        with pytest.raises(ValidationError):
            simulate(benchmark_game, odd, np.zeros(6))

    def test_gains_on_different_grids_rejected(self, benchmark_game, benchmark_gains):
        mixed = list(benchmark_gains)
        mixed[1:2] = regrid(benchmark_gains[1:2], TimeGrid.from_step(0.0, 10.0, 2e-3))
        with pytest.raises(ValidationError, match="player 2: gain grid"):
            simulate(benchmark_game, mixed, np.zeros(6))

    def test_gain_node_count_checked(self, benchmark_game, benchmark_gains):
        short = list(benchmark_gains)
        g = short[3]
        short[3] = FeedbackGain(player=g.player, grid=g.grid, K=g.K[:-1])
        with pytest.raises(ValidationError, match="player 4: gain holds 10000 nodes"):
            simulate(benchmark_game, short, np.zeros(6))

    def test_grid_refinement_stability(self, benchmark_game, benchmark_gains, benchmark_params):
        base = simulate(benchmark_game, benchmark_gains, np.array(benchmark_params.x0))
        fine = simulate(
            benchmark_game,
            regrid(benchmark_gains, TimeGrid.from_step(0.0, 10.0, 5e-4)),
            np.array(benchmark_params.x0),
        )
        diff = float(np.linalg.norm(base.x[-1] - fine.x[-1]))
        assert diff <= 1e-6 * (1.0 + float(np.linalg.norm(base.x[-1])))

    def test_dynamics_residual_second_order(self):
        game = scalar_game(0.2, [1.0, 1.0], [-1.0, 2.0], [1.0, 1.0], [-1.0, 2.0], tf=1.0)

        def max_residual(dt):
            grid = TimeGrid.from_step(0.0, 1.0, dt)
            sol = solve_coupled(game, grid)
            gs = gains(game, sol)
            traj = simulate(game, gs, [1.0])

            worst = 0.0
            times = grid.times()
            t_mid = (times[:-1] + times[1:]) / 2.0
            k_mid = [gain_series(g, t_mid) for g in gs]
            for k in range(grid.steps):
                x_mid = (traj.x[k] + traj.x[k + 1]) / 2.0
                acl = np.array(game.A)
                for i in range(game.num_players):
                    acl -= game.B[i] @ k_mid[i][k]
                lhs = (traj.x[k + 1] - traj.x[k]) / grid.dt
                worst = max(worst, float(np.max(np.abs(lhs - acl @ x_mid))))
            return worst

        coarse = max_residual(0.01)
        fine = max_residual(0.005)
        assert coarse / fine == pytest.approx(4.0, rel=0.15)

    @pytest.mark.parametrize("node", [0, 5])
    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_gain_named(self, node, bad):
        scenario = load_scenario(COARSE)
        game = scenario.build_game()
        sol = solve_coupled(game, TimeGrid.from_step(game.t0, game.tf, scenario.run.dt))
        player_gains = gains(game, sol)
        k = player_gains[2].K.copy()
        k[node, 1, 3] = bad
        player_gains[2] = FeedbackGain(player=2, grid=sol.grid, K=k)
        t = float(sol.grid.times()[node])
        message = rf"player 3: gain is not finite at t={re.escape(repr(t))}$"
        with pytest.raises(ValidationError, match=message):
            simulate(game, player_gains, scenario.x0)

    def test_closed_loop_holds_one_chunk_beside_its_result(
        self, benchmark_game, benchmark_gains, monkeypatch
    ):
        # A - sum_j B_j K_j is subtracted one chunk of nodes at a time, so no
        # whole-grid product B_j K_j (one more n^2 per node) sits beside the
        # (10,001, 6, 6) result. The bits equal those of subtracting each
        # whole-grid product in turn, at the default chunk and at one node
        # per chunk.
        whole = np.broadcast_to(benchmark_game.A, (10_001, 6, 6)).copy()
        for b, g in zip(benchmark_game.B, benchmark_gains):
            whole -= np.matmul(b, g.K)
        acl = sim.closed_loop(benchmark_game, benchmark_gains)
        peak = traced_peak(lambda: sim.closed_loop(benchmark_game, benchmark_gains))
        assert peak < 1.25 * acl.nbytes, (peak, acl.nbytes)
        assert acl.tobytes() == whole.tobytes()
        monkeypatch.setattr(sim, "CHUNK_VALUES", 1)
        assert sim.closed_loop(benchmark_game, benchmark_gains).tobytes() == whole.tobytes()

    def test_costs_independent_of_blas_threads(self):
        # Costs, states and the nash and team solves' S, at 1 and 2 OpenBLAS threads.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
        bits = []
        for threads in ("1", "2"):
            env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            child = subprocess.run(
                [sys.executable, "-c", _COSTS_CHILD, str(COARSE)],
                env=env,
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert child.returncode == 0, child.stderr
            bits.append(json.loads(child.stdout))
        assert bits[0] == bits[1]


class TestPursuitReport:
    def test_benchmark_initial_distances(self, benchmark_traj):
        report = pursuit_report(benchmark_traj, 0.1)
        expected = [math.sqrt(173.0), math.sqrt(130.0), math.sqrt(296.0)]
        assert list(report.distances[0]) == pytest.approx(expected, abs=1e-12)
        assert report.distances[0] == pytest.approx([13.153, 11.402, 17.205], abs=1e-3)

    def test_no_capture_when_far(self):
        grid = TimeGrid(0.0, 1.0, 2)
        x = np.tile([3.0, 4.0], (3, 1))
        traj = Trajectory(grid=grid, x=x, u=(), costs=np.zeros(0))
        report = pursuit_report(traj, 0.1)
        assert report.capture_time is None
        assert report.captured_by is None
        assert report.captured is False

    def test_benchmark_final_distances_under_radius(self, benchmark_traj):
        report = pursuit_report(benchmark_traj, 0.1)
        assert np.all(report.final_distances < 0.005)
        assert report.captured is True
        assert report.capture_time == pytest.approx(4.366, abs=2e-3)
        assert report.captured_by == 1

    def test_capture_tie_goes_to_lowest_index(self):
        grid = TimeGrid(0.0, 1.0, 1)
        x = np.array([[1.0, 0.0, 1.0, 0.0], [0.05, 0.0, 0.05, 0.0]])
        traj = Trajectory(grid=grid, x=x, u=(), costs=np.zeros(0))
        report = pursuit_report(traj, 0.1)
        assert report.capture_time == 1.0
        assert report.captured_by == 0

    def test_non_positive_radius_rejected(self):
        traj = Trajectory(grid=TimeGrid(0.0, 1.0, 1), x=np.ones((2, 2)), u=(), costs=np.zeros(0))
        with pytest.raises(ValidationError, match=r"^capture_radius must be positive$"):
            pursuit_report(traj, 0.0)

    def test_odd_dimension_rejected(self):
        grid = TimeGrid(0.0, 1.0, 1)
        traj = Trajectory(grid=grid, x=np.zeros((2, 3)), u=(), costs=np.zeros(0))
        with pytest.raises(ValidationError):
            pursuit_report(traj, 0.1)

    def test_monotone_closing_after_transient(self, benchmark_traj):
        report = pursuit_report(benchmark_traj, 0.1)
        times = benchmark_traj.grid.times()
        mins = report.distances.min(axis=1)
        after = mins[times >= 2.0]
        assert float(np.max(np.diff(after))) <= 1e-3


class TestLyapunovCheck:
    def test_benchmark_certificate(self, benchmark_traj, benchmark_sol, benchmark_conditions):
        report = lyapunov_check(benchmark_traj, benchmark_sol, benchmark_conditions)
        assert report.decay_rate > 0.0
        assert report.exp_bound_ok is True
        assert report.ratio_bound_ok is True
        # Stated contract: V strictly decreases between every pair of grid
        # points. The computed V rises at two nodes where P(t) moves through
        # its near-terminal transient faster than the dt=1e-3 grid resolves;
        # the failure below is recorded as-is rather than loosening the check.
        assert report.monotone_ok is True
        assert report.ok is True

    def test_zero_initial_state_trivially_passes(
        self, benchmark_game, benchmark_gains, benchmark_sol, benchmark_conditions
    ):
        traj = simulate(benchmark_game, benchmark_gains, np.zeros(6))
        report = lyapunov_check(traj, benchmark_sol, benchmark_conditions)
        assert report.v0 == 0.0
        assert report.ok is True

    def test_rate_and_extrema_read_off_the_report(
        self, benchmark_traj, benchmark_sol, benchmark_conditions, monkeypatch
    ):
        def no_eigen(*args, **kwargs):
            raise AssertionError("lyapunov_check took an eigenvalue")

        monkeypatch.setattr(linalg, "sym_eigenvalues", no_eigen)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigen)
        report = lyapunov_check(benchmark_traj, benchmark_sol, benchmark_conditions)
        c = benchmark_conditions
        assert report.decay_rate == c.sum_q_min_eig / c.p_max_eig

    def test_team_reduction_not_applicable(self, benchmark_team, team_traj, team_sol):
        conditions = verify_solution(benchmark_team.reduced, team_sol)
        assert conditions.p_pd is None and conditions.p_max_eig is None
        with pytest.raises(NotApplicableError, match="not applicable"):
            lyapunov_check(team_traj, team_sol, conditions)

    def test_near_singular_weight_sum_not_applicable(self, tmp_path):
        # sum Q = 6e-10 is positive but under PSD_TOL: conditions.txt reads
        # sum_Q_pd false, so the decay certificate must not pass either.
        doc = {
            "schema_version": 1,
            "explicit": {
                "A": [[0.0]],
                "B": [[[1.0]], [[1.0]]],
                "Q": [[[-1.0]], [[1.0000000006]]],
                "R": [[[1.0]], [[0.5]]],
                "S_f": [[[-1.0]], [[2.0]]],
                "tf": 1.0,
                "x0": [1.0],
            },
            "run": {"mode": "nash", "dt": 0.01},
        }
        result = run(parse_scenario(json.dumps(doc)), tmp_path)
        conditions = (tmp_path / "conditions.txt").read_text()
        assert "sum_Q_pd: false" in conditions
        assert "min_horizon: not applicable" in conditions
        assert result.lyapunov is None
        summary = (tmp_path / "summary.txt").read_text()
        assert "decay_certificate_ok" not in summary
        assert "decay certificate not applicable" in summary
        with pytest.raises(NotApplicableError, match="not applicable"):
            lyapunov_check(result.traj, result.sol, result.conditions)

    def test_grid_mismatch_rejected(
        self, benchmark_game, benchmark_sol, benchmark_gains, benchmark_conditions
    ):
        other = simulate(
            benchmark_game,
            regrid(benchmark_gains, TimeGrid.from_step(0.0, 10.0, 2e-3)),
            np.zeros(6),
        )
        with pytest.raises(ValidationError):
            lyapunov_check(other, benchmark_sol, benchmark_conditions)


class TestStationarityProbe:
    def test_zero_epsilon_reproduces_baseline(self, benchmark_game, benchmark_gains, benchmark_params, benchmark_traj):
        direction = np.ones(benchmark_gains[0].K.shape[1:])
        samples = stationarity_probe(
            benchmark_game,
            benchmark_gains,
            np.array(benchmark_params.x0),
            0,
            direction,
            [0.0],
        )
        assert samples[0].epsilon == 0.0
        assert samples[0].diverged is False
        assert samples[0].cost == benchmark_traj.costs[0]

    def test_scalar_lqr_slope_vanishes(self):
        game = scalar_lqr()
        sol = solve_coupled(game, TimeGrid.from_step(0.0, 1.0, 1e-3))
        gs = gains(game, sol)
        samples = stationarity_probe(
            game, gs, [1.0], 0, np.ones((1, 1)), [-1e-3, 0.0, 1e-3]
        )
        jm, _, jp = (s.cost for s in samples)
        assert abs((jp - jm) / 2e-3) <= 1e-4

    def test_benchmark_evader_stationary(self, benchmark_game, benchmark_gains, benchmark_params, benchmark_traj):
        rng = np.random.default_rng(7)
        direction = rng.standard_normal(benchmark_gains[0].K.shape[1:])
        direction /= float(np.linalg.norm(direction))
        samples = stationarity_probe(
            benchmark_game,
            benchmark_gains,
            np.array(benchmark_params.x0),
            0,
            direction,
            [-1e-3, 0.0, 1e-3],
        )
        jm, _, jp = (s.cost for s in samples)
        slope = (jp - jm) / 2e-3
        assert abs(slope) <= 1e-3 * (1.0 + abs(benchmark_traj.costs[0]))

    def test_divergence_recorded_per_sample(self):
        game = scalar_game(0.5, [1.0, 1.0], [-1.0, 2.0], [1.0, 1.0], [-1.0, 2.0], tf=4.0)
        grid = TimeGrid.from_step(0.0, 4.0, 1e-2)
        sol = solve_coupled(game, grid)
        gs = gains(game, sol)
        samples = stationarity_probe(
            game, gs, [1.0], 1, np.ones((1, 1)), [0.0, -40.0]
        )
        assert samples[0].diverged is False
        assert samples[1].diverged is True
        assert samples[1].cost is None

    def test_epsilons_must_include_zero(self, benchmark_game, benchmark_gains):
        with pytest.raises(ValidationError):
            stationarity_probe(
                benchmark_game,
                benchmark_gains,
                np.zeros(6),
                0,
                np.ones(benchmark_gains[0].K.shape[1:]),
                [1e-3],
            )

    def test_direction_shape_checked(self, benchmark_game, benchmark_gains):
        with pytest.raises(ValidationError):
            stationarity_probe(
                benchmark_game,
                benchmark_gains,
                np.zeros(6),
                0,
                np.ones((1, 1)),
                [0.0],
            )
