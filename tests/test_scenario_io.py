"""Scenario files, the run pipeline, artifact layouts, CLI exit codes."""
from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aaolq import (
    GameDefinition,
    PursuitParams,
    RiccatiSolution,
    RunConfig,
    Scenario,
    SolveStatus,
    TimeGrid,
    build_pursuit_example,
    emit_scenario,
    gains,
    load_scenario,
    parse_scenario,
    run,
    run_sweep,
    simulate,
    solve_coupled,
)
from aaolq import runner
from aaolq.cli import main as cli_main
from aaolq.errors import ScenarioError
from aaolq.sim import PursuitReport, Trajectory
from helpers import (
    reference_distances_csv,
    reference_positions_csv,
    reference_solution_csv,
    reference_trajectory_csv,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
README = Path(__file__).resolve().parent.parent / "README.md"

ESCAPE_GAME = {
    # Unopposed de-regulation: the backward solve escapes in finite time.
    "schema_version": 1,
    "explicit": {
        "A": [[0.0, 0.0], [0.0, 0.0]],
        "B": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]],
        "Q": [[[-100.0, 0.0], [0.0, -100.0]], [[0.0, 0.0], [0.0, 0.0]]],
        "R": [[[1.0, 0.0], [0.0, 1.0]], [[1e6, 0.0], [0.0, 1e6]]],
        "S_f": [[[-1.0, 0.0], [0.0, -1.0]], [[0.0, 0.0], [0.0, 0.0]]],
        "tf": 1.0,
        "x0": [1.0, 1.0],
    },
    "run": {"mode": "nash", "dt": 0.001, "out_dir": "out/escape"},
}

DIVERGENT_GAME = {
    # Solvable backward, but the closed loop is unstable enough that a huge
    # initial state crosses the divergence threshold before tf.
    "schema_version": 1,
    "explicit": {
        "A": [[5.0]],
        "B": [[[1.0]], [[1.0]]],
        "Q": [[[-1.0]], [[1.0]]],
        "R": [[[1e12]], [[1e12]]],
        "S_f": [[[-1.0]], [[2.0]]],
        "tf": 2.0,
        "x0": [1e11],
    },
    "run": {"mode": "nash", "dt": 0.001, "out_dir": "out/divergent"},
}


def _with_mode_and_tf(scenario: Scenario, mode: str, tf: float) -> Scenario:
    scenario = dataclasses.replace(scenario, run=dataclasses.replace(scenario.run, mode=mode))
    if scenario.pursuit is not None:
        return dataclasses.replace(scenario, pursuit=dataclasses.replace(scenario.pursuit, tf=tf))
    return dataclasses.replace(scenario, explicit=dataclasses.replace(scenario.explicit, tf=tf))


def _write_scenario(tmp_path: Path, doc: dict, name: str = "scenario.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestParseScenario:
    def test_shipped_benchmark_matches_builder_defaults(self):
        scenario = load_scenario(SCENARIO_DIR / "pursuit_benchmark.json")
        assert scenario.pursuit is not None
        assert scenario.pursuit.tf == 10.0
        assert scenario.capture_radius == 0.1
        game = scenario.build_game()
        reference = build_pursuit_example(PursuitParams())
        assert np.array_equal(game.A, reference.A)
        for i in range(4):
            assert np.array_equal(game.B[i], reference.B[i])
            assert np.array_equal(game.Q[i], reference.Q[i])
            assert np.array_equal(game.R[i], reference.R[i])
            assert np.array_equal(game.S_f[i], reference.S_f[i])
        assert scenario.x0 == pytest.approx([2.0, 13.0, 7.0, 9.0, -10.0, 14.0])

    def test_team_mode_without_alphas_defaults_uniform(self, tmp_path):
        doc = json.loads((SCENARIO_DIR / "pursuit_coarse.json").read_text())
        del doc["run"]["alphas"]
        scenario = parse_scenario(json.dumps(doc))
        assert scenario.run.mode == "team"
        assert scenario.run.alphas is None
        result = run(scenario, out_dir=tmp_path / "out", level="check")
        assert result.exit_code == 0
        assert result.team_game.weights.alpha == (1 / 3, 1 / 3, 1 / 3)

    def test_negative_dt_rejected_with_field_path(self):
        doc = json.loads((SCENARIO_DIR / "explicit_small.json").read_text())
        doc["run"]["dt"] = -1.0
        with pytest.raises(ScenarioError, match="run.dt.*positive"):
            parse_scenario(json.dumps(doc))

    def test_exactly_one_game_source(self):
        doc = json.loads((SCENARIO_DIR / "explicit_small.json").read_text())
        doc["pursuit"] = json.loads((SCENARIO_DIR / "pursuit_benchmark.json").read_text())[
            "pursuit"
        ]
        with pytest.raises(ScenarioError, match="exactly one"):
            parse_scenario(json.dumps(doc))
        with pytest.raises(ScenarioError, match="exactly one"):
            parse_scenario(json.dumps({"schema_version": 1, "run": {}}))

    def test_schema_version_checked(self):
        with pytest.raises(ScenarioError, match="schema_version"):
            parse_scenario(json.dumps({"schema_version": 2, "explicit": {}}))

    def test_unknown_field_rejected(self):
        doc = json.loads((SCENARIO_DIR / "explicit_small.json").read_text())
        doc["extra"] = 1
        with pytest.raises(ScenarioError, match="scenario.extra"):
            parse_scenario(json.dumps(doc))

    def test_explicit_x0_required(self):
        doc = json.loads((SCENARIO_DIR / "explicit_small.json").read_text())
        del doc["explicit"]["x0"]
        with pytest.raises(ScenarioError, match="explicit.x0"):
            parse_scenario(json.dumps(doc))

    def test_ragged_matrix_named(self):
        doc = json.loads((SCENARIO_DIR / "explicit_small.json").read_text())
        doc["explicit"]["Q"][0] = [[1.0, 0.0], [0.0]]
        with pytest.raises(ScenarioError, match="explicit.Q\\[0\\]\\[1\\]"):
            parse_scenario(json.dumps(doc))

    def test_alpha_validation(self):
        doc = json.loads((SCENARIO_DIR / "pursuit_coarse.json").read_text())
        doc["run"]["alphas"] = [0.5, 0.5]
        with pytest.raises(ScenarioError, match="run.alphas"):
            parse_scenario(json.dumps(doc))
        doc["run"]["alphas"] = [0.5, 0.4, 0.3]
        with pytest.raises(ScenarioError, match="run.alphas"):
            parse_scenario(json.dumps(doc))

    def test_bad_mode_rejected(self):
        doc = json.loads((SCENARIO_DIR / "explicit_small.json").read_text())
        doc["run"]["mode"] = "minimax"
        with pytest.raises(ScenarioError, match="run.mode"):
            parse_scenario(json.dumps(doc))

    def test_not_json_rejected(self):
        with pytest.raises(ScenarioError, match="not valid JSON"):
            parse_scenario("mode: nash")


class TestReadmeExamples:
    def test_readme_scenario_blocks_parse(self):
        text = README.read_text()
        blocks = re.findall(r"```jsonc?\n(.*?)```", text, flags=re.S)
        assert blocks, "README.md has no json/jsonc block"
        for block in blocks:
            parse_scenario(re.sub(r"(^|\s)//.*$", "", block, flags=re.M))


class TestRoundTrip:
    def test_shipped_scenarios_round_trip_bitwise(self):
        for name in ("pursuit_benchmark.json", "pursuit_coarse.json", "explicit_small.json"):
            scenario = load_scenario(SCENARIO_DIR / name)
            again = parse_scenario(emit_scenario(scenario))
            assert again.run == dataclasses.replace(scenario.run)
            if scenario.pursuit is not None:
                assert again.pursuit == scenario.pursuit
            else:
                for field in ("A", "B", "Q", "R", "S_f"):
                    lhs = getattr(again.explicit, field)
                    rhs = getattr(scenario.explicit, field)
                    if field == "A":
                        assert np.array_equal(lhs, rhs)
                    else:
                        assert all(np.array_equal(a, b) for a, b in zip(lhs, rhs))
                assert np.array_equal(again.explicit_x0, scenario.explicit_x0)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_random_pursuit_round_trip_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 4))
        params = PursuitParams(
            num_pursuers=k,
            evader_terminal_weight=-float(rng.uniform(0.1, 30.0)),
            evader_state_weight=-float(rng.uniform(0.1, 10.0)),
            evader_control_weight=float(rng.uniform(0.1, 3.0)),
            pursuer_terminal_weights=tuple(rng.uniform(0.1, 20.0, k)),
            pursuer_state_weights=tuple(rng.uniform(0.1, 8.0, k)),
            pursuer_control_weights=tuple(rng.uniform(10.0, 300.0, k)),
            t0=float(rng.uniform(-1.0, 1.0)),
            tf=float(rng.uniform(2.0, 20.0)),
            capture_radius=float(rng.uniform(0.01, 1.0)),
            x0=tuple(rng.uniform(-20.0, 20.0, 2 * k)),
            evader_start=tuple(rng.uniform(-5.0, 5.0, 2)),
        )
        params = dataclasses.replace(params, tf=params.t0 + (params.tf - params.t0))
        alphas = rng.dirichlet(np.ones(k))
        alphas = tuple(float(a) for a in (alphas / alphas.sum()))
        run_cfg = RunConfig(
            mode="team",
            alphas=alphas if abs(sum(alphas) - 1.0) <= 1e-12 else None,
            dt=float(rng.uniform(1e-4, 1e-1)),
            bound_q=None,
            capture_radius=float(rng.uniform(0.01, 1.0)),
            out_dir="out/prop",
        )
        scenario = Scenario(pursuit=params, explicit=None, explicit_x0=None, run=run_cfg)
        again = parse_scenario(emit_scenario(scenario))
        assert again.pursuit == params
        assert again.run == run_cfg


class TestRunPipeline:
    def test_check_level_artifacts_and_witness(self, tmp_path):
        scenario = load_scenario(SCENARIO_DIR / "explicit_small.json")
        result = run(scenario, out_dir=tmp_path, level="check")
        assert result.exit_code == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["conditions.txt", "summary.txt"]
        text = (tmp_path / "conditions.txt").read_text()
        assert "aao_compliant: true" in text
        assert "status: complete" in text
        assert "sum_Q_pd: true (min_eig=1.0)" in text
        assert "diagonal_subclass: applicable=true" in text

    def test_solve_level_adds_solution(self, tmp_path):
        scenario = load_scenario(SCENARIO_DIR / "explicit_small.json")
        result = run(scenario, out_dir=tmp_path, level="solve")
        assert result.exit_code == 0
        assert (tmp_path / "solution.csv").exists()
        assert not (tmp_path / "trajectory.csv").exists()
        lines = (tmp_path / "solution.csv").read_text().splitlines()
        assert lines[0] == "t,player,row,col,value"
        steps = result.grid.steps
        assert len(lines) == 1 + (steps + 1) * 2 * 4

    def test_simulate_level_full_artifacts(self, tmp_path):
        scenario = load_scenario(SCENARIO_DIR / "explicit_small.json")
        result = run(scenario, out_dir=tmp_path)
        assert result.exit_code == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "conditions.txt",
            "distances.csv",
            "solution.csv",
            "summary.txt",
            "trajectory.csv",
        ]
        header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,x1,x2,u1_1,u1_2,u2_1,u2_2"
        dheader = (tmp_path / "distances.csv").read_text().splitlines()[0]
        assert dheader == "t,d1"
        summary = (tmp_path / "summary.txt").read_text()
        assert "captured: true" in summary

    def test_pursuit_scenario_adds_positions(self, tmp_path):
        scenario = load_scenario(SCENARIO_DIR / "pursuit_coarse.json")
        result = run(scenario, out_dir=tmp_path)
        assert result.exit_code == 0
        header = (tmp_path / "positions.csv").read_text().splitlines()[0]
        assert header == "t,evader_x,evader_y,p1_x,p1_y,p2_x,p2_y,p3_x,p3_y"
        first = (tmp_path / "positions.csv").read_text().splitlines()[1].split(",")
        # evader starts at the configured origin; pursuer 1 at origin - block 1
        assert first[1:3] == ["0.0", "0.0"]
        assert first[3:5] == ["-2.0", "-13.0"]

    def test_team_mode_witnesses(self, tmp_path):
        scenario = load_scenario(SCENARIO_DIR / "pursuit_coarse.json")
        result = run(scenario, out_dir=tmp_path, level="check")
        assert result.exit_code == 0
        text = (tmp_path / "conditions.txt").read_text()
        assert "sum_Q_pd: false" in text
        assert "certificates refer to the reduced two-player game" in text
        assert result.conditions.sum_q_min_eig == pytest.approx(-3.92, abs=0.005)
        assert result.conditions.sum_sf_min_eig == pytest.approx(-11.92, abs=0.005)

    def test_zero_horizon_trajectory_single_row(self, tmp_path):
        doc = {
            "schema_version": 1,
            "explicit": {
                "A": [[0.0]],
                "B": [[[1.0]], [[1.0]]],
                "Q": [[[-1.0]], [[2.0]]],
                "R": [[[1.0]], [[1.0]]],
                "S_f": [[[-1.0]], [[2.0]]],
                "t0": 1.0,
                "tf": 1.0,
                "x0": [2.0],
            },
            "run": {"mode": "nash", "dt": 0.001, "out_dir": "unused"},
        }
        result = run(parse_scenario(json.dumps(doc)), out_dir=tmp_path)
        assert result.exit_code == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[0] == "1.0"
        assert lines[1].split(",")[1] == "2.0"
        assert not (tmp_path / "distances.csv").exists()
        assert any("odd state dimension" in m for m in result.messages)

    def test_noncompliant_game_short_circuits(self, tmp_path):
        doc = json.loads(json.dumps(ESCAPE_GAME))
        doc["explicit"]["Q"][0] = [[100.0, 0.0], [0.0, 100.0]]
        doc["explicit"]["S_f"][0] = [[1.0, 0.0], [0.0, 1.0]]
        result = run(parse_scenario(json.dumps(doc)), out_dir=tmp_path)
        assert result.exit_code == 2
        assert result.sol is None
        text = (tmp_path / "conditions.txt").read_text()
        assert "aao_compliant: false" in text

    def test_blowup_still_writes_conditions(self, tmp_path):
        result = run(parse_scenario(json.dumps(ESCAPE_GAME)), out_dir=tmp_path)
        assert result.exit_code == 3
        assert result.sol is not None and not result.sol.complete
        text = (tmp_path / "conditions.txt").read_text()
        assert "status: blow_up" in text
        assert "failure_time:" in text

    def test_divergence_exit_code(self, tmp_path):
        result = run(parse_scenario(json.dumps(DIVERGENT_GAME)), out_dir=tmp_path)
        assert result.exit_code == 4
        assert any("divergence threshold" in m for m in result.messages)

    def test_byte_determinism(self, tmp_path):
        scenario = load_scenario(SCENARIO_DIR / "explicit_small.json")
        run(scenario, out_dir=tmp_path / "a")
        run(scenario, out_dir=tmp_path / "b")
        for path in sorted((tmp_path / "a").iterdir()):
            assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()


#: Values whose print forms a writer must keep apart: signed zeros, NaN,
#: infinities, the smallest subnormal and values at repr's format switches.
SPECIAL_VALUES = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-05, 1e16, 0.1, -2.5]


def _same_bytes(path: Path, expected: str):
    assert path.read_bytes() == expected.encode()


class TestWriterBytes:
    """The bulk CSV writers against the one-value-at-a-time reference."""

    def _check_run(self, scenario, out: Path):
        result = run(scenario, out_dir=out)
        assert result.exit_code == 0
        _same_bytes(out / "solution.csv", reference_solution_csv(result.sol))
        _same_bytes(out / "trajectory.csv", reference_trajectory_csv(result.traj))
        _same_bytes(out / "distances.csv", reference_distances_csv(result.traj, result.pursuit))
        _same_bytes(out / "positions.csv", reference_positions_csv(result.traj, scenario.pursuit))
        return result

    @pytest.mark.parametrize("mode", ["nash", "team"])
    def test_pursuit_coarse_run(self, tmp_path, mode):
        scenario = load_scenario(SCENARIO_DIR / "pursuit_coarse.json")
        self._check_run(_with_mode_and_tf(scenario, mode, scenario.pursuit.tf), tmp_path)

    def test_zero_step_grid(self, tmp_path):
        scenario = _with_mode_and_tf(load_scenario(SCENARIO_DIR / "pursuit_coarse.json"), "nash", 0.0)
        result = self._check_run(scenario, tmp_path)
        assert result.grid.steps == 0

    def test_failed_solve_nan_tail(self, tmp_path):
        result = run(parse_scenario(json.dumps(ESCAPE_GAME)), out_dir=tmp_path, level="solve")
        assert result.exit_code == 3
        expected = reference_solution_csv(result.sol)
        # Nodes the backward solve never reached, from t0 on, stay NaN.
        assert expected.startswith("t,player,row,col,value\n0.0,1,1,1,nan\n")
        _same_bytes(tmp_path / "solution.csv", expected)

    def test_single_player_odd_dimension(self, tmp_path):
        rng = np.random.default_rng(7)
        q = rng.normal(size=(3, 3))
        game = GameDefinition(
            A=rng.normal(size=(3, 3)),
            B=(rng.normal(size=(3, 2)),),
            Q=(q @ q.T + np.eye(3),),
            R=(np.diag([1.0, 2.0]),),
            S_f=(np.eye(3),),
            t0=0.0,
            tf=1.0,
        )
        sol = solve_coupled(game, TimeGrid.from_step(0.0, 1.0, 0.05))
        traj = simulate(game, gains(game, sol), [1.0, -2.0, 0.5])
        runner.write_solution_csv(tmp_path / "solution.csv", sol)
        runner.write_trajectory_csv(tmp_path / "trajectory.csv", traj)
        _same_bytes(tmp_path / "solution.csv", reference_solution_csv(sol))
        _same_bytes(tmp_path / "trajectory.csv", reference_trajectory_csv(traj))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_special_values(self, tmp_path):
        grid = TimeGrid(0.0, 1.0, 4)
        rng = np.random.default_rng(11)
        values = np.array(SPECIAL_VALUES)
        # Not symmetric; every special value appears in both players.
        S = rng.choice(values, size=(2, grid.steps + 1, 3, 3))
        S[:, 0, 0, 0] = [-0.0, 0.0]
        S[:, 0, 0, 1] = [0.0, -0.0]
        sol = RiccatiSolution(
            grid=grid,
            S=S,
            status=SolveStatus.COMPLETE,
            failure_time=None,
            failure_reason=None,
            max_symmetry_residual=0.0,
        )
        runner.write_solution_csv(tmp_path / "solution.csv", sol)
        expected = reference_solution_csv(sol)
        for text in ("-0.0", "0.0", "nan", "inf", "-inf", "5e-324", "1e-05", "1e+16"):
            assert f",{text}\n" in expected
        _same_bytes(tmp_path / "solution.csv", expected)

        params = PursuitParams()
        x = rng.choice(values, size=(grid.steps + 1, 6))
        x[0, :2] = [-0.0, 0.0]
        u = tuple(rng.choice(values, size=(grid.steps + 1, 2)) for _ in range(4))
        traj = Trajectory(grid=grid, x=x, u=u, costs=np.zeros(4), lyapunov=None, mode="nash")
        report = PursuitReport(
            distances=x[:, ::-1].copy(), capture_radius=0.1, capture_time=None, captured_by=None
        )
        runner.write_trajectory_csv(tmp_path / "trajectory.csv", traj)
        runner.write_distances_csv(tmp_path / "distances.csv", traj, report)
        runner.write_positions_csv(tmp_path / "positions.csv", traj, params)
        _same_bytes(tmp_path / "trajectory.csv", reference_trajectory_csv(traj))
        _same_bytes(tmp_path / "distances.csv", reference_distances_csv(traj, report))
        _same_bytes(tmp_path / "positions.csv", reference_positions_csv(traj, params))


class TestRunSweep:
    def test_rectangular_table(self, tmp_path):
        scenario = load_scenario(SCENARIO_DIR / "pursuit_coarse.json")
        scenario = dataclasses.replace(
            scenario, run=dataclasses.replace(scenario.run, dt=0.01)
        )
        result = run_sweep(scenario, [1.0, 2.0], modes=("nash", "team"), out_dir=tmp_path)
        assert len(result.cells) == 4
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "mode,tf,d1,d2,d3,captured"
        assert len(lines) == 5
        for cell in result.cells:
            assert cell.status == "ok"
            assert cell.distances is not None and len(cell.distances) == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.csv"]

    def test_sliced_cells_equal_fresh_solves(self, tmp_path, monkeypatch):
        # One backward solve per (mode, dt) group; every cell must match a
        # fresh run of its own horizon bitwise. tf = 1.01 rounds to 102
        # steps, so its dt differs from 0.01 and it forms its own group.
        scenario = load_scenario(SCENARIO_DIR / "pursuit_coarse.json")
        tf_list = [1.0, 2.0, 3.0, 1.01]
        calls = []
        real_solve = runner.solve_coupled

        def counting_solve(game, grid, **kwargs):
            calls.append(grid.steps)
            return real_solve(game, grid, **kwargs)

        monkeypatch.setattr(runner, "solve_coupled", counting_solve)
        result = run_sweep(scenario, tf_list, modes=("nash", "team"), out_dir=tmp_path / "sweep")
        assert calls == [300, 102, 300, 102]
        monkeypatch.undo()
        for mode in ("nash", "team"):
            for tf in tf_list:
                cell = result.cell(mode, tf)
                fresh = run(
                    _with_mode_and_tf(scenario, mode, tf),
                    out_dir=tmp_path / f"{mode}_{tf}",
                    level="simulate",
                )
                assert cell.status == "ok" and fresh.exit_code == 0
                assert cell.distances.tobytes() == fresh.pursuit.final_distances.tobytes()
                assert cell.captured == fresh.pursuit.captured

    def test_failed_cells_marked_and_swept_past(self, tmp_path):
        # The tf = 1.0 solve escapes at t = 0.852. The tf = 0.05 cell is a
        # slice of the part it reached and must equal a fresh run bitwise.
        scenario = parse_scenario(json.dumps(ESCAPE_GAME))
        result = run_sweep(scenario, [0.05, 1.0], out_dir=tmp_path)
        statuses = {c.tf: c.status for c in result.cells}
        assert statuses[0.05] == "ok"
        assert statuses[1.0] == "blow_up"
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        bad = [l for l in lines if "nan" in l]
        assert len(bad) == 1
        short = run(_with_mode_and_tf(scenario, "nash", 0.05), out_dir=tmp_path / "short")
        assert short.exit_code == 0
        assert (
            result.cell("nash", 0.05).distances.tobytes()
            == short.pursuit.final_distances.tobytes()
        )
        assert run(scenario, out_dir=tmp_path / "long").exit_code == 3

    def test_empty_tf_list_rejected(self):
        scenario = load_scenario(SCENARIO_DIR / "pursuit_coarse.json")
        with pytest.raises(ValueError):
            run_sweep(scenario, [], out_dir="unused")

    def test_rejected_calls_create_no_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        scenario = load_scenario(SCENARIO_DIR / "pursuit_coarse.json")
        odd = {
            "schema_version": 1,
            "explicit": {
                "A": [[0.0]],
                "B": [[[1.0]], [[1.0]]],
                "Q": [[[-1.0]], [[2.0]]],
                "R": [[[1.0]], [[1.0]]],
                "S_f": [[[-1.0]], [[2.0]]],
                "tf": 1.0,
                "x0": [2.0],
            },
            "run": {"mode": "nash", "dt": 0.01, "out_dir": "out/odd"},
        }
        calls = [
            (scenario, [1.0], ("pursuit",)),
            (scenario, [], None),
            (parse_scenario(json.dumps(odd)), [1.0], None),
        ]
        for sc, tfs, modes in calls:
            for out_dir in (None, "sweep_out"):
                with pytest.raises(ValueError):
                    run_sweep(sc, tfs, modes=modes, out_dir=out_dir)
        assert list(tmp_path.iterdir()) == []


class TestCli:
    def test_check_exit_zero(self, tmp_path):
        code = cli_main(
            [
                "check",
                "--scenario",
                str(SCENARIO_DIR / "explicit_small.json"),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "conditions.txt").exists()

    def test_missing_scenario_file_exit_two(self, tmp_path, capsys):
        code = cli_main(["check", "--scenario", str(tmp_path / "nope.json")])
        assert code == 2

    def test_invalid_scenario_exit_two(self, tmp_path):
        doc = json.loads((SCENARIO_DIR / "explicit_small.json").read_text())
        doc["run"]["dt"] = -1.0
        path = _write_scenario(tmp_path, doc)
        code = cli_main(["check", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_blowup_exit_three(self, tmp_path):
        path = _write_scenario(tmp_path, ESCAPE_GAME)
        code = cli_main(["solve", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == 3

    def test_divergence_exit_four(self, tmp_path):
        path = _write_scenario(tmp_path, DIVERGENT_GAME)
        code = cli_main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == 4

    def test_sweep_with_failed_cell_exit_three(self, tmp_path):
        path = _write_scenario(tmp_path, ESCAPE_GAME)
        code = cli_main(
            [
                "sweep",
                "--scenario",
                str(path),
                "--tf-list",
                "0.05,1.0",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 3
        assert (tmp_path / "o" / "sweep.csv").exists()

    def test_overrides_applied(self, tmp_path):
        code = cli_main(
            [
                "simulate",
                "--scenario",
                str(SCENARIO_DIR / "explicit_small.json"),
                "--dt",
                "0.01",
                "--tf",
                "1.0",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 102  # header + 101 grid points
        assert lines[-1].split(",")[0] == "1.0"

    def test_mode_override(self, tmp_path):
        code = cli_main(
            [
                "check",
                "--scenario",
                str(SCENARIO_DIR / "pursuit_coarse.json"),
                "--mode",
                "nash",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        text = (tmp_path / "conditions.txt").read_text()
        assert "mode: nash" in text
        assert "sum_Q_pd: true (min_eig=0.25)" in text
