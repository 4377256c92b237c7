"""Scenario files, the run pipeline, artifact layouts, CLI exit codes."""
from __future__ import annotations

import argparse
import dataclasses
import json
import re
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aaolq
from aaolq import (
    GameDefinition,
    PursuitParams,
    RiccatiSolution,
    RunConfig,
    Scenario,
    SolveStats,
    SolveStatus,
    TimeGrid,
    build_pursuit_example,
    emit_scenario,
    gains,
    load_scenario,
    parse_scenario,
    run,
    run_sweep,
    pursuit_report,
    simulate,
    solve_coupled,
    solve_envelope,
)
from aaolq import linalg, riccati, runner, sim
from aaolq.cli import _apply_overrides, build_parser
from aaolq.cli import main as cli_main
from aaolq.errors import DivergenceError, ScenarioError, ValidationError
from aaolq.riccati import MAX_STEPS, FeedbackGain
from aaolq.sim import PursuitReport, Trajectory
from helpers import (
    ESCAPE_GAME,
    existence_map,
    march_solutions,
    reference_distances_csv,
    reference_positions_csv,
    reference_solution_csv,
    reference_trajectory_csv,
    scalar_lqr,
    traced_peak,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
README = Path(__file__).resolve().parent.parent / "README.md"

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

DIVERGENT_PLANAR_GAME = {
    # DIVERGENT_GAME with a second, undriven state: one distance block, so
    # it sweeps. The tf = 0.2 closed loop stays under the divergence
    # threshold; the tf = 2 one crosses it.
    "schema_version": 1,
    "explicit": {
        "A": [[5.0, 0.0], [0.0, 5.0]],
        "B": [[[1.0], [0.0]], [[1.0], [0.0]]],
        "Q": [[[-1.0, 0.0], [0.0, -1.0]], [[1.0, 0.0], [0.0, 1.0]]],
        "R": [[[1e12]], [[1e12]]],
        "S_f": [[[-1.0, 0.0], [0.0, -1.0]], [[2.0, 0.0], [0.0, 2.0]]],
        "tf": 2.0,
        "x0": [1e11, 0.0],
    },
    "run": {"mode": "nash", "dt": 0.001, "out_dir": "out/divergent_planar"},
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


@pytest.fixture
def inversions(monkeypatch) -> list[str]:
    """The name of every ``linalg.spd_inverse`` call made after set-up."""
    calls = []
    real_inverse = linalg.spd_inverse

    def counting_inverse(r, name="matrix"):
        calls.append(name)
        return real_inverse(r, name)

    monkeypatch.setattr(linalg, "spd_inverse", counting_inverse)
    return calls


class TestParseScenario:
    def test_explicit_capture_radius_defaults_to_a_tenth(self):
        doc = json.loads((SCENARIO_DIR / "explicit_small.json").read_text())
        doc["run"]["capture_radius"] = 0.25
        assert parse_scenario(json.dumps(doc)).capture_radius == 0.25
        del doc["run"]["capture_radius"]
        scenario = parse_scenario(json.dumps(doc))
        assert scenario.run.capture_radius is None
        assert scenario.capture_radius == 0.1
        assert parse_scenario(emit_scenario(scenario)) == scenario

    def test_shipped_benchmark_matches_builder_defaults(self):
        scenario = load_scenario(SCENARIO_DIR / "pursuit_benchmark.json")
        assert scenario.pursuit is not None
        assert scenario.pursuit.tf == 10.0
        assert scenario.capture_radius == scenario.pursuit.capture_radius == 0.1
        assert scenario.run.capture_radius is None
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

    @pytest.mark.parametrize("name, n", [("pursuit_coarse.json", 6), ("explicit_small.json", 2)])
    def test_bound_q_size_checked_against_the_game(self, name, n):
        doc = json.loads((SCENARIO_DIR / name).read_text())
        doc["run"]["bound_q"] = [[1.0]]
        with pytest.raises(ScenarioError, match=rf"^run\.bound_q: expected {n} x {n}, got 1 x 1$"):
            parse_scenario(json.dumps(doc))
        doc["run"]["bound_q"] = np.eye(n).tolist()
        assert np.array_equal(parse_scenario(json.dumps(doc)).run.bound_q, np.eye(n))

    def test_bound_q_checked_where_the_scenario_is_built(self):
        # A Python-built scenario is rejected on construction, before any solve.
        scenario = load_scenario(SCENARIO_DIR / "pursuit_coarse.json")
        with pytest.raises(ScenarioError, match=r"^run\.bound_q: expected 6 x 6, got 1 x 1$"):
            dataclasses.replace(scenario, run=dataclasses.replace(scenario.run, bound_q=np.eye(1)))
        with pytest.raises(ScenarioError, match=r"^run\.bound_q: asymmetry"):
            RunConfig(bound_q=[[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ScenarioError, match=r"^run\.bound_q: expected a square matrix"):
            RunConfig(bound_q=np.ones((2, 3)))
        cfg = RunConfig(bound_q=[[1.0, 2.0], [2.0 + 1e-12, 1.0]])
        assert cfg.bound_q[0, 1] == cfg.bound_q[1, 0] == (2.0 + (2.0 + 1e-12)) / 2.0
        assert not cfg.bound_q.flags.writeable

    def test_bad_mode_rejected(self):
        doc = json.loads((SCENARIO_DIR / "explicit_small.json").read_text())
        doc["run"]["mode"] = "minimax"
        with pytest.raises(ScenarioError, match="run.mode"):
            parse_scenario(json.dumps(doc))

    def test_not_json_rejected(self):
        with pytest.raises(ScenarioError, match="not valid JSON"):
            parse_scenario("mode: nash")


def _replace_run(scenario: Scenario, **changes) -> Scenario:
    return dataclasses.replace(scenario, run=dataclasses.replace(scenario.run, **changes))


def _replace_pursuit(scenario: Scenario, **changes) -> Scenario:
    return dataclasses.replace(scenario, pursuit=dataclasses.replace(scenario.pursuit, **changes))


def _replace_explicit(scenario: Scenario, **changes) -> Scenario:
    """As ``Scenario.with_tf`` replaces a field of an explicit game."""
    try:
        explicit = dataclasses.replace(scenario.explicit, **changes)
    except ValidationError as exc:
        raise ScenarioError(f"explicit: {exc}") from exc
    return dataclasses.replace(scenario, explicit=explicit)


def _set(path: tuple, value):
    """Doc mutation that sets the entry at ``path`` (keys and indices)."""

    def mutate(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return mutate


def _add_pursuit(doc):
    doc["pursuit"] = json.loads((SCENARIO_DIR / "pursuit_coarse.json").read_text())["pursuit"]


#: (base file, doc mutation, Python construction from the parsed base,
#: message): the file and the Python construction must fail alike.
MALFORMED = {
    "alphas_not_convex": (
        "pursuit_coarse.json",
        _set(("run", "alphas"), [0.2, 0.2, 0.2]),
        lambda sc: _replace_run(sc, alphas=(0.2, 0.2, 0.2)),
        f"run.alphas: team weights must sum to 1, got {0.2 + 0.2 + 0.2!r}",
    ),
    "alphas_not_positive": (
        "pursuit_coarse.json",
        _set(("run", "alphas"), [1.5, -0.5, 0.0]),
        lambda sc: _replace_run(sc, alphas=(1.5, -0.5, 0.0)),
        "run.alphas: team weights must be strictly positive",
    ),
    "alphas_count_pursuit": (
        "pursuit_coarse.json",
        _set(("run", "alphas"), [0.5, 0.5]),
        lambda sc: _replace_run(sc, alphas=(0.5, 0.5)),
        "run.alphas: expected 3 weights, got 2",
    ),
    "alphas_count_explicit": (
        "explicit_small.json",
        _set(("run", "alphas"), [0.5, 0.5]),
        lambda sc: _replace_run(sc, alphas=(0.5, 0.5)),
        "run.alphas: expected 1 weights, got 2",
    ),
    "pursuit_tf_before_t0": (
        "pursuit_coarse.json",
        _set(("pursuit", "tf"), -1.0),
        lambda sc: sc.with_tf(-1.0),
        "pursuit: need finite t0 <= tf, got t0=0.0, tf=-1.0",
    ),
    "explicit_tf_before_t0": (
        "explicit_small.json",
        _set(("explicit", "tf"), -1.0),
        lambda sc: sc.with_tf(-1.0),
        "explicit: need finite t0 <= tf, got t0=0.0, tf=-1.0",
    ),
    "pursuer_control_weight_zero": (
        "pursuit_coarse.json",
        _set(("pursuit", "pursuers", 1, "control_weight"), 0.0),
        lambda sc: _replace_pursuit(sc, pursuer_control_weights=(150.0, 0.0, 150.0)),
        "pursuit: R[3] must be positive definite",
    ),
    "evader_control_weight_negative": (
        "pursuit_benchmark.json",
        _set(("pursuit", "evader", "control_weight"), -1.0),
        lambda sc: _replace_pursuit(sc, evader_control_weight=-1.0),
        "pursuit: R[1] must be positive definite",
    ),
    "explicit_control_weight_ill_conditioned": (
        "explicit_small.json",
        _set(("explicit", "R", 0), [[1e-8, 0.0], [0.0, 1e5]]),
        lambda sc: _replace_explicit(sc, R=(np.diag([1e-8, 1e5]),) + sc.explicit.R[1:]),
        "explicit: R[1]: not safely invertible (eigenvalue range [1.000e-08, 1.000e+05])",
    ),
    "explicit_x0_size": (
        "explicit_small.json",
        _set(("explicit", "x0"), [1.0, 1.0, 1.0]),
        lambda sc: dataclasses.replace(sc, explicit_x0=np.ones(3)),
        "explicit.x0: expected 2 entries, got 3",
    ),
    "bound_q_size": (
        "explicit_small.json",
        _set(("run", "bound_q"), [[1.0]]),
        lambda sc: _replace_run(sc, bound_q=np.eye(1)),
        "run.bound_q: expected 2 x 2, got 1 x 1",
    ),
    "dt_zero": (
        "explicit_small.json",
        _set(("run", "dt"), 0.0),
        lambda sc: _replace_run(sc, dt=0.0),
        "run.dt: dt must be positive and finite",
    ),
    "dt_too_small_for_the_horizon": (
        "explicit_small.json",
        _set(("run", "dt"), 1e-320),
        lambda sc: _replace_run(sc, dt=1e-320),
        "run.dt: dt=1e-320 is too small for the span 1.5: span / dt is not finite",
    ),
    "span_overflows": (
        "explicit_small.json",
        lambda doc: doc["explicit"].update(t0=-1e308, tf=1e308),
        lambda sc: _replace_explicit(sc, t0=-1e308, tf=1e308),
        "run.dt: the span tf - t0 is not finite (t0=-1e+308, tf=1e+308)",
    ),
    "mode_unknown": (
        "pursuit_benchmark.json",
        _set(("run", "mode"), "minimax"),
        lambda sc: _replace_run(sc, mode="minimax"),
        "run.mode: expected one of ('nash', 'team'), got 'minimax'",
    ),
    "out_dir_empty": (
        "explicit_small.json",
        _set(("run", "out_dir"), ""),
        lambda sc: _replace_run(sc, out_dir=""),
        "run.out_dir: expected a non-empty string",
    ),
    "run_capture_radius_zero": (
        "explicit_small.json",
        _set(("run", "capture_radius"), 0.0),
        lambda sc: _replace_run(sc, capture_radius=0.0),
        "run.capture_radius: must be positive",
    ),
    "run_capture_radius_on_pursuit": (
        "pursuit_benchmark.json",
        _set(("run", "capture_radius"), 0.1),
        lambda sc: _replace_run(sc, capture_radius=0.1),
        "run.capture_radius: a pursuit game takes its radius from pursuit.capture_radius",
    ),
    "two_game_sources": (
        "explicit_small.json",
        _add_pursuit,
        lambda sc: dataclasses.replace(sc, pursuit=PursuitParams()),
        "scenario: exactly one of 'pursuit' or 'explicit' must be given",
    ),
}


class TestScenarioChecks:
    """Every check runs wherever a scenario is built: file, override or Python."""

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_file_and_python_fail_alike(self, name):
        base, mutate, build, message = MALFORMED[name]
        doc = json.loads((SCENARIO_DIR / base).read_text())
        mutate(doc)
        with pytest.raises(ScenarioError) as from_file:
            parse_scenario(json.dumps(doc))
        with pytest.raises(ScenarioError) as from_python:
            build(load_scenario(SCENARIO_DIR / base))
        assert str(from_file.value) == str(from_python.value) == message

    def test_run_config_checks_team_weights(self):
        with pytest.raises(ScenarioError, match=r"^run\.alphas: team weights must sum to 1"):
            RunConfig(alphas=(0.2, 0.2))
        with pytest.raises(ScenarioError, match=r"^run\.alphas: team weights must be strictly"):
            RunConfig(alphas=(float("nan"), 0.5, 0.5))
        assert RunConfig(alphas=[0.25, 0.75]).alphas == (0.25, 0.75)

    def test_run_config_rejects_infinite_dt(self):
        with pytest.raises(ScenarioError, match=r"^run\.dt: dt must be positive and finite$"):
            RunConfig(dt=float("inf"))

    @pytest.mark.parametrize(
        "base, build, message",
        [
            (
                "pursuit_coarse.json",
                lambda sc: _replace_pursuit(sc, x0=(float("nan"),) + sc.pursuit.x0[1:]),
                "pursuit.x0: entries must be finite",
            ),
            (
                "explicit_small.json",
                lambda sc: dataclasses.replace(sc, explicit_x0=np.array([float("inf"), 1.0])),
                "explicit.x0: entries must be finite",
            ),
        ],
        ids=["pursuit", "explicit"],
    )
    def test_non_finite_x0_rejected(self, base, build, message):
        # A file cannot carry one (the parser rejects non-finite numbers);
        # a scenario built in Python is stopped before anything is solved.
        with pytest.raises(ScenarioError, match=rf"^{re.escape(message)}$"):
            build(load_scenario(SCENARIO_DIR / base))

    @pytest.mark.parametrize(
        "base, path, where",
        [
            ("pursuit_coarse.json", ("run", "dT"), "run.dT"),
            ("pursuit_coarse.json", ("pursuit", "captur_radius"), "pursuit.captur_radius"),
            (
                "pursuit_coarse.json",
                ("pursuit", "evader", "stateweight"),
                "pursuit.evader.stateweight",
            ),
            (
                "pursuit_coarse.json",
                ("pursuit", "pursuers", 2, "weight"),
                "pursuit.pursuers[2].weight",
            ),
            ("explicit_small.json", ("explicit", "S"), "explicit.S"),
            ("explicit_small.json", ("scenario_version",), "scenario.scenario_version"),
        ],
    )
    def test_unknown_field_rejected_at_every_level(self, base, path, where):
        doc = json.loads((SCENARIO_DIR / base).read_text())
        _set(path, 0.01)(doc)
        with pytest.raises(ScenarioError, match=rf"^{re.escape(where)}: unknown field$"):
            parse_scenario(json.dumps(doc))

    def test_null_sections_read_as_absent(self):
        doc = json.loads((SCENARIO_DIR / "explicit_small.json").read_text())
        doc["pursuit"] = None
        doc["run"] = None
        scenario = parse_scenario(json.dumps(doc))
        assert scenario.pursuit is None and scenario.run == RunConfig()

    @pytest.mark.parametrize("name", ["pursuit_coarse.json", "explicit_small.json"])
    def test_grid_is_the_checked_grid_of_every_rebuild(self, name):
        scenario = load_scenario(SCENARIO_DIR / name)
        game, dt = scenario.build_game(), scenario.run.dt
        assert scenario.grid == TimeGrid.from_step(game.t0, game.tf, dt)
        finer = _replace_run(scenario, dt=dt / 2)
        assert finer.grid == TimeGrid.from_step(game.t0, game.tf, dt / 2)
        shorter = scenario.with_tf(game.tf / 2)
        assert shorter.grid == TimeGrid.from_step(game.t0, game.tf / 2, dt)
        # The grid is derived, never emitted.
        text = emit_scenario(scenario)
        assert "grid" not in text and parse_scenario(text).grid == scenario.grid
        if scenario.explicit is not None:
            assert json.loads(text) == json.loads((SCENARIO_DIR / name).read_text())


class TestReadmeExamples:
    def test_readme_scenario_blocks_parse(self):
        text = README.read_text()
        blocks = re.findall(r"```jsonc?\n(.*?)```", text, flags=re.S)
        assert blocks, "README.md has no json/jsonc block"
        for block in blocks:
            parse_scenario(re.sub(r"(^|\s)//.*$", "", block, flags=re.M))
        # A block the README says "is" a bundled file parses equal to it.
        named = re.findall(r"```jsonc?\n([^`]*)```\n\nThis is `(scenarios/[\w.]+)`", text)
        assert named, "README.md names no bundled scenario file"
        for block, name in named:
            parsed = parse_scenario(re.sub(r"(^|\s)//.*$", "", block, flags=re.M))
            assert parsed == load_scenario(README.parent / name), name

    def test_readme_python_blocks_run(self):
        blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
        assert blocks, "README.md has no python block"
        for block in blocks:
            exec(compile(block, str(README), "exec"), {})

    def test_readme_cli_options_match_the_parser(self):
        # The CLI section's options table lists, per row of subcommands,
        # exactly the options build_parser() accepts for each of them.
        section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        choices = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ).choices
        listed = {}
        for row in re.findall(r"^\| (`\w+`(?:, `\w+`)*) \| (.*`--.*) \|$", section, flags=re.M):
            for command in re.findall(r"`(\w+)`", row[0]):
                listed[command] = set(re.findall(r"`(--[\w-]+)`", row[1]))
        assert sorted(listed) == sorted(choices)
        for command, parser in choices.items():
            options = {o for a in parser._actions for o in a.option_strings if o.startswith("--")}
            assert listed[command] == options - {"--help"}, command

    def test_readme_python_api_names_resolve(self):
        # Every backticked identifier in the "Python API" section names
        # something importable from aaolq; `sweep` is the CLI command and
        # `python` the fence language.
        section = README.read_text().split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
        prose = re.sub(r"```.*?```", "", section, flags=re.S)
        names = set(re.findall(r"`([A-Za-z_]\w*)`", prose)) - {"sweep", "python"}
        assert "verify_solution" in names
        assert sorted(n for n in names if not hasattr(aaolq, n)) == []
        # `Owner.attr` names a method, property or dataclass field of Owner.
        dotted = re.findall(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)`", prose)
        assert ("GameDefinition", "H") in dotted
        for owner, attr in dotted:
            cls = getattr(aaolq, owner)
            assert hasattr(cls, attr) or attr in {f.name for f in dataclasses.fields(cls)}, attr


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _float_matrix(draw, rows, cols, elements=_FINITE):
    values = draw(st.lists(elements, min_size=rows * cols, max_size=rows * cols))
    return np.array(values, dtype=float).reshape(rows, cols)


def _symmetric_matrix(draw, n):
    """Mirror a drawn upper triangle: exactly symmetric, no arithmetic."""
    upper = np.triu(_float_matrix(draw, n, n))
    return upper + np.triu(upper, 1).T


@st.composite
def explicit_scenarios(draw):
    """Explicit games with n in 1..5 and M in 1..4, with run settings."""
    n = draw(st.integers(1, 5))
    players = draw(st.integers(1, 4))
    dims = [draw(st.integers(1, 3)) for _ in range(players)]
    positive = st.floats(min_value=1e-3, max_value=1e3)
    t0 = draw(st.floats(min_value=-1e3, max_value=1e3))
    game = GameDefinition(
        A=_float_matrix(draw, n, n),
        B=tuple(_float_matrix(draw, n, m) for m in dims),
        Q=tuple(_symmetric_matrix(draw, n) for _ in dims),
        R=tuple(np.diag(_float_matrix(draw, 1, m, positive)[0]) for m in dims),
        S_f=tuple(_symmetric_matrix(draw, n) for _ in dims),
        t0=t0,
        tf=t0 + draw(st.floats(min_value=0.0, max_value=1e3)),
    )
    team = players >= 2 and draw(st.booleans())
    # At most half of MAX_STEPS steps, so that rounding cannot cross the cap.
    min_dt = max(1e-9, 2.0 * (game.tf - game.t0) / MAX_STEPS)
    run_cfg = RunConfig(
        mode="team" if team else "nash",
        alphas=tuple([1.0 / (players - 1)] * (players - 1)) if team else None,
        dt=draw(st.floats(min_value=min_dt, max_value=1e3)),
        bound_q=_symmetric_matrix(draw, n) if draw(st.booleans()) else None,
        capture_radius=draw(st.none() | st.floats(min_value=1e-9, max_value=1e3)),
        out_dir="out/prop",
    )
    x0 = _float_matrix(draw, 1, n)[0]
    return Scenario(pursuit=None, explicit=game, explicit_x0=x0, run=run_cfg)


class TestRoundTrip:
    def test_shipped_scenarios_round_trip_bitwise(self):
        for name in ("pursuit_benchmark.json", "pursuit_coarse.json", "explicit_small.json"):
            scenario = load_scenario(SCENARIO_DIR / name)
            again = parse_scenario(emit_scenario(scenario))
            assert again == scenario
            assert again.run == scenario.run
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
            out_dir="out/prop",
        )
        scenario = Scenario(pursuit=params, explicit=None, explicit_x0=None, run=run_cfg)
        again = parse_scenario(emit_scenario(scenario))
        assert again.pursuit == params
        assert again.run == run_cfg


    @given(explicit_scenarios())
    @settings(max_examples=60, deadline=None)
    def test_random_explicit_round_trip_bitwise(self, scenario):
        again = parse_scenario(emit_scenario(scenario))
        game, back = scenario.explicit, again.explicit
        for field in ("B", "Q", "R", "S_f"):
            lhs, rhs = getattr(back, field), getattr(game, field)
            assert [m.tobytes() for m in lhs] == [m.tobytes() for m in rhs], field
        assert back.A.tobytes() == game.A.tobytes()
        assert (back.t0, back.tf) == (game.t0, game.tf)
        assert again.explicit_x0.tobytes() == scenario.explicit_x0.tobytes()
        if scenario.run.bound_q is None:
            assert again.run.bound_q is None
        else:
            assert again.run.bound_q.tobytes() == scenario.run.bound_q.tobytes()
        assert again.run == scenario.run


class TestValueEquality:
    def test_run_config_compares_bound_q_by_value(self):
        cfg = RunConfig(bound_q=np.eye(2))
        assert cfg == RunConfig(bound_q=np.eye(2)) and not cfg != RunConfig(bound_q=np.eye(2))
        assert cfg != RunConfig(bound_q=2.0 * np.eye(2))
        assert cfg != RunConfig(bound_q=np.eye(3))
        assert cfg != RunConfig()
        assert RunConfig() == RunConfig()
        with pytest.raises(TypeError, match="unhashable type"):
            hash(cfg)

    def test_scenarios_compare_by_value(self):
        small = load_scenario(SCENARIO_DIR / "explicit_small.json")
        assert small == load_scenario(SCENARIO_DIR / "explicit_small.json")
        assert small != small.with_tf(1.0)
        moved = dataclasses.replace(small, explicit_x0=small.explicit_x0 + 1.0)
        assert small != moved
        assert small != load_scenario(SCENARIO_DIR / "pursuit_coarse.json")
        with pytest.raises(TypeError, match="unhashable type"):
            hash(small)

    def test_sweep_cells_compare_by_value(self):
        def cell(distances=(0.5, 0.25, 0.125), status="ok"):
            return runner.SweepCell("nash", 2.0, np.array(distances), True, status)

        assert cell() == cell() and not cell() != cell()
        assert cell() != cell(distances=(0.5, 0.25, np.nextafter(0.125, 1.0)))
        assert cell() != cell(status="diverged")
        failed = runner.SweepCell("nash", 2.0, None, None, "blow_up")
        assert failed == runner.SweepCell("nash", 2.0, None, None, "blow_up")
        assert cell() != failed
        table = runner.SweepResult(("nash",), (2.0,), [cell()])
        assert table == runner.SweepResult(("nash",), (2.0,), [cell()])
        assert table != runner.SweepResult(("nash",), (2.0,), [cell(status="diverged")])
        with pytest.raises(TypeError, match="unhashable type"):
            hash(cell())

    def test_sweeps_and_runs_compare_whatever_their_timings(self, tmp_path):
        scenario = load_scenario(SCENARIO_DIR / "pursuit_coarse.json")
        first, again = (
            run_sweep(scenario, [2.0, 4.0], modes=("nash", "team"), out_dir=tmp_path / name)
            for name in "ab"
        )
        assert first.timings and again.timings
        assert first == again and first == dataclasses.replace(again, timings={})
        assert first != dataclasses.replace(again, solves=[])
        result = run(scenario, out_dir=tmp_path / "run", level="check")
        assert result.timings and result == dataclasses.replace(result, timings={})

    def test_results_compare_by_value(self):
        game = load_scenario(SCENARIO_DIR / "explicit_small.json").build_game()
        grid = TimeGrid(game.t0, game.tf, 4)

        def results():
            sol = solve_coupled(game, grid)
            player_gains = gains(game, sol)
            traj = simulate(game, player_gains, [1.0, 1.0])
            return (
                sol,
                player_gains[1],
                traj,
                pursuit_report(traj, 0.1),
                existence_map(game, None, sol.S[:, 0]),
                solve_envelope(game, None, grid),
            )

        for first, again in zip(results(), results()):
            assert first == again and not first != again
            name = next(
                f.name for f in dataclasses.fields(first)
                if isinstance(getattr(first, f.name), np.ndarray)
            )
            moved = np.nextafter(getattr(first, name), np.inf)
            assert first != dataclasses.replace(first, **{name: moved})
            with pytest.raises(TypeError, match="unhashable type"):
                hash(first)
        # A failed solve keeps NaN at the nodes it never reached.
        escape = parse_scenario(json.dumps(ESCAPE_GAME)).build_game()
        escape_grid = TimeGrid.from_step(escape.t0, escape.tf, 1e-3)
        failed = solve_coupled(escape, escape_grid)
        assert not failed.complete and np.isnan(failed.S[:, 0]).all()
        assert failed == solve_coupled(escape, escape_grid)


class TestRunPipeline:
    def test_empty_out_dir_argument_rejected_before_anything_is_written(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # an empty out_dir would write here
        scenario = load_scenario(SCENARIO_DIR / "explicit_small.json")
        message = r"^run\.out_dir: expected a non-empty string$"
        with pytest.raises(ScenarioError, match=message):
            run(scenario, out_dir="", level="check")
        with pytest.raises(ScenarioError, match=message):
            run_sweep(scenario, [1.0], out_dir="")
        assert list(tmp_path.iterdir()) == []

    def test_control_weights_inverted_once_per_game(self, tmp_path, inversions):
        # The scenario's game holds every R_i^{-1}: a nash run inverts
        # nothing more, a team run only its reduced game's two weights, and
        # a sweep only the long game's four and its team reduction's two.
        benchmark = load_scenario(SCENARIO_DIR / "pursuit_benchmark.json")
        nash = _replace_run(benchmark, dt=1e-2)
        team = _replace_run(nash, mode="team")
        counts = []
        for scenario in (nash, team):
            inversions.clear()
            assert run(scenario, out_dir=tmp_path / scenario.run.mode).exit_code == 0
            counts.append(len(inversions))
        inversions.clear()
        result = run_sweep(nash, range(2, 16, 2), modes=("nash", "team"), out_dir=tmp_path / "sweep")
        assert all(c.status == "ok" for c in result.cells)
        counts.append(len(inversions))
        assert counts == [0, 2, 6]

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
        stats = result.sol.stats
        assert (stats.substeps, stats.subdivided_intervals) == (531, 14)
        assert f"  substeps: 531  subdivided_intervals: 14  min_substep: {stats.min_substep!r}\n" in text
        assert f"  peak_norm: {stats.peak_norm!r} at t={stats.peak_time!r}\n" in text
        assert result.conditions.sum_q_min_eig == pytest.approx(-3.92, abs=0.005)
        assert result.conditions.sum_sf_min_eig == pytest.approx(-11.92, abs=0.005)
        assert text.endswith(
            "  - team mode: certificates refer to the reduced two-player game\n"
            "  - nash and team comparisons share the scenario dt\n"
        )

    def test_solved_game_is_the_game_or_its_team_reduction(self, tmp_path):
        team_scenario = load_scenario(SCENARIO_DIR / "pursuit_coarse.json")
        team = run(team_scenario, out_dir=tmp_path / "team", level="check")
        assert team.team_game is not None and team.solved_game is team.team_game.reduced
        nash = run(_replace_run(team_scenario, mode="nash"), out_dir=tmp_path / "nash", level="check")
        assert nash.team_game is None and nash.solved_game is nash.game

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

    def test_noncompliant_team_run_reports_the_full_game(self, tmp_path):
        # The coarse team game with a regulating opponent: four players, none reduced.
        coarse = load_scenario(SCENARIO_DIR / "pursuit_coarse.json")
        game = coarse.build_game()
        broken = dataclasses.replace(game, Q=(-game.Q[0], *game.Q[1:]))
        result = run(Scenario(None, broken, coarse.x0, coarse.run), out_dir=tmp_path)
        assert result.exit_code == 2 and result.team_game is None
        assert result.solved_game is result.game
        text = (tmp_path / "conditions.txt").read_text()
        assert "mode: team\nplayers: 4  states: 6  " in text
        assert "team mode" not in text and "scenario dt" not in text

    def test_blowup_still_writes_conditions(self, tmp_path):
        result = run(parse_scenario(json.dumps(ESCAPE_GAME)), out_dir=tmp_path)
        assert result.exit_code == 3
        assert result.sol is not None and not result.sol.complete
        text = (tmp_path / "conditions.txt").read_text()
        assert "status: blow_up" in text
        assert "failure_time:" in text

    def test_substep_budget_exit_three(self, tmp_path, monkeypatch):
        # The coarse team solve takes 531 substeps.
        monkeypatch.setattr(riccati, "SUBSTEP_BUDGET", 300)
        result = run(load_scenario(SCENARIO_DIR / "pursuit_coarse.json"), out_dir=tmp_path)
        assert result.exit_code == 3
        assert result.sol.status is SolveStatus.SUBSTEP_BUDGET
        assert result.messages == [
            f"backward solve ended with status substep_budget at t={result.sol.failure_time!r}"
        ]
        text = (tmp_path / "conditions.txt").read_text()
        assert "  status: substep_budget\n" in text
        assert "  failure_reason: substeps passed the budget of 300 for one solve\n" in text
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "conditions.txt", "solution.csv", "summary.txt"
        ]

    def test_divergence_exit_code(self, tmp_path):
        result = run(parse_scenario(json.dumps(DIVERGENT_GAME)), out_dir=tmp_path)
        assert result.exit_code == 4
        assert any("divergence threshold" in m for m in result.messages)

    @pytest.mark.parametrize("level", ["simulate", "check"])
    def test_a_run_leaves_only_its_own_artifacts(self, tmp_path, level):
        # A simulate run, then a divergent n = 1 game or a check of the same
        # game into its directory: only a fresh run's files are left, and
        # the sweep.csv of a sweep into the same directory.
        coarse = load_scenario(SCENARIO_DIR / "pursuit_coarse.json")
        later = parse_scenario(json.dumps(DIVERGENT_GAME)) if level == "simulate" else coarse
        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        run_sweep(coarse, [2.0], out_dir=shared)
        assert run(coarse, out_dir=shared).exit_code == 0
        assert run(later, out_dir=shared, level=level).exit_code == (4 if later is not coarse else 0)
        run(later, out_dir=fresh, level=level)
        left = {path.name: path.read_bytes() for path in shared.iterdir()}
        assert left.pop("sweep.csv").startswith(b"mode,tf,d1,")
        assert left == {path.name: path.read_bytes() for path in fresh.iterdir()}

    def test_unknown_level_rejected_before_any_directory(self, tmp_path):
        scenario = load_scenario(SCENARIO_DIR / "explicit_small.json")
        with pytest.raises(ValueError, match=r"^unknown run level 'x'$"):
            run(scenario, out_dir=tmp_path / "o", level="x")
        assert not (tmp_path / "o").exists()

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
        # Nodes the backward solve never reached, from t0 on, stay NaN; a
        # chunk of 7 nodes holds both NaN and finite nodes.
        assert expected.startswith("t,player,row,col,value\n0.0,1,1,1,nan\n")
        reached = np.isfinite(result.sol.S).all(axis=(0, 2, 3))
        assert reached.argmax() % 7 != 0 and reached.argmax() > 7
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

    def test_one_player_one_state(self, tmp_path):
        # M = 1, n = 1: one row per node, so every chunk seam falls between
        # two rows, and 101 nodes leave a partial last chunk at budget 56.
        sol = solve_coupled(scalar_lqr(), TimeGrid(0.0, 1.0, 100))
        runner.write_solution_csv(tmp_path / "solution.csv", sol)
        expected = reference_solution_csv(sol)
        assert expected.startswith("t,player,row,col,value\n0.0,1,1,1,0.76159415")
        assert expected.endswith("\n1.0,1,1,1,0.0\n")
        _same_bytes(tmp_path / "solution.csv", expected)

    def test_nan_sign_bits(self, tmp_path):
        # -nan and nan are distinct bit patterns that both print "nan"; beside
        # them -0.0 and 0.0 differ in bits and in text.
        grid = TimeGrid(0.0, 1.0, 12)
        values = np.array([np.nan, np.copysign(np.nan, -1.0), -0.0, 0.0])
        S = np.random.default_rng(19).choice(values, size=(2, grid.steps + 1, 2, 2))
        S[0, 0, 0, 0] = S[-1, -1, -1, -1] = values[1]
        assert set(np.signbit(S[np.isnan(S)]).tolist()) == {False, True}
        sol = RiccatiSolution(
            grid=grid,
            S=S,
            status=SolveStatus.COMPLETE,
            failure_time=None,
            failure_reason=None,
            max_symmetry_residual=0.0,
            stats=SolveStats(0, 0, grid.dt, 0.0, grid.tf),
        )
        runner.write_solution_csv(tmp_path / "solution.csv", sol)
        expected = reference_solution_csv(sol)
        assert expected.startswith("t,player,row,col,value\n0.0,1,1,1,nan\n")
        assert expected.endswith("\n1.0,2,2,2,nan\n")
        _same_bytes(tmp_path / "solution.csv", expected)

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
            stats=SolveStats(0, 0, grid.dt, 0.0, grid.tf),
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
        traj = Trajectory(grid=grid, x=x, u=u, costs=np.zeros(4))
        report = PursuitReport(
            distances=x[:, ::-1].copy(), capture_radius=0.1, capture_time=None, captured_by=None
        )
        runner.write_trajectory_csv(tmp_path / "trajectory.csv", traj)
        runner.write_distances_csv(tmp_path / "distances.csv", traj, report)
        runner.write_positions_csv(tmp_path / "positions.csv", traj, params)
        _same_bytes(tmp_path / "trajectory.csv", reference_trajectory_csv(traj))
        _same_bytes(tmp_path / "distances.csv", reference_distances_csv(traj, report))
        _same_bytes(tmp_path / "positions.csv", reference_positions_csv(traj, params))


class TestWriterBytesInSmallChunks(TestWriterBytes):
    """Every writer case again under small value budgets.

    A budget of 1 formats one node or row at a time. 56 values are 7 nodes
    of the escape game's solution (M = 2, n = 2), so a chunk straddles its
    NaN tail; they are 3 nodes of the 5-node special-value solution, 56 of
    the 101-node M = n = 1 one, 7 of the 13-node signed-NaN one and 3,
    14 and 6 rows of the coarse run's trajectory, distance and position
    tables, each with a partial last chunk. 1,008 values are 7 nodes of the
    coarse run's solution (M = 4, n = 6) and 67 of its trajectory rows."""

    @pytest.fixture(autouse=True, params=[1, 56, 1008])
    def small_chunks(self, request, monkeypatch):
        monkeypatch.setattr(sim, "CHUNK_VALUES", request.param)


def _dense_solution(rng, players: int, nodes: int, n: int) -> RiccatiSolution:
    grid = TimeGrid(0.0, 1.0, nodes - 1)
    return RiccatiSolution(
        grid=grid,
        S=rng.normal(size=(players, nodes, n, n)),
        status=SolveStatus.COMPLETE,
        failure_time=None,
        failure_reason=None,
        max_symmetry_residual=0.0,
        stats=SolveStats(0, 0, grid.dt, 0.0, grid.tf),
    )


def test_solution_writer_memory_does_not_grow_with_the_grid(tmp_path):
    # Traced peak of write_solution_csv at n = 6, M = 4: formatting one
    # chunk of nodes at a time keeps it flat in the node count, where
    # formatting every value at once grows about fourfold.
    rng = np.random.default_rng(3)
    peaks = []
    for nodes in (2000, 8000):
        sol = _dense_solution(rng, 4, nodes, 6)
        peaks.append(
            traced_peak(lambda: runner.write_solution_csv(tmp_path / "solution.csv", sol))
        )
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_solution_writer_joins_each_chunk_once(tmp_path, monkeypatch):
    # The writer hands _write_chunks the header, one string per chunk of
    # nodes and the closing newline, not one string per node.
    sol = _dense_solution(np.random.default_rng(17), 4, 2000, 6)
    write, counts = runner._write_chunks, []

    def counting(path, chunks):
        chunks = list(chunks)
        counts.append(len(chunks))
        write(path, chunks)

    monkeypatch.setattr(runner, "_write_chunks", counting)
    runner.write_solution_csv(tmp_path / "solution.csv", sol)
    per_chunk = sim.chunk_items(4 * 6 * 6)
    assert counts[0] <= -(-2000 // per_chunk) + 2, (counts, per_chunk)
    _same_bytes(tmp_path / "solution.csv", reference_solution_csv(sol))


def test_streamed_stage_memory_does_not_grow_with_the_game(tmp_path):
    # Traced peaks at a fixed node count, (n, M) = (24, 5) against (6, 4):
    # each chunk holds a budget of values, not of nodes or rows, so a node
    # 20 times wider does not make a chunk 20 times larger.
    rng = np.random.default_rng(5)
    peaks = []
    for n, players in ((6, 4), (24, 5)):
        sol = _dense_solution(rng, players, 100, n)
        width = players * n * n
        table = rng.normal(size=(100, width))
        header = [f"c{j}" for j in range(width)]
        # A stiff, stable closed loop, -c sum_j B_j B_j^T, on 10 intervals:
        # 60 substeps each, more than the budget holds at either size.
        grid = TimeGrid(0.0, 1.0, 10)
        b = tuple(rng.normal(size=(n, 2)) for _ in range(players))
        c = 150.0 / np.linalg.norm(sum(bj @ bj.T for bj in b))
        game = GameDefinition(
            A=np.zeros((n, n)),
            B=b,
            Q=(np.eye(n),) * players,
            R=(np.eye(2),) * players,
            S_f=(np.eye(n),) * players,
            t0=0.0,
            tf=1.0,
        )
        player_gains = [
            FeedbackGain(i + 1, grid, np.broadcast_to(c * bj.T, (11, 2, n)).copy())
            for i, bj in enumerate(b)
        ]
        x0 = rng.normal(size=n)
        peaks.append((
            traced_peak(lambda: runner.write_solution_csv(tmp_path / "solution.csv", sol)),
            traced_peak(lambda: runner._write_table(tmp_path / "table.csv", header, table)),
            traced_peak(lambda: simulate(game, player_gains, x0)),
        ))
    for small, large in zip(*peaks):
        assert large <= 1.25 * small, peaks


def test_nodes_and_rows_wider_than_the_budget(tmp_path):
    # One node of S (M = 4, n = 48: 9,216 values) and one trajectory row
    # (8,449 columns) each exceed the budget, so every chunk holds one.
    rng = np.random.default_rng(13)
    sol = _dense_solution(rng, 4, 3, 48)
    assert sol.S[:, 0].size > sim.CHUNK_VALUES
    runner.write_solution_csv(tmp_path / "solution.csv", sol)
    _same_bytes(tmp_path / "solution.csv", reference_solution_csv(sol))
    u = tuple(rng.normal(size=(3, 2100)) for _ in range(4))
    traj = Trajectory(grid=sol.grid, x=rng.normal(size=(3, 48)), u=u, costs=np.zeros(4))
    runner.write_trajectory_csv(tmp_path / "trajectory.csv", traj)
    _same_bytes(tmp_path / "trajectory.csv", reference_trajectory_csv(traj))


class TestTimings:
    """The (CPU s, wall s) that ``run()`` and ``run_sweep()`` book per stage."""

    @staticmethod
    def _check(timings: dict, whole: float):
        assert all(cpu >= 0.0 and wall >= 0.0 for cpu, wall in timings.values())
        assert sum(cpu for cpu, _ in timings.values()) <= whole

    @pytest.mark.parametrize("level, stages", [
        ("check", ["solve", "verify_solution"]),
        ("solve", ["solve", "verify_solution", "solution.csv"]),
        ("simulate", [
            "solve", "verify_solution", "solution.csv", "gains + simulate", "other writers",
            "lyapunov_check",
        ]),
    ])
    def test_each_level_times_its_stages(self, tmp_path, level, stages):
        start = time.process_time()
        result = run(load_scenario(SCENARIO_DIR / "pursuit_coarse.json"), tmp_path, level=level)
        whole = time.process_time() - start
        assert result.exit_code == 0
        assert list(result.timings) == stages
        self._check(result.timings, whole)

    @pytest.mark.parametrize("level", ["check", "solve", "simulate"])
    def test_a_blown_up_solve_times_the_solve_alone(self, tmp_path, level):
        # The solve and simulate levels still write the failed solve's
        # solution.csv, NaN past its failure, and time that.
        result = run(parse_scenario(json.dumps(ESCAPE_GAME)), tmp_path, level=level)
        assert result.exit_code == 3
        assert list(result.timings) == ["solve"] + ["solution.csv"] * (level != "check")

    def test_a_sweep_books_each_step_groups_solves(self, tmp_path):
        # 2.03 is no multiple of the scenario's dt = 0.01, so it makes a
        # second step group; the first holds every other horizon.
        scenario = load_scenario(SCENARIO_DIR / "pursuit_coarse.json")
        start = time.process_time()
        sweep = run_sweep(scenario, [*range(2, 16, 2), 2.03], ("nash", "team"), tmp_path)
        whole = time.process_time() - start
        assert list(sweep.timings) == ["sweep solve", "sweep forward"]
        self._check(sweep.timings, whole)
        assert len(sweep.solves) == 2
        (nash, team), iterations = sweep.solves[0]
        long = scenario.with_tf(14.0)
        assert nash == solve_coupled(long.build_game(), long.grid).stats
        assert max(nash.substeps, team.substeps) <= iterations <= nash.substeps + team.substeps


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

    def test_cells_own_their_distances(self, tmp_path):
        # A cell keeps its final distances alone, read-only, not a view of
        # its horizon's whole distance history.
        scenario = load_scenario(SCENARIO_DIR / "pursuit_coarse.json")
        result = run_sweep(scenario, [2.0, 4.0], modes=("nash", "team"), out_dir=tmp_path)
        for cell in result.cells:
            assert cell.status == "ok" and cell.distances.shape == (3,)
            assert cell.distances.base is None
            assert not cell.distances.flags.writeable

    def test_sliced_cells_equal_fresh_solves(self, tmp_path, monkeypatch):
        # One lockstep solve of both modes per dt group; every cell must
        # match a fresh run of its own horizon bitwise. tf = 1.01 rounds to
        # 102 steps, so its dt differs from 0.01 and it forms its own group.
        scenario = load_scenario(SCENARIO_DIR / "pursuit_coarse.json")
        tf_list = [1.0, 2.0, 3.0, 1.01]
        calls = []
        real_march = runner.march_lockstep

        def counting_march(games, grid, stores):
            calls.append((grid.steps, [g.num_players for g in games]))
            return real_march(games, grid, stores)

        monkeypatch.setattr(runner, "march_lockstep", counting_march)
        result = run_sweep(scenario, tf_list, modes=("nash", "team"), out_dir=tmp_path / "sweep")
        assert calls == [(300, [4, 2]), (102, [4, 2])]
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

    def test_diverged_cell_beside_a_finished_one(self, tmp_path):
        # One forward pass carries both cells; the tf = 2 start crosses the
        # divergence threshold and drops out, the tf = 0.2 start runs on.
        scenario = parse_scenario(json.dumps(DIVERGENT_PLANAR_GAME))
        result = run_sweep(scenario, [0.2, 2.0], out_dir=tmp_path / "sweep")
        short, long = result.cell("nash", 0.2), result.cell("nash", 2.0)
        assert short.status == "ok"
        assert short.distances.tolist() == [271828182844.32077]
        assert long.status == "diverged" and long.distances is None
        lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        assert lines[1:] == ["nash,0.2,271828182844.32077,false", "nash,2.0,nan,diverged"]
        fresh = run(_with_mode_and_tf(scenario, "nash", 0.2), out_dir=tmp_path / "short")
        assert fresh.exit_code == 0
        assert short.distances.tobytes() == fresh.pursuit.final_distances.tobytes()
        assert short.captured == fresh.pursuit.captured
        assert run(scenario, out_dir=tmp_path / "long").exit_code == runner.EXIT_DIVERGENCE

    def test_cells_entering_across_map_chunks(self, tmp_path):
        # 2,000 intervals in one group: the shared pass builds its maps over
        # several 512-substep chunks, and the shorter cells enter part-way
        # through one. Each cell must still equal a fresh run bitwise.
        scenario = load_scenario(SCENARIO_DIR / "pursuit_coarse.json")
        scenario = dataclasses.replace(scenario, run=dataclasses.replace(scenario.run, dt=2e-3))
        tf_list = [1.0, 3.0, 4.0]
        result = run_sweep(scenario, tf_list, modes=("nash",), out_dir=tmp_path / "sweep")
        for tf in tf_list:
            cell = result.cell("nash", tf)
            fresh = run(_with_mode_and_tf(scenario, "nash", tf), tmp_path / f"{tf}", level="simulate")
            assert cell.status == "ok" and fresh.exit_code == 0
            assert cell.distances.tobytes() == fresh.pursuit.final_distances.tobytes()
            assert cell.captured == fresh.pursuit.captured

    def test_forward_pass_starts_equal_their_solo_runs(self, monkeypatch):
        # Unsorted and repeated starts, node 0 and the last node, under chunk
        # sizes that cut the maps anywhere: every entry equals the run of its
        # start alone bitwise.
        scenario = load_scenario(SCENARIO_DIR / "pursuit_coarse.json")
        game = scenario.build_game()
        grid = TimeGrid.from_step(game.t0, game.tf, scenario.run.dt)
        acl = sim.closed_loop(game, gains(game, solve_coupled(game, grid)))
        starts = [40, 0, 17, 40, 3, 400]
        assert grid.steps == 400 and game.n == 6
        solo = {s: _propagate_paths(grid, acl, scenario.x0, [s])[0] for s in starts}
        # Budgets of 1, 3, 7 and 227 substeps of 36 values, the last the default.
        for budget in (1, 3 * 36, 7 * 36, sim.CHUNK_VALUES):
            monkeypatch.setattr(sim, "CHUNK_VALUES", budget)
            states = _propagate_paths(grid, acl, scenario.x0, starts)
            for s, x in zip(starts, states):
                assert x.tobytes() == solo[s].tobytes(), (budget, s)
        # One substep per interval: the node-0 start diverges at node 461,
        # inside the chunk that the node-400 start enters. The node-1,800
        # start stays finite.
        monkeypatch.undo()
        scenario = parse_scenario(json.dumps(DIVERGENT_PLANAR_GAME))
        game = scenario.build_game()
        grid = TimeGrid.from_step(game.t0, game.tf, scenario.run.dt)
        acl = sim.closed_loop(game, gains(game, solve_coupled(game, grid)))
        starts = [400, 1800, 0]
        solo = {s: _propagate_paths(grid, acl, scenario.x0, [s])[0] for s in starts}
        assert solo[0].time == 0.461 and solo[400].time == 0.861
        assert solo[1800].shape == (201, 2)
        # Budgets of 1, 3, 7 and 2,048 substeps of 4 values, the last the default.
        for budget in (1, 3 * 4, 7 * 4, sim.CHUNK_VALUES):
            monkeypatch.setattr(sim, "CHUNK_VALUES", budget)
            states = _propagate_paths(grid, acl, scenario.x0, starts)
            for s in (0, 400):
                x = states[starts.index(s)]
                assert isinstance(x, DivergenceError), (budget, s)
                assert (x.time, x.norm) == (solo[s].time, solo[s].norm), (budget, s)
            assert states[1].tobytes() == solo[1800].tobytes(), budget

    def test_gains_synthesized_once_per_group(self, tmp_path, monkeypatch):
        # tf = 1.01 rounds to 102 steps: its own dt, its own group. The
        # gains calls of a mode take its nodes in folds of as many nodes of
        # players * n * n values as the budget holds, the last one the
        # rest: every node's gains are formed exactly once.
        scenario = load_scenario(SCENARIO_DIR / "pursuit_coarse.json")
        real_gains = runner.gains

        def counting_gains(game, sol):
            calls.append((sol.grid.steps + 1, game.num_players, sol.S.shape[1]))
            return real_gains(game, sol)

        monkeypatch.setattr(runner, "gains", counting_gains)
        # 7 nash nodes (14 team nodes) of n = 6, then the default budget.
        for budget in (7 * 4 * 36, sim.CHUNK_VALUES):
            monkeypatch.setattr(sim, "CHUNK_VALUES", budget)
            calls = []
            result = run_sweep(
                scenario, [1.0, 2.0, 3.0, 1.01], modes=("nash", "team"), out_dir=tmp_path
            )
            for nodes in (301, 103):
                for players in (4, 2):  # nash, and the team reduction
                    folds = [c for g, m, c in calls if (g, m) == (nodes, players)]
                    fold_nodes = budget // (players * 36)
                    whole, rest = divmod(nodes, fold_nodes)
                    assert folds == [fold_nodes] * whole + [rest] * (rest > 0), (nodes, players)
            assert all(c.status == "ok" for c in result.cells)

    def test_team_reduction_built_once_per_group(self, tmp_path, monkeypatch):
        scenario = load_scenario(SCENARIO_DIR / "pursuit_coarse.json")
        scenario = dataclasses.replace(scenario, run=dataclasses.replace(scenario.run, dt=0.01))
        calls = []
        real_build = runner.build_team_game

        def counting_build(game, weights=None):
            calls.append(game.tf)
            return real_build(game, weights)

        monkeypatch.setattr(runner, "build_team_game", counting_build)
        result = run_sweep(scenario, [1.0, 2.0], modes=("nash", "team"), out_dir=tmp_path)
        assert calls == [2.0]
        assert all(c.status == "ok" for c in result.cells)

    def test_sign_pattern_violation_rejected_before_any_directory(self, tmp_path):
        # run() on this game solves nothing and exits 2; the sweep must not
        # solve it either.
        doc = json.loads((SCENARIO_DIR / "explicit_small.json").read_text())
        doc["explicit"]["Q"][0] = [[1.0, 0.0], [0.0, 1.0]]
        scenario = parse_scenario(json.dumps(doc))
        assert run(scenario, out_dir=tmp_path / "run").exit_code == runner.EXIT_VALIDATION
        with pytest.raises(ValidationError, match="all-against-one sign pattern"):
            run_sweep(scenario, [0.5, 1.0], out_dir=tmp_path / "sweep")
        assert not (tmp_path / "sweep").exists()

    def test_duplicate_modes_rejected_before_any_directory(self, tmp_path):
        scenario = load_scenario(SCENARIO_DIR / "pursuit_coarse.json")
        with pytest.raises(ValueError, match="sweep modes must be distinct"):
            run_sweep(scenario, [1.0], modes=("nash", "team", "nash"), out_dir=tmp_path / "sweep")
        assert not (tmp_path / "sweep").exists()

    def test_duplicate_horizons_repeat_their_rows(self, tmp_path):
        scenario = load_scenario(SCENARIO_DIR / "pursuit_coarse.json")
        scenario = dataclasses.replace(scenario, run=dataclasses.replace(scenario.run, dt=0.01))
        result = run_sweep(scenario, [1.0, 1.0], modes=("nash",), out_dir=tmp_path)
        assert [c.tf for c in result.cells] == [1.0, 1.0]
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3 and lines[1] == lines[2]

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
            (scenario, [1.0], ("pursuit",), ValueError),
            (scenario, [], None, ValueError),
            (parse_scenario(json.dumps(odd)), [1.0], None, ValueError),
            (scenario, [1.0, -1.0], None, ValidationError),  # need tf >= t0
        ]
        for sc, tfs, modes, error in calls:
            for out_dir in (None, "sweep_out"):
                with pytest.raises(error):
                    run_sweep(sc, tfs, modes=modes, out_dir=out_dir)
        assert list(tmp_path.iterdir()) == []

    def test_a_table_sweep_builds_no_scenario(self, tmp_path, monkeypatch):
        # Each step group marches the checked game with its horizon moved
        # and the grid the sweep already built for it.
        scenario = load_scenario(SCENARIO_DIR / "pursuit_benchmark.json")
        built = []
        post_init = Scenario.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(Scenario, "__post_init__", counting)
        result = run_sweep(scenario, range(2, 16, 2), ("nash", "team"), tmp_path)
        assert built == []
        assert [c.status for c in result.cells] == ["ok"] * 14

    def test_missing_cell_raises_key_error(self):
        table = runner.SweepResult(("nash",), (2.0,), [])
        with pytest.raises(KeyError) as err:
            table.cell("nash", 3.0)
        assert err.value.args == (("nash", 3.0),)

    def test_cells_past_the_substep_budget(self, tmp_path, monkeypatch):
        # The coarse team solve takes 231 substeps to tf = 1 and 531 to tf = 4.
        monkeypatch.setattr(riccati, "SUBSTEP_BUDGET", 300)
        scenario = load_scenario(SCENARIO_DIR / "pursuit_coarse.json")
        result = run_sweep(scenario, [1.0, 4.0], out_dir=tmp_path)
        assert [c.status for c in result.cells] == ["ok", "substep_budget"]
        assert (tmp_path / "sweep.csv").read_text().splitlines()[-1] == (
            "team,4.0,nan,nan,nan,substep_budget"
        )


def _propagate_paths(grid, acl, x0, starts):
    """``sim._propagate`` into one whole state path per start, (steps - start + 1, n)."""
    paths = [np.empty((grid.steps - s + 1, acl.shape[-1])) for s in starts]
    return sim._propagate(grid, acl, x0, starts, paths)


def _fold_and_reference(scenario, modes, tf, tmp_path):
    """Each mode's folded A_cl nodes beside A - sum_j B_j K_j of a full history.

    Sweeps the one horizon ``tf`` into ``tmp_path / "fold"``, catching the
    march's grid, folds and failures. Returns the failures and, per mode,
    the nodes its fold made and the reference, built from
    ``helpers.march_solutions`` and ``_player_gains``.
    """
    real_march, caught = runner.march_lockstep, []

    def catching_march(games, grid, stores):
        marched = real_march(games, grid, stores)
        caught.append((grid, stores, marched[0]))
        return marched

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "march_lockstep", catching_march)
        run_sweep(scenario, [tf], modes=modes, out_dir=tmp_path / "fold")
    [(grid, stores, failed)] = caught
    acls = [fold.acl for fold in stores]
    long_game = scenario.with_tf(tf).build_game()
    teams = [runner._team_game(scenario, long_game, mode) for mode in modes]
    games = [long_game if team is None else team.reduced for team in teams]
    pairs = []
    for acl, team, sol in zip(acls, teams, march_solutions(games, grid)):
        # Gains of the nodes never reached are NaN, as their S is.
        whole = dataclasses.replace(sol, status=SolveStatus.COMPLETE)
        n = long_game.n
        reference = np.broadcast_to(long_game.A, (grid.steps + 1, n, n)).copy()
        for b, g in zip(long_game.B, runner._player_gains(long_game, team, whole)):
            reference -= np.matmul(b, g.K)
        pairs.append((acl, reference))
    return failed, pairs


class TestCaptureReceiver:
    """Each start's capture receiver keeps what ``pursuit_report`` says of its path.

    A sweep cell's final distances and capture flag must equal its own
    ``run()`` bitwise when capture comes at node 0, only at the last node
    or never, on the one-node grid and beside a diverged start, under
    budgets of 1, 3 and 7 forward substeps of n² values and the default.
    """

    @staticmethod
    def _coarse(radius: float | None = None) -> Scenario:
        scenario = load_scenario(SCENARIO_DIR / "pursuit_coarse.json")
        return scenario if radius is None else _replace_pursuit(scenario, capture_radius=radius)

    @staticmethod
    def _check(tmp_path, monkeypatch, scenario, tf_list) -> dict:
        """Sweep ``tf_list`` at every budget against each horizon's ``run()``; the runs."""
        mode, n = scenario.run.mode, len(scenario.x0)
        fresh = {tf: run(_with_mode_and_tf(scenario, mode, tf), tmp_path / f"{tf}") for tf in tf_list}
        for budget in (1, 3 * n * n, 7 * n * n, sim.CHUNK_VALUES):
            monkeypatch.setattr(sim, "CHUNK_VALUES", budget)
            result = run_sweep(scenario, tf_list, out_dir=tmp_path / f"sweep_{budget}")
            for tf, ref in fresh.items():
                cell = result.cell(mode, tf)
                if ref.exit_code == runner.EXIT_DIVERGENCE:
                    assert cell.status == "diverged" and cell.distances is None, (budget, tf)
                    continue
                assert cell.status == "ok" and ref.exit_code == runner.EXIT_OK, (budget, tf)
                assert cell.distances.tobytes() == ref.pursuit.final_distances.tobytes(), (budget, tf)
                assert cell.captured == ref.pursuit.captured, (budget, tf)
        return fresh

    def test_capture_at_node_zero(self, tmp_path, monkeypatch):
        # x0's blocks lie 13.2, 11.4 and 17.2 from the evader.
        fresh = self._check(tmp_path, monkeypatch, self._coarse(12.0), [2.0, 4.0])
        assert [r.pursuit.capture_time for r in fresh.values()] == [0.0, 0.0]

    def test_capture_only_at_the_last_node(self, tmp_path, monkeypatch):
        # The radius is tf = 4's smallest final distance; every earlier
        # node's smallest distance is larger.
        radius = float(run(self._coarse(), tmp_path / "ref").pursuit.final_distances.min())
        fresh = self._check(tmp_path, monkeypatch, self._coarse(radius), [2.0, 4.0])
        assert [r.pursuit.capture_time for r in fresh.values()] == [None, 4.0]

    def test_no_capture(self, tmp_path, monkeypatch):
        fresh = self._check(tmp_path, monkeypatch, self._coarse(), [2.0, 4.0])
        assert [r.pursuit.captured for r in fresh.values()] == [False, False]

    @pytest.mark.parametrize("radius", [12.0, 0.1])
    def test_one_node_grid(self, tmp_path, monkeypatch, radius):
        fresh = self._check(tmp_path, monkeypatch, self._coarse(radius), [0.0])
        assert fresh[0.0].pursuit.captured == (radius == 12.0)

    def test_diverged_start_beside_a_finished_one(self, tmp_path, monkeypatch):
        scenario = parse_scenario(json.dumps(DIVERGENT_PLANAR_GAME))
        fresh = self._check(tmp_path, monkeypatch, scenario, [0.2, 2.0])
        assert [r.exit_code for r in fresh.values()] == [runner.EXIT_OK, runner.EXIT_DIVERGENCE]

    @pytest.mark.parametrize("radius", [12.0, 0.1])
    def test_start_at_the_last_node(self, monkeypatch, radius):
        # A sweep starts at a grid's last node only on the one-node grid;
        # the forward pass takes one beside others on a longer grid. Each
        # receiver equals the report of its start's whole path.
        scenario = self._coarse()
        game = scenario.build_game()
        grid = TimeGrid.from_step(game.t0, game.tf, scenario.run.dt)
        acl = sim.closed_loop(game, gains(game, solve_coupled(game, grid)))
        starts = [400, 0, 200, 400]
        reports = []
        for s, path in zip(starts, _propagate_paths(grid, acl, scenario.x0, starts)):
            tail = TimeGrid(float(grid.times()[s]), grid.tf, grid.steps - s)
            reports.append(sim.pursuit_report(Trajectory(tail, path, (), np.zeros(0)), radius))
        assert reports[0].distances.shape == (1, 3)
        for budget in (1, 3 * 36, 7 * 36, sim.CHUNK_VALUES):
            monkeypatch.setattr(sim, "CHUNK_VALUES", budget)
            captures = [runner._Capture(radius) for _ in starts]
            assert sim._propagate(grid, acl, scenario.x0, starts, captures) == captures
            for got, report in zip(captures, reports):
                assert got.distances.tobytes() == report.final_distances.tobytes(), budget
                assert got.captured == report.captured, budget


class TestClosedLoopFold:
    """The sweep's fold gives the closed loop of a full solve, bit for bit.

    The budgets hold 1, 3 and 7 nash nodes of the coarse game (M = 4,
    n = 6: 144 values each), then the default; the team fold holds twice
    as many nodes, except under budget 1, which is below one node of
    either, so both folds hold one.
    """

    @pytest.mark.parametrize("budget", [1, 3 * 144, 7 * 144, sim.CHUNK_VALUES])
    def test_nodes_equal_a_full_history(self, tmp_path, monkeypatch, budget):
        monkeypatch.setattr(sim, "CHUNK_VALUES", budget)
        scenario = load_scenario(SCENARIO_DIR / "pursuit_coarse.json")
        failed, pairs = _fold_and_reference(scenario, ("nash", "team"), 3.0, tmp_path)
        assert failed == {}
        for acl, reference in pairs:
            assert acl.shape == (301, 6, 6)
            assert acl.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("budget", [3 * 8, sim.CHUNK_VALUES])
    def test_escape_leaves_unreached_nodes_nan(self, tmp_path, monkeypatch, budget):
        # 3 nodes of the escape game (M = 2, n = 2), then the default.
        monkeypatch.setattr(sim, "CHUNK_VALUES", budget)
        scenario = parse_scenario(json.dumps(ESCAPE_GAME))
        failed, [(acl, reference)] = _fold_and_reference(scenario, ("nash",), 1.0, tmp_path)
        node, status, _ = failed[0]
        assert status is SolveStatus.BLOW_UP and 0 < node < 1000
        assert np.isnan(acl[: node + 1]).all() and np.isnan(reference[: node + 1]).all()
        assert acl[node + 1 :].tobytes() == reference[node + 1 :].tobytes()
        result = run_sweep(scenario, [1.0, 0.05], out_dir=tmp_path)
        assert [c.status for c in result.cells] == ["blow_up", "ok"]

    def test_substep_budget_cells(self, tmp_path, monkeypatch):
        # The coarse team solve takes 531 substeps to tf = 4.
        monkeypatch.setattr(riccati, "SUBSTEP_BUDGET", 300)
        scenario = load_scenario(SCENARIO_DIR / "pursuit_coarse.json")
        failed, [(acl, reference)] = _fold_and_reference(scenario, ("team",), 4.0, tmp_path)
        node, status, _ = failed[0]
        assert status is SolveStatus.SUBSTEP_BUDGET
        assert np.isnan(acl[: node + 1]).all()
        assert acl[node + 1 :].tobytes() == reference[node + 1 :].tobytes()
        result = run_sweep(scenario, [4.0, 3.0], out_dir=tmp_path)
        assert [c.status for c in result.cells] == ["substep_budget", "substep_budget"]

    def test_one_node_grid(self, tmp_path):
        scenario = load_scenario(SCENARIO_DIR / "pursuit_coarse.json")
        failed, pairs = _fold_and_reference(scenario, ("nash", "team"), 0.0, tmp_path)
        assert failed == {}
        for acl, reference in pairs:
            assert acl.shape == (1, 6, 6) and acl.tobytes() == reference.tobytes()
        result = run_sweep(scenario, [0.0], modes=("nash", "team"), out_dir=tmp_path / "sweep")
        fresh = run(scenario.with_tf(0.0), out_dir=tmp_path / "run")
        for cell in result.cells:
            assert cell.status == "ok"
            assert cell.distances.tobytes() == fresh.pursuit.final_distances.tobytes()


def test_sweep_holds_no_solution_history(tmp_path):
    # Traced peak of a two-mode sweep at dt = 1e-3: folding each node into
    # A_cl as the march reaches it stays below the bytes of the nash and
    # team S histories alone, which holding both would pass.
    scenario = load_scenario(SCENARIO_DIR / "pursuit_coarse.json")
    scenario = dataclasses.replace(scenario, run=dataclasses.replace(scenario.run, dt=1e-3))
    game = scenario.build_game()
    nodes = TimeGrid.from_step(game.t0, 6.0, 1e-3).steps + 1
    histories = (game.num_players + 2) * nodes * game.n * game.n * 8
    tracemalloc.start()
    try:
        result = run_sweep(scenario, [3.0, 6.0], modes=("nash", "team"), out_dir=tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c.status == "ok" for c in result.cells)
    assert peak < histories, (peak, histories)


def test_sweep_holds_no_state_path(tmp_path):
    # Traced peak of a two-mode sweep of 21 horizons in [5, 6] at dt = 1e-3:
    # each cell keeps its capture flag and final distances, so the peak
    # stays within the two modes' closed-loop matrices plus 2 MiB for the
    # march's and the forward pass's working sets (1.4 MB measured). One
    # state path per horizon would add about 5.3 MB per mode.
    scenario = load_scenario(SCENARIO_DIR / "pursuit_coarse.json")
    scenario = dataclasses.replace(scenario, run=dataclasses.replace(scenario.run, dt=1e-3))
    game = scenario.build_game()
    nodes = TimeGrid.from_step(game.t0, 6.0, 1e-3).steps + 1
    closed_loops = 2 * nodes * game.n * game.n * 8
    tf_list = np.linspace(5.0, 6.0, 21).tolist()
    tracemalloc.start()
    try:
        result = run_sweep(scenario, tf_list, modes=("nash", "team"), out_dir=tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [c.status for c in result.cells] == ["ok"] * 42
    assert peak < closed_loops + 2**21, (peak, closed_loops)


def test_sweep_releases_each_modes_matrices_before_the_next_forward_pass(tmp_path, monkeypatch):
    # While the team forward pass runs, nothing holds the nash closed-loop
    # matrices any more: each mode's go once its cells are made.
    propagate, held, alive = runner._propagate, [], []

    def watching(grid, acl, x0, starts, stores):
        alive.append([ref() is not None for ref in held])
        held.append(weakref.ref(acl))
        return propagate(grid, acl, x0, starts, stores)

    monkeypatch.setattr(runner, "_propagate", watching)
    scenario = load_scenario(SCENARIO_DIR / "pursuit_coarse.json")
    result = run_sweep(scenario, [1.0, 2.0], modes=("nash", "team"), out_dir=tmp_path)
    assert all(c.status == "ok" for c in result.cells)
    assert alive == [[], [False]]


class TestGridCeiling:
    """``runner.MAX_GRID_BYTES`` refuses a run or a sweep whose whole-grid
    arrays would pass it, naming each array's bytes, before any directory is
    made. It is patched down here, so no large array is made.

    The coarse scenario's grid has 401 nodes: n = 6, M = 4 and 8 control
    columns in all. Its S history takes 2 players × 36 floats per node in
    team mode (the reduction), 4 in nash; L 36 floats, K 48, the closed loop
    36, x 6 and u 8, each × 401 nodes × 8 bytes.
    """

    #: Per mode, the bytes of a check (S and L) and of a simulate run.
    CHECK = {"nash": 577_440, "team": 346_464}
    SIMULATE = {"nash": 891_824, "team": 660_848}
    S = {"nash": "S 461,952", "team": "S 230,976"}
    FORWARD = "K 153,984, closed_loop 115,488, x 19,248, u 25,664"
    #: A sweep of the nash file to [4, 8] in both modes: each mode's
    #: closed-loop matrices on the 801 nodes of tf = 8.
    SWEEP = 461_376

    def _held(self, mode: str, level: str) -> str:
        """The refusal's account of what a run at ``level`` holds."""
        if level == "simulate":
            return f"{self.SIMULATE[mode]:,} bytes ({self.S[mode]}, L 115,488, {self.FORWARD})"
        return f"{self.CHECK[mode]:,} bytes ({self.S[mode]}, L 115,488)"

    @staticmethod
    def _scenario(mode: str) -> Scenario:
        return _replace_run(load_scenario(SCENARIO_DIR / "pursuit_coarse.json"), mode=mode)

    @staticmethod
    def _nash_file(tmp_path) -> Path:
        doc = json.loads((SCENARIO_DIR / "pursuit_coarse.json").read_text())
        doc["run"].update(mode="nash", alphas=None)
        return _write_scenario(tmp_path, doc, "nash.json")

    @pytest.mark.parametrize("mode", ["nash", "team"])
    @pytest.mark.parametrize("level", ["check", "solve", "simulate"])
    def test_refusal_names_every_term(self, tmp_path, monkeypatch, mode, level):
        monkeypatch.setattr(runner, "MAX_GRID_BYTES", 100)
        with pytest.raises(ValidationError) as err:
            run(self._scenario(mode), tmp_path / "o", level=level)
        assert str(err.value) == (
            f"run.dt: the whole-grid arrays of 401 nodes would take {self._held(mode, level)}; "
            "at most 100 are allowed"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mode", ["nash", "team"])
    def test_check_fits_where_simulate_does_not(self, tmp_path, monkeypatch, mode):
        # At the check's own sum: a sum equal to the ceiling is allowed.
        monkeypatch.setattr(runner, "MAX_GRID_BYTES", self.CHECK[mode])
        result = run(self._scenario(mode), tmp_path / "check", level="check")
        assert result.exit_code == runner.EXIT_OK
        assert sorted(p.name for p in (tmp_path / "check").iterdir()) == [
            "conditions.txt", "summary.txt"
        ]
        with pytest.raises(ValidationError, match=re.escape(self._held(mode, "simulate"))):
            run(self._scenario(mode), tmp_path / "simulate")
        assert not (tmp_path / "simulate").exists()

    @pytest.mark.parametrize(
        "command", [["check"], ["solve"], ["simulate"], ["sweep", "--tf-list", "1,2"]]
    )
    def test_past_the_ceiling_exit_two_before_any_directory(
        self, tmp_path, monkeypatch, capsys, command
    ):
        # Under the team file's sweep to tf = 2, the least of the four: its
        # closed-loop matrices on 201 nodes.
        monkeypatch.setattr(runner, "MAX_GRID_BYTES", 57_887)
        monkeypatch.chdir(tmp_path)
        code = cli_main(
            command[:1]
            + ["--scenario", str(SCENARIO_DIR / "pursuit_coarse.json"), "--out", str(tmp_path / "o")]
            + command[1:]
        )
        if command[0] == "sweep":
            message = (
                "tf_list: tf=2.0: the whole-grid arrays of 201 nodes would take 57,888 bytes "
                "(closed_loop 57,888)"
            )
        else:
            message = (
                "run.dt: the whole-grid arrays of 401 nodes would take "
                + self._held("team", command[0])
            )
        assert code == runner.EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"validation error: {message}; at most 57,887 are allowed\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_a_nash_file_parses_at_any_ceiling(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner, "MAX_GRID_BYTES", 0)
        assert load_scenario(self._nash_file(tmp_path)).run.mode == "nash"

    def test_sweep_of_a_nash_file_is_bound_by_what_it_holds(self, tmp_path, monkeypatch, capsys):
        path = self._nash_file(tmp_path)
        expected = run_sweep(load_scenario(path), [4.0, 8.0], ("nash", "team"), tmp_path / "default")
        monkeypatch.setattr(runner, "MAX_GRID_BYTES", self.SWEEP)
        result = run_sweep(load_scenario(path), [4.0, 8.0], ("nash", "team"), tmp_path / "ceiling")
        assert [c.status for c in result.cells] == ["ok"] * 4
        assert result == expected
        csv = [(tmp_path / d / "sweep.csv").read_bytes() for d in ("default", "ceiling")]
        assert csv[0] == csv[1]
        # The file's own run holds S, L and the forward arrays: 891,824 bytes.
        code = cli_main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "run")])
        assert code == runner.EXIT_VALIDATION
        assert self._held("nash", "simulate") in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_sweep_one_byte_under_is_refused_for_its_closed_loop(
        self, tmp_path, monkeypatch, capsys
    ):
        path = self._nash_file(tmp_path)
        monkeypatch.setattr(runner, "MAX_GRID_BYTES", self.SWEEP - 1)
        message = (
            "tf_list: tf=8.0: the whole-grid arrays of 801 nodes would take 461,376 bytes "
            "(closed_loop 461,376); at most 461,375 are allowed"
        )
        with pytest.raises(ValidationError) as err:
            run_sweep(load_scenario(path), [4.0, 8.0], ("nash", "team"), tmp_path / "sweep")
        assert str(err.value) == message
        code = cli_main(
            ["sweep", "--scenario", str(path), "--mode", "nash,team", "--tf-list", "4,8",
             "--out", str(tmp_path / "sweep")]
        )
        assert code == runner.EXIT_VALIDATION
        assert capsys.readouterr().err == f"validation error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["nash.json"]


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

    def test_bound_q_of_wrong_size_exit_two(self, tmp_path, capsys):
        doc = json.loads((SCENARIO_DIR / "pursuit_benchmark.json").read_text())
        doc["run"]["bound_q"] = [[1.0]]
        path = _write_scenario(tmp_path, doc)
        code = cli_main(["check", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == runner.EXIT_VALIDATION
        assert "run.bound_q: expected 6 x 6, got 1 x 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("dt", ["0", "-1e-3"])
    def test_non_positive_dt_override_rejected(self, tmp_path, capsys, dt):
        code = cli_main(
            [
                "simulate",
                "--scenario",
                str(SCENARIO_DIR / "explicit_small.json"),
                f"--dt={dt}",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == runner.EXIT_VALIDATION
        assert "run.dt: dt must be positive" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_step_too_small_for_the_horizon_exit_two(self, tmp_path, capsys):
        # span / dt overflows to inf: no grid can be built, so the scenario
        # itself is rejected before any directory exists.
        code = cli_main(
            [
                "check",
                "--scenario",
                str(SCENARIO_DIR / "explicit_small.json"),
                "--dt",
                "1e-320",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == runner.EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "scenario error: run.dt: dt=1e-320 is too small for the span 1.5: "
            "span / dt is not finite\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "scenario, extra, message",
        [
            (
                "pursuit_coarse.json",
                ["--mode", "nash", "--alphas", "0.2,0.2"],
                "scenario error: run.alphas: team weights must sum to 1, got 0.4",
            ),
            (
                "pursuit_coarse.json",
                ["--mode", "team", "--alphas", "0.5,0.5"],
                "scenario error: run.alphas: expected 3 weights, got 2",
            ),
            (
                "pursuit_coarse.json",
                ["--alphas", "x"],
                "scenario error: --alphas: expected comma separated numbers, got 'x'",
            ),
            (
                "pursuit_coarse.json",
                ["--tf", "-1"],
                "scenario error: pursuit: need finite t0 <= tf, got t0=0.0, tf=-1.0",
            ),
            (
                "explicit_small.json",
                ["--tf", "-1"],
                "scenario error: explicit: need finite t0 <= tf, got t0=0.0, tf=-1.0",
            ),
            (
                "explicit_small.json",
                ["--out", ""],
                "scenario error: run.out_dir: expected a non-empty string",
            ),
            (
                "pursuit_benchmark.json",
                ["--dt", "1e-9"],
                "scenario error: run.dt: dt=1e-09 asks for 1e+10 steps over the span 10.0; "
                "at most 1,000,000 are allowed",
            ),
        ],
    )
    def test_bad_override_exit_two_before_any_directory(
        self, tmp_path, monkeypatch, capsys, scenario, extra, message
    ):
        monkeypatch.chdir(tmp_path)  # an empty --out would write here
        code = cli_main(
            ["simulate", "--scenario", str(SCENARIO_DIR / scenario), "--out", str(tmp_path / "o")]
            + extra
        )
        assert code == runner.EXIT_VALIDATION
        assert capsys.readouterr().err == message + "\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [["check"], ["sweep", "--tf-list", "0.5,1"]])
    def test_ill_conditioned_control_weight_exit_two_before_any_directory(
        self, tmp_path, capsys, command
    ):
        # Positive definite, so only the inversion's condition limit sees it.
        doc = json.loads((SCENARIO_DIR / "explicit_small.json").read_text())
        doc["explicit"]["R"][0] = [[1e-8, 0.0], [0.0, 1e5]]
        path = _write_scenario(tmp_path, doc)
        code = cli_main(
            command[:1] + ["--scenario", str(path), "--out", str(tmp_path / "o")] + command[1:]
        )
        assert code == runner.EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "scenario error: explicit: R[1]: not safely invertible "
            "(eigenvalue range [1.000e-08, 1.000e+05])\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [["simulate"], ["sweep", "--tf-list", "2,4"]])
    def test_run_capture_radius_on_pursuit_exit_two_before_any_directory(
        self, tmp_path, capsys, command
    ):
        doc = json.loads((SCENARIO_DIR / "pursuit_coarse.json").read_text())
        doc["run"]["capture_radius"] = 5.0
        path = _write_scenario(tmp_path, doc)
        code = cli_main(
            command[:1] + ["--scenario", str(path), "--out", str(tmp_path / "o")] + command[1:]
        )
        assert code == runner.EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "scenario error: run.capture_radius: a pursuit game takes its radius from "
            "pursuit.capture_radius\n"
        )
        assert not (tmp_path / "o").exists()

    def test_non_finite_sweep_horizon_exit_two(self, tmp_path, capsys):
        for bad in ("inf", "nan"):
            code = cli_main(
                [
                    "sweep",
                    "--scenario",
                    str(SCENARIO_DIR / "pursuit_coarse.json"),
                    "--tf-list",
                    f"1,{bad}",
                    "--out",
                    str(tmp_path / "o"),
                ]
            )
            assert code == runner.EXIT_VALIDATION
            assert capsys.readouterr().err == (
                f"validation error: tf_list: tf={bad}: grid endpoints must be finite\n"
            )
            assert not (tmp_path / "o").exists()

    def test_sweep_past_the_step_cap_exit_two(self, tmp_path, capsys):
        # 2e6 steps at dt = 1e-3: refused before any history is allocated.
        code = cli_main(
            [
                "sweep",
                "--scenario",
                str(SCENARIO_DIR / "pursuit_benchmark.json"),
                "--tf-list",
                "2000",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == runner.EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "validation error: tf_list: tf=2000.0: dt=0.001 asks for 2e+06 steps over the "
            "span 2000.0; at most 1,000,000 are allowed\n"
        )
        assert not (tmp_path / "o").exists()

    def test_sweep_of_a_game_check_rejects_exit_two(self, tmp_path, capsys):
        doc = json.loads((SCENARIO_DIR / "explicit_small.json").read_text())
        doc["explicit"]["Q"][0] = [[1.0, 0.0], [0.0, 1.0]]
        path = _write_scenario(tmp_path, doc)
        check = cli_main(["check", "--scenario", str(path), "--out", str(tmp_path / "c")])
        assert check == runner.EXIT_VALIDATION
        assert "nothing solved" in capsys.readouterr().out
        code = cli_main(
            ["sweep", "--scenario", str(path), "--tf-list", "0.5,1", "--out", str(tmp_path / "o")]
        )
        assert code == runner.EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "validation error: game failed the all-against-one sign pattern; nothing solved\n"
        )
        assert not (tmp_path / "o").exists()

    def test_sweep_with_a_repeated_mode_exit_two(self, tmp_path, capsys):
        code = cli_main(
            [
                "sweep",
                "--scenario",
                str(SCENARIO_DIR / "pursuit_coarse.json"),
                "--mode",
                "nash,nash",
                "--tf-list",
                "1",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == runner.EXIT_VALIDATION
        assert capsys.readouterr().err == "error: sweep modes must be distinct, got nash,nash\n"
        assert not (tmp_path / "o").exists()

    def test_overrides_rebuild_the_scenario_at_most_once(self, inversions):
        # Every build of the pursuit game inverts its four R_i again.
        parser = build_parser()
        benchmark = load_scenario(SCENARIO_DIR / "pursuit_benchmark.json")
        inversions.clear()
        args = parser.parse_args(["simulate", "--scenario", "unused.json"])
        assert _apply_overrides(benchmark, args) is benchmark
        assert len(inversions) == 0
        args = parser.parse_args(["simulate", "--scenario", "unused.json", "--tf", "5", "--dt", "0.01"])
        scenario = _apply_overrides(benchmark, args)
        assert len(inversions) == 4
        assert (scenario.build_game().tf, scenario.run.dt) == (5.0, 0.01)

    def test_sweep_has_no_tf_option(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            cli_main(
                ["sweep", "--scenario", str(SCENARIO_DIR / "pursuit_coarse.json"),
                 "--tf-list", "2", "--tf", "5", "--out", str(tmp_path / "o")]
            )
        assert err.value.code == 2
        assert "error: unrecognized arguments: --tf 5" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_sweep_horizon_list_without_a_value_exit_two(self, tmp_path, capsys):
        code = cli_main(
            ["sweep", "--scenario", str(SCENARIO_DIR / "pursuit_coarse.json"),
             "--tf-list", ",", "--out", str(tmp_path / "o")]
        )
        assert code == runner.EXIT_VALIDATION
        assert capsys.readouterr().err == "scenario error: --tf-list: expected at least one value\n"
        assert not (tmp_path / "o").exists()

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
