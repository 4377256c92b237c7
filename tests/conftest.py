"""Session fixtures: the bundled three-pursuer benchmark solved once.

The backward solve at dt = 1e-3 over a ten-unit horizon takes about a
second; every test that needs the benchmark shares these session-scoped
results instead of re-solving.

``ACCEPTANCE_LINES`` collects one human-readable verdict line per
acceptance criterion; they are echoed in the terminal summary so a plain
``pytest`` run prints the scorecard even when individual criteria fail.
"""
from __future__ import annotations

import numpy as np
import pytest

from aaolq import (
    PursuitParams,
    TimeGrid,
    build_pursuit_example,
    build_team_game,
    gains,
    simulate,
    solve_coupled,
    verify_solution,
)

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def benchmark_params() -> PursuitParams:
    return PursuitParams()


@pytest.fixture(scope="session")
def benchmark_game(benchmark_params):
    return build_pursuit_example(benchmark_params)


@pytest.fixture(scope="session")
def benchmark_grid(benchmark_game):
    return TimeGrid.from_step(benchmark_game.t0, benchmark_game.tf, 1e-3)


@pytest.fixture(scope="session")
def benchmark_sol(benchmark_game, benchmark_grid):
    sol = solve_coupled(benchmark_game, benchmark_grid)
    assert sol.complete
    return sol


@pytest.fixture(scope="session")
def benchmark_conditions(benchmark_game, benchmark_sol, benchmark_params):
    """The benchmark's certificate report, with the horizon for capture radius 0.1."""
    x0_norm = float(np.linalg.norm(benchmark_params.x0))
    return verify_solution(benchmark_game, benchmark_sol, x0_norm=x0_norm, r=0.1)


@pytest.fixture(scope="session")
def benchmark_gains(benchmark_game, benchmark_sol):
    return gains(benchmark_game, benchmark_sol)


@pytest.fixture(scope="session")
def benchmark_traj(benchmark_game, benchmark_gains, benchmark_params):
    return simulate(benchmark_game, benchmark_gains, np.array(benchmark_params.x0))


@pytest.fixture(scope="session")
def benchmark_team(benchmark_game):
    return build_team_game(benchmark_game)


@pytest.fixture(scope="session")
def team_sol(benchmark_team, benchmark_grid):
    sol = solve_coupled(benchmark_team.reduced, benchmark_grid)
    assert sol.complete
    return sol


@pytest.fixture(scope="session")
def team_gains(benchmark_team, team_sol):
    return gains(benchmark_team.reduced, team_sol)


@pytest.fixture(scope="session")
def team_traj(benchmark_team, team_gains, benchmark_params):
    return simulate(benchmark_team.reduced, team_gains, np.array(benchmark_params.x0))
