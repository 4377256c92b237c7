"""All-against-one linear-quadratic differential games.

Solvers for the coupled Riccati equations behind closed-loop Nash and
team-optimal play, numerical certificates for existence, definiteness and
exponential capture bounds, and a scenario-driven pipeline that reproduces
the bundled three-pursuer benchmark.
"""
from .analysis import (
    ConditionsReport,
    DiagonalSubclassVerdict,
    EnvelopeBound,
    LyapunovReport,
    check_diagonal_subclass,
    lyapunov_check,
    solve_envelope,
    verify_solution,
)
from .errors import (
    AaolqError,
    DivergenceError,
    IncompleteSolutionError,
    NotApplicableError,
    ScenarioError,
    SingularMatrixError,
    ValidationError,
)
from .game import (
    OPPONENT,
    GameDefinition,
    PursuitParams,
    ValidationReport,
    absolute_starts,
    build_pursuit_example,
    validate,
)
from .linalg import block_diag, sym_eigenvalues
from .riccati import (
    FeedbackGain,
    RiccatiSolution,
    SolveStats,
    SolveStatus,
    TimeGrid,
    gains,
    solve_coupled,
)
from .runner import RunResult, SweepResult, run, run_sweep
from .scenario import RunConfig, Scenario, emit_scenario, load_scenario, parse_scenario
from .sim import PursuitReport, Trajectory, pursuit_report, simulate
from .team import TeamGame, TeamWeights, build_team_game, team_gains_to_players

__version__ = "0.1.0"
