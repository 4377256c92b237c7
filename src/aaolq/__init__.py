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
    ExistenceMapResult,
    WeightSums,
    check_diagonal_subclass,
    compute_P,
    existence_map,
    lyapunov_weight_series,
    min_horizon,
    solve_envelope,
    sum_matrices,
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
    closed_loop_A,
    control_coupling,
    validate,
)
from .linalg import (
    EigenResult,
    block_diag,
    frob_norm,
    is_definite,
    kron,
    sym_eigenvalues,
)
from .riccati import (
    FeedbackGain,
    RiccatiSolution,
    SolveStatus,
    TimeGrid,
    gain_at,
    gains,
    riccati_rhs,
    solve_coupled,
)
from .runner import RunResult, SweepResult, run, run_sweep
from .scenario import RunConfig, Scenario, emit_scenario, load_scenario, parse_scenario
from .sim import (
    LyapunovReport,
    ProbeSample,
    PursuitReport,
    Trajectory,
    lyapunov_check,
    pursuit_report,
    simulate,
    stationarity_probe,
)
from .team import TeamGame, TeamWeights, build_team_game, split_team_control, team_gains_to_players

__version__ = "0.1.0"
