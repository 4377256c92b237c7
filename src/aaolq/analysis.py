"""Existence, definiteness and boundedness certificates.

Everything here evaluates checkable conditions on a game or on a solved
backward pass and reports eigenvalue witnesses next to every verdict. The
three main tools:

* an existence map whose positive semidefiniteness at candidate solution
  values screens the fixed-point argument behind solvability,
* a linear envelope ODE whose solution dominates the regulator-minus-
  opponent combination of the solution matrices and yields an a-priori
  norm ball for them,
* eigenvalue summaries of P(t) = sum_i S_i(t), the Lyapunov weight behind
  the exponential capture bound and the minimum-horizon formula.

Norms follow the squared-trace convention of :func:`aaolq.linalg.frob_norm`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import game as game_mod
from . import linalg
from .errors import IncompleteSolutionError, NotApplicableError, ValidationError
from .game import OPPONENT, GameDefinition
from .riccati import RiccatiSolution, TimeGrid, SolveStatus

PSD_TOL = 1e-9
CHAIN_TOL = 1e-7


@dataclass(frozen=True)
class WeightSums:
    """Aggregate weights: the sums over all players of Q_i and of S_if."""

    q_sum: np.ndarray
    sf_sum: np.ndarray


def sum_matrices(game: GameDefinition) -> WeightSums:
    q_sum = linalg.symmetrize(sum(np.array(q) for q in game.Q))
    sf_sum = linalg.symmetrize(sum(np.array(s) for s in game.S_f))
    q_sum.flags.writeable = False
    sf_sum.flags.writeable = False
    return WeightSums(q_sum=q_sum, sf_sum=sf_sum)


def _q_matrix(game: GameDefinition, q_bound) -> np.ndarray:
    """``q_bound`` as a validated n x n array; None means the zero matrix."""
    n = game.n
    q = np.zeros((n, n)) if q_bound is None else np.array(linalg.as_symmetric(q_bound, "q_bound"))
    if q.shape[0] != n:
        raise ValidationError(f"q_bound must be {n} x {n}")
    return q


@dataclass(frozen=True)
class ExistenceMapResult:
    value: np.ndarray
    min_eigenvalue: float
    psd: bool


def existence_map(game: GameDefinition, q_bound, W) -> ExistenceMapResult:
    """Evaluate the existence screening map at candidate values W_1..W_M.

    With D = -W_1 + sum_{i>=2} W_i and G = sum_j H_j W_j the map is

        Q + W_1 H_1 W_1 - sum_{i>=2} W_i H_i W_i + D G + G' D,

    evaluated literally and symmetrized. The game is solvable on the whole
    horizon when this map sends the expected sign pattern into the PSD
    cone; at solved values its PSD-ness is the hypothesis under which the
    envelope bound applies. :func:`verify_solution` evaluates the same map
    at every grid node in one stacked pass.
    """
    m = game.num_players
    if len(W) != m:
        raise ValidationError(f"expected {m} candidate matrices, got {len(W)}")
    n = game.n
    q = _q_matrix(game, q_bound)
    ws = [linalg.as_symmetric(w, f"W[{i + 1}]") for i, w in enumerate(W)]
    for w in ws:
        if w.shape[0] != n:
            raise ValidationError(f"candidate matrices must be {n} x {n}")
    value, min_eig = _existence_stack(game_mod.coupling_stack(game), q, np.stack(ws)[:, None])
    value = value[0]
    min_eig = float(min_eig[0])
    value.flags.writeable = False
    return ExistenceMapResult(value=value, min_eigenvalue=min_eig, psd=bool(min_eig >= -PSD_TOL))


def _existence_stack(h: np.ndarray, q: np.ndarray, w: np.ndarray):
    """The existence map at K stacked nodes: (values (K, n, n), min eigenvalues (K,)).

    ``h`` is the (M, n, n) coupling stack and ``w`` holds the candidates as
    (M, K, n, n); each term of the map is one stacked product per player.
    """
    d = -w[OPPONENT]
    g = h[OPPONENT] @ w[OPPONENT]
    value = q + w[OPPONENT] @ g
    for i in range(1, len(h)):
        d += w[i]
        hw = h[i] @ w[i]
        g += hw
        value -= w[i] @ hw
    value = linalg.symmetrize(value + d @ g + np.swapaxes(g, -1, -2) @ d)
    lo, _ = linalg.sym_extrema_stack(value)
    return value, lo


@dataclass(frozen=True)
class EnvelopeBound:
    """Solution of the linear envelope ODE and its norm bound.

    ``L`` has shape (steps+1, n, n). ``bound`` is the supremum over the
    grid of the squared-trace norm of L(t); under the existence screening
    every S_i stays inside the ball of that radius.
    """

    grid: TimeGrid
    L: np.ndarray
    bound: float


def solve_envelope(game: GameDefinition, q_bound, grid: TimeGrid) -> EnvelopeBound:
    """Integrate the envelope ODE backward by RK4 on the given grid.

    The envelope satisfies dL/dt = -(L A + A' L + C) with constant
    C = q_bound - Q_1 + sum_{i>=2} Q_i and terminal value
    L(tf) = -S_1f + sum_{i>=2} S_if. The ODE is linear with constant
    coefficients, so one RK4 step is a fixed affine map of vec(L). It is
    built once, by applying the step to the n^2 basis matrices and to the
    zero matrix, and then iterated, one product per grid node.
    """
    if game.num_players < 2:
        raise NotApplicableError("the envelope bound needs at least two players")
    n = game.n
    c = _q_matrix(game, q_bound) - np.array(game.Q[OPPONENT])
    terminal = -np.array(game.S_f[OPPONENT])
    for i in range(1, game.num_players):
        c += game.Q[i]
        terminal += game.S_f[i]
    a = np.array(game.A)
    at = a.T.copy()
    h = -grid.dt

    def rhs(lmat, const):
        return -(lmat @ a + at @ lmat + const)

    def rk4_step(lmat, const):
        k1 = rhs(lmat, const)
        k2 = rhs(lmat + (0.5 * h) * k1, const)
        k3 = rhs(lmat + (0.5 * h) * k2, const)
        k4 = rhs(lmat + h * k3, const)
        return lmat + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    zero = np.zeros((n, n))
    step_t = np.stack([rk4_step(e.reshape(n, n), zero).reshape(-1) for e in np.eye(n * n)])
    offset = rk4_step(zero, c).reshape(-1)

    steps = grid.steps
    hist = np.empty((steps + 1, n * n))
    hist[steps] = terminal.reshape(-1)
    cur = hist[steps]
    for k in range(steps - 1, -1, -1):
        cur = np.matmul(cur, step_t, out=hist[k])
        cur += offset
    hist = linalg.symmetrize(hist.reshape(steps + 1, n, n))
    norms = np.einsum("kij,kij->k", hist, hist)
    hist.flags.writeable = False
    return EnvelopeBound(grid=grid, L=hist, bound=float(norms.max()))


@dataclass(frozen=True)
class DiagonalSubclassVerdict:
    """Explicit solvability conditions for the diagonal game subclass.

    When every matrix in the game is diagonal (input matrices square
    diagonal), the weight sums are positive definite and every regulator's
    control coupling dominates the opponent's, a solution exists on any
    horizon. ``applicable`` is the conjunction; the remaining fields
    carry the individual verdicts and witnesses.
    """

    applicable: bool
    diagonal_ok: bool
    h_order_ok: bool
    sums_ok: bool
    max_offdiag: float
    h_margin: float
    sum_q_min_eig: float
    sum_sf_min_eig: float


def _max_offdiag(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - np.diag(np.diag(m))))) if m.shape[0] > 1 else 0.0


def check_diagonal_subclass(game: GameDefinition) -> DiagonalSubclassVerdict:
    sums = sum_matrices(game)
    q_min = float(linalg.sym_eigenvalues(sums.q_sum).values[0])
    sf_min = float(linalg.sym_eigenvalues(sums.sf_sum).values[0])
    sums_ok = q_min > PSD_TOL and sf_min > PSD_TOL

    worst = 0.0
    diagonal_ok = game.num_players >= 2
    mats = [("A", game.A)]
    for i in range(game.num_players):
        mats += [
            (f"B[{i + 1}]", game.B[i]),
            (f"Q[{i + 1}]", game.Q[i]),
            (f"R[{i + 1}]", game.R[i]),
            (f"S_f[{i + 1}]", game.S_f[i]),
        ]
    for name, mat in mats:
        if mat.shape[0] != mat.shape[1]:
            diagonal_ok = False
            continue
        off = _max_offdiag(np.asarray(mat))
        worst = max(worst, off)
        if off > 1e-12 * (1.0 + float(np.max(np.abs(mat)))):
            diagonal_ok = False

    h_margin = math.inf
    if game.num_players >= 2:
        h_opp = game_mod.control_coupling(game, OPPONENT)
        for i in range(1, game.num_players):
            diff = game_mod.control_coupling(game, i) - h_opp
            h_margin = min(h_margin, float(linalg.sym_eigenvalues(diff).values[0]))
    h_order_ok = game.num_players >= 2 and h_margin >= -PSD_TOL

    return DiagonalSubclassVerdict(
        applicable=bool(diagonal_ok and h_order_ok and sums_ok),
        diagonal_ok=bool(diagonal_ok),
        h_order_ok=bool(h_order_ok),
        sums_ok=bool(sums_ok),
        max_offdiag=worst,
        h_margin=h_margin,
        sum_q_min_eig=q_min,
        sum_sf_min_eig=sf_min,
    )


def lyapunov_weight_series(sol: RiccatiSolution) -> np.ndarray:
    """P(t_k) = sum_i S_i(t_k) for every grid point, shape (steps+1, n, n)."""
    return linalg.symmetrize(sol.S.sum(axis=0))


def compute_P(sol: RiccatiSolution, k: int) -> np.ndarray:
    """Lyapunov weight P at grid index k."""
    steps = sol.grid.steps
    if not 0 <= k <= steps:
        raise ValidationError(f"grid index {k} out of range 0..{steps}")
    return linalg.symmetrize(sol.S[:, k].sum(axis=0))


def min_horizon(game: GameDefinition, sol: RiccatiSolution, x0_norm: float, r: float) -> float:
    """Smallest horizon guaranteeing the closed-loop state enters radius r.

    Evaluates (max eig P / min eig of the summed state weights) *
    (2 ln(|x0| / r) + ln(max eig P / min eig P)), with the P extrema taken
    over the solved grid. Raises :class:`NotApplicableError` when the
    positivity hypotheses behind the exponential bound fail.
    """
    if not sol.complete:
        raise IncompleteSolutionError("min_horizon needs a complete solve")
    sums = sum_matrices(game)
    q_min = float(linalg.sym_eigenvalues(sums.q_sum).values[0])
    sf_min = float(linalg.sym_eigenvalues(sums.sf_sum).values[0])
    p_lo, p_hi = linalg.sym_extrema_stack(lyapunov_weight_series(sol))
    return _horizon_from_extrema(q_min, sf_min, p_lo, p_hi, x0_norm, r)


def _horizon_from_extrema(q_min, sf_min, p_lo, p_hi, x0_norm: float, r: float) -> float:
    """:func:`min_horizon` from the weight-sum minima and P's per-node extrema."""
    if not r > 0:
        raise ValidationError("r must be positive")
    if not x0_norm > 0:
        raise ValidationError("x0_norm must be positive")
    if q_min <= PSD_TOL or sf_min <= PSD_TOL:
        raise NotApplicableError(
            "exponential capture bound not applicable: the summed state and "
            "terminal weights must be positive definite"
        )
    p_min = float(p_lo.min())
    p_max = float(p_hi.max())
    if p_min <= 0.0:
        raise NotApplicableError(
            "exponential capture bound not applicable: P(t) lost positive definiteness"
        )
    return (p_max / q_min) * (2.0 * math.log(x0_norm / r) + math.log(p_max / p_min))


@dataclass(frozen=True)
class ConditionsReport:
    """Aggregated certificate verdicts for one solved game.

    Boolean fields that depend on hypotheses which failed are None rather
    than False, so a reader can tell "checked and violated" from "not
    assessable". Witness fields are always populated when computable.
    """

    sum_q_pd: bool
    sum_q_min_eig: float
    sum_sf_pd: bool
    sum_sf_min_eig: float
    diagonal_subclass: DiagonalSubclassVerdict
    definiteness_ok: bool
    opponent_max_eig: float
    regulator_min_eig: float
    rq_screen_psd: bool
    rq_screen_min_eig: float
    envelope_bound: float
    max_solution_norm: float
    e_membership: bool | None
    psd_chain_ok: bool | None
    chain_lower_min_eig: float
    chain_upper_min_eig: float
    p_pd: bool | None
    p_min_eig: float | None
    horizon_bound: float | None
    notes: tuple[str, ...] = ()


def verify_solution(
    game: GameDefinition,
    sol: RiccatiSolution,
    q_bound=None,
    *,
    x0_norm: float | None = None,
    r: float | None = None,
    screen_stride: int = 1,
) -> ConditionsReport:
    """Run every certificate against a completed solve and collect verdicts.

    ``q_bound`` enters the existence map and the envelope ODE; None means
    the zero matrix. The existence screen evaluates the map at every grid
    node by default, all nodes in one stacked pass; ``screen_stride`` > 1
    samples every ``screen_stride``-th node instead (terminal node always
    included). Failed checks are entries in the report, never exceptions.
    """
    if not sol.complete:
        raise IncompleteSolutionError(
            f"verification needs a complete solve, status is {sol.status.value}"
        )
    if sol.num_players != game.num_players:
        raise ValidationError("solution and game disagree on the player count")
    if screen_stride < 1:
        raise ValidationError("screen_stride must be at least 1")
    q = _q_matrix(game, q_bound)
    notes: list[str] = []
    sums = sum_matrices(game)
    q_min = float(linalg.sym_eigenvalues(sums.q_sum).values[0])
    sf_min = float(linalg.sym_eigenvalues(sums.sf_sum).values[0])
    sum_q_pd = q_min > PSD_TOL
    sum_sf_pd = sf_min > PSD_TOL
    subclass = check_diagonal_subclass(game)

    lo, hi = linalg.sym_extrema_stack(sol.S)  # (M, steps+1) each
    opponent_max = float(hi[OPPONENT].max())
    if game.num_players >= 2:
        regulator_min = float(lo[1:].min())
    else:
        regulator_min = math.inf
        notes.append("single-player game: no regulator definiteness to check")
    definiteness_ok = bool(opponent_max < PSD_TOL and regulator_min > -PSD_TOL)

    steps = sol.grid.steps
    nodes = sol.S[:, ::screen_stride]
    if steps % screen_stride:
        nodes = np.concatenate((nodes, sol.S[:, steps:]), axis=1)  # the terminal node
    _, screen_lo = _existence_stack(game_mod.coupling_stack(game), q, nodes)
    screen_min = float(screen_lo.min())
    rq_screen_psd = bool(screen_min >= -PSD_TOL)

    p_series = lyapunov_weight_series(sol)
    p_lo, p_hi = linalg.sym_extrema_stack(p_series)
    per_norm = np.einsum("ikrc,ikrc->ik", sol.S, sol.S)
    max_norm = float(per_norm.max())
    if game.num_players >= 2:
        envelope = solve_envelope(game, q, sol.grid)
        envelope_bound = envelope.bound
        inside = bool(max_norm <= envelope.bound)
        combo = p_series - 2.0 * sol.S[OPPONENT]  # -S_1 + sum_{i>=2} S_i
        combo_lo, _ = linalg.sym_extrema_stack(combo)
        upper_lo, _ = linalg.sym_extrema_stack(envelope.L - combo)
        chain_lower = float(combo_lo.min())
        chain_upper = float(upper_lo.min())
        chain_ok = bool(chain_lower >= -CHAIN_TOL and chain_upper >= -CHAIN_TOL)
    else:
        envelope_bound = math.nan
        inside = False
        chain_lower = math.nan
        chain_upper = math.nan
        chain_ok = False

    if game.num_players < 2:
        e_membership: bool | None = None
        psd_chain_ok: bool | None = None
        notes.append("envelope bound needs at least two players; not assessed")
    elif rq_screen_psd:
        e_membership = inside
        psd_chain_ok = chain_ok
        if chain_ok and not inside and max_norm > envelope_bound * (1.0 + CHAIN_TOL):
            notes.append(
                "ordering chain holds but a squared-trace norm exceeds the envelope "
                "bound; the norm step of the envelope argument is the violated link"
            )
    else:
        e_membership = None
        psd_chain_ok = None
        notes.append("existence screen not PSD at sampled points; envelope bound not certified")

    if sum_q_pd and sum_sf_pd:
        p_min_eig: float | None = float(p_lo.min())
        p_pd: bool | None = bool(p_min_eig > PSD_TOL)
    else:
        p_min_eig = None
        p_pd = None
        notes.append("summed weights are not positive definite; P(t) > 0 not certified")

    horizon_bound: float | None = None
    if x0_norm is not None and r is not None:
        try:
            horizon_bound = _horizon_from_extrema(q_min, sf_min, p_lo, p_hi, x0_norm, r)
        except (NotApplicableError, ValidationError) as exc:
            notes.append(f"minimum horizon unavailable: {exc}")

    return ConditionsReport(
        sum_q_pd=bool(sum_q_pd),
        sum_q_min_eig=q_min,
        sum_sf_pd=bool(sum_sf_pd),
        sum_sf_min_eig=sf_min,
        diagonal_subclass=subclass,
        definiteness_ok=definiteness_ok,
        opponent_max_eig=opponent_max,
        regulator_min_eig=regulator_min,
        rq_screen_psd=rq_screen_psd,
        rq_screen_min_eig=screen_min,
        envelope_bound=envelope_bound,
        max_solution_norm=max_norm,
        e_membership=e_membership,
        psd_chain_ok=psd_chain_ok,
        chain_lower_min_eig=chain_lower,
        chain_upper_min_eig=chain_upper,
        p_pd=p_pd,
        p_min_eig=p_min_eig,
        horizon_bound=horizon_bound,
        notes=tuple(notes),
    )
