"""Existence, definiteness and boundedness certificates.

Everything here evaluates checkable conditions on a game or on a solved
backward pass and reports eigenvalue witnesses next to every verdict. The
three main tools:

* the existence screen: the existence map, whose positive
  semidefiniteness screens the fixed-point argument behind solvability,
  evaluated at the solved values of every screened grid node,
* a linear envelope ODE whose solution dominates the regulator-minus-
  opponent combination of the solution matrices and yields an a-priori
  norm ball for them,
* the decay certificate: P(t) = sum_i S_i(t) is the Lyapunov weight,
  V = x' P x, and the rate q_min / p_max gives both the exponential
  capture bound checked along a trajectory and the minimum-horizon
  formula.

:func:`verify_solution` is the one place these quantities are computed:
its :class:`ConditionsReport` carries the weight-sum minima, P's extrema
over the grid and the guaranteed-capture horizon ``horizon_bound``, and
:func:`lyapunov_check` reads the rate and the extrema off that report.

Every matrix norm here is the squared trace norm tr(S S') of
:mod:`aaolq.linalg`: the sum of squared entries, no square root taken.
Every eigenvalue comes from :func:`aaolq.linalg.sym_eigenvalues`, one
chunk of grid nodes per call, with the extrema read off its first and
last columns and reduced across the chunks.
Every positive-definiteness verdict tests its smallest eigenvalue against
``PSD_TOL``, the tolerance :mod:`aaolq.linalg` uses.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import IncompleteSolutionError, NotApplicableError, ValidationError
from .game import OPPONENT, GameDefinition, ValueEquality
from .riccati import RiccatiSolution, TimeGrid
from .sim import Trajectory, chunk_items

PSD_TOL = linalg.DEFINITENESS_TOL
CHAIN_TOL = 1e-7
#: Relative slack of the decay certificate's exponential and ratio bounds.
REL_SLACK = 1e-6
#: Absolute slack of the decay certificate's monotone clause and its V(t0) = 0 case.
MONO_SLACK = 1e-9


def _q_matrix(game: GameDefinition, q_bound) -> np.ndarray:
    """``q_bound`` as a validated n x n array; None means the zero matrix."""
    n = game.n
    q = np.zeros((n, n)) if q_bound is None else np.array(linalg.as_symmetric(q_bound, "q_bound"))
    if q.shape[0] != n:
        raise ValidationError(f"q_bound must be {n} x {n}")
    return q


def _existence_stack(h: np.ndarray, q: np.ndarray, w: np.ndarray):
    """The existence map at K stacked nodes: (values (K, n, n), min eigenvalues (K,)).

    With D = -W_1 + sum_{i>=2} W_i and G = sum_j H_j W_j the map is

        Q + W_1 H_1 W_1 - sum_{i>=2} W_i H_i W_i + D G + G' D,

    symmetrized. The game is solvable on the whole horizon when it sends
    the expected sign pattern into the PSD cone. ``h`` is the (M, n, n)
    coupling stack and ``w`` holds the candidates as (M, K, n, n); each
    term of the map is one stacked product per player.
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
    return value, linalg.sym_eigenvalues(value)[..., 0]


@dataclass(frozen=True, eq=False)
class EnvelopeBound(ValueEquality):
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
    # Row i is the step of the i-th basis matrix: all n^2 of them in one stack.
    step_t = rk4_step(np.eye(n * n).reshape(n * n, n, n), zero).reshape(n * n, n * n)
    offset = rk4_step(zero, c).reshape(-1)

    steps = grid.steps
    hist = np.empty((steps + 1, n * n))
    hist[steps] = terminal.reshape(-1)
    cur = hist[steps]
    for k in range(steps - 1, -1, -1):
        cur = np.matmul(cur, step_t, out=hist[k])
        cur += offset
    hist = hist.reshape(steps + 1, n, n)
    size = chunk_items(n * n)
    for lo in range(0, steps + 1, size):  # in place: no second whole-grid array
        hist[lo : lo + size] = linalg.symmetrize(hist[lo : lo + size])
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
    """The diagonal-subclass verdict, with the smallest eigenvalues of the weight sums."""
    q_sum = linalg.symmetrize(sum(np.array(q) for q in game.Q))
    sf_sum = linalg.symmetrize(sum(np.array(s) for s in game.S_f))
    q_min = float(linalg.sym_eigenvalues(q_sum)[0])
    sf_min = float(linalg.sym_eigenvalues(sf_sum)[0])
    sums_ok = q_min > PSD_TOL and sf_min > PSD_TOL

    worst = 0.0
    diagonal_ok = game.num_players >= 2
    for mat in (game.A, *game.B, *game.Q, *game.R, *game.S_f):
        if mat.shape[0] != mat.shape[1]:
            diagonal_ok = False
            continue
        off = _max_offdiag(np.asarray(mat))
        worst = max(worst, off)
        if off > 1e-12 * (1.0 + float(np.max(np.abs(mat)))):
            diagonal_ok = False

    h_margin = math.inf
    if game.num_players >= 2:
        for i in range(1, game.num_players):
            diff = game.H[i] - game.H[OPPONENT]
            h_margin = min(h_margin, float(linalg.sym_eigenvalues(diff)[0]))
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


@dataclass(frozen=True)
class LyapunovReport:
    """Checks of the exponential decay certificate along one trajectory."""

    decay_rate: float
    v0: float
    monotone_ok: bool
    max_increase: float
    exp_bound_ok: bool
    exp_bound_max_excess: float
    ratio_bound_ok: bool
    ratio_max_excess: float

    @property
    def ok(self) -> bool:
        return self.monotone_ok and self.exp_bound_ok and self.ratio_bound_ok


def lyapunov_check(
    traj: Trajectory, sol: RiccatiSolution, conditions: ConditionsReport
) -> LyapunovReport:
    """Verify V = x' P x decays as certified.

    ``conditions`` is :func:`verify_solution`'s report on the game and
    solve behind ``traj``; the rate q_min / p_max and the P extrema are
    read off it. Needs the summed state and terminal weights positive
    definite, else raises :class:`NotApplicableError` ("not applicable").
    Checks that V is strictly decreasing between grid points up to
    ``MONO_SLACK``, that it stays under V(t0) exp(-rate (t - t0)) with
    relative slack ``REL_SLACK``, and that the squared state-norm ratio
    respects the matching spectral bound. P is summed per chunk of nodes.
    """
    if conditions.p_pd is None:
        raise NotApplicableError(
            "decay certificate not applicable: summed state and terminal weights "
            "must be positive definite"
        )
    if sol.grid != traj.grid:
        raise ValidationError("trajectory and solution live on different grids")
    if not conditions.p_pd:
        raise NotApplicableError("decay certificate not applicable: P(t) is not positive definite")
    p_min, p_max = conditions.p_min_eig, conditions.p_max_eig
    rate = conditions.sum_q_min_eig / p_max
    x = traj.x
    v = np.empty(len(x))
    size = chunk_items(x.shape[1] ** 2)
    for lo in range(0, len(x), size):
        xs = x[lo : lo + size]
        v[lo : lo + size] = np.einsum("kn,knm,km->k", xs, sol.S[:, lo : lo + size].sum(axis=0), xs)
    times = traj.grid.times()
    decay = np.exp(-rate * (times - times[0]))
    v0 = float(v[0])
    diffs = np.diff(v)
    max_increase = float(diffs.max()) if diffs.size else 0.0
    monotone_ok = bool(max_increase < MONO_SLACK)
    if v0 > 0.0:
        excess = float((v / (v0 * decay)).max() - 1.0)
        exp_ok = bool((v <= v0 * decay * (1.0 + REL_SLACK)).all())
    else:
        excess = float(np.abs(v).max())
        exp_ok = bool(excess <= MONO_SLACK)
    x0_norm = float(np.linalg.norm(traj.x[0]))
    if x0_norm > 0.0:
        ratios = (np.linalg.norm(traj.x, axis=1) / x0_norm) ** 2
        bound = (p_max / p_min) * decay
        ratio_excess = float((ratios / bound).max() - 1.0)
        ratio_ok = bool((ratios <= bound * (1.0 + REL_SLACK)).all())
    else:
        ratio_excess = 0.0
        ratio_ok = True
    return LyapunovReport(
        decay_rate=rate,
        v0=v0,
        monotone_ok=monotone_ok,
        max_increase=max_increase,
        exp_bound_ok=exp_ok,
        exp_bound_max_excess=excess,
        ratio_bound_ok=ratio_ok,
        ratio_max_excess=ratio_excess,
    )


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
    p_max_eig: float | None
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
    node by default; ``screen_stride`` > 1 samples every ``screen_stride``-th
    node instead (terminal node always included). Every check walks S in
    ``chunk_items(n * n)``-node chunks; only the envelope's L spans the grid.
    Failed checks are entries in the report, never exceptions.

    Given both ``x0_norm`` and ``r``, the report's ``horizon_bound`` is the
    smallest horizon guaranteeing the closed-loop state enters radius r,
    with P's extrema taken over the solved grid; when r or ``x0_norm`` is
    not positive, or the positivity hypotheses behind the exponential bound
    fail, it is None and a note says why.
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
    subclass = check_diagonal_subclass(game)
    q_min, sf_min = subclass.sum_q_min_eig, subclass.sum_sf_min_eig
    sum_q_pd = q_min > PSD_TOL
    sum_sf_pd = sf_min > PSD_TOL

    steps = sol.grid.steps
    two_player = game.num_players >= 2
    envelope = solve_envelope(game, q, sol.grid) if two_player else None
    # Each chunk of nodes adds a row of maxima to ``highs`` and one of minima
    # to ``lows``; reducing their columns propagates NaN as one whole-grid
    # max or min would.
    highs, lows = [], []
    size = chunk_items(game.n * game.n)
    for lo in range(0, steps + 1, size):
        s = sol.S[:, lo : lo + size]
        s_eigs = linalg.sym_eigenvalues(s)  # (M, nodes, n)
        p = s.sum(axis=0)
        p_eigs = linalg.sym_eigenvalues(p)
        norms = np.einsum("ikrc,ikrc->ik", s, s)
        highs.append((s_eigs[OPPONENT, :, -1].max(), norms.max(), p_eigs[:, -1].max()))
        nodes = s[:, -lo % screen_stride :: screen_stride]  # the nodes k % stride == 0
        if steps % screen_stride and lo + size > steps:
            nodes = np.concatenate((nodes, s[:, -1:]), axis=1)  # the terminal node
        screen = _existence_stack(game.H, q, nodes)[1].min() if nodes.shape[1] else math.inf
        # A single player has no regulator minimum and no chain.
        low = [screen, p_eigs[:, 0].min(), math.inf, math.nan, math.nan]
        if two_player:
            combo = p - 2.0 * s[OPPONENT]  # -S_1 + sum_{i>=2} S_i
            low[2:] = (
                s_eigs[1:, :, 0].min(),
                linalg.sym_eigenvalues(combo)[:, 0].min(),
                linalg.sym_eigenvalues(envelope.L[lo : lo + size] - combo)[:, 0].min(),
            )
        lows.append(low)
    opponent_max, max_norm, p_max = map(float, np.max(highs, axis=0))
    screen_min, p_min, regulator_min, chain_lower, chain_upper = map(float, np.min(lows, axis=0))
    rq_screen_psd = bool(screen_min >= -PSD_TOL)

    e_membership: bool | None = None
    psd_chain_ok: bool | None = None
    if not two_player:
        envelope_bound = math.nan
        notes.append("single-player game: no regulator definiteness to check")
        notes.append("envelope bound needs at least two players; not assessed")
    else:
        envelope_bound = envelope.bound
        inside = bool(max_norm <= envelope.bound)
        chain_ok = bool(chain_lower >= -CHAIN_TOL and chain_upper >= -CHAIN_TOL)
        if rq_screen_psd:
            e_membership = inside
            psd_chain_ok = chain_ok
            if chain_ok and not inside and max_norm > envelope_bound * (1.0 + CHAIN_TOL):
                notes.append(
                    "ordering chain holds but a squared-trace norm exceeds the envelope "
                    "bound; the norm step of the envelope argument is the violated link"
                )
        else:
            notes.append("existence screen not PSD at sampled points; envelope bound not certified")
    definiteness_ok = bool(opponent_max < PSD_TOL and regulator_min > -PSD_TOL)

    if sum_q_pd and sum_sf_pd:
        p_min_eig: float | None = p_min
        p_max_eig: float | None = p_max
        p_pd: bool | None = bool(p_min > PSD_TOL)
    else:
        p_min_eig = p_max_eig = p_pd = None
        notes.append("summed weights are not positive definite; P(t) > 0 not certified")

    # Guaranteed-capture horizon:
    # (p_max / q_min) * (2 ln(|x0| / r) + ln(p_max / p_min)).
    horizon_bound: float | None = None
    if x0_norm is not None and r is not None:
        unavailable = None
        if not r > 0:
            unavailable = "r must be positive"
        elif not x0_norm > 0:
            unavailable = "x0_norm must be positive"
        elif p_pd is None:
            unavailable = (
                "exponential capture bound not applicable: the summed state and "
                "terminal weights must be positive definite"
            )
        elif not p_pd:
            unavailable = (
                "exponential capture bound not applicable: P(t) lost positive definiteness"
            )
        else:
            ln_terms = 2.0 * math.log(x0_norm / r) + math.log(p_max / p_min)
            horizon_bound = (p_max / q_min) * ln_terms
        if unavailable is not None:
            notes.append(f"minimum horizon unavailable: {unavailable}")

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
        p_max_eig=p_max_eig,
        horizon_bound=horizon_bound,
        notes=tuple(notes),
    )
