"""Coupled Riccati integration and feedback gain synthesis.

The closed-loop Nash conditions for an M-player game reduce to M coupled
matrix Riccati differential equations. With H_j = B_j R_j^{-1} B_j', each
S_i satisfies, backward from S_i(tf) = S_if,

    dS_i/dt = -( S_i A + A' S_i + Q_i
                 + S_i H_i S_i
                 - sum_j (S_i H_j S_j + S_j H_j S_i) ),

where the sum runs over all players including i itself, so the self term
appears once with a plus and twice inside the sum. For M = 1 the equation
collapses to the standard regulator Riccati equation.

Integration is classic RK4 marching backward on a uniform output grid.
The right-hand side is evaluated as -(Y_i + Y_i' + Q_i) with
Y_i = S_i (A - G + H_i S_i / 2) and G = sum_j H_j S_j: the equation above
with S_i H_i S_i replaced by its symmetric part. One stage costs three
products for all players at once: H_i S_i for every i; one product of the
stacked H_i S_i and A with a constant (M+1) x (M+1) weight matrix, which
gives T_i = G - A - H_i S_i / 2 for every i and G itself; and N_i = S_i T_i.
The stage is then N_i + N_i' - Q_i. The four stages land in one stacked
buffer and the RK4 combination k1 + 2 k2 + 2 k3 + k4 is one product with
the weights (1, 2, 2, 1). The step-size rate at the start of a substep
reads H_i S_i and G from the products of the first stage. A matrix plus
its own transpose is bitwise symmetric, and the combination's weights
multiply exactly, so mirrored entries of the combination are the same sum
of the same terms: every stage and every iterate is exactly symmetric
without a symmetrization pass. The largest asymmetry over the stored
nodes is kept as an integrity probe.

Near-escape games make the right-hand side arbitrarily stiff: the local
coupling magnitude can swing over many orders within one output interval,
and a bare fixed step either explodes or forces a globally tiny dt. Each
output interval is therefore subdivided by a deterministic stability
guard: the substep is sized so that (substep x local coupling rate) stays
below a fixed target, with the rate read off the current iterate. No
error estimator or step rejection is involved, so runs remain bit-for-bit
reproducible and the stored history still lives on the requested uniform
grid, lined up with the forward simulation at no cost.

A substep's time is numpy's per-call overhead, not its arithmetic: it
makes about 31 calls on stacks of small matrices. So the substep loop
calls its kernels through names bound once at module level (``_matmul``,
``_add``, ``_subtract``, ``_multiply``, ``_vecdot``, ``_dot``), passes
every output positionally, never as ``out=``, holds its buffers and bound
methods in local names, and reads the rate's squared norms inline from
one ``vecdot`` list. The RK4 combination is ``_dot`` of the weights with
the stacked stages, the BLAS matrix-vector product that ``np.matmul``
calls for the same operands. None of this changes an operand or the
order of an operation: the test suite keeps the body written with
``out=`` keywords as ``helpers.reference_step`` and checks that both
write the same bytes.

``march_lockstep`` solves several games that share the grid and the state
dimension in one loop: every stack carries a game axis, games with fewer
players are padded with zero players that stay exactly zero, and each
output interval runs lockstep substeps until every game has covered it,
each game with its own substep. A game that has covered the interval
keeps its iterate, so each game's nodes are bitwise those it reaches
alone. Each node reached goes to its game's receiver: ``solve_coupled``
marches its one game into a full history, and a sweep, which pays
numpy's per-call overhead once per substep for its nash and team games,
folds each node into the closed-loop matrix its forward pass reads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import game as game_mod
from .errors import IncompleteSolutionError, ValidationError

#: Squared-trace norm above which a solution is declared escaped. Bounded
#: games can pass through violent but finite transients (the benchmark
#: pursuit game's stored solution peaks at 3.47e18 in this norm, at
#: time-to-go 0.028, before relaxing), so the threshold sits far above
#: those excursions yet far below overflow.
BLOWUP_NORM = 1e26

#: Stability guard: substeps are sized so substep * coupling_rate stays at
#: or below this target. RK4's real-axis stability interval is about 2.8,
#: so 0.5 leaves an order-of-magnitude margin and keeps local truncation
#: error per substep small.
STABILITY_TARGET = 0.5

#: Hard ceiling on substeps inside one output interval; bounds runtime on
#: genuinely escaping solutions where the rate grows without limit.
MAX_SUBSTEPS = 100_000

#: Ceiling on the RK4 substeps of one game's whole solve, checked once per
#: output interval. ``MAX_SUBSTEPS`` bounds a single interval only, so a
#: stiff but bounded game on a fine grid could otherwise run for hours; at
#: up to 54 us per substep this stops it within nine minutes. It is ten
#: times ``MAX_STEPS``, so a grid at the node cap still has ten substeps
#: per interval. A game past it stops as an escape does, with status
#: ``SUBSTEP_BUDGET``.
SUBSTEP_BUDGET = 10_000_000

#: Ceiling on the output intervals of a grid. Every history holds one
#: matrix per player and node, so a finer grid could not be stored.
MAX_STEPS = 1_000_000

#: Ceiling on the bytes of one solve's history of S, players * (steps + 1)
#: * n * n * 8, which ``solve_coupled`` allocates whole before its first
#: substep. ``MAX_STEPS`` alone lets it reach 1.15 GB on the benchmark game
#: (M = 4, n = 6) and 23 GB at M = 5, n = 24, where the allocation fails
#: with a bare ``MemoryError`` or the process is killed. 1 GiB is about 90
#: times the benchmark's 11.5 MB history at dt = 1e-3, so the bundled
#: scenarios keep ample headroom, and a grid past it is refused with a
#: message that names its bytes. ``Scenario`` checks it on its own grid.
MAX_HISTORY_BYTES = 2**30


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid with points t_k = t0 + k dt, k = 0..steps.

    ``steps == 0`` is allowed only for the degenerate tf == t0 horizon, in
    which case the grid is the single point t0.
    """

    t0: float
    tf: float
    steps: int

    def __post_init__(self):
        t0 = float(self.t0)
        tf = float(self.tf)
        steps = int(self.steps)
        if not (math.isfinite(t0) and math.isfinite(tf)):
            raise ValidationError("grid endpoints must be finite")
        if tf < t0:
            raise ValidationError(f"need tf >= t0, got t0={t0}, tf={tf}")
        if tf > t0 and steps < 1:
            raise ValidationError("a positive horizon needs at least one step")
        if tf == t0 and steps != 0:
            raise ValidationError("a zero horizon must use steps=0")
        object.__setattr__(self, "t0", t0)
        object.__setattr__(self, "tf", tf)
        object.__setattr__(self, "steps", steps)

    @property
    def dt(self) -> float:
        return (self.tf - self.t0) / self.steps if self.steps else 0.0

    def times(self) -> np.ndarray:
        return np.linspace(self.t0, self.tf, self.steps + 1)

    @classmethod
    def from_step(cls, t0: float, tf: float, dt: float) -> "TimeGrid":
        """Grid whose step is as close as possible to ``dt``, even step count.

        An even count keeps composite Simpson quadrature applicable to
        trajectories integrated on the same grid. A ``dt`` that asks for
        more than ``MAX_STEPS`` steps raises :class:`ValidationError`.
        """
        span = float(tf) - float(t0)
        if not 0.0 < span < math.inf:
            # The constructor accepts a single-point grid only for tf == t0.
            return cls(t0, tf, 0)
        if not dt > 0:
            raise ValidationError("dt must be positive")
        count = span / float(dt)
        if not math.isfinite(count):
            raise ValidationError(
                f"dt={float(dt)!r} is too small for the span {span!r}: span / dt is not finite"
            )
        if count > MAX_STEPS:
            raise ValidationError(
                f"dt={float(dt)!r} asks for {count:.3g} steps over the span {span!r}; "
                f"at most {MAX_STEPS:,} are allowed"
            )
        steps = max(2, round(count))
        if steps % 2:
            steps += 1
        return cls(t0, tf, steps)


@dataclass(frozen=True)
class SolveStats:
    """Deterministic counters of one backward solve.

    ``substeps`` counts the RK4 substeps taken and ``subdivided_intervals``
    the output intervals that needed more than one; ``min_substep`` is the
    shortest substep (the grid step when none was shorter, 0.0 on a
    single-point grid). ``peak_norm`` is the largest squared-trace norm of
    any player over the terminal data and every substep iterate, reached at
    ``peak_time``: it marks the boundary layer of near-escape games.
    """

    substeps: int
    subdivided_intervals: int
    min_substep: float
    peak_norm: float
    peak_time: float


class SolveStatus(Enum):
    COMPLETE = "complete"
    BLOW_UP = "blow_up"
    SUBSTEP_BUDGET = "substep_budget"


@dataclass(frozen=True, eq=False)
class RiccatiSolution(game_mod.ValueEquality):
    """Backward solve output.

    ``S`` has shape (M, steps+1, n, n); ``S[i, k]`` is player i's matrix at
    grid point t_k. On a failed solve the grid points never reached stay
    NaN and ``failure_time`` records the first offending grid time.
    """

    grid: TimeGrid
    S: np.ndarray
    status: SolveStatus
    failure_time: float | None
    failure_reason: str | None
    max_symmetry_residual: float
    stats: SolveStats

    @property
    def complete(self) -> bool:
        return self.status is SolveStatus.COMPLETE

    @property
    def num_players(self) -> int:
        return self.S.shape[0]


#: RK4 stage weights. Multiplying by them is exact, so the one product
#: over the stacked stages rounds only in its sums.
_RK4_WEIGHTS = np.array([1.0, 2.0, 2.0, 1.0])

# The substep's kernels, bound once (see the module docstring).
_matmul, _add, _subtract, _multiply = np.matmul, np.add, np.subtract, np.multiply
_vecdot, _dot, _sqrt = np.vecdot, np.dot, math.sqrt


class _Stages:
    """The right-hand side of a batch of games, on buffers allocated once.

    Every stack is player-major: entry i * G + g of a (M G, n, n) stack
    is player i of game g, where G counts the games and M is the largest
    player count. A game with fewer players is padded with zero players
    (H = 0, Q = 0, S_f = 0), whose S stays exactly zero; their weights are
    -0.0, so they add -0.0 to every sum of the coupling product and change
    no bit, not even the sign of a zero. ``couple(s)`` forms H_i S_i and, in
    one product with each game's constant weight matrix, T_i = G - A -
    H_i S_i / 2 for every player and G itself. ``stage(s, out)`` then
    writes -(Y_i + Y_i' + Q_i) = N_i + N_i' - Q_i with N_i = S_i T_i.
    The coupling buffer holds rows of n*n entries in the order T_1..T_M,
    G, H_1 S_1..H_M S_M, A, each row once per game, so the weights read the
    last M + 1 rows, write the first M + 1, and ``norm_rows`` reads G and
    every H_i S_i as one block: the squared norms that size each game's
    substep.
    """

    def __init__(self, games: list[game_mod.GameDefinition]):
        count = len(games)
        m = max(game.num_players for game in games)
        n = games[0].n
        self.shape = (m * count, n, n)
        h_stack = np.zeros((m, count, n, n))
        q_stack = np.zeros((m, count, n, n))
        self.weights = np.full((count, m + 1, m + 1), -0.0)
        z = np.empty((2 * m + 2, count, n * n))
        for g, game in enumerate(games):
            mg = game.num_players
            z[-1, g] = np.reshape(game.A, -1)
            h_stack[:mg, g] = game.H
            q_stack[:mg, g] = game.Q
            # Row i < M: 1 for the other players, 1/2 for player i, -1 for A.
            # Row M: 1 for every player, 0 for A.
            w = self.weights[g]
            w[:mg, :mg] = 1.0
            w[np.arange(mg), np.arange(mg)] = 0.5
            w[:mg, m] = -1.0
            w[m, :mg] = 1.0
            w[m, m] = 0.0
        self.h_stack = h_stack.reshape(self.shape)
        self.q_stack = q_stack.reshape(self.shape)
        self.hs_and_a = z[m + 1 :].swapaxes(0, 1)
        self.t_and_g = z[: m + 1].swapaxes(0, 1)
        self.norm_rows = z[m : 2 * m + 1].swapaxes(0, 1)
        self.hs = z[m + 1 : 2 * m + 1].reshape(self.shape)
        self.t = z[:m].reshape(self.shape)
        self.n_buf = np.empty(self.shape)
        self.n_transposed = self.n_buf.swapaxes(-1, -2)
        # Substep buffers: the four stage slopes, a stage iterate and an
        # increment.
        k = np.empty((4,) + self.shape)
        self.k_flat = k.reshape(4, -1)
        self.k_stages = tuple(k)
        self.s_stage = np.empty(self.shape)
        self.inc = np.empty(self.shape)
        self.inc_flat = self.inc.reshape(-1)

    def couple(self, s: np.ndarray) -> None:
        _matmul(self.h_stack, s, self.hs)
        _matmul(self.weights, self.hs_and_a, self.t_and_g)

    def stage(self, s: np.ndarray, out: np.ndarray) -> None:
        # N_i = S_i T_i = -Y_i of the module docstring.
        n_buf = self.n_buf
        _matmul(s, self.t, n_buf)
        _add(n_buf, self.n_transposed, out)
        _subtract(out, self.q_stack, out)

    def step(self, cur: np.ndarray, hb, out: np.ndarray) -> None:
        """One RK4 substep from ``cur`` into ``out``.

        ``hb`` is the signed substep length: one float for every game, or
        an array of shape (M G, 1, 1) that holds each game's for each of
        its players. ``couple(cur)`` must have run; the first stage reuses
        its products.
        """
        couple, stage = self.couple, self.stage
        k1, k2, k3, k4 = self.k_stages
        inc, s_stage = self.inc, self.s_stage
        half = 0.5 * hb
        stage(cur, k1)
        _multiply(k1, half, inc)
        _add(cur, inc, s_stage)
        couple(s_stage)
        stage(s_stage, k2)
        _multiply(k2, half, inc)
        _add(cur, inc, s_stage)
        couple(s_stage)
        stage(s_stage, k3)
        _multiply(k3, hb, inc)
        _add(cur, inc, s_stage)
        couple(s_stage)
        stage(s_stage, k4)
        _dot(_RK4_WEIGHTS, self.k_flat, self.inc_flat)
        _multiply(inc, hb / 6.0, inc)
        _add(cur, inc, out)


def _asymmetry(s: np.ndarray) -> float:
    """max |s - s'| over a stack of matrices, with one temporary the size of s."""
    diff = s - s.swapaxes(-1, -2)
    return float(np.abs(diff, out=diff).max())


def solve_coupled(game: game_mod.GameDefinition, grid: TimeGrid) -> RiccatiSolution:
    """Integrate the M coupled Riccati equations backward over ``grid``.

    The terminal slice equals the boundary data bitwise. Each output
    interval is covered by deterministic RK4 substeps sized by the
    stability guard; after every substep the largest squared-trace norm is
    tested against the escape threshold, a test that non-finite entries
    fail as well. The first
    output time that cannot be reached flips the status to BLOW_UP and
    integration stops. Escape is an answer here, not an accident: it is
    exactly what a violated existence condition looks like numerically.
    A solve whose substeps pass ``SUBSTEP_BUDGET`` stops the same way, at
    the output interval where they did, with status SUBSTEP_BUDGET. This
    is :func:`march_lockstep` of the one game into a full history.
    """
    hist = np.full((game.num_players, grid.steps + 1, game.n, game.n), np.nan)
    # The march stores node k as hist[:, k], each matrix flattened.
    store = hist.reshape(hist.shape[:2] + (-1,)).swapaxes(0, 1)
    failed, (stats,) = march_lockstep([game], grid, [store])
    fail = failed.get(0)
    # Integrity probe over the stored nodes: every stage is bitwise
    # symmetric, so this reads 0.0 unless the arithmetic stops preserving it.
    stored = hist[:, 0 if fail is None else fail[0] + 1 :]
    max_residual = max(_asymmetry(si) for si in stored)
    hist.flags.writeable = False
    return RiccatiSolution(
        grid=grid,
        S=hist,
        status=SolveStatus.COMPLETE if fail is None else fail[1],
        failure_time=None if fail is None else float(grid.times()[fail[0]]),
        failure_reason=None if fail is None else fail[2],
        max_symmetry_residual=max_residual,
        stats=stats,
    )


def march_lockstep(games: list[game_mod.GameDefinition], grid: TimeGrid, stores: list):
    """The backward solve of every game on one shared ``grid``, in one loop.

    The games must share the state dimension; their player counts may
    differ. Every output interval runs lockstep RK4 substeps until each
    game has covered it: each game sizes its substep from its own rate,
    and a game that has covered the interval keeps its iterate while the
    others go on. A game that escapes is never read again. Every node game
    g reaches is stored as ``stores[g][k] = s``, from the grid's last node
    down: ``s`` holds its players' matrices flattened, (players, n * n),
    and is a view the loop overwrites. Returns each failed game's first
    node not reached, status and reason, keyed by game, and every game's
    stats.
    """
    if not games:
        raise ValidationError("a lockstep solve needs at least one game")
    for game in games:
        if not math.isclose(grid.t0, game.t0) or not math.isclose(grid.tf, game.tf):
            raise ValidationError(
                f"grid [{grid.t0}, {grid.tf}] does not match game horizon [{game.t0}, {game.tf}]"
            )
        if game.n != games[0].n:
            raise ValidationError(
                f"a lockstep solve needs one state dimension, got {games[0].n} and {game.n}"
            )
    count = len(games)
    players = [game.num_players for game in games]
    m = max(players)
    n = games[0].n
    steps = grid.steps
    stages = _Stages(games)
    # Two iterate buffers, each with a games-by-players view of flat matrices.
    cur, new = np.zeros(stages.shape), np.empty(stages.shape)
    cur_f = cur.reshape(m, count, n * n).swapaxes(0, 1)
    new_f = new.reshape(m, count, n * n).swapaxes(0, 1)
    for g, game in enumerate(games):
        cur_f[g, : players[g]] = np.reshape(game.S_f, (players[g], n * n))
        stores[g][steps] = cur_f[g, : players[g]]
    times = grid.times().tolist()
    a_norms = [float(np.sqrt((game.A * game.A).sum())) for game in games]
    hb_players = np.empty((m, count, 1, 1))
    hb_array = hb_players.reshape(m * count, 1, 1)
    dt = grid.dt
    h_min = dt / float(MAX_SUBSTEPS) if steps else 0.0
    substeps = [0] * count
    subdivided = [0] * count
    smallest = [dt] * count
    # Squared-trace norms of every player, game by game; padded players
    # come last with norm 0.0, which leaves both max() and sum() as they are.
    peak = [max(norms) for norms in np.vecdot(cur_f, cur_f).tolist()]
    peak_time = [grid.tf] * count
    # game -> (interval, status, reason)
    failed: dict[int, tuple[int, SolveStatus, str]] = {}
    live = list(range(count))
    couple, step, norm_rows = stages.couple, stages.step, stages.norm_rows
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps - 1, -1, -1):
            remaining = [dt] * count
            taken = [0] * count
            running = live
            while running:
                # Each game's squared norms of G and of every H_i S_i; the
                # products stay for the first stage at cur.
                couple(cur)
                coupling = _vecdot(norm_rows, norm_rows).tolist()
                hs = []
                for g in running:
                    # Local linearization magnitude of the right-hand side:
                    # the Jacobian action on a perturbation D_i is dominated
                    # by terms of the form D A, S H D and D (sum_j H_j S_j),
                    # so twice the norms of the aggregate coupling and the
                    # largest own-coupling, plus the drift part, bound the
                    # fastest local eigenvalue well enough for step-size
                    # control. A padded player's 0.0 leaves max() as it is.
                    sq = coupling[g]
                    rate = 2.0 * (_sqrt(sq[0]) + _sqrt(max(sq[1:])) + a_norms[g])
                    rem = remaining[g]
                    h = min(rem, max(STABILITY_TARGET / max(rate, 1e-300), h_min))
                    # A vanishing tail substep joins this one.
                    hs.append(rem if rem - h < h_min else h)
                # Where no game subdivides, every game takes h = dt. An
                # escaped game is never read again, so it rides along.
                stepped = len(running) == len(live)
                if stepped and hs.count(hs[0]) == len(hs):
                    hb = -hs[0]
                else:
                    hb_players.fill(0.0)
                    for g, h in zip(running, hs):
                        hb_players[:, g] = -h
                    hb = hb_array
                step(cur, hb, new)
                norms = _vecdot(new_f, new_f).tolist()
                going = []
                for g, h in zip(running, hs):
                    # A NaN or inf entry makes its player's norm NaN or
                    # inf. max() can pass over a NaN but the sum cannot, so
                    # this test also catches non-finite arithmetic.
                    gn = norms[g]
                    top = max(gn)
                    if not top <= BLOWUP_NORM or math.isnan(sum(gn)):
                        failed[g] = (
                            k,
                            SolveStatus.BLOW_UP,
                            "solution norm escaped the existence threshold"
                            if np.isfinite(new_f[g, : players[g]]).all()
                            else "non-finite entries during backward integration",
                        )
                        continue
                    rem = remaining[g] = remaining[g] - h
                    taken[g] += 1
                    if h < smallest[g]:
                        smallest[g] = h
                    if top > peak[g]:
                        peak[g] = top
                        peak_time[g] = times[k] + rem
                    if rem > 0.0:
                        going.append(g)
                if not stepped:
                    # A game that has covered the interval keeps its
                    # iterate: copy it back rather than trust a step by 0.
                    for g in live:
                        if g not in running:
                            new_f[g] = cur_f[g]
                cur, cur_f, new, new_f = new, new_f, cur, cur_f
                running = going
            for g in live:
                total = substeps[g] = substeps[g] + taken[g]
                subdivided[g] += taken[g] > 1
                if g in failed:
                    continue
                if total > SUBSTEP_BUDGET:
                    failed[g] = (
                        k,
                        SolveStatus.SUBSTEP_BUDGET,
                        f"substeps passed the budget of {SUBSTEP_BUDGET:,} for one solve",
                    )
                else:
                    stores[g][k] = cur_f[g, : players[g]]
            if failed:
                live = [g for g in live if g not in failed]
                if not live:
                    break
    return failed, list(map(SolveStats, substeps, subdivided, smallest, peak, peak_time))


@dataclass(frozen=True, eq=False)
class FeedbackGain(game_mod.ValueEquality):
    """Time-varying feedback gain of one player: u_i = -K_i(t) x.

    ``K`` has shape (steps+1, m_i, n) with ``K[k]`` the gain at grid point
    t_k.
    """

    player: int
    grid: TimeGrid
    K: np.ndarray


def gains(game: game_mod.GameDefinition, sol: RiccatiSolution) -> list[FeedbackGain]:
    """Feedback gains K_i(t_k) = R_i^{-1} B_i' S_i(t_k) for every player, from ``game.R_inv``."""
    if not sol.complete:
        raise IncompleteSolutionError(
            f"gain synthesis needs a complete solve, status is {sol.status.value}"
        )
    if sol.num_players != game.num_players:
        raise ValidationError("solution and game disagree on the player count")
    out = []
    for i in range(game.num_players):
        k_series = np.matmul(game.R_inv[i] @ game.B[i].T, sol.S[i])
        k_series.flags.writeable = False
        out.append(FeedbackGain(player=i, grid=sol.grid, K=k_series))
    return out
