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
Every stage output is symmetrized, which keeps the iterates exactly
symmetric and lets the stored asymmetry drift serve as a cheap integrity
probe.

Near-escape games make the right-hand side arbitrarily stiff: the local
coupling magnitude can swing over many orders within one output interval,
and a bare fixed step either explodes or forces a globally tiny dt. Each
output interval is therefore subdivided by a deterministic stability
guard: the substep is sized so that (substep x local coupling rate) stays
below a fixed target, with the rate read off the current iterate. No
error estimator or step rejection is involved, so runs remain bit-for-bit
reproducible and the stored history still lives on the requested uniform
grid, lined up with the forward simulation at no cost.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import game as game_mod
from . import linalg
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
        trajectories integrated on the same grid.
        """
        span = float(tf) - float(t0)
        if span < 0:
            raise ValidationError(f"need tf >= t0, got t0={t0}, tf={tf}")
        if span == 0.0:
            return cls(t0, tf, 0)
        if not dt > 0:
            raise ValidationError("dt must be positive")
        steps = max(2, round(span / float(dt)))
        if steps % 2:
            steps += 1
        return cls(t0, tf, steps)


class SolveStatus(Enum):
    COMPLETE = "complete"
    BLOW_UP = "blow_up"
    # Reserved for non-finite arithmetic not preceded by a norm escape.
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass(frozen=True)
class RiccatiSolution:
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

    @property
    def complete(self) -> bool:
        return self.status is SolveStatus.COMPLETE

    @property
    def num_players(self) -> int:
        return self.S.shape[0]


def _rhs_factory(game: game_mod.GameDefinition):
    h_stack = game_mod.coupling_stack(game)
    q_stack = np.stack(game.Q)
    a = np.array(game.A)
    at = a.T.copy()
    a_norm = float(np.sqrt((a * a).sum()))

    def rhs(s: np.ndarray, hs: np.ndarray | None = None) -> np.ndarray:
        if hs is None:
            hs = h_stack @ s
        g = hs.sum(axis=0)
        quad = s @ hs  # S_i H_i S_i, batched over i
        mix = s @ g  # S_i sum_j H_j S_j
        out = -(s @ a + at @ s + q_stack + quad - mix - g.T @ s)
        return linalg.symmetrize(out)

    def rate(s: np.ndarray) -> tuple[float, np.ndarray]:
        # Local linearization magnitude of the right-hand side: the
        # Jacobian action on a perturbation D_i is dominated by terms of
        # the form D A, S H D and D (sum_j H_j S_j), so twice the norms of
        # the aggregate coupling and the largest own-coupling, plus the
        # drift part, bound the fastest local eigenvalue well enough for
        # step-size control. The product H_i S_i is returned as well so the
        # first RK4 stage at the same iterate can reuse it.
        hs = h_stack @ s
        g = hs.sum(axis=0)
        g_norm = float(np.sqrt((g * g).sum()))
        own = float(np.sqrt(np.einsum("ijk,ijk->i", hs, hs).max()))
        return 2.0 * (g_norm + own + a_norm), hs

    return rhs, rate


def riccati_rhs(game: game_mod.GameDefinition, S) -> list[np.ndarray]:
    """One right-hand-side evaluation, mostly useful for testing and audits.

    ``S`` is a per-player sequence of symmetric matrices; the returned list
    holds dS_i/dt in the same order, symmetrized.
    """
    if len(S) != game.num_players:
        raise ValidationError(f"expected {game.num_players} matrices, got {len(S)}")
    stack = np.stack([linalg.as_symmetric(si, f"S[{i + 1}]") for i, si in enumerate(S)])
    if stack.shape[1] != game.n:
        raise ValidationError(f"solution matrices must be {game.n} x {game.n}")
    rhs, _ = _rhs_factory(game)
    out = rhs(stack)
    return [out[i] for i in range(game.num_players)]


def solve_coupled(
    game: game_mod.GameDefinition,
    grid: TimeGrid,
    *,
    blowup_norm: float = BLOWUP_NORM,
    stability_target: float = STABILITY_TARGET,
    max_substeps: int = MAX_SUBSTEPS,
) -> RiccatiSolution:
    """Integrate the M coupled Riccati equations backward over ``grid``.

    The terminal slice equals the boundary data bitwise. Each output
    interval is covered by deterministic RK4 substeps sized by the
    stability guard; after every substep the iterate is checked for
    finiteness and against the squared-trace escape threshold. The first
    output time that cannot be reached flips the status to BLOW_UP and
    integration stops. Escape is an answer here, not an accident: it is
    exactly what a violated existence condition looks like numerically.
    """
    if not math.isclose(grid.t0, game.t0) or not math.isclose(grid.tf, game.tf):
        raise ValidationError(
            f"grid [{grid.t0}, {grid.tf}] does not match game horizon [{game.t0}, {game.tf}]"
        )
    m = game.num_players
    n = game.n
    steps = grid.steps
    rhs, rate = _rhs_factory(game)
    terminal = np.stack(game.S_f)
    s_hist = np.full((m, steps + 1, n, n), np.nan)
    s_hist[:, steps] = terminal
    times = grid.times()
    cur = terminal.copy()
    dt = grid.dt
    h_min = dt / float(max_substeps) if steps else 0.0
    max_drift = 0.0
    status = SolveStatus.COMPLETE
    failure_time = None
    failure_reason = None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps - 1, -1, -1):
            remaining = dt
            ok = True
            while remaining > 0.0:
                local, hs = rate(cur)
                h = min(remaining, max(stability_target / max(local, 1e-300), h_min))
                if remaining - h < h_min:
                    h = remaining  # avoid a vanishing tail substep
                hb = -h
                k1 = rhs(cur, hs)
                k2 = rhs(cur + (0.5 * hb) * k1)
                k3 = rhs(cur + (0.5 * hb) * k2)
                k4 = rhs(cur + hb * k3)
                new = cur + (hb / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                drift = float(np.max(np.abs(new - np.swapaxes(new, -1, -2))))
                if math.isfinite(drift):
                    max_drift = max(max_drift, drift)
                new = linalg.symmetrize(new)
                norms = np.einsum("ijk,ijk->i", new, new)
                if not np.isfinite(new).all() or bool((norms > blowup_norm).any()):
                    status = SolveStatus.BLOW_UP
                    failure_time = float(times[k])
                    failure_reason = (
                        "solution norm escaped the existence threshold"
                        if np.isfinite(new).all()
                        else "non-finite entries during backward integration"
                    )
                    ok = False
                    break
                cur = new
                remaining -= h
            if not ok:
                break
            s_hist[:, k] = cur
    s_hist.flags.writeable = False
    return RiccatiSolution(
        grid=grid,
        S=s_hist,
        status=status,
        failure_time=failure_time,
        failure_reason=failure_reason,
        max_symmetry_residual=max_drift,
    )


@dataclass(frozen=True)
class FeedbackGain:
    """Time-varying feedback gain of one player: u_i = -K_i(t) x.

    ``K`` has shape (steps+1, m_i, n) with ``K[k]`` the gain at grid point
    t_k.
    """

    player: int
    grid: TimeGrid
    K: np.ndarray


def gains(game: game_mod.GameDefinition, sol: RiccatiSolution) -> list[FeedbackGain]:
    """Feedback gains K_i(t_k) = R_i^{-1} B_i' S_i(t_k) for every player."""
    if not sol.complete:
        raise IncompleteSolutionError(
            f"gain synthesis needs a complete solve, status is {sol.status.value}"
        )
    if sol.num_players != game.num_players:
        raise ValidationError("solution and game disagree on the player count")
    out = []
    for i in range(game.num_players):
        r_inv_bt = linalg.spd_inverse(game.R[i], name=f"R[{i + 1}]") @ game.B[i].T
        k_series = np.matmul(r_inv_bt, sol.S[i])
        k_series.flags.writeable = False
        out.append(FeedbackGain(player=i, grid=sol.grid, K=k_series))
    return out


def gain_series(gain: FeedbackGain, times: np.ndarray) -> np.ndarray:
    """Vectorized linear interpolation of a gain at many query times."""
    ts = np.asarray(times, dtype=float)
    grid = gain.grid
    span = grid.tf - grid.t0
    slack = 1e-9 * (1.0 + abs(grid.tf) + abs(grid.t0))
    if bool((ts < grid.t0 - slack).any()) or bool((ts > grid.tf + slack).any()):
        raise ValidationError(
            f"gain query outside the solved horizon [{grid.t0}, {grid.tf}]"
        )
    if grid.steps == 0:
        return np.broadcast_to(gain.K[0], (ts.size,) + gain.K.shape[1:]).copy()
    idx = (ts - grid.t0) / grid.dt
    near = np.rint(idx)
    snap = np.abs(idx - near) <= 1e-9 * (1.0 + np.abs(idx))
    idx = np.where(snap, near, idx)
    idx = np.clip(idx, 0.0, float(grid.steps))
    lo = np.minimum(idx.astype(int), grid.steps - 1)
    theta = idx - lo
    out = (1.0 - theta)[:, None, None] * gain.K[lo] + theta[:, None, None] * gain.K[lo + 1]
    exact = theta == 0.0
    if exact.any():
        out[exact] = gain.K[lo[exact]]
    return out


def gain_at(gain: FeedbackGain, t: float) -> np.ndarray:
    """Gain at one time, linearly interpolated between grid points.

    Queries at grid points return the stored matrix exactly; queries
    outside the horizon raise.
    """
    return gain_series(gain, np.array([float(t)]))[0]
