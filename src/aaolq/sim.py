"""Closed-loop simulation, pursuit reporting and bound checking.

The forward pass integrates dx/dt = (A - sum_j B_j K_j(t)) x with RK4 on
the same uniform grid as the backward solver, interpolating gains linearly
between their grid points. Because interpolated gains can swing over
orders of magnitude within one interval on near-escape games, each
interval is subdivided into a deterministic number of equal substeps sized
by the same kind of stability guard the backward solver uses; smooth games
take exactly one substep per interval. Costs accumulate by composite
Simpson quadrature over the simulation grid plus the terminal term, which
is why grids built through :meth:`TimeGrid.from_step` always carry an even
step count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .analysis import lyapunov_weight_series, sum_matrices
from .errors import DivergenceError, NotApplicableError, ValidationError
from .game import GameDefinition
from .riccati import MAX_SUBSTEPS, FeedbackGain, RiccatiSolution, TimeGrid, gain_series

DIVERGENCE_NORM = 1e12

#: Stability guard for forward substeps: substep * closed-loop rate stays
#: at or below this target (see the backward solver for the rationale).
STABILITY_TARGET = 0.5


@dataclass(frozen=True)
class Trajectory:
    """Closed-loop run: states, controls, costs and optional Lyapunov values.

    ``x`` has shape (steps+1, n); ``u[i]`` has shape (steps+1, m_i) and
    holds the control player i applied at each grid point. ``costs[i]`` is
    player i's accumulated cost. ``lyapunov`` is x' P x per grid point when
    a backward solution was supplied to the simulation, else None.
    """

    grid: TimeGrid
    x: np.ndarray
    u: tuple[np.ndarray, ...]
    costs: np.ndarray
    lyapunov: np.ndarray | None
    mode: str


def _simpson_weights(steps: int, dt: float) -> np.ndarray:
    if steps == 0:
        return np.zeros(1)
    w = np.ones(steps + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (dt / 3.0)


def simulate(
    game: GameDefinition,
    gains: list[FeedbackGain],
    x0,
    *,
    grid: TimeGrid | None = None,
    sol: RiccatiSolution | None = None,
    mode: str = "nash",
    divergence_norm: float = DIVERGENCE_NORM,
    stability_target: float = STABILITY_TARGET,
) -> Trajectory:
    """Integrate the closed loop forward and accumulate per-player costs.

    By default the simulation reuses the first gain's grid, matching the
    backward solve step for step. A Euclidean state norm above
    ``divergence_norm`` aborts with :class:`DivergenceError`; running past
    capture is normal and expected, play continues to tf. A gain that is
    not finite at some node raises :class:`ValidationError` naming the
    player and the first such grid time.
    """
    if len(gains) != game.num_players:
        raise ValidationError(f"expected {game.num_players} gains, got {len(gains)}")
    if grid is None:
        grid = gains[0].grid
    if grid.steps % 2:
        raise ValidationError("simulation needs an even step count for Simpson quadrature")
    x0v = linalg.as_vector(x0, "x0")
    if x0v.size != game.n:
        raise ValidationError(f"x0: expected {game.n} entries, got {x0v.size}")
    steps = grid.steps
    times = grid.times()
    for i, g in enumerate(gains):
        if not np.isfinite(g.K).all():
            first = np.flatnonzero(~np.isfinite(g.K).reshape(len(g.K), -1).all(axis=1))[0]
            t_bad = float(g.grid.times()[first])
            raise ValidationError(f"player {i + 1}: gain is not finite at t={t_bad!r}")
    k_nodes = [gain_series(g, times) for g in gains]
    a = np.array(game.A)
    acl_nodes = np.broadcast_to(a, (steps + 1,) + a.shape).copy()
    for b, kn in zip(game.B, k_nodes):
        acl_nodes -= np.matmul(b, kn)
    if steps:
        acl_norms = np.sqrt(np.einsum("kij,kij->k", acl_nodes, acl_nodes))
    x = np.empty((steps + 1, game.n))
    x[0] = x0v
    dt = grid.dt
    for k in range(steps):
        a0 = acl_nodes[k]
        da = acl_nodes[k + 1] - a0
        # The closed-loop matrix is linear on the interval, so the larger
        # endpoint norm bounds it throughout; substeps are equal-sized for
        # determinism and exact interval coverage.
        local = 2.0 * float(max(acl_norms[k], acl_norms[k + 1]))
        n_sub = min(MAX_SUBSTEPS, max(1, math.ceil(dt * local / stability_target)))
        h = dt / n_sub
        xk = x[k]
        for j in range(n_sub):
            th0 = j / n_sub
            thm = (j + 0.5) / n_sub
            th1 = (j + 1) / n_sub
            a_lo = a0 + th0 * da
            a_mid = a0 + thm * da
            a_hi = a0 + th1 * da
            k1 = a_lo @ xk
            k2 = a_mid @ (xk + (0.5 * h) * k1)
            k3 = a_mid @ (xk + (0.5 * h) * k2)
            k4 = a_hi @ (xk + h * k3)
            xk = xk + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            norm = float(np.linalg.norm(xk))
            if not math.isfinite(norm) or norm > divergence_norm:
                raise DivergenceError(float(times[k + 1]), norm)
        x[k + 1] = xk
    u = tuple(-np.einsum("kmn,kn->km", kn, x) for kn in k_nodes)
    weights = _simpson_weights(steps, dt)
    costs = np.empty(game.num_players)
    for i in range(game.num_players):
        state_term = np.einsum("kn,nm,km->k", x, game.Q[i], x)
        control_term = np.einsum("km,mp,kp->k", u[i], game.R[i], u[i])
        running = 0.5 * float(weights @ (state_term + control_term))
        terminal = 0.5 * float(x[-1] @ game.S_f[i] @ x[-1])
        costs[i] = running + terminal
    lyap = None
    if sol is not None:
        if sol.grid != grid:
            raise ValidationError("the supplied solution lives on a different grid")
        p_series = lyapunov_weight_series(sol)
        lyap = np.einsum("kn,knm,km->k", x, p_series, x)
        lyap.flags.writeable = False
    x.flags.writeable = False
    costs.flags.writeable = False
    for ui in u:
        ui.flags.writeable = False
    return Trajectory(grid=grid, x=x, u=u, costs=costs, lyapunov=lyap, mode=mode)


@dataclass(frozen=True)
class PursuitReport:
    """Pursuer-evader separations along one trajectory.

    ``distances[k, j]`` is the Euclidean norm of state block j at grid
    point k. Capture is evaluated at grid points only: ``capture_time`` is
    the first grid time at which some distance is at or under the radius,
    ``captured_by`` the 0-based index of the closest pursuer then (ties go
    to the lowest index). Both are None when no capture occurs.
    """

    distances: np.ndarray
    capture_radius: float
    capture_time: float | None
    captured_by: int | None

    @property
    def final_distances(self) -> np.ndarray:
        return self.distances[-1]

    @property
    def captured(self) -> bool:
        return self.capture_time is not None


def pursuit_report(traj: Trajectory, capture_radius: float) -> PursuitReport:
    """Distances and capture outcome under the planar block convention."""
    if not capture_radius > 0:
        raise ValidationError("capture_radius must be positive")
    n = traj.x.shape[1]
    if n % 2:
        raise ValidationError("pursuit reporting needs an even state dimension")
    k = n // 2
    blocks = traj.x.reshape(traj.x.shape[0], k, 2)
    distances = np.sqrt(np.einsum("tkc,tkc->tk", blocks, blocks))
    mins = distances.min(axis=1)
    hits = np.nonzero(mins <= capture_radius)[0]
    times = traj.grid.times()
    if hits.size:
        first = int(hits[0])
        capture_time = float(times[first])
        captured_by = int(np.argmin(distances[first]))
    else:
        capture_time = None
        captured_by = None
    distances.flags.writeable = False
    return PursuitReport(
        distances=distances,
        capture_radius=float(capture_radius),
        capture_time=capture_time,
        captured_by=captured_by,
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
    game: GameDefinition,
    traj: Trajectory,
    sol: RiccatiSolution,
    *,
    rel_slack: float = 1e-6,
    mono_slack: float = 1e-9,
) -> LyapunovReport:
    """Verify V = x' P x decays as certified.

    Needs the summed state and terminal weights positive definite, else
    raises :class:`NotApplicableError` ("not applicable"). Checks that V is
    strictly decreasing between grid points up to ``mono_slack``, that it
    stays under V(t0) exp(-rate (t - t0)) with relative slack, and that the
    squared state-norm ratio respects the matching spectral bound.
    """
    sums = sum_matrices(game)
    q_min = float(linalg.sym_eigenvalues(sums.q_sum).values[0])
    sf_min = float(linalg.sym_eigenvalues(sums.sf_sum).values[0])
    if q_min <= 0.0 or sf_min <= 0.0:
        raise NotApplicableError(
            "decay certificate not applicable: summed state and terminal weights "
            "must be positive definite"
        )
    if sol.grid != traj.grid:
        raise ValidationError("trajectory and solution live on different grids")
    p_series = lyapunov_weight_series(sol)
    p_lo, p_hi = linalg.sym_extrema_stack(p_series)
    p_min = float(p_lo.min())
    p_max = float(p_hi.max())
    if p_min <= 0.0:
        raise NotApplicableError("decay certificate not applicable: P(t) is not positive definite")
    rate = q_min / p_max
    if traj.lyapunov is not None:
        v = np.asarray(traj.lyapunov)
    else:
        v = np.einsum("kn,knm,km->k", traj.x, p_series, traj.x)
    times = traj.grid.times()
    decay = np.exp(-rate * (times - times[0]))
    v0 = float(v[0])
    diffs = np.diff(v)
    max_increase = float(diffs.max()) if diffs.size else 0.0
    monotone_ok = bool(max_increase < mono_slack)
    if v0 > 0.0:
        excess = float((v / (v0 * decay)).max() - 1.0)
        exp_ok = bool((v <= v0 * decay * (1.0 + rel_slack)).all())
    else:
        excess = float(np.abs(v).max())
        exp_ok = bool(excess <= mono_slack)
    x0_norm = float(np.linalg.norm(traj.x[0]))
    if x0_norm > 0.0:
        ratios = (np.linalg.norm(traj.x, axis=1) / x0_norm) ** 2
        bound = (p_max / p_min) * decay
        ratio_excess = float((ratios / bound).max() - 1.0)
        ratio_ok = bool((ratios <= bound * (1.0 + rel_slack)).all())
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
class ProbeSample:
    epsilon: float
    cost: float | None
    diverged: bool


def stationarity_probe(
    game: GameDefinition,
    gains: list[FeedbackGain],
    x0,
    player: int,
    direction,
    epsilons,
    *,
    grid: TimeGrid | None = None,
) -> list[ProbeSample]:
    """Perturb one player's gain by eps * direction and record that player's cost.

    At an equilibrium the cost is first-order stationary in eps, so a
    central difference through the returned samples should vanish to
    discretization accuracy. Divergence under a perturbation is recorded
    per sample, not raised.
    """
    if not 0 <= player < game.num_players:
        raise ValidationError(f"player index {player} out of range")
    eps_list = [float(e) for e in epsilons]
    if 0.0 not in eps_list:
        raise ValidationError("epsilons must include 0 for a baseline sample")
    d = np.asarray(direction, dtype=float)
    base = gains[player]
    if d.shape != base.K.shape[1:]:
        raise ValidationError(
            f"direction shape {d.shape} does not match the gain shape {base.K.shape[1:]}"
        )
    out = []
    for eps in eps_list:
        perturbed = list(gains)
        perturbed[player] = FeedbackGain(
            player=base.player, grid=base.grid, K=base.K + eps * d[None]
        )
        try:
            traj = simulate(game, perturbed, x0, grid=grid)
        except DivergenceError:
            out.append(ProbeSample(epsilon=eps, cost=None, diverged=True))
        else:
            out.append(ProbeSample(epsilon=eps, cost=float(traj.costs[player]), diverged=False))
    return out
