"""Closed-loop simulation and pursuit reporting.

The forward pass integrates dx/dt = A_cl(t) x with RK4 on the uniform grid
of the backward solve. It reads only the closed-loop nodes
A_cl(t_k) = A - sum_j B_j K_j(t_k), as :func:`closed_loop` forms them for
:func:`simulate` and as a sweep folds them during its solve, and
interpolates them linearly between nodes. Because the closed loop can
swing over orders of magnitude within one interval
on near-escape games, each interval is subdivided into a deterministic
number of equal substeps sized by the same kind of stability guard the
backward solver uses; smooth games take exactly one substep per interval.
On a linear ODE one RK4 substep is a matrix polynomial in its three stage
matrices, so the n x n transition maps of a chunk of substeps are built
in one stacked pass and then applied to the state in order, one
matrix-vector product each. Every streamed stage (here, in the runner and
in the certificates) sizes its chunks by one budget of ``CHUNK_VALUES``
float64 values per array (:func:`chunk_items`); it bounds memory, not results.
The same maps carry any number of start nodes at once: a sweep starts
each horizon at its own node of the longest horizon's grid, a chunk of
maps also ends where a horizon starts, and each start's states equal a
run from that node alone bitwise. Costs accumulate by composite Simpson
quadrature over the simulation grid plus the terminal term, which is why
grids built through :meth:`TimeGrid.from_step` always carry an even step
count. The decay certificate along a trajectory lives in
:func:`aaolq.analysis.lyapunov_check`.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DivergenceError, ValidationError
from .game import GameDefinition, ValueEquality
from .riccati import MAX_SUBSTEPS, STABILITY_TARGET, FeedbackGain, TimeGrid

DIVERGENCE_NORM = 1e12
#: Values per array that a streamed stage holds in one chunk; bounds memory, not results.
CHUNK_VALUES = 8_192


def chunk_items(width: int) -> int:
    """Items of ``width`` values each in one chunk of ``CHUNK_VALUES``; at least one."""
    return max(1, CHUNK_VALUES // width)


@dataclass(frozen=True, eq=False)
class Trajectory(ValueEquality):
    """Closed-loop run: states, controls and costs.

    ``x`` has shape (steps+1, n); ``u[i]`` has shape (steps+1, m_i) and
    holds the control player i applied at each grid point. ``costs[i]`` is
    player i's accumulated cost.
    """

    grid: TimeGrid
    x: np.ndarray
    u: tuple[np.ndarray, ...]
    costs: np.ndarray


def _simpson_weights(steps: int, dt: float) -> np.ndarray:
    w = np.ones(steps + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (dt / 3.0)


def closed_loop(game: GameDefinition, gains: list[FeedbackGain]) -> np.ndarray:
    """A - sum_j B_j K_j at every node of ``gains``: shape (nodes, n, n)."""
    acl = np.broadcast_to(game.A, (len(gains[0].K),) + game.A.shape).copy()
    nodes = chunk_items(game.A.size)  # one chunk of B_j K_j at a time, not a whole-grid one
    for lo in range(0, len(acl), nodes):
        for b, g in zip(game.B, gains):
            acl[lo : lo + nodes] -= np.matmul(b, g.K[lo : lo + nodes])
    return acl


def _transition_maps(acl: np.ndarray, dt: float, nodes: list[int]):
    """RK4 transition maps of every substep from node ``nodes[0]`` to the grid's end.

    ``acl`` holds the closed-loop matrix at every node of a grid of step
    ``dt`` and ``nodes`` are the sorted start nodes. Yields ``(k, phi,
    last)`` once per chunk, in order; a chunk ends every
    ``chunk_items(n * n)`` substeps and before the first substep of every
    start node. ``phi[i]`` maps the state over one substep of the interval
    that starts at node ``k[i]``, and ``last[i]`` marks the substep that
    closes it.
    """
    first = nodes[0]
    acl_nodes = acl[first:]
    acl_norms = np.sqrt(np.einsum("kij,kij->k", acl_nodes, acl_nodes))
    # The closed-loop matrix is linear on each interval, so the larger
    # endpoint norm bounds it throughout; substeps are equal-sized for
    # determinism and exact interval coverage.
    local = 2.0 * np.maximum(acl_norms[:-1], acl_norms[1:])
    n_sub = np.clip(np.ceil(dt * local / STABILITY_TARGET), 1, MAX_SUBSTEPS).astype(np.int64)
    bounds = np.concatenate(([0], np.cumsum(n_sub)))  # each interval's first substep
    total = int(bounds[-1])
    eye = np.eye(acl.shape[-1])
    chunk = chunk_items(eye.size)
    cuts = sorted({*range(0, total, chunk), *bounds[np.subtract(nodes, first)].tolist(), total})
    for s0, s1 in zip(cuts, cuts[1:]):
        sub = np.arange(s0, s1)
        k = np.searchsorted(bounds, sub, side="right") - 1  # interval of each substep
        n = n_sub[k][:, None, None]
        j = (sub - bounds[k])[:, None, None]
        a0 = acl_nodes[k]
        da = acl_nodes[k + 1] - a0
        a_lo = a0 + (j / n) * da
        a_mid = a0 + ((j + 0.5) / n) * da
        a_hi = a0 + ((j + 1) / n) * da
        # RK4 on a linear ODE is a matrix polynomial: one map per substep.
        h = dt / n
        k2 = a_mid @ (eye + (0.5 * h) * a_lo)
        k3 = a_mid @ (eye + (0.5 * h) * k2)
        k4 = a_hi @ (eye + h * k3)
        phi = eye + (h / 6.0) * (a_lo + 2.0 * k2 + 2.0 * k3 + k4)
        yield k + first, phi, sub == bounds[k + 1] - 1


def _propagate(grid: TimeGrid, acl: np.ndarray, x0, starts, stores) -> list:
    """Closed-loop states from ``x0`` at each start node to the grid's end.

    ``acl`` holds the closed-loop matrix at every node of ``grid``. The
    states of start i, on nodes ``starts[i]`` .. steps of ``grid``, go to
    its receiver in node order as ``stores[i][rows] = states``: ``rows``
    a slice of those nodes counted from the start, row 0 (``x0``) first,
    and ``states`` their (rows, n) states, at least one row per write.
    Entry i of the result is ``stores[i]``, or the :class:`DivergenceError`
    of the first substep whose state norm passed ``DIVERGENCE_NORM``, at
    the end time of that substep's interval; a diverged start stops
    counting (its state is zeroed), the others go on.
    One set of transition maps, built from the earliest start onward,
    serves every start. Each substep advances every running start in one
    stacked product of matrix-vector products, one per start, so each
    start's states equal a run from its node alone bitwise. An odd step
    count or an ``x0`` of the wrong size raises :class:`ValidationError`.
    """
    if grid.steps % 2:
        raise ValidationError("simulation needs an even step count for Simpson quadrature")
    n = acl.shape[-1]
    x0v = linalg.as_vector(x0, "x0")
    if x0v.size != n:
        raise ValidationError(f"x0: expected {n} entries, got {x0v.size}")
    out: list = list(stores)
    for store in out:
        store[:1] = x0v[None]
    # Starts enter in node order, so the running ones are a prefix of ``state``.
    order = sorted(range(len(starts)), key=starts.__getitem__)
    nodes = [starts[i] for i in order]
    state = np.tile(x0v[:, None], (len(nodes), 1, 1))
    for k, phi, last in _transition_maps(acl, grid.dt, nodes):
        # No chunk straddles a start: the starts at or before its first
        # interval run through all of it, and the others still hold x0.
        running = bisect.bisect_right(nodes, k[0])
        xs = np.empty((len(k), running, n, 1))
        xk = state[:running]
        # A stacked matrix-vector product per start rounds exactly as
        # ``p @ x`` alone; one matrix-matrix product would not.
        for p, dst in zip(phi, xs):
            xk = np.matmul(p, xk, out=dst)
        state[:running] = xk
        norms = np.linalg.norm(xs[..., 0], axis=-1)
        ends = k[last] + 1  # the nodes whose intervals close in this chunk, in order
        for i in range(running):
            if isinstance(out[order[i]], DivergenceError):
                continue
            bad = np.flatnonzero(~(norms[:, i] <= DIVERGENCE_NORM))
            if bad.size:
                t_bad = float(grid.times()[k[bad[0]] + 1])
                out[order[i]] = DivergenceError(t_bad, float(norms[bad[0], i]))
                state[i] = 0.0
            elif ends.size:
                out[order[i]][ends[0] - nodes[i] : ends[-1] + 1 - nodes[i]] = xs[last, i, :, 0]
    return out


def simulate(game: GameDefinition, gains: list[FeedbackGain], x0) -> Trajectory:
    """Integrate the closed loop forward and accumulate per-player costs.

    The simulation runs on the grid every gain shares, the backward solve's
    own, and reads each ``K`` at its nodes; gains on different grids, or a
    ``K`` without one matrix per node, raise :class:`ValidationError`. Each
    interval takes the number of equal RK4 substeps its stability guard
    asks for; the substeps' transition maps are formed in chunks of
    ``CHUNK_VALUES // n**2`` substeps (at least one) and applied in order.
    A Euclidean state norm above ``DIVERGENCE_NORM`` after any substep
    aborts with :class:`DivergenceError` at the end time of that substep's
    interval; running past capture is normal and expected, play continues
    to tf. A gain that is not finite at some node raises
    :class:`ValidationError` naming the player and the first such grid
    time.
    """
    if len(gains) != game.num_players:
        raise ValidationError(f"expected {game.num_players} gains, got {len(gains)}")
    grid = gains[0].grid
    for i, g in enumerate(gains):
        if g.grid != grid:
            raise ValidationError(f"player {i + 1}: gain grid {g.grid} differs from {grid}")
        if len(g.K) != grid.steps + 1:
            raise ValidationError(
                f"player {i + 1}: gain holds {len(g.K)} nodes, its grid has {grid.steps + 1}"
            )
        if not np.isfinite(g.K).all():
            first = np.flatnonzero(~np.isfinite(g.K).reshape(len(g.K), -1).all(axis=1))[0]
            t_bad = float(grid.times()[first])
            raise ValidationError(f"player {i + 1}: gain is not finite at t={t_bad!r}")
    (x,) = _propagate(
        grid, closed_loop(game, gains), x0, (0,), [np.empty((grid.steps + 1, game.n))]
    )
    if isinstance(x, DivergenceError):
        raise x
    # x was allocated above the closed-loop matrices in the heap; a copy
    # made now that they are freed takes their place, so the heap can shrink.
    x = x.copy()
    steps = grid.steps
    u = tuple(-np.einsum("kmn,kn->km", g.K, x) for g in gains)
    weights = _simpson_weights(steps, grid.dt)
    costs = np.empty(game.num_players)
    for i in range(game.num_players):
        state_term = np.einsum("kn,nm,km->k", x, game.Q[i], x)
        control_term = np.einsum("km,mp,kp->k", u[i], game.R[i], u[i])
        # Elementwise product and numpy's pairwise sum: a BLAS dot product
        # of this length can change its last bits with the thread count.
        running = 0.5 * float((weights * (state_term + control_term)).sum())
        terminal = 0.5 * float(x[-1] @ game.S_f[i] @ x[-1])
        costs[i] = running + terminal
    x.flags.writeable = False
    costs.flags.writeable = False
    for ui in u:
        ui.flags.writeable = False
    return Trajectory(grid=grid, x=x, u=u, costs=costs)


@dataclass(frozen=True, eq=False)
class PursuitReport(ValueEquality):
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


def _block_distances(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each planar block of each row of the states ``x``: (rows, n // 2)."""
    blocks = x.reshape(x.shape[0], -1, 2)
    return np.sqrt(np.einsum("tkc,tkc->tk", blocks, blocks))


def pursuit_report(traj: Trajectory, capture_radius: float) -> PursuitReport:
    """Distances and capture outcome under the planar block convention."""
    if not capture_radius > 0:
        raise ValidationError("capture_radius must be positive")
    if traj.x.shape[1] % 2:
        raise ValidationError("pursuit reporting needs an even state dimension")
    distances = _block_distances(traj.x)
    hits = np.nonzero(distances.min(axis=1) <= capture_radius)[0]
    if hits.size:
        first = int(hits[0])
        capture_time = float(traj.grid.times()[first])
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
