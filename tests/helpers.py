"""Shared builders for the test suite.

Everything here is deterministic: random constructions take an explicit
``numpy.random.Generator`` so failures replay exactly.
"""
from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np

from aaolq import FeedbackGain, GameDefinition, SolveStatus, absolute_starts, simulate
from aaolq import linalg
from aaolq.analysis import PSD_TOL, _existence_stack, _q_matrix
from aaolq.errors import DivergenceError, ValidationError
from aaolq.game import ValueEquality
from aaolq.riccati import (
    BLOWUP_NORM,
    MAX_SUBSTEPS,
    STABILITY_TARGET,
    _RK4_WEIGHTS,
    RiccatiSolution,
    _Stages,
    march_lockstep,
)
from aaolq.sim import DIVERGENCE_NORM, _simpson_weights


def traced_peak(fn) -> int:
    """Peak bytes that ``tracemalloc`` traces while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def mat(v) -> np.ndarray:
    """Wrap a scalar as a 1x1 matrix; pass arrays through as float arrays."""
    arr = np.atleast_2d(np.asarray(v, dtype=float))
    return arr


def scalar_game(a, bs, qs, rs, sfs, t0=0.0, tf=1.0) -> GameDefinition:
    """Build an all-scalar game (n = 1, one control channel per player)."""
    return GameDefinition(
        A=mat(a),
        B=tuple(mat(b) for b in bs),
        Q=tuple(mat(q) for q in qs),
        R=tuple(mat(r) for r in rs),
        S_f=tuple(mat(s) for s in sfs),
        t0=t0,
        tf=tf,
    )


def scalar_lqr(tf=1.0) -> GameDefinition:
    """The single-player regulator a=0, b=q=r=1, s_f=0 whose solution is
    s(t) = tanh(tf - t)."""
    return scalar_game(0.0, [1.0], [1.0], [1.0], [0.0], tf=tf)


def single_player_matrix_game() -> GameDefinition:
    """A fixed 2-state single-player game used for independent cross-checks."""
    a = np.array([[0.0, 1.0], [-1.0, -0.5]])
    b = np.array([[0.0], [1.0]])
    q = np.array([[2.0, 0.5], [0.5, 1.0]])
    r = np.array([[1.0]])
    sf = np.array([[1.0, 0.0], [0.0, 2.0]])
    return GameDefinition(A=a, B=(b,), Q=(q,), R=(r,), S_f=(sf,), t0=0.0, tf=1.0)


def random_diagonal_game(rng: np.random.Generator) -> GameDefinition:
    """Random game from the diagonal subclass with its certificate satisfied.

    All matrices are diagonal, every B_i square, H_i >= H_1 entrywise by
    construction, and the weight sums Q_1 + sum Q_i and S_1f + sum S_if are
    strictly positive diagonal. Horizons are short enough that every draw
    solves comfortably.
    """
    n = int(rng.integers(1, 4))
    m = int(rng.integers(2, 5))
    a = np.diag(rng.uniform(-1.0, 1.0, n))
    q1 = -np.diag(rng.uniform(0.2, 2.0, n))
    s1 = -np.diag(rng.uniform(0.2, 2.0, n))
    h1 = rng.uniform(0.2, 1.5, n)
    r1 = np.diag(rng.uniform(0.5, 2.0, n))
    b1 = np.diag(np.sqrt(h1 * np.diag(r1)) * rng.choice([-1.0, 1.0], n))
    B, R, Q, Sf = [b1], [r1], [q1], [s1]
    needq = -np.diag(q1) + rng.uniform(0.1, 1.0, n)
    needs = -np.diag(s1) + rng.uniform(0.1, 1.0, n)
    wq = rng.dirichlet(np.ones(m - 1), size=n).T
    ws = rng.dirichlet(np.ones(m - 1), size=n).T
    for j in range(m - 1):
        hi = h1 + rng.uniform(0.0, 1.0, n)
        ri = np.diag(rng.uniform(0.5, 2.0, n))
        bi = np.diag(np.sqrt(hi * np.diag(ri)) * rng.choice([-1.0, 1.0], n))
        B.append(bi)
        R.append(ri)
        Q.append(np.diag(wq[j] * needq))
        Sf.append(np.diag(ws[j] * needs))
    tf = float(rng.uniform(0.5, 2.0))
    return GameDefinition(A=a, B=tuple(B), Q=tuple(Q), R=tuple(R), S_f=tuple(Sf), t0=0.0, tf=tf)


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish orthogonal matrix via QR of a Gaussian draw."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def rotated_game(game: GameDefinition, rng: np.random.Generator) -> GameDefinition:
    """The same game in a random orthonormal basis of the state space."""
    q = random_orthogonal(rng, game.n)
    return dataclasses.replace(
        game,
        A=q @ game.A @ q.T,
        B=tuple(q @ b for b in game.B),
        Q=tuple(q @ m @ q.T for m in game.Q),
        S_f=tuple(q @ m @ q.T for m in game.S_f),
    )


ESCAPE_GAME = {
    # Unopposed de-regulation: the backward solve escapes in finite time.
    "schema_version": 1,
    "explicit": {
        "A": [[0.0, 0.0], [0.0, 0.0]],
        "B": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]],
        "Q": [[[-100.0, 0.0], [0.0, -100.0]], [[0.0, 0.0], [0.0, 0.0]]],
        "R": [[[1.0, 0.0], [0.0, 1.0]], [[1e6, 0.0], [0.0, 1e6]]],
        "S_f": [[[-1.0, 0.0], [0.0, -1.0]], [[0.0, 0.0], [0.0, 0.0]]],
        "tf": 1.0,
        "x0": [1.0, 1.0],
    },
    "run": {"mode": "nash", "dt": 0.001, "out_dir": "out/escape"},
}


# Reference backward solve: the stability-guarded RK4 loop with the
# right-hand side spelled out term by term, every stage and every iterate
# symmetrized and the asymmetry drift of each raw iterate recorded.
# ``aaolq.solve_coupled`` evaluates the same equation as -(Y + Y' + Q) with
# no symmetrization, so the two agree to rounding.


def _reference_rhs_factory(game):
    h_stack = game.H
    q_stack = np.stack(game.Q)
    a = np.array(game.A)
    at = a.T.copy()
    a_norm = float(np.sqrt((a * a).sum()))

    def rhs(s, hs=None):
        if hs is None:
            hs = h_stack @ s
        g = hs.sum(axis=0)
        quad = s @ hs  # S_i H_i S_i, batched over i
        mix = s @ g  # S_i sum_j H_j S_j
        out = -(s @ a + at @ s + q_stack + quad - mix - g.T @ s)
        return linalg.symmetrize(out)

    def rate(s):
        hs = h_stack @ s
        g = hs.sum(axis=0)
        g_norm = float(np.sqrt((g * g).sum()))
        own = float(np.sqrt(np.einsum("ijk,ijk->i", hs, hs).max()))
        return 2.0 * (g_norm + own + a_norm), hs

    return rhs, rate


def reference_solve_coupled(game, grid):
    """Staged backward solve; returns (S, status, failure_time, max_drift).

    Substep sizing and the escape test follow ``aaolq.solve_coupled``;
    inputs are assumed valid.
    """
    m = game.num_players
    n = game.n
    steps = grid.steps
    rhs, rate = _reference_rhs_factory(game)
    terminal = np.stack(game.S_f)
    s_hist = np.full((m, steps + 1, n, n), np.nan)
    s_hist[:, steps] = terminal
    times = grid.times()
    cur = terminal.copy()
    dt = grid.dt
    h_min = dt / float(MAX_SUBSTEPS) if steps else 0.0
    max_drift = 0.0
    status = SolveStatus.COMPLETE
    failure_time = None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps - 1, -1, -1):
            remaining = dt
            ok = True
            while remaining > 0.0:
                local, hs = rate(cur)
                h = min(remaining, max(STABILITY_TARGET / max(local, 1e-300), h_min))
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
                if not np.isfinite(new).all() or bool((norms > BLOWUP_NORM).any()):
                    status = SolveStatus.BLOW_UP
                    failure_time = float(times[k])
                    ok = False
                    break
                cur = new
                remaining -= h
            if not ok:
                break
            s_hist[:, k] = cur
    return s_hist, status, failure_time, max_drift


def march_solutions(games, grid) -> list[RiccatiSolution]:
    """``march_lockstep`` of ``games`` into full NaN histories, one solution each.

    Each carries the march's status, failure time and reason and stats, the
    fields :func:`assert_same_solve` compares; ``max_symmetry_residual`` is
    ``solve_coupled``'s probe and reads NaN here.
    """
    hists = [np.full((g.num_players, grid.steps + 1, g.n, g.n), np.nan) for g in games]
    failed, stats, _ = march_lockstep(
        games, grid, [h.reshape(h.shape[:2] + (-1,)).swapaxes(0, 1) for h in hists]
    )
    times = grid.times()
    sols = []
    for g, (hist, stat) in enumerate(zip(hists, stats)):
        k, status, reason = failed.get(g, (None, SolveStatus.COMPLETE, None))
        time = None if k is None else float(times[k])
        sols.append(RiccatiSolution(grid, hist, status, time, reason, math.nan, stat))
    return sols


def assert_same_solve(sol: RiccatiSolution, ref: RiccatiSolution) -> None:
    """``sol`` holds ``ref``'s bytes of S, status, failure time and reason and stats."""
    assert sol.S.tobytes() == ref.S.tobytes()
    assert sol.status is ref.status
    assert (sol.failure_time, sol.failure_reason) == (ref.failure_time, ref.failure_reason)
    assert sol.stats == ref.stats


def reference_step(stages: _Stages, cur, hb, out) -> None:
    """The substep of ``_Stages.step`` on ``stages``'s buffers, with every
    kernel looked up on ``np`` and every output passed as a keyword: the
    same kernels, operands and order.

    The solver's step must write the same bytes; the test suite checks
    that, and drives ``march_lockstep`` with this body in its place.
    """

    def couple(s):
        np.matmul(stages.h_stack, s, out=stages.hs)
        np.matmul(stages.weights, stages.hs_and_a, out=stages.t_and_g)

    def stage(s, k):
        np.matmul(s, stages.t, out=stages.n_buf)
        np.add(stages.n_buf, stages.n_transposed, out=k)
        np.subtract(k, stages.q_stack, out=k)

    k1, k2, k3, k4 = stages.k_stages
    inc, s_stage = stages.inc, stages.s_stage
    stage(cur, k1)
    np.multiply(k1, 0.5 * hb, out=inc)
    np.add(cur, inc, out=s_stage)
    couple(s_stage)
    stage(s_stage, k2)
    np.multiply(k2, 0.5 * hb, out=inc)
    np.add(cur, inc, out=s_stage)
    couple(s_stage)
    stage(s_stage, k3)
    np.multiply(k3, hb, out=inc)
    np.add(cur, inc, out=s_stage)
    couple(s_stage)
    stage(s_stage, k4)
    np.matmul(_RK4_WEIGHTS, stages.k_flat, out=stages.inc_flat)
    np.multiply(inc, hb / 6.0, out=inc)
    np.add(cur, inc, out=out)


# Reference eigensolver: cyclic Jacobi rotations in plain Python, an
# independent oracle for the LAPACK path in ``aaolq.linalg``.

JACOBI_MAX_SWEEPS = 100


class JacobiNotConverged(ArithmeticError):
    """The sweep cap was hit before the off-diagonal targets were met."""

    def __init__(self, residual: float, sweeps: int):
        super().__init__(f"no convergence after {sweeps} sweeps (residual {residual:.3e})")
        self.residual = residual
        self.sweeps = sweeps


def reference_jacobi(a, max_sweeps: int = JACOBI_MAX_SWEEPS):
    """Cyclic Jacobi diagonalization of a symmetric matrix.

    Returns (values ascending, orthonormal vectors, max off-diagonal
    residual). Sweeps stop once the squared off-diagonal mass falls under
    ``1e-12 * (1 + squared-trace norm)`` and the largest off-diagonal entry is under
    ``1e-10 * (1 + max|diag|)``; :class:`JacobiNotConverged` is raised if
    ``max_sweeps`` sweeps do not get there.
    """
    s = np.array(a, dtype=float)
    n = s.shape[0]
    v = np.eye(n)
    if n == 1:
        return s[0, 0:1].copy(), v, 0.0
    mass_target = 1e-12 * (1.0 + float(np.sum(s * s)))
    for sweep in range(max_sweeps + 1):
        diag = np.diag(s)
        off = s - np.diag(diag)
        off_mass = float(np.sum(off * off))
        max_off = float(np.max(np.abs(off)))
        entry_target = 1e-10 * (1.0 + float(np.max(np.abs(diag))))
        if off_mass <= mass_target and max_off <= entry_target:
            order = np.argsort(diag, kind="stable")
            return diag[order].copy(), v[:, order].copy(), max_off
        if sweep == max_sweeps:
            raise JacobiNotConverged(max_off, max_sweeps)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = s[p, q]
                if apq == 0.0:
                    continue
                theta = (s[q, q] - s[p, p]) / (2.0 * apq)
                if theta >= 0.0:
                    t = 1.0 / (theta + np.hypot(theta, 1.0))
                else:
                    t = 1.0 / (theta - np.hypot(theta, 1.0))
                c = 1.0 / np.hypot(t, 1.0)
                sn = t * c
                cp = s[:, p].copy()
                cq = s[:, q].copy()
                s[:, p] = c * cp - sn * cq
                s[:, q] = sn * cp + c * cq
                rp = s[p, :].copy()
                rq = s[q, :].copy()
                s[p, :] = c * rp - sn * rq
                s[q, :] = sn * rp + c * rq
                s[p, q] = 0.0
                s[q, p] = 0.0
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - sn * vq
                v[:, q] = sn * vp + c * vq
    raise AssertionError("unreachable")


def reference_existence_min(game, S) -> float:
    """Smallest eigenvalue of the existence map (Q = 0) over nodes S (M, K, n, n).

    The map Q + W_1 H_1 W_1 - sum_{i>=2} W_i H_i W_i + D G + G' D, with
    D = -W_1 + sum_{i>=2} W_i and G = sum_j H_j W_j, spelled out one node
    and one player at a time, with H_i = B_i R_i^{-1} B_i' from
    ``numpy.linalg.inv``.
    """
    m, nodes, n, _ = S.shape
    hs = [b @ np.linalg.inv(r) @ b.T for b, r in zip(game.B, game.R)]
    worst = np.inf
    for k in range(nodes):
        ws = [S[i, k] for i in range(m)]
        d = -ws[0] + sum(ws[1:], np.zeros((n, n)))
        g = sum((hs[j] @ ws[j] for j in range(m)), np.zeros((n, n)))
        value = ws[0] @ hs[0] @ ws[0] - sum(
            (ws[i] @ hs[i] @ ws[i] for i in range(1, m)), np.zeros((n, n))
        )
        value = value + d @ g + g.T @ d
        worst = min(worst, float(np.linalg.eigvalsh((value + value.T) / 2.0)[0]))
    return worst


# Audit helpers: the pipeline's quantities at one snapshot of solution
# values, through the same kernels the solver and ``verify_solution`` use.


def riccati_rhs(game: GameDefinition, S) -> list[np.ndarray]:
    """One evaluation of the coupled Riccati right-hand side.

    ``S`` is a per-player sequence of symmetric matrices; the returned list
    holds dS_i/dt in the same order, each bitwise symmetric.
    """
    if len(S) != game.num_players:
        raise ValidationError(f"expected {game.num_players} matrices, got {len(S)}")
    stack = np.stack([linalg.as_symmetric(si, f"S[{i + 1}]") for i, si in enumerate(S)])
    if stack.shape[1] != game.n:
        raise ValidationError(f"solution matrices must be {game.n} x {game.n}")
    stages = _Stages([game])
    out = np.empty_like(stack)
    stages.couple(stack)
    stages.stage(stack, out)
    return list(out)


def closed_loop_A(game: GameDefinition, S) -> np.ndarray:
    """Closed-loop drift A - sum_j H_j S_j for one snapshot of solution values."""
    if len(S) != game.num_players:
        raise ValidationError(f"expected {game.num_players} solution matrices, got {len(S)}")
    acl = np.array(game.A)
    for j in range(game.num_players):
        sj = linalg.as_symmetric(S[j], f"S[{j + 1}]")
        if sj.shape[0] != game.n:
            raise ValidationError(f"S[{j + 1}]: expected shape ({game.n}, {game.n})")
        acl -= game.H[j] @ sj
    return acl


@dataclasses.dataclass(frozen=True, eq=False)
class ExistenceMapResult(ValueEquality):
    value: np.ndarray
    min_eigenvalue: float
    psd: bool


def existence_map(game: GameDefinition, q_bound, W) -> ExistenceMapResult:
    """The existence map of ``verify_solution``'s screen at candidate values W_1..W_M.

    ``q_bound`` None means the zero matrix. The value is symmetrized and
    read-only; ``psd`` tests its smallest eigenvalue against ``PSD_TOL``.
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
    value, min_eig = _existence_stack(game.H, q, np.stack(ws)[:, None])
    value = value[0]
    min_eig = float(min_eig[0])
    value.flags.writeable = False
    return ExistenceMapResult(value=value, min_eigenvalue=min_eig, psd=bool(min_eig >= -PSD_TOL))


# Reference forward pass: the closed-loop RK4 spelled out one substep at a
# time, with the stage matrices interpolated and applied to the state
# vector. ``aaolq.simulate`` composes the same steps as per-substep
# transition matrices, so the two agree to rounding.


def gain_series(gain, times) -> np.ndarray:
    """Vectorized linear interpolation of a gain at many query times.

    Queries at grid points return the stored matrix exactly; queries
    outside the horizon raise.
    """
    ts = np.asarray(times, dtype=float)
    grid = gain.grid
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


def regrid(gains, grid) -> list:
    """The gains interpolated onto ``grid`` through :func:`gain_series`."""
    times = grid.times()
    return [FeedbackGain(player=g.player, grid=grid, K=gain_series(g, times)) for g in gains]


def reference_simulate(game, gains, x0):
    """Staged RK4 over the closed loop on the gains' grid; returns (x, costs).

    Gains enter through :func:`gain_series` at the grid's times. Substep
    counts, divergence checks and the Simpson cost sum follow
    ``aaolq.simulate``; inputs are assumed valid.
    """
    grid = gains[0].grid
    steps, dt = grid.steps, grid.dt
    times = grid.times()
    k_nodes = [gain_series(g, times) for g in gains]
    acl_nodes = np.array([np.array(game.A)] * (steps + 1))
    for b, kn in zip(game.B, k_nodes):
        acl_nodes -= np.matmul(b, kn)
    acl_norms = np.sqrt(np.einsum("kij,kij->k", acl_nodes, acl_nodes))
    x = np.empty((steps + 1, game.n))
    x[0] = np.asarray(x0, dtype=float)
    for k in range(steps):
        a0 = acl_nodes[k]
        da = acl_nodes[k + 1] - a0
        local = 2.0 * float(max(acl_norms[k], acl_norms[k + 1]))
        n_sub = min(MAX_SUBSTEPS, max(1, math.ceil(dt * local / STABILITY_TARGET)))
        h = dt / n_sub
        xk = x[k]
        for j in range(n_sub):
            a_lo = a0 + (j / n_sub) * da
            a_mid = a0 + ((j + 0.5) / n_sub) * da
            a_hi = a0 + ((j + 1) / n_sub) * da
            k1 = a_lo @ xk
            k2 = a_mid @ (xk + (0.5 * h) * k1)
            k3 = a_mid @ (xk + (0.5 * h) * k2)
            k4 = a_hi @ (xk + h * k3)
            xk = xk + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            norm = float(np.linalg.norm(xk))
            if not math.isfinite(norm) or norm > DIVERGENCE_NORM:
                raise DivergenceError(float(times[k + 1]), norm)
        x[k + 1] = xk
    weights = _simpson_weights(steps, dt)
    costs = np.empty(game.num_players)
    for i in range(game.num_players):
        u = -np.einsum("kmn,kn->km", k_nodes[i], x)
        state_term = np.einsum("kn,nm,km->k", x, game.Q[i], x)
        control_term = np.einsum("km,mp,kp->k", u, game.R[i], u)
        running = 0.5 * float((weights * (state_term + control_term)).sum())
        costs[i] = running + 0.5 * float(x[-1] @ game.S_f[i] @ x[-1])
    return x, costs


@dataclasses.dataclass(frozen=True)
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
            traj = simulate(game, perturbed, x0)
        except DivergenceError:
            out.append(ProbeSample(epsilon=eps, cost=None, diverged=True))
        else:
            out.append(ProbeSample(epsilon=eps, cost=float(traj.costs[player]), diverged=False))
    return out


# Reference CSV writers: the artifact formats spelled out one value and one
# row at a time. The bulk writers in ``aaolq.runner`` must match them byte
# for byte.


def _fmt(v) -> str:
    return repr(float(v))


def _csv(header: list[str], rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(r) for r in rows)
    return "\n".join(lines) + "\n"


def reference_solution_csv(sol) -> str:
    times = sol.grid.times()
    m, _, n, _ = sol.S.shape

    def rows():
        for k, t in enumerate(times):
            ts = _fmt(t)
            for i in range(m):
                mat = sol.S[i, k]
                for r in range(n):
                    for c in range(n):
                        yield (ts, str(i + 1), str(r + 1), str(c + 1), _fmt(mat[r, c]))

    return _csv(["t", "player", "row", "col", "value"], rows())


def reference_trajectory_csv(traj) -> str:
    times = traj.grid.times()
    n = traj.x.shape[1]
    header = ["t"] + [f"x{j + 1}" for j in range(n)]
    for i, ui in enumerate(traj.u):
        header += [f"u{i + 1}_{j + 1}" for j in range(ui.shape[1])]

    def rows():
        for k, t in enumerate(times):
            row = [_fmt(t)] + [_fmt(v) for v in traj.x[k]]
            for ui in traj.u:
                row += [_fmt(v) for v in ui[k]]
            yield row

    return _csv(header, rows())


def reference_distances_csv(traj, report) -> str:
    times = traj.grid.times()
    k = report.distances.shape[1]
    header = ["t"] + [f"d{j + 1}" for j in range(k)]

    def rows():
        for i, t in enumerate(times):
            yield [_fmt(t)] + [_fmt(v) for v in report.distances[i]]

    return _csv(header, rows())


def reference_positions_csv(traj, params) -> str:
    evader0, _ = absolute_starts(params)
    u_evader = np.asarray(traj.u[0])
    dt = traj.grid.dt
    increments = 0.5 * dt * (u_evader[1:] + u_evader[:-1])
    evader = evader0[None, :] + np.vstack([np.zeros((1, 2)), np.cumsum(increments, axis=0)])
    k = params.num_pursuers
    blocks = traj.x.reshape(-1, k, 2)
    pursuers = evader[:, None, :] - blocks
    times = traj.grid.times()
    header = ["t", "evader_x", "evader_y"]
    for j in range(k):
        header += [f"p{j + 1}_x", f"p{j + 1}_y"]

    def rows():
        for i, t in enumerate(times):
            row = [_fmt(t), _fmt(evader[i, 0]), _fmt(evader[i, 1])]
            for j in range(k):
                row += [_fmt(pursuers[i, j, 0]), _fmt(pursuers[i, j, 1])]
            yield row

    return _csv(header, rows())
