"""Shared builders for the test suite.

Everything here is deterministic: random constructions take an explicit
``numpy.random.Generator`` so failures replay exactly.
"""
from __future__ import annotations

import numpy as np

from aaolq import GameDefinition, absolute_starts


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
    ``1e-12 * (1 + frob_norm)`` and the largest off-diagonal entry is under
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
