"""Game data model.

An all-against-one (AAO) game has M players driving a shared linear state,

    dx/dt = A x + sum_j B_j u_j,

each minimizing a quadratic cost

    J_i = 0.5 x(tf)' S_if x(tf) + 0.5 int_{t0}^{tf} (x' Q_i x + u_i' R_i u_i) dt.

Player 0 is the opponent: it carries negative definite weights (it is paid
to push the state away from the origin) while every other player carries
positive semidefinite weights and regulates toward the origin. Control
weights R_i are positive definite for everyone, with no cross-coupling of
control efforts in the costs.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import linalg
from .errors import ValidationError

#: Index of the de-regulating opponent. Fixed by convention.
OPPONENT = 0


def _same_value(a, b) -> bool:
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(_same_value(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return bool(np.array_equal(a, b, equal_nan=True))
    return bool(a == b)


class ValueEquality:
    """``==`` by value for dataclasses with array fields (declared ``eq=False``).

    Arrays, also inside tuples, compare entrywise, NaN equal to NaN (the
    unreached nodes of a failed solve); fields declared ``compare=False`` not
    at all; others with their own ``==``. Unhashable, as arrays are.
    """

    __hash__ = None

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self) if f.compare)
        return all(_same_value(a, b) for a, b in pairs)


@dataclass(frozen=True, eq=False)
class GameDefinition(ValueEquality):
    """Immutable description of one game.

    ``B``, ``Q``, ``R`` and ``S_f`` are per-player tuples. Shapes: ``A`` is
    n x n, ``B[i]`` is n x m_i, ``Q[i]`` and ``S_f[i]`` are n x n symmetric,
    ``R[i]`` is m_i x m_i symmetric positive definite. Construction enforces
    shapes, finiteness and the unconditional R_i > 0 requirement; the AAO
    sign pattern is reported by :func:`validate` rather than enforced here,
    so that deliberately broken games can still be built and inspected.

    Construction is the one place each R_i is decomposed and inverted
    (``linalg.spd_inverse``): read-only ``R_inv[i]`` is R_i^{-1} and ``H``
    the (M, n, n) stack of control couplings H_i = B_i R_i^{-1} B_i' that the
    solve, the gains and the certificates read. An overflowing H_i is kept
    as it is.
    """

    A: np.ndarray
    B: tuple[np.ndarray, ...]
    Q: tuple[np.ndarray, ...]
    R: tuple[np.ndarray, ...]
    S_f: tuple[np.ndarray, ...]
    t0: float = 0.0
    tf: float = 1.0
    R_inv: tuple[np.ndarray, ...] = field(init=False, repr=False)
    H: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        a = linalg.as_matrix(self.A, "A")
        if a.shape[0] != a.shape[1]:
            raise ValidationError(f"A must be square, got {a.shape}")
        n = a.shape[0]
        bs = tuple(linalg.as_matrix(b, f"B[{i + 1}]") for i, b in enumerate(self.B))
        if not bs:
            raise ValidationError("at least one player is required")
        m = len(bs)
        for i, b in enumerate(bs):
            if b.shape[0] != n:
                raise ValidationError(f"B[{i + 1}]: expected {n} rows, got {b.shape[0]}")
        for name, seq in (("Q", self.Q), ("R", self.R), ("S_f", self.S_f)):
            if len(seq) != m:
                raise ValidationError(f"{name}: expected {m} entries, got {len(seq)}")
        qs = tuple(linalg.as_symmetric(q, f"Q[{i + 1}]") for i, q in enumerate(self.Q))
        sfs = tuple(linalg.as_symmetric(s, f"S_f[{i + 1}]") for i, s in enumerate(self.S_f))
        rs = tuple(linalg.as_symmetric(r, f"R[{i + 1}]") for i, r in enumerate(self.R))
        for i, (q, s) in enumerate(zip(qs, sfs)):
            if q.shape[0] != n:
                raise ValidationError(f"Q[{i + 1}]: expected shape ({n}, {n}), got {q.shape}")
            if s.shape[0] != n:
                raise ValidationError(f"S_f[{i + 1}]: expected shape ({n}, {n}), got {s.shape}")
        r_invs = []
        for i, (b, r) in enumerate(zip(bs, rs)):
            if r.shape[0] != b.shape[1]:
                raise ValidationError(
                    f"R[{i + 1}]: expected shape ({b.shape[1]}, {b.shape[1]}), got {r.shape}"
                )
            # R_i > 0 is required unconditionally, not just for AAO compliance.
            r_invs.append(linalg.spd_inverse(r, name=f"R[{i + 1}]"))
        with np.errstate(over="ignore", invalid="ignore"):
            h = np.stack([linalg.symmetrize(b @ r_inv @ b.T) for b, r_inv in zip(bs, r_invs)])
        h.flags.writeable = False
        t0 = float(self.t0)
        tf = float(self.tf)
        if not (np.isfinite(t0) and np.isfinite(tf)) or tf < t0:
            raise ValidationError(f"need finite t0 <= tf, got t0={t0}, tf={tf}")
        checked = dict(A=a, B=bs, Q=qs, R=rs, S_f=sfs, t0=t0, tf=tf, R_inv=tuple(r_invs), H=h)
        for name, value in checked.items():
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def num_players(self) -> int:
        return len(self.B)


@dataclass(frozen=True)
class MatrixVerdict:
    """One definiteness requirement, with eigenvalue witnesses."""

    name: str
    requirement: str
    eig_min: float
    eig_max: float
    ok: bool


@dataclass(frozen=True)
class ValidationReport:
    aao_compliant: bool
    verdicts: tuple[MatrixVerdict, ...]
    notes: tuple[str, ...] = field(default=())


def _definite(values: np.ndarray, requirement: str) -> bool:
    """On ascending eigenvalues: pd is lowest > tol, psd lowest >= -tol, nd highest < -tol."""
    tol = linalg.DEFINITENESS_TOL
    if requirement == "pd":
        return bool(values[0] > tol)
    if requirement == "psd":
        return bool(values[0] >= -tol)
    return bool(values[-1] < -tol)


def _verdict(name: str, matrix: np.ndarray, requirement: str) -> MatrixVerdict:
    values = linalg.sym_eigenvalues(matrix)
    return MatrixVerdict(
        name=name,
        requirement=requirement,
        eig_min=float(values[0]),
        eig_max=float(values[-1]),
        ok=_definite(values, requirement),
    )


def validate(game: GameDefinition) -> ValidationReport:
    """Check the AAO sign pattern and report eigenvalue witnesses.

    Player 1 (the opponent, index 0 in code) needs S_f and Q negative
    definite; every other player needs them positive semidefinite; every R
    positive definite. A single-player game is a plain regulator problem and
    is reported as not AAO compliant.
    """
    verdicts = []
    notes = []
    for i, r in enumerate(game.R):
        verdicts.append(_verdict(f"R[{i + 1}]", r, "pd"))
    if game.num_players >= 2:
        verdicts.append(_verdict("S_f[1]", game.S_f[OPPONENT], "nd"))
        verdicts.append(_verdict("Q[1]", game.Q[OPPONENT], "nd"))
        for i in range(1, game.num_players):
            verdicts.append(_verdict(f"S_f[{i + 1}]", game.S_f[i], "psd"))
            verdicts.append(_verdict(f"Q[{i + 1}]", game.Q[i], "psd"))
        compliant = all(v.ok for v in verdicts)
    else:
        compliant = False
        notes.append("single-player game: the all-against-one pattern needs at least two players")
    return ValidationReport(aao_compliant=compliant, verdicts=tuple(verdicts), notes=tuple(notes))


@dataclass(frozen=True)
class PursuitParams:
    """Configuration of the planar k-pursuer / one-evader example family.

    The state stacks k planar displacement vectors, block j being
    ``evader position - pursuer j position``. Everyone is a single
    integrator driven by its own control, so A = 0, the evader's input
    matrix stacks +I_2 into every block, and pursuer j's input matrix puts
    -I_2 into block j. Weight matrices are scalar multiples of identities.

    Defaults reproduce the bundled three-pursuer benchmark: an evader with
    terminal weight -18, state weight -6 and control weight 1, two cheap
    pursuers (1, 0.5, 150) and one aggressive pursuer (16.25, 5.25, 150),
    horizon 10, capture radius 0.1 and initial displacements
    (2, 13), (7, 9), (-10, 14).

    ``evader_start`` is the evader's absolute position at t0 and matters
    only for rendering absolute tracks; pursuer j then starts at
    ``evader_start - x0 block j``.
    """

    num_pursuers: int = 3
    evader_terminal_weight: float = -18.0
    evader_state_weight: float = -6.0
    evader_control_weight: float = 1.0
    pursuer_terminal_weights: tuple[float, ...] = (1.0, 1.0, 16.25)
    pursuer_state_weights: tuple[float, ...] = (0.5, 0.5, 5.25)
    pursuer_control_weights: tuple[float, ...] = (150.0, 150.0, 150.0)
    t0: float = 0.0
    tf: float = 10.0
    capture_radius: float = 0.1
    x0: tuple[float, ...] = (2.0, 13.0, 7.0, 9.0, -10.0, 14.0)
    evader_start: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        k = self.num_pursuers
        if k < 1:
            raise ValidationError("num_pursuers must be at least 1")
        for name in ("pursuer_terminal_weights", "pursuer_state_weights", "pursuer_control_weights"):
            seq = tuple(float(v) for v in getattr(self, name))
            if len(seq) != k:
                raise ValidationError(f"{name}: expected {k} values, got {len(seq)}")
            object.__setattr__(self, name, seq)
        if not float(self.capture_radius) > 0.0:
            raise ValidationError("capture_radius must be positive")
        x0 = tuple(float(v) for v in self.x0)
        if len(x0) != 2 * k:
            raise ValidationError(f"x0: expected {2 * k} entries, got {len(x0)}")
        start = tuple(float(v) for v in self.evader_start)
        if len(start) != 2:
            raise ValidationError("evader_start: expected 2 entries")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "evader_start", start)


def build_pursuit_example(params: PursuitParams) -> GameDefinition:
    """Assemble the GameDefinition for a planar pursuit configuration."""
    k = params.num_pursuers
    n = 2 * k
    eye2 = np.eye(2)
    a = np.zeros((n, n))
    ones = np.ones((k, 1))
    b_evader = np.kron(ones, eye2)
    bs = [b_evader]
    for j in range(k):
        e = np.zeros((k, 1))
        e[j, 0] = 1.0
        bs.append(np.kron(-e, eye2))
    eye_n = np.eye(n)
    qs = [params.evader_state_weight * eye_n]
    rs = [params.evader_control_weight * eye2]
    sfs = [params.evader_terminal_weight * eye_n]
    for j in range(k):
        qs.append(params.pursuer_state_weights[j] * eye_n)
        rs.append(params.pursuer_control_weights[j] * eye2)
        sfs.append(params.pursuer_terminal_weights[j] * eye_n)
    return GameDefinition(
        A=a, B=tuple(bs), Q=tuple(qs), R=tuple(rs), S_f=tuple(sfs), t0=params.t0, tf=params.tf
    )


def absolute_starts(params: PursuitParams):
    """Absolute initial positions implied by x0: (evader, pursuers (k, 2)).

    Convention dependent: block j of the state is evader minus pursuer j,
    so pursuer j starts at ``evader_start - x0[2j:2j+2]``.
    """
    evader = np.array(params.evader_start, dtype=float)
    blocks = np.array(params.x0, dtype=float).reshape(params.num_pursuers, 2)
    return evader, evader[None, :] - blocks
