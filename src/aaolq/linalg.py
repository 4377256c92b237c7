"""Dense kernels for the small symmetric matrices this package works with.

All matrix data is plain float64 numpy arrays. Two conventions are global:

* ``frob_norm`` is the squared trace norm ``tr(S S^T)``, i.e. the sum of
  squared entries with no square root taken. Every bound comparison in
  :mod:`aaolq.analysis` uses the same convention, so the envelope
  inequalities compose without unit juggling.
* Definiteness verdicts are eigenvalue threshold tests with an absolute
  tolerance (default ``1e-9``), sized for the integration error that feeds
  them rather than for machine precision.

Every eigenvalue comes from LAPACK (``numpy.linalg.eigvalsh`` and
``eigh``) on the exact symmetric part of the input, one matrix or a whole
stack at a time. The test suite keeps a cyclic Jacobi iteration as an
independent oracle for both.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrixError, ValidationError

SYMMETRY_RTOL = 1e-10
DEFINITENESS_TOL = 1e-9

DEFINITENESS_KINDS = ("pd", "psd", "nd", "nsd")


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and freeze a rectangular real matrix.

    Returns a read-only float64 copy. Rejects empty shapes and non-finite
    entries.
    """
    arr = np.array(a, dtype=float, order="C")
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValidationError(f"{name}: expected a non-empty 2-D array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name}: entries must be finite")
    arr.flags.writeable = False
    return arr


def as_vector(a, name: str = "vector") -> np.ndarray:
    arr = np.array(a, dtype=float).reshape(-1)
    if arr.size == 0:
        raise ValidationError(f"{name}: expected a non-empty vector")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name}: entries must be finite")
    arr.flags.writeable = False
    return arr


def as_symmetric(a, name: str = "matrix") -> np.ndarray:
    """Validate a square matrix as symmetric and return its symmetric part.

    The asymmetry residual ``max|S - S^T|`` must not exceed
    ``SYMMETRY_RTOL * (1 + max|S|)``. The returned (read-only) array is the
    exact symmetric part, so downstream eigenvalue code can assume bitwise
    symmetry.
    """
    arr = np.array(a, dtype=float, order="C")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValidationError(f"{name}: expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name}: entries must be finite")
    scale = 1.0 + float(np.max(np.abs(arr)))
    drift = float(np.max(np.abs(arr - arr.T)))
    if drift > SYMMETRY_RTOL * scale:
        raise ValidationError(
            f"{name}: asymmetry {drift:.3e} exceeds tolerance {SYMMETRY_RTOL * scale:.3e}"
        )
    out = (arr + arr.T) / 2.0
    out.flags.writeable = False
    return out


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Symmetric part of ``a``; works on stacked (..., n, n) arrays."""
    return (a + np.swapaxes(a, -1, -2)) / 2.0


def kron(a, b) -> np.ndarray:
    """Kronecker product with input validation."""
    am = as_matrix(a, "kron lhs")
    bm = as_matrix(b, "kron rhs")
    out = np.kron(am, bm)
    out.flags.writeable = False
    return out


def block_diag(blocks) -> np.ndarray:
    """Square block-diagonal assembly of square blocks. Empty input is an error."""
    mats = [as_matrix(b, f"block_diag[{i}]") for i, b in enumerate(blocks)]
    if not mats:
        raise ValidationError("block_diag: at least one block is required")
    for i, m in enumerate(mats):
        if m.shape[0] != m.shape[1]:
            raise ValidationError(f"block_diag[{i}]: blocks must be square, got {m.shape}")
    n = sum(m.shape[0] for m in mats)
    out = np.zeros((n, n))
    at = 0
    for m in mats:
        d = m.shape[0]
        out[at : at + d, at : at + d] = m
        at += d
    out.flags.writeable = False
    return out


def frob_norm(s) -> float:
    """Squared trace norm: the plain sum of squared entries (no square root)."""
    arr = np.asarray(s, dtype=float)
    return float(np.sum(arr * arr))


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalues of a symmetric matrix, ascending."""

    values: np.ndarray


def sym_eigenvalues(s) -> EigenResult:
    """Eigenvalues of a symmetric matrix, ascending (LAPACK ``eigvalsh``)."""
    values = np.linalg.eigvalsh(as_symmetric(s, "sym_eigenvalues input"))
    values.flags.writeable = False
    return EigenResult(values=values)


def spd_inverse(r, cond_limit: float = 1e12, name: str = "matrix") -> np.ndarray:
    """Inverse of a symmetric positive definite matrix via eigendecomposition.

    The condition estimate ``lambda_max / lambda_min`` must stay under
    ``cond_limit`` and the smallest eigenvalue must be positive.
    """
    values, vectors = np.linalg.eigh(as_symmetric(r, name))
    lo = float(values[0])
    hi = float(values[-1])
    if lo <= 0.0 or hi / lo > cond_limit:
        raise SingularMatrixError(
            f"{name}: not safely invertible (eigenvalue range [{lo:.3e}, {hi:.3e}])"
        )
    inv = (vectors / values) @ vectors.T
    out = symmetrize(inv)
    out.flags.writeable = False
    return out


def is_definite(s, kind: str, tol: float = DEFINITENESS_TOL) -> bool:
    """Eigenvalue definiteness test.

    ``pd`` means smallest eigenvalue > tol, ``psd`` means >= -tol; ``nd``
    and ``nsd`` mirror those on the largest eigenvalue.
    """
    if kind not in DEFINITENESS_KINDS:
        raise ValueError(f"unknown definiteness kind {kind!r}")
    if tol < 0.0:
        raise ValueError("tolerance must be nonnegative")
    return _definite(sym_eigenvalues(s).values, kind, tol)


def _definite(values: np.ndarray, kind: str, tol: float = DEFINITENESS_TOL) -> bool:
    """The threshold test of :func:`is_definite` on ascending eigenvalues."""
    if kind == "pd":
        return bool(values[0] > tol)
    if kind == "psd":
        return bool(values[0] >= -tol)
    if kind == "nd":
        return bool(values[-1] < -tol)
    return bool(values[-1] <= tol)


def sym_extrema_stack(stack: np.ndarray):
    """Smallest and largest eigenvalue of each matrix in a (..., n, n) stack.

    The stack is symmetrized and handed to LAPACK in one call, so a whole
    grid costs one call rather than one per node.
    """
    arr = np.asarray(stack, dtype=float)
    w = np.linalg.eigvalsh(symmetrize(arr))
    return w[..., 0], w[..., -1]
