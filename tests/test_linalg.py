"""Matrix kernel contract: constructors, eigenvalues, norms, definiteness."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aaolq import linalg
from aaolq.errors import SingularMatrixError, ValidationError
from helpers import JacobiNotConverged, random_orthogonal, reference_jacobi


def _sym(entries: list[float], n: int) -> np.ndarray:
    a = np.array(entries, dtype=float).reshape(n, n)
    return (a + a.T) / 2.0


finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)


class TestKron:
    def test_identity_case(self):
        assert np.array_equal(linalg.kron(np.eye(1), np.eye(2)), np.eye(2))

    def test_ones_column_stacks_identity_blocks(self):
        ones = np.ones((3, 1))
        out = linalg.kron(ones, np.eye(2))
        assert out.shape == (6, 2)
        assert np.array_equal(out, np.vstack([np.eye(2)] * 3))

    def test_scalar_scaling(self):
        assert np.array_equal(linalg.kron([[2.0]], np.eye(2)), 2.0 * np.eye(2))

    def test_entry_formula_exhaustive(self):
        a = np.array([[1.0, -2.0], [0.5, 3.0], [4.0, 0.0]])
        b = np.array([[2.0, 1.0], [-1.0, 5.0]])
        out = linalg.kron(a, b)
        p, q = b.shape
        for i in range(a.shape[0]):
            for j in range(a.shape[1]):
                for k in range(p):
                    for l in range(q):
                        assert out[i * p + k, j * q + l] == a[i, j] * b[k, l]


class TestBlockDiag:
    def test_single_block(self):
        assert np.array_equal(linalg.block_diag([np.eye(2)]), np.eye(2))

    def test_three_scaled_identities(self):
        out = linalg.block_diag([50.0 * np.eye(2)] * 3)
        assert np.array_equal(out, 50.0 * np.eye(6))

    def test_diagonal_assembly(self):
        out = linalg.block_diag([[[1.0]], [[2.0, 0.0], [0.0, 3.0]]])
        assert np.array_equal(out, np.diag([1.0, 2.0, 3.0]))

    def test_empty_list_rejected(self):
        with pytest.raises(ValidationError):
            linalg.block_diag([])

    def test_off_block_entries_exactly_zero(self):
        out = linalg.block_diag([np.full((2, 2), 7.0), np.full((3, 3), -2.0)])
        assert np.array_equal(out[:2, 2:], np.zeros((2, 3)))
        assert np.array_equal(out[2:, :2], np.zeros((3, 2)))


class TestSymEigenvalues:
    def test_identity(self):
        res = linalg.sym_eigenvalues(np.eye(3))
        assert np.array_equal(res.values, np.ones(3))

    def test_analytic_2x2(self):
        res = linalg.sym_eigenvalues([[2.0, 1.0], [1.0, 2.0]])
        assert res.values == pytest.approx([1.0, 3.0], abs=1e-12)

    def test_scaled_identity_6(self):
        res = linalg.sym_eigenvalues(-18.0 * np.eye(6))
        assert np.array_equal(res.values, np.full(6, -18.0))

    def test_values_ascending_and_residual_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            s = rng.standard_normal((n, n))
            s = (s + s.T) / 2.0
            values = linalg.sym_eigenvalues(s).values
            assert np.all(np.diff(values) >= 0.0)
            ref, _, residual = reference_jacobi(s)
            assert np.all(np.diff(ref) >= 0.0)
            spectral = float(np.max(np.abs(ref)))
            assert residual <= 1e-10 * (1.0 + spectral)

    def test_sweep_cap_raises_with_residual(self):
        with pytest.raises(JacobiNotConverged) as err:
            reference_jacobi(np.array([[2.0, 1.0], [1.0, 2.0]]), max_sweeps=0)
        assert err.value.residual == pytest.approx(1.0)

    @given(st.integers(min_value=1, max_value=5), st.data())
    @settings(max_examples=40, deadline=None)
    def test_trace_and_determinant_identities(self, n, data):
        entries = data.draw(st.lists(finite, min_size=n * n, max_size=n * n))
        s = _sym(entries, n)
        values = linalg.sym_eigenvalues(s).values
        assert float(np.sum(values)) == pytest.approx(float(np.trace(s)), abs=1e-9 * n)
        if n <= 3:
            det = float(np.linalg.det(s))
            assert float(np.prod(values)) == pytest.approx(det, rel=1e-9, abs=1e-9)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_orthogonal_similarity_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        s = rng.standard_normal((n, n))
        s = (s + s.T) / 2.0
        q = random_orthogonal(rng, n)
        rotated = (q @ s @ q.T + (q @ s @ q.T).T) / 2.0
        base = linalg.sym_eigenvalues(s).values
        moved = linalg.sym_eigenvalues(rotated).values
        assert np.max(np.abs(base - moved)) <= 1e-9 * (1.0 + np.max(np.abs(base)))

    def test_jacobi_matches_bulk_lapack_path(self):
        rng = np.random.default_rng(11)
        stack = rng.standard_normal((12, 4, 4))
        stack = (stack + np.swapaxes(stack, -1, -2)) / 2.0
        lo, hi = linalg.sym_extrema_stack(stack)
        for k in range(stack.shape[0]):
            values, _, _ = reference_jacobi(stack[k])
            assert float(values[0]) == pytest.approx(float(lo[k]), abs=1e-10)
            assert float(values[-1]) == pytest.approx(float(hi[k]), abs=1e-10)


def _oracle_cases(n: int):
    """Seeded symmetric n x n matrices: random, diagonal, repeated spectrum, SPD."""
    rng = np.random.default_rng(100 + n)
    a = rng.standard_normal((n, n))
    q = random_orthogonal(rng, n)
    repeated = np.repeat(rng.standard_normal((n + 1) // 2), 2)[:n]
    spd = rng.uniform(0.5, 2.0, n)
    return {
        "random": (a + a.T) / 2.0,
        "diagonal": np.diag(rng.standard_normal(n)),
        "repeated": linalg.symmetrize(q @ np.diag(repeated) @ q.T),
        "spd": linalg.symmetrize(q @ np.diag(spd) @ q.T),
    }


class TestJacobiOracle:
    """The LAPACK path against the cyclic Jacobi reference in helpers.

    By Weyl's inequality the oracle's eigenvalues are off by at most n times
    its off-diagonal residual, so that residual widens the tolerance.
    """

    @pytest.mark.parametrize("n", range(1, 9))
    def test_eigenvalues_agree(self, n):
        for name, s in _oracle_cases(n).items():
            ref, _, residual = reference_jacobi(s)
            values = linalg.sym_eigenvalues(s).values
            tol = n * residual + 1e-13 * (1.0 + float(np.max(np.abs(ref))))
            assert np.max(np.abs(values - ref)) <= tol, name

    @pytest.mark.parametrize("n", range(1, 9))
    def test_spd_inverse_agrees(self, n):
        s = _oracle_cases(n)["spd"]
        ref_values, vectors, _ = reference_jacobi(s)
        ref = (vectors / ref_values) @ vectors.T
        inv = linalg.spd_inverse(s)
        assert np.max(np.abs(inv - ref)) <= 1e-11 * np.max(np.abs(ref))

    @pytest.mark.parametrize("seed", range(5))
    def test_ill_conditioned_spd(self, seed):
        # Eigenvalues 1.001e-12 .. 1 in a random basis: condition just under
        # spd_inverse's 1e12 limit. A relative perturbation e of the matrix
        # moves its inverse by about cond * e, relatively.
        n = 8
        rng = np.random.default_rng(seed)
        q = random_orthogonal(rng, n)
        spectrum = np.logspace(-12, 0, n)
        spectrum[0] *= 1.001
        s = linalg.symmetrize(q @ np.diag(spectrum) @ q.T)
        ref_values, vectors, residual = reference_jacobi(s)
        values = linalg.sym_eigenvalues(s).values
        perturbation = n * (residual + 1e-15)
        assert np.max(np.abs(values - ref_values)) <= perturbation
        ref = (vectors / ref_values) @ vectors.T
        inv = linalg.spd_inverse(s)
        cond = spectrum[-1] / spectrum[0]
        assert np.max(np.abs(inv - ref)) <= cond * perturbation * np.max(np.abs(ref))


class TestFrobNorm:
    def test_zero(self):
        assert linalg.frob_norm(np.zeros((3, 3))) == 0.0

    def test_identity_2(self):
        assert linalg.frob_norm(np.eye(2)) == 2.0

    def test_diag_3_4(self):
        assert linalg.frob_norm(np.diag([3.0, 4.0])) == 25.0

    @given(st.lists(finite, min_size=1, max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_equals_sum_of_squared_entries(self, entries):
        arr = np.array(entries)
        assert linalg.frob_norm(arr) == float(np.sum(arr * arr))


class TestIsDefinite:
    def test_quarter_identity_pd(self):
        assert linalg.is_definite(0.25 * np.eye(6), "pd", 1e-9) is True

    def test_zero_psd(self):
        assert linalg.is_definite(np.zeros((2, 2)), "psd", 1e-9) is True

    def test_negative_identity_not_pd(self):
        assert linalg.is_definite(-3.92 * np.eye(6), "pd", 1e-9) is False

    def test_mirrored_kinds(self):
        s = -0.5 * np.eye(2)
        assert linalg.is_definite(s, "nd")
        assert linalg.is_definite(s, "nsd")
        assert not linalg.is_definite(-s, "nd")
        assert linalg.is_definite(np.zeros((2, 2)), "nsd")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            linalg.is_definite(np.eye(2), "positive")

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            linalg.is_definite(np.eye(2), "pd", -1.0)


class TestValidation:
    def test_asymmetric_input_rejected(self):
        with pytest.raises(ValidationError):
            linalg.as_symmetric([[0.0, 1.0], [0.0, 0.0]])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            linalg.as_matrix([[np.nan, 0.0], [0.0, 1.0]])

    def test_spd_inverse_rejects_singular(self):
        with pytest.raises(SingularMatrixError):
            linalg.spd_inverse(np.diag([1.0, 0.0]))

    def test_spd_inverse_roundtrip(self):
        r = np.array([[2.0, 0.5], [0.5, 1.0]])
        inv = linalg.spd_inverse(r)
        assert np.max(np.abs(inv @ r - np.eye(2))) < 1e-12
