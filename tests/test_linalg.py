"""Matrix kernel contract: constructors, eigenvalues, norms, definiteness."""
from __future__ import annotations

import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aaolq import linalg, load_scenario
from aaolq.errors import SingularMatrixError, ValidationError
from aaolq.riccati import TimeGrid, solve_coupled
from helpers import JacobiNotConverged, random_orthogonal, reference_jacobi

SRC = Path(__file__).resolve().parent.parent / "src" / "aaolq"
COARSE = SRC.parent.parent / "scenarios" / "pursuit_coarse.json"


def _sym(entries: list[float], n: int) -> np.ndarray:
    a = np.array(entries, dtype=float).reshape(n, n)
    return (a + a.T) / 2.0


finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)


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
        assert np.array_equal(res, np.ones(3))
        assert not res.flags.writeable

    def test_analytic_2x2(self):
        res = linalg.sym_eigenvalues([[2.0, 1.0], [1.0, 2.0]])
        assert res == pytest.approx([1.0, 3.0], abs=1e-12)

    def test_scaled_identity_6(self):
        res = linalg.sym_eigenvalues(-18.0 * np.eye(6))
        assert np.array_equal(res, np.full(6, -18.0))

    def test_values_ascending_and_residual_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            s = rng.standard_normal((n, n))
            s = (s + s.T) / 2.0
            values = linalg.sym_eigenvalues(s)
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
        values = linalg.sym_eigenvalues(s)
        assert float(np.sum(values)) == pytest.approx(float(np.trace(s)), abs=1e-9 * n)
        if n <= 3:
            # The LU of some near-singular draws divides by zero, and numpy warns.
            with np.errstate(divide="ignore"):
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
        base = linalg.sym_eigenvalues(s)
        moved = linalg.sym_eigenvalues(rotated)
        assert np.max(np.abs(base - moved)) <= 1e-9 * (1.0 + np.max(np.abs(base)))

    def test_jacobi_matches_bulk_lapack_path(self):
        rng = np.random.default_rng(11)
        stack = rng.standard_normal((12, 4, 4))
        stack = (stack + np.swapaxes(stack, -1, -2)) / 2.0
        bulk = linalg.sym_eigenvalues(stack)
        for k in range(stack.shape[0]):
            values, _, _ = reference_jacobi(stack[k])
            assert float(values[0]) == pytest.approx(float(bulk[k, 0]), abs=1e-10)
            assert float(values[-1]) == pytest.approx(float(bulk[k, -1]), abs=1e-10)


@pytest.fixture(scope="module")
def coarse_s() -> np.ndarray:
    """The (4, 401, 6, 6) stack S of the pursuit_coarse scenario's nash solve."""
    scenario = load_scenario(COARSE)
    game = scenario.build_game()
    sol = solve_coupled(game, TimeGrid.from_step(game.t0, game.tf, scenario.run.dt))
    assert sol.S.shape == (4, 401, 6, 6)
    return sol.S


class TestSolverStack:
    """A solver stack goes to LAPACK as given: bitwise symmetric, never copied."""

    def test_equals_per_matrix_calls_bitwise(self, coarse_s):
        bulk = linalg.sym_eigenvalues(coarse_s)
        assert bulk.shape == (4, 401, 6)
        assert not bulk.flags.writeable
        for i in range(coarse_s.shape[0]):
            for k in range(coarse_s.shape[1]):
                single = linalg.sym_eigenvalues(coarse_s[i, k])
                assert single.tobytes() == bulk[i, k].tobytes(), (i, k)

    def test_allocates_no_copy_of_the_stack(self, coarse_s):
        linalg.sym_eigenvalues(coarse_s)  # warm-up: numpy's one-time allocations
        tracemalloc.start()
        try:
            linalg.sym_eigenvalues(coarse_s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < coarse_s.nbytes / 2


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
            values = linalg.sym_eigenvalues(s)
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
        # Eigenvalues scale * (1.001e-12 .. 1) in a random basis: condition just
        # under spd_inverse's 1e12 limit, smallest eigenvalue over
        # DEFINITENESS_TOL. A relative perturbation e of the matrix moves its
        # inverse by about cond * e, relatively.
        n = 8
        scale = 1e4
        rng = np.random.default_rng(seed)
        q = random_orthogonal(rng, n)
        spectrum = scale * np.logspace(-12, 0, n)
        spectrum[0] *= 1.001
        assert spectrum[0] > linalg.DEFINITENESS_TOL
        s = linalg.symmetrize(q @ np.diag(spectrum) @ q.T)
        ref_values, vectors, residual = reference_jacobi(s)
        values = linalg.sym_eigenvalues(s)
        perturbation = n * (residual + 1e-15 * scale)
        assert np.max(np.abs(values - ref_values)) <= perturbation
        ref = (vectors / ref_values) @ vectors.T
        inv = linalg.spd_inverse(s)
        cond = spectrum[-1] / spectrum[0]
        relative = perturbation / scale
        assert np.max(np.abs(inv - ref)) <= cond * relative * np.max(np.abs(ref))


class TestValidation:
    def test_asymmetric_input_rejected(self):
        with pytest.raises(ValidationError):
            linalg.as_symmetric([[0.0, 1.0], [0.0, 0.0]])

    def test_symmetric_part_of_huge_entries_stays_finite(self):
        big = np.array([[1.7e308, -1.5e308], [-1.5e308, 1e308]])
        out = linalg.as_symmetric(big)
        assert out.tobytes() == big.tobytes()

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            linalg.as_matrix([[np.nan, 0.0], [0.0, 1.0]])

    def test_spd_inverse_rejects_singular(self):
        with pytest.raises(SingularMatrixError):
            linalg.spd_inverse(np.diag([1.0, 0.0]))

    def test_spd_inverse_rejects_spectrum_under_definiteness_tol(self):
        # Well conditioned, but 1e-10 <= DEFINITENESS_TOL: not positive definite.
        with pytest.raises(SingularMatrixError, match="^tiny must be positive definite$"):
            linalg.spd_inverse(1e-10 * np.eye(2), name="tiny")

    def test_spd_inverse_roundtrip(self):
        r = np.array([[2.0, 0.5], [0.5, 1.0]])
        inv = linalg.spd_inverse(r)
        assert np.max(np.abs(inv @ r - np.eye(2))) < 1e-12


def test_one_eigen_path():
    """Every LAPACK eigenvalue call in the package is one of the two in linalg.py."""
    sites = [
        (path.name, call)
        for path in sorted(SRC.glob("*.py"))
        for call in re.findall(r"np\.linalg\.eig\w*\(", path.read_text())
    ]
    assert sorted(sites) == [("linalg.py", "np.linalg.eigh("), ("linalg.py", "np.linalg.eigvalsh(")]
