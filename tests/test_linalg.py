"""Kernel tests: every decomposition is checked against an independent
reconstruction or cross-oracle, not against itself."""

import numpy as np
import pytest

from luequiv import linalg
from luequiv.errors import NotHermitian

from conftest import random_hermitian, unit


def char_poly_coeffs(m: np.ndarray) -> np.ndarray:
    """Characteristic polynomial by the Faddeev-LeVerrier trace recursion;
    shares no code with the eigensolver under test."""
    n = m.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    mk = np.zeros_like(m)
    for k in range(1, n + 1):
        mk = m @ mk + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(m @ mk) / k
    return coeffs


NON_FINITE = [complex(v, 0.0) for v in (np.nan, np.inf, -np.inf)] + [
    complex(0.0, v) for v in (np.nan, np.inf, -np.inf)
]


class TestEnsureMatrix:
    @pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
    def test_rejects_a_non_finite_part(self, bad):
        m = np.eye(3, dtype=complex)
        m[1, 2] = bad
        with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
            linalg.ensure_matrix(m)

    def test_accepts_finite_real_input_as_complex(self):
        a = linalg.ensure_matrix([[1, 2], [3, 4]])
        assert a.dtype == complex
        np.testing.assert_array_equal(a, [[1, 2], [3, 4]])


class TestFrob:
    """``frob`` forms the sum of squares ``np.linalg.norm`` forms, bit for bit."""

    @staticmethod
    def arrays():
        rng = np.random.default_rng(18)
        z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        r = rng.standard_normal((4, 6))
        k = rng.integers(-50, 50, size=(3, 7))
        yield from (z, z.T, z.conj(), z[1:4, ::2], r, r.T, k, k.T)
        yield from (np.array([[3.0 - 4.0j]]), np.array([[-2.5]]), np.zeros((3, 3), complex))
        yield from (np.zeros((2, 2)), np.zeros((2, 2), dtype=int), z.reshape(-1))

    def test_equals_numpy_norm(self):
        for m in self.arrays():
            expected = float(np.linalg.norm(m))
            got = linalg.frob(m)
            assert type(got) is float
            assert got.hex() == expected.hex(), (m.dtype, m.shape)


class TestHermitianEig:
    def test_identity(self):
        res = linalg.hermitian_eigendecompose(np.eye(2, dtype=complex))
        np.testing.assert_allclose(res.eigenvalues, [1.0, 1.0])
        v = res.eigenvectors
        np.testing.assert_allclose(v @ v.conj().T, np.eye(2), atol=1e-14)

    def test_already_diagonal(self):
        res = linalg.hermitian_eigendecompose(np.diag([3.0, -1.0]).astype(complex))
        np.testing.assert_allclose(res.eigenvalues, [3.0, -1.0])
        # columns are coordinate vectors up to phase
        assert abs(abs(res.eigenvectors[0, 0]) - 1.0) < 1e-14
        assert abs(abs(res.eigenvectors[1, 1]) - 1.0) < 1e-14

    def test_matches_characteristic_polynomial_roots(self):
        rng = np.random.default_rng(41)
        m = random_hermitian(rng, 4)
        res = linalg.hermitian_eigendecompose(m)
        roots = np.sort(np.roots(char_poly_coeffs(m)).real)[::-1]
        np.testing.assert_allclose(res.eigenvalues, roots, atol=1e-9)
        for k in range(4):
            v = res.eigenvectors[:, k]
            assert np.linalg.norm(m @ v - res.eigenvalues[k] * v) < 1e-9

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16])
    def test_reconstruction(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(5):
            m = random_hermitian(rng, dim)
            w, v = linalg.hermitian_eigendecompose(m)
            recon = (v * w) @ v.conj().T
            assert np.linalg.norm(recon - m) <= 1e-10 * max(1.0, np.linalg.norm(m))
            assert np.linalg.norm(v.conj().T @ v - np.eye(dim)) <= 1e-10
            assert np.all(np.diff(w) <= 1e-14)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            linalg.hermitian_eigendecompose(np.array([[0, 1], [0, 0]], dtype=complex))


class TestSVD:
    """The singular values and vectors ``nullspace`` reads off its one SVD."""

    def test_identity(self):
        np.testing.assert_allclose(linalg.nullspace(np.eye(3, dtype=complex)).singulars, np.ones(3))

    def test_rank_one(self):
        np.testing.assert_allclose(linalg.nullspace(unit(0, 1)).singulars, [1.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize("dim", [2, 3, 7, 16])
    def test_singulars_match_gram_eigenvalues(self, dim):
        rng = np.random.default_rng(100 + dim)
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        null = linalg.nullspace(m)
        gram_eigs = linalg.hermitian_eigendecompose(m.conj().T @ m).eigenvalues
        np.testing.assert_allclose(
            null.singulars, np.sqrt(np.clip(gram_eigs, 0, None)), atol=1e-9
        )
        # row k is a right singular vector: |M v_k| is its singular value
        np.testing.assert_allclose(
            np.linalg.norm(m @ null.vectors.T, axis=0), null.singulars, atol=1e-10
        )


def assert_polar_factor(u, m):
    """``u`` is unitary and u^dagger M is Hermitian positive semidefinite."""
    dim = m.shape[0]
    assert np.linalg.norm(u @ u.conj().T - np.eye(dim)) <= 1e-10
    p = u.conj().T @ m
    assert np.linalg.norm(p - p.conj().T) <= 1e-10 * max(1.0, np.linalg.norm(m))
    assert np.linalg.eigvalsh((p + p.conj().T) / 2)[0] >= -1e-10


class TestPolar:
    def test_unitary_input(self):
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        u = linalg.polar_decompose(q)
        assert_polar_factor(u, q)
        np.testing.assert_allclose(u, q, atol=1e-12)

    def test_positive_scaling(self):
        m = 2.0 * np.eye(2, dtype=complex)
        u = linalg.polar_decompose(m)
        assert_polar_factor(u, m)
        np.testing.assert_allclose(u, np.eye(2), atol=1e-14)

    def test_scaled_unitary_strips_scale_exactly(self):
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        u = linalg.polar_decompose(2.0 * q)
        assert_polar_factor(u, 2.0 * q)
        np.testing.assert_allclose(u, q, atol=1e-13)

    def test_reconstruction_and_unitarity(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            assert_polar_factor(linalg.polar_decompose(m), m)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
    def test_stack_matches_single_calls_bit_for_bit(self, dim):
        rng = np.random.default_rng(10 + dim)
        x, y = rng.standard_normal((2, dim, dim)) + 1j * rng.standard_normal((2, dim, dim))
        singular = np.outer(x[:, 0], y[0].conj())  # rank one
        for pair in ((x, y), (singular, x), (y, singular)):
            stacked = linalg.polar_decompose(np.array(pair))
            assert stacked.shape == (2, dim, dim)
            for got, m in zip(stacked, pair):
                assert got.tobytes() == linalg.polar_decompose(m).tobytes()


def commutant_system(pairs, dim):
    """Rows of P X - X Q = 0 acting on the row-major vec of a dim x dim X."""
    eye = np.eye(dim, dtype=complex)
    return np.vstack([np.kron(p, eye) - np.kron(eye, np.asarray(q).T) for p, q in pairs])


class TestNullspace:
    def test_identity_commutant_is_everything(self):
        sols = linalg.nullspace(commutant_system([(np.eye(2), np.eye(2))], 2)).basis(1e-10)
        assert len(sols) == 4

    def test_distinct_diagonal_commutant(self):
        d = np.diag([1.0, 2.0]).astype(complex)
        sols = linalg.nullspace(commutant_system([(d, d)], 2)).basis(1e-10)
        assert len(sols) == 2
        for x in sols.reshape(-1, 2, 2):
            assert abs(x[0, 1]) < 1e-10 and abs(x[1, 0]) < 1e-10

    def test_irreducible_pair_has_scalar_commutant(self):
        rng = np.random.default_rng(15)
        gens = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2)]
        sols = linalg.nullspace(commutant_system([(g, g) for g in gens], 3)).basis(1e-10)
        assert len(sols) == 1
        x = sols[0].reshape(3, 3)
        scale = x[0, 0]
        np.testing.assert_allclose(x, scale * np.eye(3), atol=1e-9)

    def test_empty_when_no_solution(self):
        # intertwining two generic non-similar matrices forces X = 0
        rng = np.random.default_rng(16)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert linalg.nullspace(commutant_system([(a, b)], 2)).basis(1e-10).shape == (0, 4)

    def test_one_svd_serves_every_cutoff(self):
        # known singular values 1, 1e-6, 1e-9, 0 behind random unitaries
        rng = np.random.default_rng(17)
        q1, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        q2, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        sing = np.zeros((6, 4))
        sing[:4, :4] = np.diag([1.0, 1e-6, 1e-9, 0.0])
        m = q1 @ sing @ q2.conj().T
        null = linalg.nullspace(m)
        dims = [null.basis(eps).shape[0] for eps in (1e-12, 1e-8, 1e-5, 10.0)]
        assert dims == [1, 2, 3, 4]
        # looser cutoffs extend the stricter bases; the last row is least violated
        np.testing.assert_array_equal(null.basis(1e-5)[1:], null.basis(1e-8))
        np.testing.assert_array_equal(null.vectors[-1:], null.basis(1e-12))
        assert np.linalg.norm(m @ null.vectors[-1]) < 1e-12
        gram = null.vectors @ null.vectors.conj().T
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)

    def test_wide_system_keeps_unreached_directions(self):
        m = np.array([[1.0, 0.0, 0.0]], dtype=complex)
        sols = linalg.nullspace(m).basis(1e-10)
        assert sols.shape == (2, 3)
        np.testing.assert_allclose(np.abs(sols[:, 0]), 0.0, atol=1e-14)

    @pytest.mark.parametrize("rows, cols", [(48, 32), (60, 40), (64, 32), (96, 24), (300, 20)])
    @pytest.mark.parametrize("rank", ["full", "deficient"])
    def test_tall_system_matches_the_direct_svd(self, rows, cols, rank):
        # ratios from 1.2 to 15, so both of LAPACK's routes are covered
        rng = np.random.default_rng(rows * cols)
        k = cols if rank == "full" else cols - 5
        m = (rng.standard_normal((rows, k)) + 1j * rng.standard_normal((rows, k))) @ (
            rng.standard_normal((k, cols)) + 1j * rng.standard_normal((k, cols))
        )
        null = linalg.nullspace(m)
        _, s, vh = np.linalg.svd(m)
        np.testing.assert_allclose(null.singulars[:k], s[:k], rtol=1e-13)
        assert np.all(null.singulars[k:] <= 1e-12 * s[0])
        basis = null.basis(1e-8)
        assert basis.shape == (cols - k, cols)
        ref = vh[k:].conj()
        np.testing.assert_allclose(
            basis.T @ basis.conj(), ref.T @ ref.conj(), atol=1e-12
        )
        gram = null.vectors @ null.vectors.conj().T
        np.testing.assert_allclose(gram, np.eye(cols), atol=1e-12)

    def test_tall_rounding_noise_leaves_every_direction_free(self):
        rng = np.random.default_rng(18)
        m = 1e-14 * (rng.standard_normal((200, 20)) + 1j * rng.standard_normal((200, 20)))
        null = linalg.nullspace(m)
        np.testing.assert_array_equal(null.vectors, np.eye(20))
        np.testing.assert_array_equal(null.singulars, np.zeros(20))

    @pytest.mark.parametrize("rows, cols", [(6, 4), (3, 5), (200, 20)])
    def test_stack_is_each_system_alone(self, rows, cols):
        # one call on a stack, short, wide and tall (the R-SVD route): each
        # system gets the bits it gets alone, rounding noise included
        rng = np.random.default_rng(rows + cols)
        m = rng.standard_normal((3, rows, cols)) + 1j * rng.standard_normal((3, rows, cols))
        m[1] *= 1e-14
        null = linalg.nullspace(m)
        assert null.vectors.shape == (3, cols, cols)
        for k, (vectors, singulars) in enumerate(zip(*null)):
            alone = linalg.nullspace(m[k])
            np.testing.assert_array_equal(vectors, alone.vectors)
            np.testing.assert_array_equal(singulars, alone.singulars)
        np.testing.assert_array_equal(null.vectors[1], np.eye(cols))

    def test_stack_without_unknowns(self):
        null = linalg.nullspace(np.zeros((2, 5, 0)))
        assert null.vectors.shape == (2, 0, 0)
        assert [linalg.NullSpace(*one).basis(1e-8, 1.0).shape for one in zip(*null)] == [(0, 0)] * 2
