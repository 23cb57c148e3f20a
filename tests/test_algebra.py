import numpy as np
import pytest

import luequiv as lq
from luequiv.algebra import _finish_basis
from luequiv.errors import GramSingular, NotInSpan
from luequiv.invariants import Word
from luequiv.states import decomposition_from_coeffs, transform_decomposition

from conftest import bell_density, orbit_pair, unit


class TestBuildAlgebra:
    def test_pure_product_state(self):
        sd = decomposition_from_coeffs(2, [1.0], [unit(0, 0)])
        basis = lq.build_algebra(sd, "L")
        assert basis.dim == 1
        np.testing.assert_allclose(basis.gram, [[1.0]], atol=1e-14)
        np.testing.assert_allclose(np.abs(basis.elements[0]), unit(0, 0), atol=1e-14)

    def test_maximally_entangled_scalar_algebra(self):
        sd = lq.spectral_decompose(bell_density())
        for side in ("L", "R"):
            basis = lq.build_algebra(sd, side)
            assert basis.dim == 1
            # the single element is proportional to the identity
            e = basis.elements[0]
            np.testing.assert_allclose(e, e[0, 0] * np.eye(2), atol=1e-12)

    def test_degenerate_diag_left_and_right(self, diag_half_decompositions):
        sd_a, sd_b = diag_half_decompositions
        # left generators of the first state collapse onto E11
        left = lq.build_algebra(sd_a, "L")
        assert left.dim == 1
        np.testing.assert_allclose(np.abs(left.elements[0]), unit(0, 0), atol=1e-14)
        # right generators E11, E12, E21, E22 span the full matrix algebra
        right = lq.build_algebra(sd_a, "R")
        assert right.dim == 4
        # the mirrored state has the roles swapped
        assert lq.build_algebra(sd_b, "L").dim == 4
        assert lq.build_algebra(sd_b, "R").dim == 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_dimension_bound_and_gram(self, n):
        for seed in range(10):
            rank = 1 + seed % (n * n)
            sd = lq.spectral_decompose(lq.random_density(n, rank, seed=60 + seed))
            for side in ("L", "R"):
                basis = lq.build_algebra(sd, side)
                assert basis.dim <= n * n
                assert lq.gram_det(basis) > 1e-10
                resid = np.linalg.norm(basis.gram @ basis.gram_inverse - np.eye(basis.dim))
                assert resid <= 1e-8

    def test_duality(self):
        sd = lq.spectral_decompose(lq.random_density(2, 3, seed=61))
        basis = lq.build_algebra(sd, "L")
        for i, e in enumerate(basis.elements):
            for j, d in enumerate(basis.duals):
                val = np.trace(e @ d)
                assert abs(val - (1.0 if i == j else 0.0)) < 1e-8

    def test_closure_via_structure_constants(self):
        sd = lq.spectral_decompose(lq.random_density(2, 4, seed=62))
        basis = lq.build_algebra(sd, "L")
        m = basis.dim
        for i in range(m):
            for j in range(m):
                prod = basis.elements[i] @ basis.elements[j]
                recon = sum(
                    basis.structure[i, j, k] * basis.elements[k] for k in range(m)
                )
                assert np.linalg.norm(prod - recon) <= 1e-8

    def test_hermitian_closure(self):
        sd = lq.spectral_decompose(lq.random_density(2, 3, seed=63))
        for side in ("L", "R"):
            basis = lq.build_algebra(sd, side)
            for e in basis.elements:
                lq.express_in_basis(basis, e.conj().T)  # raises NotInSpan on failure

    def test_associativity_of_structure_constants(self):
        sd = lq.spectral_decompose(lq.random_density(2, 3, seed=64))
        basis = lq.build_algebra(sd, "L")
        c = basis.structure
        m = basis.dim
        lhs = np.einsum("ijk,klm->ijlm", c, c)
        rhs = np.einsum("jlk,ikm->ijlm", c, c)
        assert np.max(np.abs(lhs - rhs)) <= 1e-7


class TestGramDet:
    def test_single_unit(self):
        sd = decomposition_from_coeffs(2, [1.0], [unit(0, 0)])
        assert abs(lq.gram_det(lq.build_algebra(sd, "L")) - 1.0) < 1e-12

    def test_orthonormal_basis_under_trace_form(self):
        # Pauli-like Hermitian basis scaled to Tr(e_i e_j) = delta_ij
        paulis = [
            np.eye(2, dtype=complex),
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[0, -1j], [1j, 0]], dtype=complex),
            np.array([[1, 0], [0, -1]], dtype=complex),
        ]
        elements = [p / np.sqrt(2) for p in paulis]
        words = [Word("L", ((1, 1),) * (k + 1)) for k in range(4)]
        basis = _finish_basis("L", 2, words, elements)
        assert abs(lq.gram_det(basis) - 1.0) < 1e-12

    def test_dependent_elements_raise(self):
        elements = [unit(0, 0), 2.0 * unit(0, 0)]
        words = [Word("L", ((1, 1),) * (k + 1)) for k in range(2)]
        with pytest.raises(GramSingular):
            _finish_basis("L", 2, words, elements)


class TestExpressInBasis:
    def test_basis_element(self):
        sd = lq.spectral_decompose(lq.random_density(2, 3, seed=65))
        basis = lq.build_algebra(sd, "L")
        coeffs = lq.express_in_basis(basis, basis.elements[0])
        want = np.zeros(basis.dim, dtype=complex)
        want[0] = 1.0
        np.testing.assert_allclose(coeffs, want, atol=1e-9)

    def test_product_gives_structure_row(self):
        sd = lq.spectral_decompose(lq.random_density(2, 3, seed=66))
        basis = lq.build_algebra(sd, "L")
        i, j = 0, min(1, basis.dim - 1)
        coeffs = lq.express_in_basis(basis, basis.elements[i] @ basis.elements[j])
        np.testing.assert_allclose(coeffs, basis.structure[i, j, :], atol=1e-9)

    def test_not_in_span(self):
        sd = lq.spectral_decompose(bell_density())
        basis = lq.build_algebra(sd, "L")  # one-dimensional, scalars only
        rng = np.random.default_rng(67)
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = h + h.conj().T
        with pytest.raises(NotInSpan):
            lq.express_in_basis(basis, h)


class TestLocalUnitaryCovariance:
    def test_same_words_gram_and_structure(self):
        for seed in range(8):
            rho, _, u1, u2 = orbit_pair(2, 1 + seed % 4, seed=70 + seed)
            sd = lq.spectral_decompose(rho)
            moved = transform_decomposition(sd, u1, u2)
            for side in ("L", "R"):
                basis = lq.build_algebra(sd, side)
                basis2 = lq.build_algebra(moved, side)
                assert [w.key() for w in basis.words] == [w.key() for w in basis2.words]
                np.testing.assert_allclose(basis.gram, basis2.gram, atol=1e-8)
                np.testing.assert_allclose(
                    basis.structure, basis2.structure, atol=1e-8
                )
