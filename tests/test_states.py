import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import luequiv as lq
from luequiv.errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NotHermitian,
    NotPositiveSemidefinite,
    NotUnitary,
    NotUnitTrace,
)
from luequiv.states import (
    DensityMatrix,
    _degeneracy_blocks,
    decomposition_from_coeffs,
    density_from_decomposition,
    remix_block,
    transform_decomposition,
)

from conftest import bell_density, orbit_pair, unit


class TestValidateDensity:
    def test_maximally_mixed(self):
        rho = lq.validate_density(np.eye(4, dtype=complex) / 4, 2)
        assert rho.dim_local == 2

    def test_rank_two_diagonal(self):
        lq.validate_density(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex), 2)

    def test_trace_two_rejected(self):
        with pytest.raises(NotUnitTrace):
            lq.validate_density(np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex), 2)

    def test_non_hermitian_rejected(self):
        m = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        m[0, 1] = 0.3
        with pytest.raises(NotHermitian):
            lq.validate_density(m, 2)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NotPositiveSemidefinite):
            lq.validate_density(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex), 2)

    def test_size_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            lq.validate_density(np.eye(4, dtype=complex) / 4, 3)

    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=repr)
    def test_non_finite_entry_rejected(self, part, bad):
        m = np.eye(4, dtype=complex) / 4
        m[0, 3] = complex(bad, 0.0) if part == "real" else complex(0.0, bad)
        with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
            lq.validate_density(m, 2)

    def test_never_repairs(self):
        m = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        rho = lq.validate_density(m, 2)
        m[0, 0] = 99.0  # caller-side mutation must not leak in
        assert rho.matrix[0, 0] == 0.5
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0

    def test_one_eigvalsh_for_validation_and_power_traces(self, monkeypatch):
        # the PSD check reads the cached spectrum, and power traces reuse it
        m = lq.random_density(3, 5, seed=27).matrix
        calls = []
        inner = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or inner(a))
        rho = lq.validate_density(m, 3)
        traces = lq.power_traces(rho)
        assert len(calls) == 1
        np.testing.assert_array_equal(rho.spectrum, inner(rho.matrix))
        assert rho.spectrum is rho.spectrum
        with pytest.raises(ValueError):
            rho.spectrum[0] = 1.0
        assert traces[0] == np.sum(rho.spectrum)


class TestSpectralDecompose:
    def test_bell_state(self):
        sd = lq.spectral_decompose(bell_density())
        assert sd.rank == 1
        np.testing.assert_allclose(sd.eigenvalues, [1.0], atol=1e-12)
        a = sd.coeff_matrices[0]
        np.testing.assert_allclose(np.abs(a), np.eye(2) / np.sqrt(2), atol=1e-12)

    def test_degenerate_diagonal(self):
        rho = lq.validate_density(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex), 2)
        sd = lq.spectral_decompose(rho)
        assert sd.rank == 2
        np.testing.assert_allclose(sd.eigenvalues, [0.5, 0.5])
        assert sd.blocks == ((0, 1),)
        for a in sd.coeff_matrices:
            # eigenvectors live in span{|11>, |12>}: second row vanishes
            np.testing.assert_allclose(a[1, :], 0, atol=1e-12)
            assert abs(np.linalg.norm(a) - 1.0) < 1e-12

    def test_nondegenerate_diagonal(self):
        rho = lq.validate_density(np.diag([0.75, 0.0, 0.0, 0.25]).astype(complex), 2)
        sd = lq.spectral_decompose(rho)
        np.testing.assert_allclose(sd.eigenvalues, [0.75, 0.25])
        assert sd.blocks == ((0,), (1,))
        np.testing.assert_allclose(np.abs(sd.coeff_matrices[0]), unit(0, 0), atol=1e-12)
        np.testing.assert_allclose(np.abs(sd.coeff_matrices[1]), unit(1, 1), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_reconstruction(self, n):
        for seed in range(10):
            rho = lq.random_density(n, 1 + seed % (n * n), seed=seed)
            sd = lq.spectral_decompose(rho)
            recon = density_from_decomposition(sd)
            assert np.linalg.norm(recon.matrix - rho.matrix) <= 1e-9
            # eigenvector orthonormality through the coefficient matrices
            for i, a in enumerate(sd.coeff_matrices):
                for j, b in enumerate(sd.coeff_matrices):
                    ip = np.vdot(a, b)
                    assert abs(ip - (1.0 if i == j else 0.0)) < 1e-10


    # DensityMatrix objects built without validate_density: the checks of
    # spectral_decompose are their only guard

    def test_unvalidated_non_hermitian_rejected_with_its_deviation(self):
        m = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        m[0, 1] = 0.3
        dev = np.linalg.norm(m - m.conj().T)
        message = f"||M - M^dagger||_F = {dev:.3e} exceeds tolerance"
        with pytest.raises(NotHermitian, match=f"^{re.escape(message)}$"):
            lq.spectral_decompose(DensityMatrix(2, m))

    @pytest.mark.parametrize("bad", [np.nan, complex(0.0, np.inf)], ids=repr)
    def test_unvalidated_non_finite_rejected(self, bad):
        m = np.eye(4, dtype=complex) / 4
        m[2, 2] = bad
        with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
            lq.spectral_decompose(DensityMatrix(2, m))

    def test_lapack_failure_is_a_convergence_failure(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceFailure, match="did not converge"):
            lq.spectral_decompose(bell_density())


def degeneracy_blocks_reference(lams, n, eps_deg):
    """The chaining loop as it was written over numpy scalars."""
    if len(lams) == 0:
        return ()
    scale = max(float(lams[0]), 1.0 / (n * n))
    blocks, current = [], [0]
    for i in range(1, len(lams)):
        if lams[i - 1] - lams[i] <= eps_deg * scale:
            current.append(i)
        else:
            blocks.append(tuple(current))
            current = [i]
    blocks.append(tuple(current))
    return tuple(blocks)


class TestDegeneracyBlocks:
    EPS = 2.0 ** -20  # eps_deg * scale is then exact for a power-of-two scale

    @pytest.mark.parametrize(
        "lams, n",
        [
            ([], 2),
            ([1.0], 2),
            ([0.25, 0.25, 0.25, 0.25], 2),  # exact ties
            ([0.5, 0.25, 0.25, 0.0], 2),
            ([0.5, 0.5 - 2.0 ** -21, 0.0], 2),  # gap exactly eps_deg * 0.5
            ([0.5, np.nextafter(0.5 - 2.0 ** -21, 0.0), 0.0], 2),  # one ulp wider
            ([0.0625, 0.0625 - 2.0 ** -24, 0.0625 - 2.0 ** -23], 2),  # scale 1 / N^2
            ([0.01, 0.01 - 2.0 ** -20 / 9], 3),  # scale 1 / N^2 = 1 / 9, at the boundary
        ],
    )
    def test_matches_the_reference_loop(self, lams, n):
        lams = np.array(lams, dtype=float)
        assert _degeneracy_blocks(lams, n, self.EPS) == degeneracy_blocks_reference(lams, n, self.EPS)

    def test_boundary_gap_chains_and_a_wider_one_splits(self):
        exact = np.array([0.5, 0.5 - 2.0 ** -21])
        assert 0.5 - exact[1] == self.EPS * 0.5
        assert _degeneracy_blocks(exact, 2, self.EPS) == ((0, 1),)
        wider = np.array([0.5, np.nextafter(exact[1], 0.0)])
        assert _degeneracy_blocks(wider, 2, self.EPS) == ((0,), (1,))

    def test_random_spectra(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            n = int(rng.integers(2, 5))
            rank = int(rng.integers(1, n * n + 1))
            # clustered values, so that both outcomes of the gap test occur
            lams = np.sort(rng.choice(rng.random(3), rank) + 1e-9 * rng.random(rank))[::-1]
            eps = float(10.0 ** rng.uniform(-10, -6))
            assert _degeneracy_blocks(lams, n, eps) == degeneracy_blocks_reference(lams, n, eps)


class TestApplyLocalUnitary:
    def test_identity_is_noop(self):
        rho = lq.random_density(2, 3, seed=21)
        out = lq.apply_local_unitary(rho, np.eye(2), np.eye(2))
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-14)

    def test_pure_state_coefficient_law(self):
        # on a pure state the coefficient matrix maps to U1 A U2^T
        rho = lq.random_density(2, 1, seed=22)
        rng = np.random.default_rng(23)
        u1, u2 = lq.haar_unitary(2, rng), lq.haar_unitary(2, rng)
        a = lq.spectral_decompose(rho).coeff_matrices[0]
        a2 = lq.spectral_decompose(lq.apply_local_unitary(rho, u1, u2)).coeff_matrices[0]
        target = u1 @ a @ u2.T
        overlap = abs(np.vdot(a2, target))
        assert abs(overlap - 1.0) < 1e-10  # equal up to a global phase

    def test_flip_permutes_diagonal(self):
        rho = lq.validate_density(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex), 2)
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        out = lq.apply_local_unitary(rho, x, np.eye(2))
        np.testing.assert_allclose(
            out.matrix, np.diag([0.0, 0.0, 0.5, 0.5]).astype(complex), atol=1e-14
        )

    def test_rejects_non_unitary(self):
        rho = lq.random_density(2, 2, seed=24)
        with pytest.raises(NotUnitary):
            lq.apply_local_unitary(rho, 2.0 * np.eye(2), np.eye(2))

    def test_preserves_power_traces(self):
        for seed in range(5):
            rho, rho2, _, _ = orbit_pair(3, 1 + seed % 9, seed=30 + seed)
            np.testing.assert_allclose(
                lq.power_traces(rho), lq.power_traces(rho2), atol=1e-9
            )

    def test_orbit_eigenvalues_and_coefficients(self):
        for seed in range(5):
            rho, rho2, u1, u2 = orbit_pair(2, 1 + seed % 4, seed=40 + seed)
            sd, sd2 = lq.spectral_decompose(rho), lq.spectral_decompose(rho2)
            np.testing.assert_allclose(sd.eigenvalues, sd2.eigenvalues, atol=1e-9)
            for block in sd.blocks:
                if len(block) > 1:
                    continue
                i = block[0]
                target = u1 @ sd.coeff_matrices[i] @ u2.T
                overlap = abs(np.vdot(sd2.coeff_matrices[i], target))
                assert abs(overlap - 1.0) < 1e-9  # phase freedom only


class TestCoefficientReshape:
    # A[k, l] = v[k * N + l]: a unit-weight decomposition reassembles |v><v|
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_is_exact(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        v = rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)
        v /= np.linalg.norm(v)
        sd = decomposition_from_coeffs(n, [1.0], [v.reshape(n, n)])
        assert np.array_equal(density_from_decomposition(sd).matrix, np.outer(v, v.conj()))

    def test_basis_vectors(self):
        sd = decomposition_from_coeffs(2, [1.0], [unit(0, 0)])
        np.testing.assert_array_equal(density_from_decomposition(sd).matrix, np.diag([1, 0, 0, 0]))
        a = np.diag([1, 1]).astype(complex) / np.sqrt(2)
        sd = decomposition_from_coeffs(2, [1.0], [a])
        v = np.array([1, 0, 0, 1]) / np.sqrt(2)
        np.testing.assert_allclose(density_from_decomposition(sd).matrix, np.outer(v, v))


class TestDecompositionHelpers:
    def test_transform_matches_density_level(self):
        rho = lq.random_density(2, 3, seed=50)
        sd = lq.spectral_decompose(rho)
        rng = np.random.default_rng(51)
        u1, u2 = lq.haar_unitary(2, rng), lq.haar_unitary(2, rng)
        moved = transform_decomposition(sd, u1, u2)
        lhs = density_from_decomposition(moved)
        rhs = lq.apply_local_unitary(rho, u1, u2)
        assert np.linalg.norm(lhs.matrix - rhs.matrix) <= 1e-10

    def test_remix_preserves_density(self):
        rho = lq.random_density(2, 3, degeneracy_profile=[2, 1], seed=52)
        sd = lq.spectral_decompose(rho)
        block = next(b for b in sd.blocks if len(b) == 2)
        v = lq.haar_unitary(2, 53)
        remixed = remix_block(sd, block, v)
        assert np.linalg.norm(
            density_from_decomposition(remixed).matrix - rho.matrix
        ) <= 1e-10

    def test_decomposition_from_coeffs_checks_norms(self):
        with pytest.raises(ValueError):
            decomposition_from_coeffs(2, [1.0], [2.0 * unit(0, 0)])
