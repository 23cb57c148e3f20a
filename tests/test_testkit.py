import hashlib
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import expm

import luequiv as lq
from luequiv.errors import InvalidProfile
from luequiv.testkit import exp_i_hermitian

from conftest import orbit_pair, random_hermitian


class TestHaarUnitary:
    def test_scalar_case(self):
        u = lq.haar_unitary(1, 5)
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-14

    def test_unitarity_sweep(self):
        for seed in range(100):
            u = lq.haar_unitary(4, seed)
            assert np.linalg.norm(u.conj().T @ u - np.eye(4)) <= 1e-12

    def test_first_entry_moment(self):
        # E|U_00|^2 = 1/N for the Haar measure
        n, samples = 4, 10_000
        rng = np.random.default_rng(123)
        acc = 0.0
        for _ in range(samples):
            acc += abs(lq.haar_unitary(n, rng)[0, 0]) ** 2
        mean = acc / samples
        # Beta(1, N-1) variance over `samples` draws: ~4 sigma margin
        assert abs(mean - 1.0 / n) < 0.01

    def test_determinism(self):
        a = lq.haar_unitary(3, 77)
        b = lq.haar_unitary(3, 77)
        np.testing.assert_array_equal(a, b)


class TestRandomDensity:
    def test_rank_one_is_pure(self):
        rho = lq.random_density(2, 1, seed=1)
        np.testing.assert_allclose(lq.power_traces(rho), np.ones(4), atol=1e-12)

    def test_degeneracy_profile(self):
        rho = lq.random_density(2, 4, degeneracy_profile=[2, 2], seed=2)
        sd = lq.spectral_decompose(rho)
        assert tuple(len(b) for b in sd.blocks) == (2, 2)

    def test_round_trip(self):
        from luequiv.states import density_from_decomposition

        for seed in range(20):
            n = 2 + seed % 2
            rho = lq.random_density(n, 1 + seed % (n * n), seed=seed)
            sd = lq.spectral_decompose(rho)
            recon = density_from_decomposition(sd)
            assert np.linalg.norm(recon.matrix - rho.matrix) <= 1e-9

    def test_invalid_profiles(self):
        with pytest.raises(InvalidProfile):
            lq.random_density(2, 3, degeneracy_profile=[2, 2], seed=0)
        with pytest.raises(InvalidProfile):
            lq.random_density(2, 0, seed=0)
        with pytest.raises(InvalidProfile):
            lq.random_density(2, 5, seed=0)

    def test_determinism(self):
        a = lq.random_density(3, 5, seed=9)
        b = lq.random_density(3, 5, seed=9)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_full_rank_n8(self):
        # 64 Dirichlet(1) levels almost never clear the gap floors; the
        # evenly spaced fallback does
        sd = lq.spectral_decompose(lq.random_density(8, 64, seed=7))
        assert sd.rank == 64
        assert len(sd.blocks) == 64 and all(len(b) == 1 for b in sd.blocks)

    @pytest.mark.parametrize(
        "n,rank,profile,seed,digest",
        [
            (2, 4, None, 2, "b5e3f7d6a6f1c594d91028fbcde356177abbe4b306b5694ee28193824032314b"),
            (3, 5, None, 9, "6a6e40889ea6ce80a6122149d5d95b19f57df88dd4efd188d4d82f734d4f92bc"),
            (2, 4, [2, 2], 2, "7cad6f69cf15079c0bd80a59cf7cd6bc5358fb66970500dd9f49240da9447a65"),
            (3, 9, [3, 3, 2, 1], 11,
             "3f88532616811acd8cfede2e48786f7491ea86bf722eb0577b5ea2e7a8f40fdc"),
            (4, 16, None, 3, "d560f64c109fa110942781144397afcec1bbb94250d29e6566ba45bba50eee93"),
        ],
    )
    def test_dirichlet_draws_unchanged(self, n, rank, profile, seed, digest):
        # SHA-256 of the matrix bytes as drawn before the fallback existed
        # (numpy 2.4, x86-64): a draw that succeeds stays bit-identical
        m = lq.random_density(n, rank, degeneracy_profile=profile, seed=seed).matrix
        assert hashlib.sha256(m.tobytes()).hexdigest() == digest


class TestMatrixExponential:
    def test_against_scipy(self):
        rng = np.random.default_rng(31)
        for scale in (0.1, 1.0, 10.0):
            h = random_hermitian(rng, 3)
            h *= scale / np.linalg.norm(h)
            got = exp_i_hermitian(h)
            want = expm(1j * h)
            assert np.linalg.norm(got - want) <= 1e-10
            assert np.linalg.norm(got @ got.conj().T - np.eye(3)) <= 1e-12


class TestOracle:
    def test_same_state_converges_at_identity(self):
        rho = lq.random_density(2, 3, seed=41)
        res = lq.brute_force_oracle(rho, rho, restarts=3, iters=100, seed=0)
        assert res.converged
        assert res.best_distance <= 1e-10
        assert res.restarts_used == 1

    def test_orbit_pair_converges(self):
        rho, rho2, _, _ = orbit_pair(2, 3, seed=42)
        res = lq.brute_force_oracle(rho, rho2, restarts=20, iters=2000, seed=5)
        assert res.converged
        assert res.best_distance <= 1e-6
        u1, u2 = res.best_pair
        assert np.linalg.norm(u1 @ u1.conj().T - np.eye(2)) <= 1e-8

    def test_separated_pair_stays_far(self, diag_half_pair):
        res = lq.brute_force_oracle(*diag_half_pair, restarts=6, iters=500, seed=6)
        assert not res.converged
        assert res.best_distance > 0.1

    def test_determinism(self):
        rho = lq.random_density(2, 2, seed=43)
        other = lq.random_density(2, 2, seed=44)
        a = lq.brute_force_oracle(rho, other, restarts=3, iters=200, seed=7)
        b = lq.brute_force_oracle(rho, other, restarts=3, iters=200, seed=7)
        assert a.best_distance == b.best_distance
        np.testing.assert_array_equal(a.best_pair[0], b.best_pair[0])


def run_python(code):
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)


class TestLazyScipy:
    """scipy serves the oracle alone, so importing luequiv must not load it."""

    def test_import_loads_no_scipy(self):
        res = run_python(
            "import sys, luequiv, luequiv.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"

    def test_oracle_imports_scipy_when_called(self):
        res = run_python(
            "import sys, luequiv as lq\n"
            "rho = lq.random_density(2, 3, seed=2)\n"
            "r = lq.brute_force_oracle(rho, rho, restarts=1, iters=100)\n"
            "print(r.converged, 'scipy.optimize' in sys.modules)"
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == ["True", "True"]
