"""Density-matrix validation, spectral decomposition into coefficient
matrices, degeneracy blocks, and local unitary action.

Basis convention: the product basis |kl> of H (x) H is ordered row-major
with the first factor as the slow index, so the N^2-component eigenvector
v reshapes to the N x N coefficient matrix A with A[k, l] = v[k * N + l].
Eigenvector phases are left exactly as the eigensolver returns them; all
phase handling is owned by the decision pipeline.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, EPS_HERM, EPS_PSD, EPS_RANK, EPS_TRACE, EPS_UNITARY, Tolerances
from .errors import (
    DimensionMismatch,
    NotHermitian,
    NotPositiveSemidefinite,
    NotUnitary,
    NotUnitTrace,
)
from .linalg import dagger, ensure_matrix, frob, hermitian_eigendecompose


def _readonly(a: np.ndarray, dtype=complex) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class DensityMatrix:
    """A validated N^2 x N^2 density matrix on H (x) H."""

    dim_local: int
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.dim_local * self.dim_local

    @functools.cached_property
    def spectrum(self) -> np.ndarray:
        """All N^2 eigenvalues, ascending (``eigvalsh``), computed once;
        read-only, like ``matrix``."""
        lams = np.linalg.eigvalsh(self.matrix)
        lams.flags.writeable = False
        return lams


@dataclass(frozen=True)
class SpectralDecomposition:
    """Positive part of the spectrum of a density matrix.

    ``eigenvalues`` are descending and strictly above the rank cutoff;
    ``coeff_matrices[i]`` is the N x N reshape of the i-th eigenvector;
    ``blocks`` partitions 0..rank-1 into maximal degeneracy blocks
    (0-based positions, consecutive by construction).
    """

    dim_local: int
    eigenvalues: np.ndarray
    coeff_matrices: tuple[np.ndarray, ...]
    blocks: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.coeff_matrices)


def validate_density(matrix, n: int) -> DensityMatrix:
    """Check Hermiticity, unit trace and positivity; never repairs input."""
    m = ensure_matrix(matrix)
    if n < 1 or m.shape[0] != n * n:
        raise DimensionMismatch(
            f"matrix is {m.shape[0]}x{m.shape[0]}, expected {n * n}x{n * n} for N={n}"
        )
    if frob(m - dagger(m)) > EPS_HERM * max(1.0, frob(m)):
        raise NotHermitian("density matrix is not Hermitian within tolerance")
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > EPS_TRACE:
        raise NotUnitTrace(f"trace is {tr.real:.12g}{tr.imag:+.3g}j, expected 1")
    rho = DensityMatrix(n, _readonly(m))
    lo = float(rho.spectrum[0])
    if lo < -EPS_PSD:
        raise NotPositiveSemidefinite(f"smallest eigenvalue {lo:.3e} is negative")
    return rho


def _degeneracy_blocks(lams: np.ndarray, n: int, eps_deg: float) -> tuple[tuple[int, ...], ...]:
    # Transitive chaining on the descending spectrum: consecutive eigenvalues
    # closer than the gap threshold land in the same block.
    if len(lams) == 0:
        return ()
    vals = lams.tolist()
    gap = eps_deg * max(vals[0], 1.0 / (n * n))
    blocks, current = [], [0]
    for i in range(1, len(vals)):
        if vals[i - 1] - vals[i] <= gap:
            current.append(i)
        else:
            blocks.append(tuple(current))
            current = [i]
    blocks.append(tuple(current))
    return tuple(blocks)


def spectral_decompose(rho: DensityMatrix, tol: Tolerances = DEFAULT_TOL) -> SpectralDecomposition:
    """Eigendecompose a density matrix and reshape eigenvectors to A_i."""
    n = rho.dim_local
    eig = hermitian_eigendecompose(rho.matrix)
    # eigenvalues descend, so the kept ones are a prefix; one read-only copy
    # of their eigenvector rows, and each A_i is an (N, N) view of it
    rank = np.count_nonzero(eig.eigenvalues > EPS_RANK)
    lams, vecs = eig.eigenvalues[:rank], eig.eigenvectors[:, :rank].T.copy()
    lams.flags.writeable = vecs.flags.writeable = False
    coeffs = tuple(vecs.reshape(-1, n, n))
    return SpectralDecomposition(n, lams, coeffs, _degeneracy_blocks(lams, n, tol.eps_deg))


def density_from_decomposition(sd: SpectralDecomposition) -> DensityMatrix:
    """Reassemble sum_i lambda_i |v_i><v_i| from coefficient matrices."""
    n = sd.dim_local
    out = np.zeros((n * n, n * n), dtype=complex)
    for lam, a in zip(sd.eigenvalues, sd.coeff_matrices):
        v = a.reshape(-1)
        out += lam * np.outer(v, v.conj())
    return DensityMatrix(n, _readonly(out))


def decomposition_from_coeffs(
    dim_local: int,
    eigenvalues,
    coeffs,
    tol: Tolerances = DEFAULT_TOL,
) -> SpectralDecomposition:
    """Build a decomposition directly from eigenvalues and A_i matrices."""
    lams = np.asarray(eigenvalues, dtype=float)
    mats = tuple(_readonly(ensure_matrix(a)) for a in coeffs)
    if len(mats) != len(lams):
        raise DimensionMismatch("one coefficient matrix per eigenvalue required")
    if any(m.shape[0] != dim_local for m in mats):
        raise DimensionMismatch("coefficient matrices must be N x N")
    if np.any(np.diff(lams) > 0):
        raise ValueError("eigenvalues must be sorted descending")
    for m in mats:
        if abs(frob(m) - 1.0) > 1e-6:
            raise ValueError("coefficient matrices must have unit Frobenius norm")
    return SpectralDecomposition(
        dim_local, _readonly(lams, float), mats, _degeneracy_blocks(lams, dim_local, tol.eps_deg)
    )


def _check_unitary(u: np.ndarray, n: int, name: str) -> np.ndarray:
    m = ensure_matrix(u)
    if m.shape[0] != n:
        raise DimensionMismatch(f"{name} must be {n}x{n}")
    dev = m @ dagger(m)
    dev.ravel()[:: n + 1] -= 1  # m m^dagger - 1, entry for entry
    if frob(dev) > EPS_UNITARY * max(1.0, frob(m)):
        raise NotUnitary(f"{name} is not unitary within tolerance")
    return m


def apply_local_unitary(rho: DensityMatrix, u1, u2) -> DensityMatrix:
    """Conjugate by U1 (x) U2 and re-validate the result."""
    n = rho.dim_local
    m1 = _check_unitary(u1, n, "U1")
    m2 = _check_unitary(u2, n, "U2")
    v = np.kron(m1, m2)
    return validate_density(v @ rho.matrix @ dagger(v), n)


def transform_decomposition(sd: SpectralDecomposition, u1, u2) -> SpectralDecomposition:
    """Push a decomposition through U1 (x) U2 at the coefficient level.

    The image coefficients are exactly U1 A_i U2^T, with no re-diagonalization
    and hence no phase or intra-block remixing noise.
    """
    m1 = ensure_matrix(u1)
    m2 = ensure_matrix(u2)
    coeffs = tuple(_readonly(m1 @ a @ m2.T) for a in sd.coeff_matrices)
    return SpectralDecomposition(sd.dim_local, sd.eigenvalues, coeffs, sd.blocks)


def remix_block(sd: SpectralDecomposition, block: tuple[int, ...], u) -> SpectralDecomposition:
    """Remix the eigenvectors of one degeneracy block by a unitary."""
    m = ensure_matrix(u)
    if m.shape[0] != len(block):
        raise DimensionMismatch("remix unitary must match the block size")
    coeffs = list(sd.coeff_matrices)
    old = [sd.coeff_matrices[p] for p in block]
    for r, p in enumerate(block):
        coeffs[p] = _readonly(sum(m[r, s] * old[s] for s in range(len(block))))
    return SpectralDecomposition(sd.dim_local, sd.eigenvalues, tuple(coeffs), sd.blocks)
