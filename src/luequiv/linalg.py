"""Dense complex matrix kernel: eigendecomposition, SVD, polar form,
Kronecker products, partial traces and null spaces.

All functions are pure, operate on plain ``numpy`` complex arrays, and are
deterministic given identical input bits (LAPACK drivers, no randomized
pivoting).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import DEFAULT_TOL
from .errors import ConvergenceFailure, DimensionMismatch, NotHermitian


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def frob(m: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(m))


def ensure_matrix(m, square: bool = False) -> np.ndarray:
    """Coerce to a finite 2-D complex array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionMismatch(f"expected a 2-D matrix, got shape {a.shape}")
    if square and a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValueError("matrix contains non-finite entries")
    return a


class HermitianEig(NamedTuple):
    eigenvalues: np.ndarray   # real, descending
    eigenvectors: np.ndarray  # unitary, columns match eigenvalues


class SVDResult(NamedTuple):
    left: np.ndarray
    singulars: np.ndarray     # nonnegative, descending
    right: np.ndarray         # M = left @ diag(singulars) @ right^dagger


class PolarResult(NamedTuple):
    unitary_part: np.ndarray
    positive_part: np.ndarray  # Hermitian PSD, M = unitary_part @ positive_part


def hermitian_eigendecompose(m, eps_herm: float = DEFAULT_TOL.eps_herm) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending."""
    a = ensure_matrix(m, square=True)
    if frob(a - dagger(a)) > eps_herm * max(1.0, frob(a)):
        raise NotHermitian(
            f"||M - M^dagger||_F = {frob(a - dagger(a)):.3e} exceeds tolerance"
        )
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare LAPACK failure
        raise ConvergenceFailure(str(exc)) from exc
    order = np.argsort(-w, kind="stable")
    return HermitianEig(w[order], v[:, order])


def svd(m) -> SVDResult:
    """Singular value decomposition, singular values descending."""
    a = ensure_matrix(m)
    try:
        u, s, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceFailure(str(exc)) from exc
    return SVDResult(u, s, dagger(vh))


def polar_decompose(m) -> PolarResult:
    """Polar decomposition M = u P with u unitary and P Hermitian PSD.

    Computed from the SVD: u = left @ right^dagger, P = right diag(s) right^dagger.
    """
    a = ensure_matrix(m, square=True)
    res = svd(a)
    unitary = res.left @ dagger(res.right)
    positive = res.right @ np.diag(res.singulars) @ dagger(res.right)
    return PolarResult(unitary, positive)


def kron(a, b) -> np.ndarray:
    """Kronecker product with the first factor as the slow index."""
    return np.kron(ensure_matrix(a), ensure_matrix(b))


def partial_trace(m, which: str, n: int) -> np.ndarray:
    """Trace out one tensor factor of a matrix on H (x) H.

    ``which`` names the subsystem that is traced out: ``"second"`` keeps the
    first factor, ``"first"`` keeps the second.
    """
    a = ensure_matrix(m, square=True)
    if a.shape[0] != n * n:
        raise DimensionMismatch(f"expected a {n * n}x{n * n} matrix, got {a.shape}")
    if which not in ("first", "second"):
        raise ValueError("which must be 'first' or 'second'")
    r = a.reshape(n, n, n, n)  # indices (k, l, k', l'), row-major |kl>
    if which == "second":
        return np.einsum("abcb->ac", r)
    return np.einsum("abac->bc", r)


class NullSpace(NamedTuple):
    """All right singular vectors of a system, from one SVD.

    ``vectors`` holds them as conjugated rows in SVD order, so the last row
    is the least-violated direction; ``singulars`` holds the matching
    singular values, descending (zeros for directions the rows never
    reach).
    """

    vectors: np.ndarray
    singulars: np.ndarray

    def basis(self, eps_null: float, scale: float | None = None) -> np.ndarray:
        """Orthonormal rows with singular value at most ``eps_null`` times
        ``scale`` (default: the largest singular value); shape (k, cols),
        k = 0 when only zero solves it."""
        cutoff = eps_null * (self.singulars[0] if scale is None else scale)
        return self.vectors[int(np.sum(self.singulars > cutoff)):]


def nullspace(mat: np.ndarray) -> NullSpace:
    """Approximate null space of ``mat``, read off at any cutoff by ``basis``."""
    a = np.asarray(mat, dtype=complex)
    cols = a.shape[1]
    if a.size == 0:
        return NullSpace(np.eye(cols, dtype=complex), np.zeros(cols))
    # Thin SVD: the left factor is never larger than the system.  A wide
    # system needs the full right basis, whose left factor is then rows x rows.
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < cols)
    if s[0] <= 1e-12:  # the whole system is rounding noise
        return NullSpace(np.eye(cols, dtype=complex), np.zeros(cols))
    return NullSpace(vh.conj(), np.concatenate([s, np.zeros(cols - len(s))]))
