"""Dense complex matrix kernel: eigendecomposition, the unitary polar factor
and null spaces.

All functions are pure, operate on plain ``numpy`` complex arrays, and are
deterministic given identical input bits (LAPACK drivers, no randomized
pivoting).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .config import EPS_HERM
from .errors import ConvergenceFailure, DimensionMismatch, NotHermitian


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def frob(m: np.ndarray) -> float:
    """Frobenius norm from the dot products ``np.linalg.norm`` takes of the
    flat array, without its dispatch: for float64, complex128 and integer
    arrays, ``float(np.linalg.norm(m))`` bit for bit."""
    x = np.asarray(m).ravel("K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    if x.dtype.kind != "f":
        x = x.astype(float)
    return math.sqrt(x.dot(x))


def ensure_matrix(m) -> np.ndarray:
    """Coerce to a square complex array with finite real and imaginary parts
    (``np.isfinite`` of a complex number is false if either part is not)."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    return a


class HermitianEig(NamedTuple):
    eigenvalues: np.ndarray   # real, descending
    eigenvectors: np.ndarray  # unitary, columns match eigenvalues


def hermitian_eigendecompose(m) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending."""
    a = ensure_matrix(m)
    dev = frob(a - dagger(a))
    if dev > EPS_HERM * max(1.0, frob(a)):
        raise NotHermitian(f"||M - M^dagger||_F = {dev:.3e} exceeds tolerance")
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare LAPACK failure
        raise ConvergenceFailure(str(exc)) from exc
    order = np.argsort(-w, kind="stable")
    return HermitianEig(w[order], v[:, order])


def polar_decompose(m: np.ndarray) -> np.ndarray:
    """Unitary factor u of the polar decomposition M = u P, P Hermitian PSD.

    From the SVD M = W diag(s) V^dagger, u = W V^dagger.  For a singular M
    the unitary factor is not unique, and W V^dagger is one of many; the
    SVD fixes it deterministically.  A stack (..., N, N) takes one SVD call
    and gives the stack of factors, each the bits its matrix gets alone.
    """
    try:
        w, _, vh = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare LAPACK failure
        raise ConvergenceFailure(str(exc)) from exc
    return w @ vh


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
        return self.vectors[np.count_nonzero(self.singulars > cutoff):]


def nullspace(mat: np.ndarray) -> NullSpace:
    """Approximate null space of ``mat``, read off at any cutoff by ``basis``.
    A stack (..., rows, cols) takes one SVD call; ``zip(*null)`` splits it."""
    a = np.asarray(mat, dtype=complex)
    *stack, rows, cols = a.shape
    if 9 * rows >= 17 * cols and rows * cols >= 1024:
        # R-SVD (Chan 1982): a = QR, and the square R has a's singular values
        # and right factor, so the rows x cols left factor is never formed.
        # zgesdd takes this route itself from rows >= 17 cols / 9, so the
        # bits are those of the direct SVD; below 1024 entries the QR call
        # costs more than the left factor it saves.  qr copies its whole
        # input, so a stack goes one system at a time.
        a = np.array([np.linalg.qr(m, mode="r") for m in a]) if stack else np.linalg.qr(a, mode="r")
    # Only the right factor is read.  A wide system needs the full right
    # basis, whose left factor is then rows x rows.
    _, s, vh = np.linalg.svd(a, full_matrices=rows < cols)
    if rows < cols:
        s = np.concatenate([s, np.zeros((*stack, cols - rows))], axis=-1)
    vecs, noise = vh.conj(), s[..., :1] <= 1e-12  # the whole system is rounding noise
    if noise.any():
        vecs[noise[..., 0]], s[noise[..., 0]] = np.eye(cols), 0.0
    return NullSpace(vecs, s)
