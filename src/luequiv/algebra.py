"""Matrix algebras spanned by word products of coefficient matrices.

The left algebra is generated by the products A_i A_j^dagger, the right
algebra by A_i^dagger A_j.  A deterministic breadth-first closure admits a
product as a new basis element exactly when its component orthogonal to
the current span (under the sesquilinear form Tr(s t^dagger)) is larger
than a relative threshold, so the admitted word list is canonical and two
states with equal word-trace invariants admit the same words.  The Gram
matrix uses the bilinear form Tr(s t), which stays nonsingular on a true
basis; duals and structure constants follow from its inverse.

Basis elements are the orthonormalization (sesquilinear form, admission
order) of the admitted word products.  The Gram-Schmidt coefficients are
functions of word-trace inner products, which are themselves invariants,
so two states with equal invariants still get element-for-element
corresponding bases; and because the algebra is closed under conjugate
transposition, the bilinear Gram of a sesquilinearly orthonormal basis is
a unitary matrix, keeping its determinant at modulus one instead of
shrinking multiplicatively with the dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import EPS_DET, EPS_INDEP, EPS_SPAN
from .errors import GramSingular, NotInSpan
from .invariants import Word
from .linalg import frob
from .states import SpectralDecomposition

_ZERO_FLOOR = 1e-12


@dataclass
class AlgebraBasis:
    """Canonical word basis of the left or right algebra of one state."""

    side: str
    dim_local: int
    words: tuple[Word, ...]
    elements: tuple[np.ndarray, ...]
    gram: np.ndarray
    gram_inverse: np.ndarray
    duals: tuple[np.ndarray, ...]
    structure: np.ndarray  # structure[i, j, k] = Tr(e_i e_j dual_k)

    @property
    def dim(self) -> int:
        return len(self.elements)


def generator_matrices(sd: SpectralDecomposition, side: str) -> tuple[list[Word], np.ndarray]:
    """Length-one word generators in lexicographic (i, j) order, as an (r^2, N, N) stack."""
    a = np.asarray(sd.coeff_matrices)
    ah = a.conj().transpose(0, 2, 1)
    mats = a[:, None] @ ah[None] if side == "L" else ah[:, None] @ a[None]
    r, n = sd.rank, sd.dim_local
    words = [Word(side, ((i + 1, j + 1),)) for i in range(r) for j in range(r)]
    return words, mats.reshape(r * r, n, n)


class _Screen:
    """Incremental orthonormal frame, one row per admitted element."""

    def __init__(self, size: int):
        self.frame = np.empty((size, size), dtype=complex)
        self.count = 0

    @property
    def full(self) -> bool:
        return self.count == len(self.frame)

    def admit(self, v: np.ndarray) -> bool:
        """Append the orthonormalized component of ``v`` outside the span, if any."""
        norm = float(np.linalg.norm(v))
        if norm <= _ZERO_FLOOR:
            return False
        q = self.frame[: self.count]
        r = v
        for _ in range(2):  # re-orthogonalize for stability
            r = r - (q.conj() @ r) @ q
        res = float(np.linalg.norm(r))
        if res <= EPS_INDEP * norm:
            return False
        self.frame[self.count] = r / res
        self.count += 1
        return True


def _closure(words: list[Word], gens: np.ndarray) -> tuple[list[Word], np.ndarray]:
    """Breadth-first closure; stops once the frame spans all N x N matrices."""
    n = gens.shape[-1]
    screen = _Screen(n * n)
    admitted: list[Word] = []
    for w, m in zip(words, gens):
        if screen.full:
            break
        if screen.admit(m.reshape(-1)):
            admitted.append(w)
    norms = np.linalg.norm(gens.reshape(len(gens), -1), axis=1)
    live = norms > _ZERO_FLOOR
    units = gens[live] / norms[live, None, None]
    unit_letters = [w.letters for w, keep in zip(words, live) if keep]
    i = 0
    while i < screen.count and not screen.full:
        for letters, prod in zip(unit_letters, screen.frame[i].reshape(n, n) @ units):
            if screen.admit(prod.reshape(-1)):
                admitted.append(Word(admitted[i].side, admitted[i].letters + letters))
                if screen.full:
                    break
        i += 1
    return admitted, screen.frame[: screen.count].reshape(-1, n, n)


def _finish_basis(
    side: str,
    dim_local: int,
    words: list[Word],
    elements: np.ndarray | list[np.ndarray],
) -> AlgebraBasis:
    e = np.asarray(elements, dtype=complex)
    gram = np.tensordot(e, e, axes=([1, 2], [2, 1]))  # Tr(e_i e_j)
    det = complex(np.linalg.det(gram))
    if abs(det) <= EPS_DET:
        raise GramSingular(f"|det Gram| = {abs(det):.3e} is below the floor")
    gram_inv = np.linalg.inv(gram)
    duals = np.tensordot(gram_inv, e, axes=1)
    structure = np.tensordot(e[:, None] @ e[None], duals, axes=([2, 3], [2, 1]))
    return AlgebraBasis(
        side=side,
        dim_local=dim_local,
        words=tuple(words),
        elements=tuple(e),
        gram=gram,
        gram_inverse=gram_inv,
        duals=tuple(duals),
        structure=structure,
    )


def build_algebra(sd: SpectralDecomposition, side: str) -> AlgebraBasis:
    """Breadth-first closure of the word algebra with a canonical basis."""
    if side not in ("L", "R"):
        raise ValueError("side must be 'L' or 'R'")
    words, elements = _closure(*generator_matrices(sd, side))
    return _finish_basis(side, sd.dim_local, words, elements)


def gram_det(basis: AlgebraBasis) -> float:
    """|det| of the bilinear Gram matrix."""
    return float(abs(np.linalg.det(basis.gram)))


def express_in_basis(basis: AlgebraBasis, x: np.ndarray) -> np.ndarray:
    """Coefficients of x in the basis via the dual elements."""
    coeffs = np.tensordot(np.asarray(basis.duals), x, axes=([1, 2], [1, 0]))  # Tr(x d_k)
    recon = np.tensordot(coeffs, np.asarray(basis.elements), axes=1)
    if frob(x - recon) > EPS_SPAN * max(1.0, frob(x)):
        raise NotInSpan(f"residual {frob(x - recon):.3e} exceeds the span tolerance")
    return coeffs
