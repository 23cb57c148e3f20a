"""Equivalence decision pipeline with explicit certificates.

``decide`` compares two density matrices in stages, cheapest first:
power traces, the invariant signature up to word length 2, an attempted
reconstruction of local unitaries (u, w) such that conjugating the first
state by u^dagger (x) (w*)^dagger yields the second, and, only when that
fails, the signature at length 3 and then at the full word-length cap.
Any claimed equivalence is backed by a direct Frobenius-norm residual,
which is insensitive to every gauge freedom of the spectral
decompositions, so a returned certificate is its own proof and needs no
further invariant.  The longer words (O(r^3) of length 3 for r
singleton eigenvectors) serve only to name a witness for a pair that no
certificate maps onto each other.  The O(r^2) words of length at most 2
cost less than the 2 r N^2 x 2 N^2 certificate system, so they still
come first and reject most inequivalent pairs before any system is built.

Certificate search.  Eigendecompositions fix eigenvectors only up to a
phase (and up to remixing inside degeneracy blocks), while the word-level
intertwiner equations are phase sensitive.  The pipeline therefore first
aligns the second state's eigenvector phases against the first using
connector words (short words whose trace pins one relative phase), then
solves a homogeneous linear system for a pair (X, Y): X intertwines the
left word generators, Y the right ones, and the linking equations
A_i Y = X A'_i and A_i^dagger X = Y A'_i^dagger couple the two sides so
that the unitary polar parts of X and Y form a consistent certificate.
Solving for the sides independently would leave them coupled only through
luck whenever the generator family has a nontrivial commutant (any pure
state, for example).

Up to two systems are tried, each with one SVD.  Its null space is
searched at eps_null, and again at eps_null * retry_relax only when the
looser cutoff admits more directions.  The first system is remix-robust:
block-sum equations for each degeneracy block and the linking equations
of every singleton eigenvector.  When every block is a singleton it is
the whole per-index system.  Only when a block is degenerate and the
first system fails is the per-index system tried: the generator
equations A_i A_j^dagger X = X A'_i A'_j^dagger and
A_i^dagger A_j Y = Y A'_i^dagger A'_j for every index pair that touches
a degenerate block, plus the same linking equations.  It relies on both
eigensolvers picking matching bases inside each block, which is what
certifies a state against itself when no eigenvalue is a singleton.  If
both fail, the verdict is an explicit Inconclusive rather than a guess.

Neither system holds the generator equations of two singletons i and j,
because the linking equations imply them.  With the linking residuals
E = A_i Y - X A'_i and F = A_j^dagger X - Y A'_j^dagger,

    A_i A_j^dagger X - X A'_i A'_j^dagger = A_i F + E A'_j^dagger,
    A_i^dagger A_j Y - Y A'_i^dagger A'_j
        = A_i^dagger (A_j Y - X A'_j) + (A_i^dagger X - Y A'_i^dagger) A'_j,

so those rows lie in the row span of the linking rows and leave the null
space unchanged; only the relative SVD cutoff sees a different largest
singular value.  A nondegenerate rank-r pair thus solves 2 r N^2
equations in 2 N^2 unknowns instead of 2 r^2 N^2 + 2 r N^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import DimensionMismatch, LuequivError, NotUnitary
from .invariants import (
    Word,
    compare_signatures,
    fingerprint_from_decomposition,
    power_traces,
    values_close,
    word_trace,
)
from .linalg import dagger, ensure_matrix, frob, kron, nullspace, polar_decompose
from .states import DensityMatrix, SpectralDecomposition, spectral_decompose

EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not_equivalent"
INCONCLUSIVE = "inconclusive"

_CONNECTOR_FLOOR = 1e-6


@dataclass(frozen=True)
class Witness:
    """A named invariant whose values differ between the two states."""

    kind: str
    key: str
    value_a: complex
    value_b: complex


@dataclass(frozen=True)
class Certificate:
    """Local unitaries mapping state A onto state B, with the residual."""

    u: np.ndarray
    w: np.ndarray
    residual: float


@dataclass
class EquivalenceVerdict:
    outcome: str
    certificate: Certificate | None = None
    witness: Witness | None = None
    reason: str = ""
    details: dict = field(default_factory=dict)


def certify(
    rho: DensityMatrix,
    rho2: DensityMatrix,
    u: np.ndarray,
    w: np.ndarray,
    tol: Tolerances = DEFAULT_TOL,
) -> float:
    """Residual ||rho2 - (u^dag (x) (w*)^dag) rho (u (x) w*)||_F.

    This check is gauge-free: per-eigenvector phases and intra-block
    remixing cancel at the density-matrix level, so it is the final arbiter
    for every claimed certificate.
    """
    n = rho.dim_local
    if rho2.dim_local != n:
        raise DimensionMismatch("states live on different local dimensions")
    for name, m in (("u", u), ("w", w)):
        m = ensure_matrix(m, square=True)
        if m.shape[0] != n:
            raise DimensionMismatch(f"{name} must be {n}x{n}")
        if frob(m @ dagger(m) - np.eye(n)) > DEFAULT_TOL.eps_unitary * max(1.0, frob(m)):
            raise NotUnitary(f"{name} is not unitary within tolerance")
    v = kron(dagger(np.asarray(u)), np.asarray(w).T)  # u^dagger (x) (w*)^dagger
    return frob(rho2.matrix - v @ rho.matrix @ dagger(v))


def _nonsingular(m: np.ndarray, eps_det: float) -> bool:
    s = np.linalg.svd(m, compute_uv=False)
    return s[0] > 0 and s[-1] > eps_det * max(1.0, s[0])


# ---------------------------------------------------------------------------
# gauge alignment


def _connector_candidates(i: int, j: int, singles: Sequence[int]):
    """Short words whose net phase weight is theta_i - theta_j (1-based).

    The one-letter words L((i,j)) and R((j,i)) are left out: their trace
    is the inner product of two orthonormal eigenvectors, always 0.  So is
    R((k,i),(j,k)), whose trace equals that of L((i,j),(k,k)) by
    cyclicity.
    """
    for k in singles:
        yield Word("L", ((i, k), (k, j)))
        yield Word("L", ((i, j), (k, k)))
    for k in singles:
        for l in singles:
            yield Word("L", ((i, k), (k, l), (l, j)))


def _connector(
    sd: SpectralDecomposition, p: int, q: int, ones: Sequence[int]
) -> tuple[Word, complex] | None:
    """A word whose trace on sd pins theta_p - theta_q (0-based, p < q)."""
    best: tuple[Word, complex] | None = None
    for cand in _connector_candidates(p + 1, q + 1, ones):
        val = word_trace(sd, cand)
        if abs(val) > _CONNECTOR_FLOOR:
            if best is None or abs(val) > abs(best[1]):
                best = (cand, val)
            if abs(val) > 1e-2:
                break
    return best


def _align_phases(
    sd1: SpectralDecomposition,
    sd2: SpectralDecomposition,
    singles: Sequence[int],
    tol: Tolerances,
) -> tuple[list[np.ndarray], dict]:
    """Rephase sd2's singleton eigenvectors so word traces match sd1's.

    Connector words are measured on both states; the phase of the ratio is
    the relative gauge, propagated over a spanning forest of the connector
    graph.  The forest is grown breadth first, visiting singletons in
    ascending order, and a pair's connector is searched on sd1 only when
    the walk reaches the pair with one end still unlinked: s - 1 searches
    when the first singleton links to every other one.  Components never
    linked by a nonzero connector are invariant-decoupled and keep their
    arbitrary phase.
    """
    coeffs = [np.array(a) for a in sd2.coeff_matrices]
    info: dict = {"edges": 0, "magnitude_mismatch": False}
    ones = [p + 1 for p in singles]
    psi: dict[int, float] = {}
    for root in singles:
        if root in psi:
            continue
        psi[root] = 0.0
        queue = [root]
        while queue:
            cur = queue.pop(0)
            for nxt in singles:
                if nxt in psi:
                    continue
                p, q = min(cur, nxt), max(cur, nxt)
                connector = _connector(sd1, p, q, ones)
                if connector is None:
                    continue
                word, t1 = connector
                t2 = word_trace(sd2, word)
                if not values_close(abs(t1), abs(t2), 10 * tol.eps_inv):
                    info["magnitude_mismatch"] = True
                if abs(t2) <= _CONNECTOR_FLOOR:
                    continue  # connector dark on sd2; leave phase free
                delta = math.atan2((t2 / t1).imag, (t2 / t1).real)
                # net weight of the connector is theta_p - theta_q
                psi[nxt] = psi[cur] + delta if nxt == q else psi[cur] - delta
                info["edges"] += 1
                queue.append(nxt)
    for p in singles:
        if psi[p]:
            coeffs[p] = np.exp(1j * psi[p]) * coeffs[p]
    return coeffs, info


# ---------------------------------------------------------------------------
# coupled certificate search


def _pair_rows(p: np.ndarray, q: np.ndarray, n: int, slot: int) -> np.ndarray:
    """Rows for P Z - Z Q = 0 acting on slot 0 (X) or 1 (Y) of (X, Y)."""
    eye = np.eye(n, dtype=complex)
    block = np.kron(p, eye) - np.kron(eye, q.T)
    zero = np.zeros_like(block)
    return np.hstack([block, zero] if slot == 0 else [zero, block])


def _coupling_rows(a1: np.ndarray, a2: np.ndarray, n: int) -> list[np.ndarray]:
    """Linking equations A1 Y = X A2 and A1^dag X = Y A2^dag."""
    eye = np.eye(n, dtype=complex)
    row1 = np.hstack([-np.kron(eye, a2.T), np.kron(a1, eye)])
    row2 = np.hstack([np.kron(dagger(a1), eye), -np.kron(eye, a2.conj())])
    return [row1, row2]


def _certificate_system(
    sd1: SpectralDecomposition,
    coeffs2: list[np.ndarray],
    blocks: tuple[tuple[int, ...], ...],
    mode: str,
) -> np.ndarray:
    n = sd1.dim_local
    singles = set(b[0] for b in blocks if len(b) == 1)
    a1 = sd1.coeff_matrices
    rows: list[np.ndarray] = []
    if mode == "full":
        for i in range(sd1.rank):
            for j in range(sd1.rank):
                if i in singles and j in singles:
                    continue  # implied by the coupling rows of i and j
                rows.append(_pair_rows(a1[i] @ dagger(a1[j]), coeffs2[i] @ dagger(coeffs2[j]), n, 0))
                rows.append(_pair_rows(dagger(a1[i]) @ a1[j], dagger(coeffs2[i]) @ coeffs2[j], n, 1))
    else:
        for block in blocks:
            if len(block) == 1:
                continue
            h1 = sum(a1[p] @ dagger(a1[p]) for p in block)
            h2 = sum(coeffs2[p] @ dagger(coeffs2[p]) for p in block)
            k1 = sum(dagger(a1[p]) @ a1[p] for p in block)
            k2 = sum(dagger(coeffs2[p]) @ coeffs2[p] for p in block)
            rows.append(_pair_rows(h1, h2, n, 0))
            rows.append(_pair_rows(k1, k2, n, 1))
    for i in sorted(singles):
        rows.extend(_coupling_rows(a1[i], coeffs2[i], n))
    return np.vstack(rows)


def _search_pair(
    rho1: DensityMatrix,
    rho2: DensityMatrix,
    vecs: np.ndarray,
    tol: Tolerances,
) -> Certificate | None:
    """First null-space element whose polar parts certify.

    The basis rows are tried first, then seeded random combinations.  In a
    one-dimensional space every combination is a multiple of the basis
    vector, and ``certify`` does not see the common phase, so the draws
    only run from two dimensions up.
    """
    n = rho1.dim_local
    nn = n * n
    k = vecs.shape[0]
    candidates = list(vecs)
    if k >= 2:
        rng = np.random.default_rng(tol.search_seed)
        for _ in range(tol.null_space_draws):
            coeff = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            candidates.append(coeff @ vecs)
    for cand in candidates:
        x = cand[:nn].reshape(n, n)
        y = cand[nn:].reshape(n, n)
        nx, ny = frob(x), frob(y)
        if nx < 1e-9 or ny < 1e-9:
            continue
        x, y = x / nx, y / ny
        if not (_nonsingular(x, tol.eps_det) and _nonsingular(y, tol.eps_det)):
            continue
        u = polar_decompose(x).unitary_part
        w = polar_decompose(y).unitary_part
        residual = certify(rho1, rho2, u, w, tol)
        if residual <= tol.eps_cert:
            return Certificate(u, w, residual)
    return None


def _attempt_certificate(
    rho1: DensityMatrix,
    rho2: DensityMatrix,
    sd1: SpectralDecomposition,
    sd2: SpectralDecomposition,
    blocks: tuple[tuple[int, ...], ...],
    tol: Tolerances,
) -> tuple[Certificate | None, dict]:
    singles = [b[0] for b in blocks if len(b) == 1]
    coeffs2, align_info = _align_phases(sd1, sd2, singles, tol)
    details: dict = {"alignment": align_info, "attempts": []}
    # with every block a singleton, "safe" already is the per-index system
    modes = ("safe", "full") if len(singles) < len(blocks) else ("safe",)
    for mode in modes:
        null = nullspace(_certificate_system(sd1, coeffs2, blocks, mode))
        searched = 0
        for eps in (tol.eps_null, tol.eps_null * tol.retry_relax):
            vecs = null.basis(eps)
            if vecs.shape[0] == 0:
                # borderline alignment noise: try the least-violated direction
                vecs = null.vectors[-1:]
            if vecs.shape[0] <= searched:
                continue  # the relaxed basis is the one just searched
            searched = vecs.shape[0]
            cert = _search_pair(rho1, rho2, vecs, tol)
            details["attempts"].append(
                {"mode": mode, "eps_null": eps, "null_dim": searched,
                 "success": cert is not None}
            )
            if cert is not None:
                return cert, details
    return None, details


# ---------------------------------------------------------------------------
# the decision pipeline


def _joint_blocks(
    sd1: SpectralDecomposition, sd2: SpectralDecomposition
) -> tuple[tuple[int, ...], ...]:
    """Common coarsening of both block structures (indices pair by position):
    a block boundary survives only where both decompositions have one."""
    starts = sorted({b[0] for b in sd1.blocks} & {b[0] for b in sd2.blocks})
    ends = starts[1:] + [sd1.rank]
    return tuple(tuple(range(a, b)) for a, b in zip(starts, ends))


def _witness_verdict(mismatch: tuple[str, str, complex, complex]) -> EquivalenceVerdict:
    kind, key, va, vb = mismatch
    if kind == "structure":
        return EquivalenceVerdict(
            outcome=INCONCLUSIVE, reason="spectrum-structure-mismatch",
            details={"key": key},
        )
    return EquivalenceVerdict(
        outcome=NOT_EQUIVALENT,
        witness=Witness(kind, key, va, vb),
        reason=f"{kind}-mismatch",
    )


def decide(
    rho1: DensityMatrix, rho2: DensityMatrix, tol: Tolerances = DEFAULT_TOL
) -> EquivalenceVerdict:
    """Full decision pipeline; every Equivalent verdict carries a verified
    certificate and every NotEquivalent verdict a named invariant witness.

    Stages run cheapest first: power traces, the signature up to word
    length 2, one certificate attempt, then the signature at length 3 and
    at ``tol.effective_tau_cap``.  A pair that agrees through length 2 and
    certifies is equivalent whatever its longer words; the longer words are
    evaluated only to find a witness once the certificate has failed.
    """
    if rho1.dim_local != rho2.dim_local:
        raise DimensionMismatch("states live on different local dimensions")
    nn = rho1.dim_local ** 2
    js1, js2 = power_traces(rho1), power_traces(rho2)
    for s in range(1, nn + 1):
        if not values_close(js1[s - 1], js2[s - 1], tol.eps_inv):
            return EquivalenceVerdict(
                outcome=NOT_EQUIVALENT,
                witness=Witness("power_trace", f"J^{s}", complex(js1[s - 1]), complex(js2[s - 1])),
                reason="power_trace-mismatch",
            )
    try:
        sd1 = spectral_decompose(rho1, tol)
        sd2 = spectral_decompose(rho2, tol)
        if sd1.rank != sd2.rank:
            return EquivalenceVerdict(
                outcome=INCONCLUSIVE, reason="spectrum-structure-mismatch",
                details={"ranks": [sd1.rank, sd2.rank]},
            )
        blocks = _joint_blocks(sd1, sd2)
        cap = tol.effective_tau_cap(rho1.dim_local)
        for rung, tau in enumerate(sorted({min(2, cap), min(3, cap), cap})):
            sig1 = fingerprint_from_decomposition(sd1, js1, tol, blocks=blocks, tau_cap=tau)
            sig2 = fingerprint_from_decomposition(sd2, js2, tol, blocks=blocks, tau_cap=tau)
            mismatch = compare_signatures(sig1, sig2, tol.eps_inv)
            if mismatch is not None:
                return _witness_verdict(mismatch)
            if rung == 0:
                certificate, details = _attempt_certificate(rho1, rho2, sd1, sd2, blocks, tol)
                if certificate is not None:
                    return EquivalenceVerdict(
                        outcome=EQUIVALENT, certificate=certificate,
                        reason="certificate", details=details,
                    )
    except DimensionMismatch:
        raise
    except LuequivError as exc:
        return EquivalenceVerdict(
            outcome=INCONCLUSIVE, reason="numerical", details={"error": str(exc)}
        )
    reason = (
        "degenerate-no-certificate"
        if any(len(b) > 1 for b in blocks)
        else "numerical"
    )
    return EquivalenceVerdict(outcome=INCONCLUSIVE, reason=reason, details=details)
