"""Equivalence decision pipeline with explicit certificates.

``decide`` compares two density matrices in stages: power traces first,
then the phase-robust invariant signature, and finally an attempted
reconstruction of local unitaries (u, w) such that conjugating the first
state by u^dagger (x) (w*)^dagger yields the second.  Any claimed
equivalence is backed by a direct Frobenius-norm residual, which is
insensitive to every gauge freedom of the spectral decompositions, so a
returned certificate is its own proof.

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
generator equations among the singleton eigenvectors, block-sum
equations for each degeneracy block, and the linking equations.  When
every block is a singleton it is the whole per-index system.  Only when a
block is degenerate and the first system fails is the per-index system
over all eigenvectors tried; it relies on both eigensolvers picking
matching bases inside each block, which is what certifies a state
against itself when no eigenvalue is a singleton.  If both fail, the
verdict is an explicit Inconclusive rather than a guess.
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


def _word_net(word: Word) -> dict[int, int]:
    net: dict[int, int] = {}
    sign = 1 if word.side == "L" else -1
    for i, j in word.letters:
        net[i] = net.get(i, 0) + sign
        net[j] = net.get(j, 0) - sign
        for k in {i, j}:
            if net.get(k) == 0:
                del net[k]
    return net


def _connector_candidates(i: int, j: int, singles: Sequence[int]):
    """Short words whose net phase weight is theta_i - theta_j (1-based)."""
    yield Word("L", ((i, j),))
    yield Word("R", ((j, i),))
    for k in singles:
        yield Word("L", ((i, k), (k, j)))
        yield Word("L", ((i, j), (k, k)))
        yield Word("R", ((k, i), (j, k)))
    for k in singles:
        for l in singles:
            yield Word("L", ((i, k), (k, l), (l, j)))


def _find_connectors(
    sd: SpectralDecomposition, singles: Sequence[int]
) -> dict[tuple[int, int], tuple[Word, complex]]:
    """For each singleton pair, a word trace that pins the relative phase."""
    out: dict[tuple[int, int], tuple[Word, complex]] = {}
    ones = [p + 1 for p in singles]
    for a in range(len(ones)):
        for b in range(a + 1, len(ones)):
            i, j = ones[a], ones[b]
            best: tuple[Word, complex] | None = None
            for cand in _connector_candidates(i, j, ones):
                val = word_trace(sd, cand)
                if abs(val) > _CONNECTOR_FLOOR:
                    if best is None or abs(val) > abs(best[1]):
                        best = (cand, val)
                    if abs(val) > 1e-2:
                        break
            if best is not None:
                out[(singles[a], singles[b])] = best
    return out


def _align_phases(
    sd1: SpectralDecomposition,
    sd2: SpectralDecomposition,
    singles: Sequence[int],
    tol: Tolerances,
) -> tuple[list[np.ndarray], dict]:
    """Rephase sd2's singleton eigenvectors so word traces match sd1's.

    Connector words are measured on both states; the phase of the ratio is
    the relative gauge, propagated over a spanning forest of the connector
    graph.  Components never linked by a nonzero connector are invariant-
    decoupled and keep their arbitrary phase.
    """
    coeffs = [np.array(a) for a in sd2.coeff_matrices]
    info: dict = {"edges": 0, "magnitude_mismatch": False}
    if len(singles) < 2:
        return coeffs, info
    connectors = _find_connectors(sd1, singles)
    if not connectors:
        return coeffs, info
    adj: dict[int, list[tuple[int, int, int]]] = {p: [] for p in singles}
    for (p, q), _ in connectors.items():
        adj[p].append((q, p, q))
        adj[q].append((p, p, q))
    psi = {p: None for p in singles}
    for root in singles:
        if psi[root] is not None:
            continue
        psi[root] = 0.0
        queue = [root]
        while queue:
            cur = queue.pop(0)
            for nxt, p, q in adj[cur]:
                if psi[nxt] is not None:
                    continue
                word, t1 = connectors[(p, q)]
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
    indices = range(sd1.rank) if mode == "full" else sorted(singles)
    for i in indices:
        for j in indices:
            rows.append(_pair_rows(a1[i] @ dagger(a1[j]), coeffs2[i] @ dagger(coeffs2[j]), n, 0))
            rows.append(_pair_rows(dagger(a1[i]) @ a1[j], dagger(coeffs2[i]) @ coeffs2[j], n, 1))
    if mode != "full":
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
    certificate and every NotEquivalent verdict a named invariant witness."""
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
        shallow = min(3, cap)
        sig1 = fingerprint_from_decomposition(sd1, js1, tol, blocks=blocks, tau_cap=shallow)
        sig2 = fingerprint_from_decomposition(sd2, js2, tol, blocks=blocks, tau_cap=shallow)
        mismatch = compare_signatures(sig1, sig2, tol.eps_inv)
        if mismatch is not None:
            return _witness_verdict(mismatch)
        certificate, details = _attempt_certificate(rho1, rho2, sd1, sd2, blocks, tol)
        if certificate is not None:
            return EquivalenceVerdict(
                outcome=EQUIVALENT, certificate=certificate,
                reason="certificate", details=details,
            )
        if cap > shallow:
            sig1 = fingerprint_from_decomposition(sd1, js1, tol, blocks=blocks, tau_cap=cap)
            sig2 = fingerprint_from_decomposition(sd2, js2, tol, blocks=blocks, tau_cap=cap)
            mismatch = compare_signatures(sig1, sig2, tol.eps_inv)
            if mismatch is not None:
                return _witness_verdict(mismatch)
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
