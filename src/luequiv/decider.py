"""Equivalence decision pipeline with explicit certificates.

``decide`` compares two density matrices in stages, cheapest first:
power traces, a Gram test of the block operators H_b and K_b (below), an
attempted reconstruction of local unitaries (u, w) such that conjugating
the first state by u^dagger (x) (w*)^dagger yields the second, and, only
when that fails, the invariant signature at word length 2, 3 and then at
the full word-length cap.  Any claimed equivalence is backed by a direct
Frobenius-norm residual, which is insensitive to every gauge freedom of
the spectral decompositions, so a returned certificate is its own proof
and needs no further invariant.  The words serve only to name a witness
for a pair that no certificate maps onto each other.

The Gram test compares Tr(P_b P_c) for every pair of blocks and both
families (P = H or K) within ``eps_inv``, absolute.  Every value of the
signature up to word length 2 is one of these traces or |b| (Makhlin,
Quantum Inf. Process. 1, 2002): L:(i,i)(j,j) and R:(i,j)(j,i) are
Tr(H_i H_j), L:(i,j)(j,i) and R:(i,i)(j,j) are Tr(K_i K_j), and a block's
length-2 sums are Tr(H_b^2) and Tr(K_b^2).  So the test rejects most
inequivalent pairs before any system is built, at the cost of operators
the certificate search needs anyway.  When the test fails, or the
certificate does, the rungs run from word length 2 as if the test did
not exist (the certificate is tried after length 2 only if it has not
been tried), so every witness and every ``inconclusive`` comes from the
signature.  A witness, or an ``inconclusive`` after every rung agreed,
counts only when no certificate exists at the coarse block structure
either, which chains eigenvalues a relative gap of sqrt(eps_deg) apart:
just above eps_deg, eigh leaves rounding noise in their words larger
than eps_inv, and in their eigenvectors more than the certificate
systems tolerate.

Certificate search.  Eigendecompositions fix eigenvectors only up to a
phase, and up to remixing inside degeneracy blocks.  Under
rho2 = (U1 (x) U2) rho1 (U1 (x) U2)^dagger the coefficient matrices move
as A'_i = U1 A_i U2^T up to those gauges, so the block sums

    H_b = sum_{p in b} A_p A_p^dagger,    K_b = sum_{p in b} A_p^dagger A_p

are gauge-free covariant local operators: H'_b = U1 H_b U1^dagger and
K'_b = conj(U2) K_b U2^T.  The search looks for a pair (X, Y) whose
unitary polar parts (u, w) pass ``certify``; (U1^dagger, U2^T) is one.
No candidate is screened first: the SVD gives a unitary polar factor of
every matrix, singular or not, so each candidate costs one SVD call on
the stack of X and Y (one more to split a vector of a product system of
more than one column) and one ``certify``; the residual alone decides.

1. Identity.  u = w = 1 is tried first, with the residual
   ||rho2 - rho1||_F, which is ``certify``'s value at u = w = 1 bit for
   bit (products with exact ones and zeros are exact).  It certifies a
   state against itself whatever its degeneracies.
2. Product system.  S_A = {X : H_b X = X H'_b for every block b} and
   S_B = {Y : K_b Y = Y K'_b} come from one eigendecomposition of a
   weighted sum of each family and one SVD on the entries it leaves free
   (``_intertwiners``).  Then rho1 T = T rho2 is solved for
   T = sum_ab c_ab X_a (x) conj(Y_b) over the bases of S_A and S_B, and
   each candidate c is split into (X, Y) by the top singular pair of its
   dim S_A x dim S_B reshape.  Nothing here depends on phases or bases.
   When dim S_A = dim S_B = 1 (every nondegenerate orbit pair) the system
   is one column: its singular value is ||rho1 T - T rho2||_F for
   T = X (x) conj(Y), so that norm takes the SVD's place, and the one
   candidate is (X, Y) itself, which the SVDs would give bit for bit.
3. Coupled system.  The linking equations A_i Y = X A'_i and
   A_i^dagger X = Y A'_i^dagger of every singleton eigenvector i, after
   ``_align_phases`` has rephased the second state's singletons with
   connector words (short words whose trace pins one relative phase).
   They tie X to Y, which the product system does only through
   rho1 T = T rho2.  When the rows are inconsistent (phases a connector
   could not pin) the least-violated direction of the same SVD is still
   tried; the residual decides.

The product system comes before the coupled one, except with exactly one
singleton and a product space of more than one dimension (pure and
isotropic states): one singleton needs no alignment, and its coupled
system is far smaller.  Each system gets one SVD (the one-column
product system a norm) and one search through ``_search_pair``; if none
certifies, the verdict is an explicit Inconclusive rather than a guess.

The coupled system holds no generator equations of two singletons i and
j, because the linking equations imply them.  With the linking residuals
E = A_i Y - X A'_i and F = A_j^dagger X - Y A'_j^dagger,

    A_i A_j^dagger X - X A'_i A'_j^dagger = A_i F + E A'_j^dagger,
    A_i^dagger A_j Y - Y A'_i^dagger A'_j
        = A_i^dagger (A_j Y - X A'_j) + (A_i^dagger X - Y A'_i^dagger) A'_j,

so those rows lie in the row span of the linking rows and leave the null
space unchanged.  A nondegenerate rank-r pair thus solves 2 r N^2
equations in 2 N^2 unknowns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .config import DEFAULT_TOL, EPS_NULL, Tolerances
from .errors import DimensionMismatch, LuequivError
from .invariants import (
    Word,
    compare_signatures,
    fingerprint_from_decomposition,
    power_trace_mismatch,
    power_traces,
    values_close,
    word_trace,
)
from .linalg import NullSpace, dagger, frob, nullspace, polar_decompose
from .states import (
    DensityMatrix,
    SpectralDecomposition,
    _check_unitary,
    _degeneracy_blocks,
    spectral_decompose,
)

EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not_equivalent"
INCONCLUSIVE = "inconclusive"

_CONNECTOR_FLOOR = 1e-6
_SEARCH_SEED = 1789  # seed of the one random combination a search tries


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


def certify(rho: DensityMatrix, rho2: DensityMatrix, u: np.ndarray, w: np.ndarray) -> float:
    """Residual ||rho2 - (u^dag (x) (w*)^dag) rho (u (x) w*)||_F.

    This check is gauge-free: per-eigenvector phases and intra-block
    remixing cancel at the density-matrix level, so it is the final arbiter
    for every claimed certificate.
    """
    n = rho.dim_local
    if rho2.dim_local != n:
        raise DimensionMismatch("states live on different local dimensions")
    u = _check_unitary(u, n, "u")
    w = _check_unitary(w, n, "w")
    # u^dagger (x) (w*)^dagger: the products np.kron forms, without its overhead
    v = (dagger(u)[:, None, :, None] * w.T[None, :, None, :]).reshape(n * n, n * n)
    return frob(rho2.matrix - v @ rho.matrix @ dagger(v))


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
# certificate search


def _block_operators(
    sd1: SpectralDecomposition, sd2: SpectralDecomposition, blocks
) -> np.ndarray:
    """H_b = sum_{p in b} A_p A_p^dag and K_b = sum_{p in b} A_p^dag A_p of
    both states, shape (side, state, block, N, N), side 0 for H and 1 for K.

    One stacked product over x = [A; A^dag] of both states, then one sum
    over the blocks, which are consecutive runs of indices.
    """
    a = np.array((sd1.coeff_matrices, sd2.coeff_matrices))
    x = np.array((a, a.conj().swapaxes(-1, -2)))
    return np.add.reduceat(x @ x.conj().swapaxes(-1, -2), [b[0] for b in blocks], axis=2)


def _gram_agrees(ops: np.ndarray, eps_inv: float) -> bool:
    """Whether Tr(P_b P_c) agrees within ``eps_inv`` (absolute) between the
    states for every pair of blocks and both sides.

    These traces hold the signature up to word length 2 (module
    docstring); its length-1 words and sums are Tr(H_b) = |b| for every
    state.  The absolute bound is at least as strict as ``values_close``.
    """
    flat = ops.reshape(*ops.shape[:3], -1)
    # G[b, c] = sum_k P_b[k] conj(P_c[k]) = Tr(P_b P_c^dag), and P_c is Hermitian
    gram = flat @ flat.conj().swapaxes(-1, -2)
    return bool(abs(gram[:, 0] - gram[:, 1]).max() <= eps_inv)


def _intertwiners(ops: np.ndarray, levels: np.ndarray) -> list[np.ndarray]:
    """Orthonormal bases (vec rows) of {Z : P_b Z = Z Q_b for every b} for
    both sides of ``ops`` (``_block_operators``); ``levels`` holds each
    block's eigenvalue.

    Z also intertwines C = sum c_b P_b and C' = sum c_b Q_b (Murota, Kanno,
    Kojima and Kojima, Japan J. Indust. Appl. Math. 27, 2010), so in their
    eigenbases W = V^dag Z V' vanishes off the eigenvalue pairs that match
    within sqrt(EPS_NULL) sum |c_b| times the families' norm (coarse: it
    only adds unknowns).  c_b = cos(0.3 + 2.5 level / top level), monotone
    and smooth: blocks a small gap apart, which eigh mixes, weigh nearly
    alike, so unlike random weights they cancel the mixing in C.  The SVD
    cutoff is relative to the families' norm too, so scalar families leave
    every Z free.  Sides with as many unknowns share one SVD call.
    """
    sides, _, nb, n, _ = ops.shape
    c, flat = np.cos(levels * (2.5 / levels[0]) + 0.3), ops.reshape(sides, 2, nb, -1)
    lams, v = np.linalg.eigh((c @ flat).reshape(sides, 2, n, n))
    # each block's Frobenius norm as np.linalg.norm(flat, axis=-1) forms it
    scales = np.sqrt((flat.conj() * flat).real.sum(axis=-1)).sum(axis=1).max(axis=-1)
    tols = math.sqrt(EPS_NULL) * abs(c).sum() * scales[:, None, None]
    side, i, j = np.nonzero(abs(lams[:, 0, :, None] - lams[:, 1, None]) <= tols)
    vt, m = v.swapaxes(-1, -2), np.arange(len(side))
    rot = vt.conj()[:, :, None] @ ops @ v[:, :, None]
    # unknown W_ij: column i of V^dag P V in W's column j, less row j of V'^dag Q V' in row i
    rows = np.zeros((len(side), nb, n, n), dtype=complex)
    rows.swapaxes(2, 3)[m, :, j] = rot[side, 0, :, :, i]
    rows[m, :, i] -= rot[side, 1, :, j]
    spans = (vt[side, 0, i, :, None] * vt[side, 1, j, None].conj()).reshape(-1, n * n)
    split = np.count_nonzero(side == 0)
    if 2 * split == len(side):
        nulls = zip(*nullspace(rows.reshape(sides, split, nb * n * n).swapaxes(1, 2)))
    else:
        nulls = [nullspace(r.reshape(len(r), nb * n * n).T) for r in (rows[:split], rows[split:])]
    parts = zip(nulls, scales, (spans[:split], spans[split:]))
    return [NullSpace(*null).basis(EPS_NULL, scale) @ span for null, scale, span in parts]


def _product_system(rho1: DensityMatrix, rho2: DensityMatrix, xs, ys) -> np.ndarray:
    """rho1 T - T rho2 for T = X_a (x) conj(Y_b): one column per (a, b), a-major."""
    n = rho1.dim_local
    r1, r2 = (r.matrix.reshape(n, n, n, n) for r in (rho1, rho2))
    x, y = xs.reshape(-1, n, n), ys.conj().reshape(-1, n, n)
    # sum_jl r1[i,k,j,l] x[a,j,m] y[b,l,n] and sum_jl x[a,i,j] y[b,k,l] r2[j,l,m,n]
    left = np.tensordot(np.tensordot(r1, x, axes=([2], [1])), y, axes=([2], [1]))
    right = np.tensordot(np.tensordot(x, r2, axes=([2], [0])), y, axes=([2], [2]))
    out = left.transpose(0, 1, 3, 5, 2, 4) - right.transpose(1, 5, 2, 3, 0, 4)
    return out.reshape(n ** 4, -1)


def _coupling_rows(a1: np.ndarray, a2: np.ndarray, n: int) -> list[np.ndarray]:
    """Linking equations A1 Y = X A2 and A1^dag X = Y A2^dag."""
    eye = np.eye(n, dtype=complex)
    row1 = np.hstack([-np.kron(eye, a2.T), np.kron(a1, eye)])
    row2 = np.hstack([np.kron(dagger(a1), eye), -np.kron(eye, a2.conj())])
    return [row1, row2]


def _certificate_system(sd1: SpectralDecomposition, coeffs2: list, singles) -> np.ndarray:
    """The coupled system in (X, Y): the linking equations of every singleton."""
    a1, n = sd1.coeff_matrices, sd1.dim_local
    return np.vstack([r for i in singles for r in _coupling_rows(a1[i], coeffs2[i], n)])


def _search_pair(
    rho1: DensityMatrix,
    rho2: DensityMatrix,
    vecs: np.ndarray,
    tol: Tolerances,
    split,
) -> Certificate | None:
    """First null-space element whose polar parts certify.

    ``split`` turns a null-space vector into the pair (X, Y).  The basis
    rows are tried first, then one seeded random combination of them.  In
    a one-dimensional space every combination is a multiple of the basis
    vector, and ``certify`` does not see the common phase, so the draw is
    made only from two dimensions up.  No candidate is screened: each
    costs one SVD call for the polar factors of X and Y, stacked, and one
    ``certify`` call, which alone decides, so a space of dimension k costs
    at most k + 1 of each.
    """
    k = vecs.shape[0]

    def candidates():
        yield from vecs
        if k >= 2:  # drawn only once every basis row has failed
            rng = np.random.default_rng(_SEARCH_SEED)
            yield (rng.standard_normal(k) + 1j * rng.standard_normal(k)) @ vecs

    for cand in candidates():
        u, w = polar_decompose(np.array(split(cand)))
        residual = certify(rho1, rho2, u, w)
        if residual <= tol.eps_cert:
            # own copies: views would keep the stack alive, one more array per kept certificate
            return Certificate(u.copy(), w.copy(), residual)
    return None


def _attempt_certificate(
    rho1: DensityMatrix,
    rho2: DensityMatrix,
    sd1: SpectralDecomposition,
    sd2: SpectralDecomposition,
    blocks: tuple[tuple[int, ...], ...],
    ops: np.ndarray,
    tol: Tolerances,
) -> tuple[Certificate | None, dict]:
    """Identity, product and coupled attempts; ``ops`` is
    ``_block_operators(sd1, sd2, blocks)``."""
    n = rho1.dim_local
    nn = n * n
    residual = frob(rho2.matrix - rho1.matrix)  # certify(rho1, rho2, eye, eye)
    details: dict = {"attempts": [{"mode": "identity", "success": residual <= tol.eps_cert}]}
    if residual <= tol.eps_cert:
        eye = np.eye(n, dtype=complex)
        return Certificate(eye, eye, residual), details
    xs, ys = _intertwiners(ops, sd1.eigenvalues[[b[0] for b in blocks]])
    da, db = len(xs), len(ys)
    singles = [b[0] for b in blocks if len(b) == 1]

    def product():
        # as for the families: a system of rounding noise leaves every T free
        scale = frob(rho1.matrix) + frob(rho2.matrix)
        if da == db == 1:
            # one candidate, T = X (x) conj(Y): the system is one column, whose
            # singular value is ||rho1 T - T rho2||_F (the max keeps
            # nullspace's 1e-12 noise floor), and its null vector is exactly
            # 1, which the split would turn into X and Y unchanged
            x, y = xs.reshape(n, n), ys.reshape(n, n)
            t = (x[:, None, :, None] * y.conj()[None, :, None, :]).reshape(nn, nn)
            norm = frob(rho1.matrix @ t - t @ rho2.matrix)
            vecs = np.ones((int(norm <= max(EPS_NULL * scale, 1e-12)), 1))
            return vecs, lambda c: (x, y)
        vecs = nullspace(_product_system(rho1, rho2, xs, ys)).basis(EPS_NULL, scale)

        def split(c):
            p, _, qh = np.linalg.svd(c.reshape(da, db))
            return (p[:, 0] @ xs).reshape(n, n), (qh[0].conj() @ ys).reshape(n, n)

        return vecs, split

    def coupled():
        coeffs2, details["alignment"] = _align_phases(sd1, sd2, singles, tol)
        null = nullspace(_certificate_system(sd1, coeffs2, singles))
        vecs = null.basis(EPS_NULL)
        if vecs.shape[0] == 0:
            # inconsistent rows (phases left free): try the least-violated direction
            vecs = null.vectors[-1:]
        return vecs, lambda c: (c[:nn].reshape(n, n), c[nn:].reshape(n, n))

    stages = [("product", product)] if da and db else []
    if len(singles) == 1 and da * db > 1:
        # one singleton needs no phase alignment, and its coupled system is
        # far smaller than a product system with freedom
        stages.insert(0, ("coupled", coupled))
    elif singles:
        stages.append(("coupled", coupled))
    for mode, build in stages:
        vecs, split = build()
        cert = _search_pair(rho1, rho2, vecs, tol, split)
        details["attempts"].append(
            {"mode": mode, "null_dim": vecs.shape[0], "success": cert is not None}
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
    if sd1.blocks == sd2.blocks:
        return sd1.blocks
    starts = sorted({b[0] for b in sd1.blocks} & {b[0] for b in sd2.blocks})
    ends = starts[1:] + [sd1.rank]
    return tuple(tuple(range(a, b)) for a, b in zip(starts, ends))


def _coarse_verdict(
    rho1: DensityMatrix,
    rho2: DensityMatrix,
    sd1: SpectralDecomposition,
    sd2: SpectralDecomposition,
    blocks: tuple[tuple[int, ...], ...],
    tol: Tolerances,
) -> EquivalenceVerdict | None:
    """An equivalent verdict certified at the coarse block structure, or None.

    eigh pins the eigenvectors of two eigenvalues a relative gap g apart
    only to about eps / g, so just above ``eps_deg`` their words move by
    rounding noise larger than ``eps_inv``.  The coarse blocks re-chain
    both spectra at a relative gap of sqrt(eps_deg); a cluster's block sums
    stay well conditioned even when its members' eigenvectors are not.
    """
    gap = math.sqrt(tol.eps_deg)
    coarse = _joint_blocks(*(
        replace(sd, blocks=_degeneracy_blocks(sd.eigenvalues, sd.dim_local, gap))
        for sd in (sd1, sd2)
    ))
    if coarse == blocks:
        return None
    ops = _block_operators(sd1, sd2, coarse)
    certificate, details = _attempt_certificate(rho1, rho2, sd1, sd2, coarse, ops, tol)
    if certificate is None:
        return None
    details["coarse_blocks"] = [list(b) for b in coarse]
    return _certified(certificate, details)


def _certified(certificate: Certificate, details: dict) -> EquivalenceVerdict:
    return EquivalenceVerdict(
        outcome=EQUIVALENT, certificate=certificate, reason="certificate", details=details
    )


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

    Stages run cheapest first: power traces, the Gram test of the block
    operators (``_gram_agrees``), which holds the signature up to word
    length 2, one certificate attempt, then the signature at length 2, 3
    and ``tol.effective_tau_cap``.  A pair that passes the test and
    certifies is equivalent whatever its words; the words are evaluated
    only to find a witness once the test or the certificate has failed, and
    a certificate not yet tried is tried after length 2, as the only
    attempt.  Before a witness or a final ``inconclusive`` is returned, the
    pair is tried once more at the coarse block structure
    (``_coarse_verdict``).
    """
    if rho1.dim_local != rho2.dim_local:
        raise DimensionMismatch("states live on different local dimensions")
    js1, js2 = power_traces(rho1), power_traces(rho2)
    mismatch = power_trace_mismatch(js1, js2, tol.eps_inv)
    if mismatch is not None:
        return _witness_verdict(mismatch)
    try:
        sd1 = spectral_decompose(rho1, tol)
        sd2 = spectral_decompose(rho2, tol)
        if sd1.rank != sd2.rank:
            return EquivalenceVerdict(
                outcome=INCONCLUSIVE, reason="spectrum-structure-mismatch",
                details={"ranks": [sd1.rank, sd2.rank]},
            )
        blocks = _joint_blocks(sd1, sd2)
        ops = _block_operators(sd1, sd2, blocks)
        details = None  # the certificate attempt's, once it is made
        if _gram_agrees(ops, tol.eps_inv):
            certificate, details = _attempt_certificate(rho1, rho2, sd1, sd2, blocks, ops, tol)
            if certificate is not None:
                return _certified(certificate, details)
        cap = tol.effective_tau_cap(rho1.dim_local)
        for rung, tau in enumerate(sorted({min(2, cap), min(3, cap), cap})):
            rung_tol = tol.replace(tau_cap=tau)
            sig1 = fingerprint_from_decomposition(sd1, js1, rung_tol, blocks=blocks)
            sig2 = fingerprint_from_decomposition(sd2, js2, rung_tol, blocks=blocks)
            mismatch = compare_signatures(sig1, sig2, tol.eps_inv)
            if mismatch is not None:
                break
            if rung == 0 and details is None:
                certificate, details = _attempt_certificate(
                    rho1, rho2, sd1, sd2, blocks, ops, tol
                )
                if certificate is not None:
                    return _certified(certificate, details)
        coarse = _coarse_verdict(rho1, rho2, sd1, sd2, blocks, tol)
        if coarse is not None:
            return coarse
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
