"""Seeded generators and a brute-force optimization oracle.

The oracle attacks the definition of local-unitary equivalence directly,
minimizing the Frobenius distance between the second state and a conjugate
of the first over the product unitary group.  It is a falsifiable test
instrument for cross-validating the decider, not part of the shipped
decision path: failure to converge is evidence, not proof, of
inequivalence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import EPS_ORACLE
from .errors import InvalidProfile
from .linalg import dagger
from .states import DensityMatrix, validate_density


def _rng_of(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def haar_unitary(n: int, seed) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Ginibre matrix with the
    R-diagonal phases folded into Q."""
    rng = _rng_of(seed)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r).copy()
    ph = np.ones(n, dtype=complex)
    nz = np.abs(d) > 0
    ph[nz] = d[nz] / np.abs(d[nz])
    return q * ph


def random_density(
    n: int,
    rank: int,
    degeneracy_profile: list[int] | None = None,
    seed=0,
) -> DensityMatrix:
    """Random density matrix with prescribed rank and degeneracy blocks.

    Eigenvalue blocks get Dirichlet weights spread uniformly inside each
    block, resampled until the distinct levels are well separated, so the
    spectral decomposition recovers exactly the requested structure.  After
    1000 failed draws one draw of jittered, evenly spaced levels is used.
    Eigenvectors are columns of a Haar unitary on the product space.
    """
    nn = n * n
    if not (1 <= rank <= nn):
        raise InvalidProfile(f"rank must lie in 1..{nn}")
    profile = list(degeneracy_profile) if degeneracy_profile is not None else [1] * rank
    if any(m < 1 for m in profile) or sum(profile) != rank:
        raise InvalidProfile(f"profile {profile} does not sum to rank {rank}")
    rng = _rng_of(seed)
    gap_floor = 1e-4
    blocks = len(profile)
    for attempt in range(1001):
        if attempt < 1000:
            weights = rng.dirichlet(np.ones(blocks))
        else:
            # With dozens of blocks (N=8 at full rank) Dirichlet(1) levels
            # almost never clear both floors.  Shuffled, evenly spaced levels
            # over a floor of blocks/8, jittered by U[0, 0.5), clear them up
            # to 64 blocks.  Drawn last, so every earlier success is kept.
            spaced = blocks / 8 + rng.permutation(blocks) + rng.uniform(0, 0.5, blocks)
            weights = spaced * np.asarray(profile) / np.dot(spaced, profile)
        lams = np.sort(np.concatenate(
            [np.full(m, w / m) for w, m in zip(weights, profile)]
        ))[::-1]
        levels = np.unique(lams)[::-1]
        if lams[-1] < 10 * gap_floor:
            continue
        if len(levels) != len(profile):
            continue  # two blocks collided; draw again
        if len(levels) > 1 and float(np.min(-np.diff(levels))) < gap_floor:
            continue
        break
    else:  # pragma: no cover - overwhelmingly unlikely
        raise InvalidProfile("could not sample a well-separated spectrum")
    basis = haar_unitary(nn, rng)[:, :rank]
    rho = (basis * lams) @ dagger(basis)
    rho = (rho + dagger(rho)) / 2
    return validate_density(rho, n)


def exp_i_hermitian(h: np.ndarray) -> np.ndarray:
    """exp(iH) for Hermitian H via eigendecomposition (machine accurate)."""
    w, v = np.linalg.eigh((h + dagger(h)) / 2)
    return (v * np.exp(1j * w)) @ dagger(v)


def _hermitian_from_params(p: np.ndarray, n: int) -> np.ndarray:
    h = np.zeros((n, n), dtype=complex)
    h[np.diag_indices(n)] = p[:n]
    idx = n
    for a in range(n):
        for b in range(a + 1, n):
            h[a, b] = p[idx] + 1j * p[idx + 1]
            h[b, a] = p[idx] - 1j * p[idx + 1]
            idx += 2
    return h


@dataclass
class OracleResult:
    best_distance: float
    best_pair: tuple[np.ndarray, np.ndarray]
    restarts_used: int
    converged: bool


def brute_force_oracle(
    rho: DensityMatrix,
    rho2: DensityMatrix,
    restarts: int = 20,
    iters: int = 2000,
    seed: int = 0,
) -> OracleResult:
    """Minimize ||rho2 - (e^{iH1} (x) e^{iH2}) rho (.)^dag||_F^2 over
    Hermitian generators with random restarts; restart 0 starts at the
    identity, and restarts stop early once the threshold is reached.
    scipy is imported here, not at module level: the oracle is its only
    user, and importing it costs every process about 0.4 s and 45 MB."""
    from scipy import optimize

    n = rho.dim_local
    nn = n * n
    m2 = rho2.matrix

    def cost(p: np.ndarray) -> float:
        u1 = exp_i_hermitian(_hermitian_from_params(p[:nn], n))
        u2 = exp_i_hermitian(_hermitian_from_params(p[nn:], n))
        v = np.kron(u1, u2)
        diff = m2 - v @ rho.matrix @ dagger(v)
        return float(np.real(np.vdot(diff, diff)))

    rng = _rng_of(seed)
    best = np.inf
    best_p = np.zeros(2 * nn)
    used = 0
    for k in range(max(1, restarts)):
        x0 = np.zeros(2 * nn) if k == 0 else rng.standard_normal(2 * nn)
        res = optimize.minimize(
            cost,
            x0,
            method="L-BFGS-B",
            options={"maxiter": iters, "ftol": 1e-18, "gtol": 1e-12},
        )
        used = k + 1
        if res.fun < best:
            best = float(res.fun)
            best_p = np.array(res.x)
        if np.sqrt(max(best, 0.0)) <= EPS_ORACLE:
            break
    u1 = exp_i_hermitian(_hermitian_from_params(best_p[:nn], n))
    u2 = exp_i_hermitian(_hermitian_from_params(best_p[nn:], n))
    dist = float(np.sqrt(max(best, 0.0)))
    return OracleResult(
        best_distance=dist,
        best_pair=(u1, u2),
        restarts_used=used,
        converged=dist <= EPS_ORACLE,
    )
