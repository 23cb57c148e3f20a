"""Shared builders for the test suite."""

from __future__ import annotations

import re

import numpy as np
import pytest

import luequiv as lq
import luequiv.decider as decider
from luequiv.invariants import Word, cycle_type_representatives
from luequiv.states import decomposition_from_coeffs


def unit(i: int, j: int, n: int = 2) -> np.ndarray:
    """Matrix unit E_ij (0-based)."""
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (z + z.conj().T) / 2


def bell_density() -> lq.DensityMatrix:
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return lq.validate_density(np.outer(v, v.conj()), 2)


def weyl_bell_diagonal(n: int, weights) -> lq.DensityMatrix:
    """sum_ab p_ab |Phi_ab><Phi_ab| with |Phi_ab> = (X^a Z^b (x) 1)|Phi>, the
    Weyl-Heisenberg Bell basis of C^n (x) C^n; weights in (a, b) order."""
    x = np.roll(np.eye(n), 1, axis=0)
    z = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
    phi = np.eye(n).reshape(-1) / np.sqrt(n)
    m = np.zeros((n * n, n * n), dtype=complex)
    for (a, b), p in zip(np.ndindex(n, n), weights):
        v = np.kron(np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b), np.eye(n)) @ phi
        m += p * np.outer(v, v.conj())
    return lq.validate_density(m, n)


def werner(n: int, p: float) -> lq.DensityMatrix:
    """p P_anti / d_anti + (1 - p) P_sym / d_sym, with P = (1 -+ SWAP) / 2."""
    swap = np.eye(n * n)[[j * n + i for i in range(n) for j in range(n)]]
    sym, anti = (np.eye(n * n) + swap) / 2, (np.eye(n * n) - swap) / 2
    return lq.validate_density(p * anti / (n * (n - 1) / 2) + (1 - p) * sym / (n * (n + 1) / 2), n)


@pytest.fixture
def diag_half_pair():
    """Rank-2 diagonal states with equal spectra but different block sums.

    The first is diag(1/2, 1/2, 0, 0) in the product basis, the second
    diag(1/2, 0, 1/2, 0); they are not locally equivalent although every
    power trace matches.
    """
    a = lq.validate_density(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex), 2)
    b = lq.validate_density(np.diag([0.5, 0.0, 0.5, 0.0]).astype(complex), 2)
    return a, b


@pytest.fixture
def diag_half_decompositions():
    """Hand-built decompositions of the pair above: A_1 = E11, A_2 = E12
    for the first state and A'_2 = E21 for the second."""
    sd_a = decomposition_from_coeffs(2, [0.5, 0.5], [unit(0, 0), unit(0, 1)])
    sd_b = decomposition_from_coeffs(2, [0.5, 0.5], [unit(0, 0), unit(1, 0)])
    return sd_a, sd_b


def orbit_pair(n: int, rank: int, seed: int, profile=None):
    """A seeded random state and its image under seeded local unitaries."""
    rho = lq.random_density(n, rank, degeneracy_profile=profile, seed=seed)
    rng = np.random.default_rng(seed + 10_000)
    u1 = lq.haar_unitary(n, rng)
    u2 = lq.haar_unitary(n, rng)
    return rho, lq.apply_local_unitary(rho, u1, u2), u1, u2


def recompute_witness(rho_a, rho_b, witness):
    """Recompute a named invariant from scratch on both inputs."""
    if witness.kind == "power_trace":
        s = int(witness.key.split("^")[1])
        return (
            complex(lq.power_traces(rho_a)[s - 1]),
            complex(lq.power_traces(rho_b)[s - 1]),
        )
    sd_a, sd_b = lq.spectral_decompose(rho_a), lq.spectral_decompose(rho_b)
    if witness.kind == "balanced_word":
        side, body = witness.key.split(":", 1)
        letters = tuple(
            (int(i), int(j)) for i, j in re.findall(r"\((\d+),(\d+)\)", body)
        )
        word = Word(side, letters)
        return lq.word_trace(sd_a, word), lq.word_trace(sd_b, word)
    if witness.kind == "block_invariant":
        m = re.match(r"([LR]):block\(([\d,]+)\):len(\d+):type\(([\d,]+)\)", witness.key)
        side, ids, tau, ctype = m.groups()
        block = tuple(int(x) - 1 for x in ids.split(","))
        ctype = tuple(int(x) for x in ctype.split(","))
        perm = dict(cycle_type_representatives(int(tau)))[ctype]
        return (
            lq.block_invariant(sd_a, block, perm, side),
            lq.block_invariant(sd_b, block, perm, side),
        )
    raise AssertionError(f"unknown witness kind {witness.kind}")


def count_calls(monkeypatch, name):
    """Record each call ``decide`` makes through ``luequiv.decider.<name>``."""
    calls = []
    inner = getattr(decider, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(decider, name, counted)
    return calls
