"""Seeded benchmark inputs, built with plain numpy.

Nothing here calls `luequiv`: the program under test receives only the
matrices made here (through `validate_density` or a state file), so the
checks can rely on how each input was made.  Basis convention: the
product basis |kl> of C^N (x) C^N is row-major with the first factor as
the slow index, the same as `numpy.kron`.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random n x n unitary: QR of a complex Ginibre matrix, phases fixed."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def spectrum(profile: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Eigenvalues with the given block sizes, one level per block.

    Levels are 1, 2, 3, ... each raised by a uniform draw in [0, 0.5) and
    shuffled over the blocks, then normalised.  Distinct levels are thus at
    least 0.5 / sum apart (about 7e-4 at rank 36), far above the program's
    degeneracy tolerance, so the block structure is unambiguous.
    """
    k = len(profile)
    levels = 1.0 + np.arange(k) + rng.uniform(0.0, 0.5, k)
    rng.shuffle(levels)
    lams = np.concatenate([np.full(m, x) for x, m in zip(levels, profile)])
    return lams / lams.sum()


def random_state(n: int, profile: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """N^2 x N^2 density matrix with the given degeneracy profile and Haar eigenvectors."""
    lams = spectrum(profile, rng)
    basis = haar_unitary(n * n, rng)[:, : len(lams)]
    m = (basis * lams) @ basis.conj().T
    return (m + m.conj().T) / 2


def same_spectrum_state(m: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A state with exactly the spectrum of ``m`` and fresh Haar eigenvectors."""
    w, v = np.linalg.eigh(m)
    u = haar_unitary(m.shape[0], rng)
    out = (u @ v * w) @ (u @ v).conj().T
    return (out + out.conj().T) / 2


def local_image(
    m: np.ndarray, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U1 (x) U2) m (U1 (x) U2)^dagger for Haar U1, U2; returns the image and both factors."""
    u1, u2 = haar_unitary(n, rng), haar_unitary(n, rng)
    v = np.kron(u1, u2)
    out = v @ m @ v.conj().T
    return (out + out.conj().T) / 2, u1, u2


BELL_WEIGHTS = (0.4, 0.3, 0.2, 0.1)


def bell_diagonal(weights) -> np.ndarray:
    """sum_k p_k |Phi_k><Phi_k| over the four Bell states of two qubits."""
    s = 1 / np.sqrt(2)
    bell = np.array(
        [[s, 0, 0, s], [s, 0, 0, -s], [0, s, s, 0], [0, s, -s, 0]], dtype=complex
    )
    return (bell.T * np.asarray(weights, dtype=float)) @ bell.conj()


def diag_half_pair() -> tuple[np.ndarray, np.ndarray]:
    """diag(1/2, 1/2, 0, 0) and diag(1/2, 0, 1/2, 0): equal spectra, not LU-equivalent."""
    return (
        np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex),
        np.diag([0.5, 0.0, 0.5, 0.0]).astype(complex),
    )


def write_state(path: Path, m: np.ndarray, n: int, label: str) -> None:
    """Write a schema-version-1 state file; floats keep their shortest round-trip repr."""
    doc = {
        "schema_version": 1,
        "local_dim": n,
        "label": label,
        "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in m],
    }
    path.write_text(json.dumps(doc))
