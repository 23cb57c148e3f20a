"""State families with known answers, against a table of verdicts.

``tests/data/known_answers.json`` holds the outcome of every row of
``corpus`` below.  It was written at commit 8d2c07f, before the product
certificate system, with

    PYTHONPATH=src python tests/test_known_answers.py > tests/data/known_answers.json

No row may leave ``equivalent`` or ``not_equivalent``; a row may move from
``inconclusive`` to ``equivalent`` only with a certificate that
re-certifies.  Every row must also give the same verdict with its
arguments swapped and with the second state moved by a 1e-12 Hermitian
perturbation.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import luequiv as lq
from luequiv.config import DEFAULT_TOL
from luequiv.decider import EQUIVALENT, NOT_EQUIVALENT
from luequiv.linalg import dagger

from conftest import orbit_pair, random_hermitian, recompute_witness, weyl_bell_diagonal, werner

TABLE = Path(__file__).parent / "data" / "known_answers.json"
BELL_WEIGHTS = (0.4, 0.3, 0.2, 0.1)


def _state(m: np.ndarray, n: int) -> lq.DensityMatrix:
    return lq.validate_density((m + dagger(m)) / 2, n)


def _rotated(rho: lq.DensityMatrix, rng: np.random.Generator) -> lq.DensityMatrix:
    n = rho.dim_local
    return lq.apply_local_unitary(rho, lq.haar_unitary(n, rng), lq.haar_unitary(n, rng))


def isotropic(n: int, f: float) -> lq.DensityMatrix:
    """f |Phi><Phi| + (1 - f) (1 - |Phi><Phi|) / (N^2 - 1)."""
    phi = np.eye(n).reshape(-1) / np.sqrt(n)
    proj = np.outer(phi, phi)
    return _state(f * proj + (1 - f) * (np.eye(n * n) - proj) / (n * n - 1), n)


def pure(n: int, rng: np.random.Generator) -> lq.DensityMatrix:
    v = rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)
    v /= np.linalg.norm(v)
    return _state(np.outer(v, v.conj()), n)


def product(n: int, rng: np.random.Generator) -> lq.DensityMatrix:
    """rho_A (x) rho_B with random spectra and eigenbases."""
    parts = []
    for _ in range(2):
        lams = rng.dirichlet(np.ones(n)) + 0.05
        u = lq.haar_unitary(n, rng)
        parts.append((u * (lams / lams.sum())) @ dagger(u))
    return _state(np.kron(*parts), n)


def classical(n: int, rng: np.random.Generator) -> np.ndarray:
    """Weights of a classical-classical state sum_ij p_ij |ij><ij|, N x N."""
    p = rng.dirichlet(np.ones(n * n)) + 0.01
    return (p / p.sum()).reshape(n, n)


def _diag(p: np.ndarray) -> lq.DensityMatrix:
    return _state(np.diag(p.reshape(-1)).astype(complex), p.shape[0])


def corpus():
    """(name, rho1, rho2) for every row of the table."""
    rng = np.random.default_rng(1500)
    bell = weyl_bell_diagonal(2, BELL_WEIGHTS)
    for perm in itertools.permutations(range(4)):
        tag = "".join(map(str, perm))
        other = weyl_bell_diagonal(2, [BELL_WEIGHTS[k] for k in perm])
        yield f"bell:{tag}", bell, other
        yield f"bell-rotated:{tag}", bell, _rotated(other, rng)
    blocked = [(0.4, 0.25, 0.25, 0.1), (0.5, 0.2, 0.2, 0.1), (0.3, 0.3, 0.3, 0.1)]
    for k, weights in enumerate(blocked):
        rho = weyl_bell_diagonal(2, weights)
        yield f"bell-block:{k}", rho, _rotated(rho, rng)
    for n in (3, 4):
        nn = n * n
        w = rng.dirichlet(np.ones(nn))
        wh = {
            "distinct": w,
            "pair-block": np.concatenate([w[:1], [w[1]] * 2, w[3:]]),
            "ends": np.concatenate([[0.7], np.zeros(nn - 2), [0.3]]),
            "first-two": np.concatenate([[0.6, 0.4], np.zeros(nn - 2)]),
            "first-three": np.concatenate([[0.5, 0.3, 0.2], np.zeros(nn - 3)]),
        }
        for label, weights in wh.items():
            weights = weights / weights.sum()
            rho = weyl_bell_diagonal(n, weights)
            yield f"wh-n{n}-{label}:self", rho, rho
            yield f"wh-n{n}-{label}:rotated", rho, _rotated(rho, rng)
        shuffled = weyl_bell_diagonal(n, rng.permutation(wh["distinct"]))
        yield f"wh-n{n}-permuted", weyl_bell_diagonal(n, wh["distinct"]), _rotated(shuffled, rng)
    for n in (2, 3, 4, 5):
        for p in (0.3, 1.0):
            rho = werner(n, p)
            yield f"werner-n{n}-p{p}:rotated", rho, _rotated(rho, rng)
        for f in (0.1, 0.6):
            rho = isotropic(n, f)
            yield f"isotropic-n{n}-f{f}:rotated", rho, _rotated(rho, rng)
        rho = pure(n, rng)
        yield f"pure-n{n}:rotated", rho, _rotated(rho, rng)
        yield f"pure-n{n}:conjugate", rho, _state(rho.matrix.conj(), n)
        rho = product(n, rng)
        yield f"product-n{n}:rotated", rho, _rotated(rho, rng)
        p = classical(n, rng)
        rows, cols = rng.permutation(n), rng.permutation(n)
        yield f"classical-n{n}:local-permutation", _diag(p), _diag(p[rows][:, cols])
        yield f"classical-n{n}:rotated", _diag(p), _rotated(_diag(p), rng)
        shuffled = rng.permutation(p.reshape(-1)).reshape(n, n)
        yield f"classical-n{n}:shuffled", _diag(p), _diag(shuffled)
    no_singleton = [(2, (2,)), (2, (2, 2)), (3, (2,)), (3, (3,)), (3, (4,)), (3, (3, 3)), (4, (4,))]
    for n, profile in no_singleton:
        tag = f"n{n}-p" + "".join(map(str, profile))
        rho, img, _, _ = orbit_pair(n, sum(profile), 1600 + 10 * n + sum(profile), list(profile))
        yield f"no-singleton-{tag}:rotated", rho, img
        yield f"no-singleton-{tag}:self", rho, rho


def _perturbed(rho: lq.DensityMatrix, seed: int) -> lq.DensityMatrix:
    h = random_hermitian(np.random.default_rng(seed), rho.dim)
    h -= np.trace(h) / rho.dim * np.eye(rho.dim)
    return lq.validate_density(rho.matrix + 1e-12 * h / np.linalg.norm(h), rho.dim_local)


@pytest.fixture(scope="module")
def verdicts():
    return {name: (a, b, lq.decide(a, b)) for name, a, b in corpus()}


def test_no_row_leaves_a_definite_verdict(verdicts):
    table = json.loads(TABLE.read_text())
    assert list(verdicts) == list(table)
    for name, (a, b, verdict) in verdicts.items():
        if table[name] in (EQUIVALENT, NOT_EQUIVALENT):
            assert verdict.outcome == table[name], name
        if verdict.outcome == EQUIVALENT:
            cert = verdict.certificate
            assert lq.certify(a, b, cert.u, cert.w) <= DEFAULT_TOL.eps_cert, name
        elif verdict.outcome == NOT_EQUIVALENT:
            va, vb = recompute_witness(a, b, verdict.witness)
            assert abs(va - vb) > DEFAULT_TOL.eps_inv * max(1.0, abs(va), abs(vb)), name
    # every truly equivalent row certifies but one: the rotated N=4
    # Weyl-Heisenberg state with two nonzero weights
    definite = (EQUIVALENT, NOT_EQUIVALENT)
    unresolved = [name for name, (_, _, v) in verdicts.items() if v.outcome not in definite]
    assert unresolved == ["wh-n4-first-two:rotated"]


def test_swap_and_perturbation_keep_the_verdict(verdicts):
    for k, (name, (a, b, verdict)) in enumerate(verdicts.items()):
        swapped = lq.decide(b, a)
        moved_b = _perturbed(b, 1700 + k)
        moved = lq.decide(a, moved_b)
        if verdict.outcome in (EQUIVALENT, NOT_EQUIVALENT):
            assert swapped.outcome == verdict.outcome, name
            assert moved.outcome == verdict.outcome, name
            continue
        # the unresolved row stays unresolved swapped; moved, its coupled
        # system's least-violated direction may happen to certify
        assert swapped.outcome == verdict.outcome, name
        assert moved.outcome != NOT_EQUIVALENT, name
        if moved.outcome == EQUIVALENT:
            cert = moved.certificate
            assert lq.certify(a, moved_b, cert.u, cert.w) <= DEFAULT_TOL.eps_cert, name


def main() -> None:
    rows = [
        f"{json.dumps(name)}: {json.dumps(lq.decide(a, b).outcome)}"
        for name, a, b in corpus()
    ]
    sys.stdout.write("{\n" + ",\n".join(rows) + "\n}\n")


if __name__ == "__main__":
    main()
