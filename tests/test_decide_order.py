"""Stage order of ``decide``: cheap invariants, the certificate, deep words.

``decide`` tries the certificate once the block operators' Gram test
agrees (which covers the signature up to word length 2), and evaluates
words only when the certificate fails.
``tests/data/decide_order.json`` holds (outcome, reason, witness kind,
witness key) for the seeded corpus built by ``corpus`` below.  It was
written at commit c6ff3da, where ``decide`` evaluated every word up to
length 3 before the certificate, with

    PYTHONPATH=src python tests/test_decide_order.py > tests/data/decide_order.json

and the reordered pipeline must reproduce every row.  The product
certificate system later moved 32 rows from ``inconclusive`` to
``equivalent`` (the no-singleton orbit pairs, ρ vs ρ* at N=2 (2,) and
(2, 2), and the four Bell permutations); only those rows were rewritten,
and every ``equivalent`` row is re-certified.  The other tests pin
the families where the order matters: a state against its complex
conjugate, which agrees through length 2 and differs at length 3, and
pairs moved off an LU orbit by a tiny non-local rotation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import luequiv as lq
import luequiv.invariants as invariants
from luequiv.config import DEFAULT_TOL
from luequiv.decider import EQUIVALENT, NOT_EQUIVALENT
from luequiv.invariants import values_close
from luequiv.linalg import dagger
from luequiv.testkit import exp_i_hermitian

from conftest import count_calls, orbit_pair, random_hermitian, recompute_witness, weyl_bell_diagonal

TABLE = Path(__file__).parent / "data" / "decide_order.json"

PROFILES = {
    2: [(1,), (1, 1), (1, 1, 1), (1,) * 4, (2,), (2, 1), (2, 2), (3, 1)],
    3: [(1, 1, 1), (1,) * 4, (1,) * 9, (2,), (3,), (4,), (2, 1, 1)],
    4: [(1,) * 4, (1,) * 5, (1,) * 16, (2, 1, 1)],
}
BELL_WEIGHTS = (0.4, 0.3, 0.2, 0.1)
BELL_PERMUTATIONS = ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))


def _conjugate(rho: lq.DensityMatrix) -> lq.DensityMatrix:
    return lq.validate_density(rho.matrix.conj(), rho.dim_local)


def corpus():
    """(name, rho1, rho2) for every row of the table."""
    for n, profiles in PROFILES.items():
        for profile in profiles:
            label = f"r{len(profile)}" if max(profile) == 1 else "p" + "".join(map(str, profile))
            for s in range(2):
                seed = 800 + 100 * n + 10 * len(profile) + sum(profile) + 1000 * s
                rho, img, _, _ = orbit_pair(n, sum(profile), seed, list(profile))
                w, v = np.linalg.eigh(rho.matrix)
                u = lq.haar_unitary(n * n, np.random.default_rng(seed)) @ v
                other = lq.validate_density((u * w) @ dagger(u), n)
                tag = f"n{n}-{label}-s{s}"
                yield f"orbit:{tag}", rho, img
                yield f"orbit-swapped:{tag}", img, rho
                yield f"same-spectrum:{tag}", rho, other
                yield f"conjugate:{tag}", rho, _conjugate(rho)
                yield f"conjugate-image:{tag}", img, _conjugate(rho)
    a = lq.validate_density(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex), 2)
    b = lq.validate_density(np.diag([0.5, 0.0, 0.5, 0.0]).astype(complex), 2)
    yield "diag", a, b
    yield "diag-swapped", b, a
    bell = weyl_bell_diagonal(2, BELL_WEIGHTS)
    for perm in BELL_PERMUTATIONS:
        name = "bell-" + "".join(map(str, perm))
        yield name, bell, weyl_bell_diagonal(2, [BELL_WEIGHTS[k] for k in perm])


def _row(verdict) -> list:
    w = verdict.witness
    return [verdict.outcome, verdict.reason, w and w.kind, w and w.key]


def _assert_witness_recomputes(rho_a, rho_b, witness):
    va, vb = recompute_witness(rho_a, rho_b, witness)
    assert not values_close(va, vb, DEFAULT_TOL.eps_inv)
    assert abs(va - witness.value_a) < 1e-9 * max(1.0, abs(va))
    assert abs(vb - witness.value_b) < 1e-9 * max(1.0, abs(vb))


def test_corpus_reproduces_the_table():
    table = json.loads(TABLE.read_text())
    rows = {}
    for name, a, b in corpus():
        verdict = lq.decide(a, b)
        rows[name] = _row(verdict)
        if verdict.outcome == EQUIVALENT:
            cert = verdict.certificate
            assert lq.certify(a, b, cert.u, cert.w) <= DEFAULT_TOL.eps_cert, name
    assert list(rows) == list(table)
    changed = {name: (table[name], row) for name, row in rows.items() if row != table[name]}
    assert not changed
    assert len(rows) >= 190


def test_equivalent_pair_evaluates_no_word(monkeypatch):
    rho, img, _, _ = orbit_pair(3, 9, seed=720)
    lengths = []
    inner = invariants._batch_word_values

    def recorded(stack, arr, side):
        lengths.append(arr.shape[1])
        return inner(stack, arr, side)

    monkeypatch.setattr(invariants, "_batch_word_values", recorded)
    assert lq.decide(rho, img).outcome == EQUIVALENT
    # the Gram test of the block operators stands in for words up to length 2
    assert lengths == []


class TestConjugatePairs:
    """Words of length at most 2 are real, so rho and rho* agree through
    length 2; at length 3 they differ unless rho* is an LU image of rho,
    as it always is for a pure state (equal Schmidt coefficients)."""

    @pytest.mark.parametrize("n, rank", [(2, 3), (2, 4), (3, 4), (3, 9), (4, 5), (4, 16)])
    def test_mixed_state_differs_at_length_three(self, monkeypatch, n, rank):
        rho = lq.random_density(n, rank, seed=730 + 10 * n + rank)
        svds = count_calls(monkeypatch, "nullspace")
        verdict = lq.decide(rho, _conjugate(rho))
        assert verdict.outcome == NOT_EQUIVALENT
        assert verdict.witness.key == "L:(1,1)(2,2)(3,3)"
        _assert_witness_recomputes(rho, _conjugate(rho), verdict.witness)
        # the length-2 signature agreed, so the certificate was tried: the
        # local families have no common intertwiner (one stacked SVD call
        # for both), which leaves out the product system, and the coupled
        # system is solved once
        assert len(svds) == 2

    @pytest.mark.parametrize("n", [2, 3])
    def test_pure_state_certifies(self, n):
        for seed in (740, 741):
            rho = lq.random_density(n, 1, seed=seed + n)
            verdict = lq.decide(rho, _conjugate(rho))
            assert verdict.outcome == EQUIVALENT, verdict.reason
            cert = verdict.certificate
            assert lq.certify(rho, _conjugate(rho), cert.u, cert.w) <= DEFAULT_TOL.eps_cert


DELTAS = (1e-13, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)


@pytest.mark.parametrize("n, rank", [(2, 3), (3, 4), (3, 9), (4, 5)])
def test_borderline_pairs(n, rank):
    """rho2 = e^{i delta K} (U (x) W) rho (U (x) W)^dag e^{-i delta K} for a
    fixed random Hermitian K: the spectrum is exact and only the
    eigenvectors leave the orbit, so a small delta certifies within
    eps_cert and a large one shows in the invariants."""
    rho, img, _, _ = orbit_pair(n, rank, seed=750 + 10 * n + rank)
    k = random_hermitian(np.random.default_rng(751 + rank), n * n)
    k /= np.linalg.norm(k)
    outcomes = {}
    for delta in DELTAS:
        v = exp_i_hermitian(delta * k)
        moved = lq.validate_density(v @ img.matrix @ dagger(v), n)
        for a, b in ((rho, moved), (moved, rho)):
            verdict = lq.decide(a, b)
            outcomes.setdefault(delta, set()).add(verdict.outcome)
            if verdict.outcome == EQUIVALENT:
                cert = verdict.certificate
                assert lq.certify(a, b, cert.u, cert.w) <= DEFAULT_TOL.eps_cert
            elif verdict.outcome == NOT_EQUIVALENT:
                _assert_witness_recomputes(a, b, verdict.witness)
    for delta in (1e-13, 1e-11, 1e-10):
        assert outcomes[delta] == {EQUIVALENT}
    assert EQUIVALENT not in outcomes[1e-6]


def main() -> None:
    rows = [f"{json.dumps(name)}: {json.dumps(_row(lq.decide(a, b)))}" for name, a, b in corpus()]
    sys.stdout.write("{\n" + ",\n".join(rows) + "\n}\n")


if __name__ == "__main__":
    main()
