import re

import numpy as np
import pytest

import luequiv as lq
import luequiv.decider as decider
from luequiv.config import DEFAULT_TOL
from luequiv.decider import EQUIVALENT, INCONCLUSIVE, NOT_EQUIVALENT
from luequiv.errors import DimensionMismatch, NotUnitary
from luequiv.invariants import Word, cycle_type_representatives
from luequiv.states import decomposition_from_coeffs

from conftest import orbit_pair, unit, weyl_bell_diagonal


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


class TestCertify:
    def test_identity(self):
        rho = lq.random_density(2, 3, seed=1)
        assert lq.certify(rho, rho, np.eye(2), np.eye(2)) < 1e-14

    def test_generating_pair_certifies_orbit(self):
        for n in (2, 3):
            rho, rho2, u1, u2 = orbit_pair(n, 2, seed=90 + n)
            # rho2 = (U1 (x) U2) rho (.)^dag corresponds to u = U1^dag, w = U2^T
            res = lq.certify(rho, rho2, u1.conj().T, u2.T)
            assert res <= 1e-10

    def test_inequivalent_pair_never_certifies(self, diag_half_pair):
        rho_a, rho_b = diag_half_pair
        rng = np.random.default_rng(91)
        best = np.inf
        for _ in range(1000):
            u = lq.haar_unitary(2, rng)
            w = lq.haar_unitary(2, rng)
            best = min(best, lq.certify(rho_a, rho_b, u, w))
        assert best > 1e-8
        assert best > 0.1  # empirically far from the orbit

    def test_rejects_non_unitary(self):
        rho = lq.random_density(2, 2, seed=92)
        with pytest.raises(NotUnitary):
            lq.certify(rho, rho, 2 * np.eye(2), np.eye(2))


class TestGaugeAlignment:
    def test_connector_candidates_carry_the_right_phase_weight(self):
        from luequiv.decider import _connector_candidates, _word_net

        singles = [1, 2, 3]
        for i, j in [(1, 2), (1, 3), (2, 3)]:
            for cand in _connector_candidates(i, j, singles):
                assert _word_net(cand) == {i: 1, j: -1}

    def test_certificate_details_record_attempts(self):
        rho, rho2, _, _ = orbit_pair(2, 3, seed=275)
        verdict = lq.decide(rho, rho2)
        assert verdict.outcome == EQUIVALENT
        last = verdict.details["attempts"][-1]
        assert last["success"] and last["null_dim"] >= 1
        assert verdict.certificate.residual <= DEFAULT_TOL.eps_cert


class TestDecide:
    @pytest.mark.parametrize("n", [2, 3])
    def test_orbit_pairs_all_ranks(self, n):
        for rank in range(1, n * n + 1):
            rho, rho2, _, _ = orbit_pair(n, rank, seed=200 + 10 * n + rank)
            verdict = lq.decide(rho, rho2)
            assert verdict.outcome == EQUIVALENT, (n, rank, verdict.reason)
            cert = verdict.certificate
            assert cert.residual <= 1e-8
            # independent re-verification of the certificate
            assert lq.certify(rho, rho2, cert.u, cert.w) <= 1e-8

    def test_reflexivity(self):
        cases = [(2, None), (2, [2, 1]), (2, [2, 2]), (3, [2]), (3, [3]), (3, [4])]
        for n, profile in cases:
            rank = 3 if profile is None else sum(profile)
            rho = lq.random_density(n, rank, degeneracy_profile=profile, seed=210)
            verdict = lq.decide(rho, rho)
            assert verdict.outcome == EQUIVALENT, (n, profile, verdict.reason)
        # the identity pair is always an acceptable certificate
        rho = lq.random_density(2, 3, seed=211)
        assert lq.certify(rho, rho, np.eye(2), np.eye(2)) <= 1e-12

    def test_separates_diag_pair(self, diag_half_pair):
        verdict = lq.decide(*diag_half_pair)
        assert verdict.outcome == NOT_EQUIVALENT
        w = verdict.witness
        assert w.kind == "block_invariant"
        assert "type(1,1)" in w.key and "len2" in w.key
        assert abs(w.value_a - 2.0) < 1e-12 and abs(w.value_b - 4.0) < 1e-12

    def test_witnesses_recompute_from_scratch(self, diag_half_pair):
        pairs = [diag_half_pair]
        for seed in range(4):
            pairs.append(
                (
                    lq.random_density(2, 1 + seed % 4, seed=300 + seed),
                    lq.random_density(2, 1 + (seed + 1) % 4, seed=400 + seed),
                )
            )
        for rho_a, rho_b in pairs:
            verdict = lq.decide(rho_a, rho_b)
            if verdict.outcome != NOT_EQUIVALENT:
                continue
            va, vb = recompute_witness(rho_a, rho_b, verdict.witness)
            assert abs(va - vb) > 1e-8 * max(1.0, abs(va), abs(vb))
            assert abs(va - verdict.witness.value_a) < 1e-9 * max(1.0, abs(va))
            assert abs(vb - verdict.witness.value_b) < 1e-9 * max(1.0, abs(vb))

    def test_degenerate_orbit_never_claims_inequivalence(self):
        for seed, profile in [(220, [2, 1]), (221, [2, 2]), (222, [3, 1])]:
            rho, rho2, _, _ = orbit_pair(2, sum(profile), seed=seed, profile=profile)
            verdict = lq.decide(rho, rho2)
            assert verdict.outcome in (EQUIVALENT, INCONCLUSIVE)
            if verdict.outcome == INCONCLUSIVE:
                assert verdict.reason == "degenerate-no-certificate"

    def test_symmetry_no_contradictions(self):
        for seed in range(6):
            if seed % 2 == 0:
                a, b, _, _ = orbit_pair(2, 1 + seed % 4, seed=230 + seed)
            else:
                a = lq.random_density(2, 2, seed=240 + seed)
                b = lq.random_density(2, 3, seed=250 + seed)
            fwd = lq.decide(a, b).outcome
            rev = lq.decide(b, a).outcome
            definite = {EQUIVALENT, NOT_EQUIVALENT}
            if fwd in definite and rev in definite:
                assert fwd == rev

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            lq.decide(lq.random_density(2, 1, seed=1), lq.random_density(3, 1, seed=1))

    def test_maximally_mixed_orbit(self):
        mm = lq.validate_density(np.eye(4, dtype=complex) / 4, 2)
        rng = np.random.default_rng(260)
        out = lq.apply_local_unitary(mm, lq.haar_unitary(2, rng), lq.haar_unitary(2, rng))
        assert lq.decide(mm, out).outcome == EQUIVALENT

    def test_rotated_weyl_bell_diagonal_pair(self):
        # Every connector word has trace 0 here, so the phases stay unaligned
        # and the strict null space is empty; the least-violated direction of
        # the same SVD certifies the pair.
        rng = np.random.default_rng(270)
        rho = weyl_bell_diagonal(3, rng.dirichlet(np.ones(9)))
        rho2 = lq.apply_local_unitary(rho, lq.haar_unitary(3, rng), lq.haar_unitary(3, rng))
        verdict = lq.decide(rho, rho2)
        assert verdict.outcome == EQUIVALENT, verdict.reason
        assert lq.certify(rho, rho2, verdict.certificate.u, verdict.certificate.w) <= 1e-8


def _count_calls(monkeypatch, name):
    calls = []
    inner = getattr(decider, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(decider, name, counted)
    return calls


class TestCertificateWork:
    """One SVD per system, and no second certify after a success."""

    def test_nondegenerate_pair_one_svd_one_certify(self, monkeypatch):
        rho, rho2, _, _ = orbit_pair(3, 4, seed=280)
        svds = _count_calls(monkeypatch, "nullspace")
        certifies = _count_calls(monkeypatch, "certify")
        verdict = lq.decide(rho, rho2)
        assert verdict.outcome == EQUIVALENT
        assert (len(svds), len(certifies)) == (1, 1)

    def test_partly_degenerate_pair_one_svd(self, monkeypatch):
        rho, rho2, _, _ = orbit_pair(3, 4, seed=281, profile=[2, 1, 1])
        svds = _count_calls(monkeypatch, "nullspace")
        verdict = lq.decide(rho, rho2)
        assert verdict.outcome == EQUIVALENT
        assert len(svds) == 1
        assert [a["mode"] for a in verdict.details["attempts"]] == ["safe"]

    def test_failing_systems_are_searched_once_each(self, monkeypatch):
        # no singleton eigenvalue: both systems run and neither certifies;
        # the relaxed cutoff admits no new direction, so it is not re-searched
        rho, rho2, _, _ = orbit_pair(2, 2, seed=300, profile=[2])
        svds = _count_calls(monkeypatch, "nullspace")
        verdict = lq.decide(rho, rho2)
        assert verdict.reason == "degenerate-no-certificate"
        assert len(svds) == 2
        assert [a["mode"] for a in verdict.details["attempts"]] == ["safe", "full"]


def _reference_joint_blocks(sd1, sd2, eps_deg):
    """Re-chain both spectra at once: merge where either gap is small."""
    def near(lams, i):
        scale = max(float(lams[0]), 1.0 / sd1.dim_local ** 2)
        return lams[i - 1] - lams[i] <= eps_deg * scale

    blocks, current = [], [0]
    for i in range(1, sd1.rank):
        if near(sd1.eigenvalues, i) or near(sd2.eigenvalues, i):
            current.append(i)
        else:
            blocks.append(tuple(current))
            current = [i]
    blocks.append(tuple(current))
    return tuple(blocks)


class TestJointBlocks:
    def test_matches_rechaining_with_one_sided_gaps(self):
        n, rank = 3, 6
        eps = DEFAULT_TOL.eps_deg
        rng = np.random.default_rng(290)
        coeffs = [unit(0, 0, n)] * rank
        one_sided = 0
        for _ in range(40):
            # gaps on either side of eps_deg * scale (scale = top eigenvalue)
            sds = []
            for top in (0.3, 0.25):
                gaps = rng.choice([0.4, 0.9, 1.1, 3.0, 1e4], rank - 1) * eps * top
                lams = top - np.concatenate([[0.0], np.cumsum(gaps)])
                sds.append(decomposition_from_coeffs(n, lams, coeffs))
            sd1, sd2 = sds
            expected = _reference_joint_blocks(sd1, sd2, eps)
            assert decider._joint_blocks(sd1, sd2) == expected
            assert decider._joint_blocks(sd2, sd1) == expected
            one_sided += expected not in (sd1.blocks, sd2.blocks)
        assert one_sided > 0
