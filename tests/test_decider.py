import math
import re
import tracemalloc

import numpy as np
import pytest

import luequiv as lq
import luequiv.decider as decider
from luequiv.config import DEFAULT_TOL, EPS_NULL, EPS_UNITARY, Tolerances
from luequiv.decider import EQUIVALENT, INCONCLUSIVE, NOT_EQUIVALENT
from luequiv.errors import DimensionMismatch, NotUnitary
from luequiv.invariants import Word, compare_signatures, fingerprint_from_decomposition, values_close
from luequiv.linalg import dagger, nullspace
from luequiv.states import decomposition_from_coeffs

from conftest import count_calls, orbit_pair, recompute_witness, unit, weyl_bell_diagonal, werner
from test_known_answers import _perturbed, isotropic


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

    @pytest.mark.parametrize("name", ["u", "w"])
    def test_non_unitary_factor_is_named(self, name):
        rho = lq.random_density(2, 2, seed=92)
        bad = {"u": np.eye(2), "w": np.eye(2), name: np.diag([1.0, 1.0 + 1e-6])}
        with pytest.raises(NotUnitary, match=f"^{name} is not unitary within tolerance$"):
            lq.certify(rho, rho, bad["u"], bad["w"])

    @pytest.mark.parametrize("name", ["u", "w"])
    def test_wrong_size_factor_is_a_dimension_mismatch(self, name):
        rho = lq.random_density(2, 2, seed=92)
        args = {"u": np.eye(2), "w": np.eye(2), name: np.eye(3)}
        with pytest.raises(DimensionMismatch, match=f"^{name} must be 2x2$"):
            lq.certify(rho, rho, args["u"], args["w"])
        with pytest.raises(DimensionMismatch):
            lq.certify(rho, lq.random_density(3, 2, seed=92), np.eye(2), np.eye(2))

    def test_unitarity_check_reads_the_given_tolerance(self):
        rho = lq.random_density(2, 2, seed=93)
        u = np.eye(2) + 1e-6 * np.array([[1, 0], [0, 0]])  # 1e-6 off unitary
        with pytest.raises(NotUnitary):
            lq.certify(rho, rho, u, np.eye(2))
        close = np.eye(2) + 0.1 * EPS_UNITARY * np.array([[1, 0], [0, 0]])
        assert lq.certify(rho, rho, close, np.eye(2)) < 1e-9


def _word_net(word: Word) -> dict[int, int]:
    """Net phase weight of a word: +1 per row index, -1 per column index
    on the left (the other way round on the right), zeros dropped."""
    net: dict[int, int] = {}
    sign = 1 if word.side == "L" else -1
    for i, j in word.letters:
        net[i] = net.get(i, 0) + sign
        net[j] = net.get(j, 0) - sign
        for k in {i, j}:
            if net.get(k) == 0:
                del net[k]
    return net


def _all_pairs_alignment(sd1, sd2, singles, tol):
    """Reference walk: search a connector for every singleton pair first,
    then grow the spanning forest over that graph breadth first."""
    ones = [p + 1 for p in singles]
    connectors = {}
    for a, p in enumerate(singles):
        for q in singles[a + 1:]:
            found = decider._connector(sd1, p, q, ones)
            if found is not None:
                connectors[p, q] = found
    adj = {p: [] for p in singles}
    for p, q in connectors:
        adj[p].append(q)
        adj[q].append(p)
    coeffs = [np.array(a) for a in sd2.coeff_matrices]
    info = {"edges": 0, "magnitude_mismatch": False}
    psi = {}
    for root in singles:
        if root in psi:
            continue
        psi[root] = 0.0
        queue = [root]
        while queue:
            cur = queue.pop(0)
            for nxt in adj[cur]:
                if nxt in psi:
                    continue
                p, q = min(cur, nxt), max(cur, nxt)
                word, t1 = connectors[p, q]
                t2 = lq.word_trace(sd2, word)
                if not values_close(abs(t1), abs(t2), 10 * tol.eps_inv):
                    info["magnitude_mismatch"] = True
                if abs(t2) <= decider._CONNECTOR_FLOOR:
                    continue
                delta = math.atan2((t2 / t1).imag, (t2 / t1).real)
                psi[nxt] = psi[cur] + delta if nxt == q else psi[cur] - delta
                info["edges"] += 1
                queue.append(nxt)
    for p in singles:
        if psi[p]:
            coeffs[p] = np.exp(1j * psi[p]) * coeffs[p]
    return coeffs, info


class TestGaugeAlignment:
    def test_connector_candidates_carry_the_right_phase_weight(self):
        singles = [1, 2, 3]
        for i, j in [(1, 2), (1, 3), (2, 3)]:
            for cand in decider._connector_candidates(i, j, singles):
                assert _word_net(cand) == {i: 1, j: -1}

    def test_dropped_connector_words_have_redundant_traces(self):
        # L((i,j)) and R((j,i)) pair two orthonormal eigenvectors, and
        # R((k,i),(j,k)) is a cyclic rotation of L((i,j),(k,k))
        for n, rank, seed in [(2, 3, 285), (3, 5, 286)]:
            sd = lq.spectral_decompose(lq.random_density(n, rank, seed=seed))
            ones = range(1, rank + 1)
            for i in ones:
                for j in ones:
                    if i != j:
                        assert abs(lq.word_trace(sd, Word("L", ((i, j),)))) < 1e-12
                        assert abs(lq.word_trace(sd, Word("R", ((j, i),)))) < 1e-12
                    for k in ones:
                        rot = lq.word_trace(sd, Word("R", ((k, i), (j, k))))
                        assert abs(rot - lq.word_trace(sd, Word("L", ((i, j), (k, k))))) < 1e-12

    def test_connectors_skip_zero_trace_words(self, monkeypatch):
        rho, rho2, _, _ = orbit_pair(3, 4, seed=280)
        traces = count_calls(monkeypatch, "word_trace")
        # the product system certifies the pair, so decide aligns nothing
        assert lq.decide(rho, rho2).outcome == EQUIVALENT
        assert traces == []
        sd1, sd2 = lq.spectral_decompose(rho), lq.spectral_decompose(rho2)
        decider._align_phases(sd1, sd2, [0, 1, 2, 3], DEFAULT_TOL)
        # the walk searches a connector on the first state only for the
        # pairs it reaches, here the star from singleton 1 (3; the first
        # candidate pins each phase), and measures each on the second (3)
        assert len(traces) == 6

    def test_lazy_walk_matches_the_all_pairs_walk(self):
        pairs = [orbit_pair(n, rank, seed=288 + rank)[:2]
                 for n, rank in [(2, 3), (2, 4), (3, 4), (3, 9), (4, 5), (4, 16)]]
        pairs.append(orbit_pair(3, 4, seed=281, profile=[2, 1, 1])[:2])
        # dark connectors: every candidate traces to 0 on these states
        weights = (0.4, 0.3, 0.2, 0.1)
        bell = weyl_bell_diagonal(2, weights)
        for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)):
            pairs.append((bell, weyl_bell_diagonal(2, [weights[k] for k in perm])))
        rng = np.random.default_rng(270)
        rho = weyl_bell_diagonal(3, rng.dirichlet(np.ones(9)))
        pairs.append(
            (rho, lq.apply_local_unitary(rho, lq.haar_unitary(3, rng), lq.haar_unitary(3, rng)))
        )
        edges = []
        for rho1, rho2 in pairs:
            sd1, sd2 = lq.spectral_decompose(rho1), lq.spectral_decompose(rho2)
            singles = [b[0] for b in decider._joint_blocks(sd1, sd2) if len(b) == 1]
            coeffs, info = decider._align_phases(sd1, sd2, singles, DEFAULT_TOL)
            ref_coeffs, ref_info = _all_pairs_alignment(sd1, sd2, singles, DEFAULT_TOL)
            assert info == ref_info
            assert all(np.array_equal(a, b) for a, b in zip(coeffs, ref_coeffs))
            edges.append(info["edges"])
        assert edges[:7] == [2, 3, 3, 8, 4, 15, 1]  # a spanning tree each
        assert edges[7:] == [0] * 5

    def test_lazy_walk_reaches_a_singleton_through_a_later_edge(self):
        # A_1 = E_00 and A_4 = E_11 have orthogonal supports on both sides,
        # so every connector of (1, 4) traces to 0: the walk reaches 2 and 3
        # from 1, and 4 from 2, not from 3
        n = 3
        rng = np.random.default_rng(289)
        a1 = [unit(0, 0, n)]
        for _ in range(2):
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            m[0, 0] = m[1, 1] = 0
            a1.append(m / np.linalg.norm(m))
        a1.append(unit(1, 1, n))
        a2 = []
        for m in a1:
            m = np.exp(2j * np.pi * rng.random()) * (m + 0.05 * rng.standard_normal((n, n)))
            a2.append(m / np.linalg.norm(m))
        lams = [0.4, 0.3, 0.2, 0.1]
        sd1, sd2 = decomposition_from_coeffs(n, lams, a1), decomposition_from_coeffs(n, lams, a2)
        assert decider._connector(sd1, 0, 3, [1, 2, 3, 4]) is None
        coeffs, info = decider._align_phases(sd1, sd2, [0, 1, 2, 3], DEFAULT_TOL)
        ref_coeffs, ref_info = _all_pairs_alignment(sd1, sd2, [0, 1, 2, 3], DEFAULT_TOL)
        assert info == ref_info and info["edges"] == 3
        assert all(np.array_equal(a, b) for a, b in zip(coeffs, ref_coeffs))

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
        # Every connector word has trace 0 here, so phase alignment would
        # leave the phases free; the product system needs no phases.
        rng = np.random.default_rng(270)
        rho = weyl_bell_diagonal(3, rng.dirichlet(np.ones(9)))
        rho2 = lq.apply_local_unitary(rho, lq.haar_unitary(3, rng), lq.haar_unitary(3, rng))
        verdict = lq.decide(rho, rho2)
        assert verdict.outcome == EQUIVALENT, verdict.reason
        assert verdict.details["attempts"][-1]["mode"] == "product"
        assert lq.certify(rho, rho2, verdict.certificate.u, verdict.certificate.w) <= 1e-8


class TestCertificateWork:
    """The identity check, then one SVD call per system, and no second
    certify after a success.  The product system costs two calls: one
    stacked SVD for both local families' intertwiners, whose reduced
    systems have one shape in every pair below, and one for the system
    itself.  When both intertwiner spaces are one-dimensional the system
    is one column, whose norm stands in for its SVD, so it costs one."""

    def test_nondegenerate_pair_one_product_attempt(self, monkeypatch):
        rho, rho2, _, _ = orbit_pair(3, 4, seed=280)
        svds = count_calls(monkeypatch, "nullspace")
        certifies = count_calls(monkeypatch, "certify")
        verdict = lq.decide(rho, rho2)
        assert verdict.outcome == EQUIVALENT
        # the identity check runs, but needs no certify call, and the
        # one-column product system needs no SVD
        assert (len(svds), len(certifies)) == (1, 1)
        assert verdict.details["attempts"][0] == {"mode": "identity", "success": False}
        assert [a["mode"] for a in verdict.details["attempts"]] == ["identity", "product"]

    def test_partly_degenerate_pair_one_product_attempt(self, monkeypatch):
        rho, rho2, _, _ = orbit_pair(3, 4, seed=281, profile=[2, 1, 1])
        svds = count_calls(monkeypatch, "nullspace")
        verdict = lq.decide(rho, rho2)
        assert verdict.outcome == EQUIVALENT
        assert len(svds) == 1
        assert [a["mode"] for a in verdict.details["attempts"]] == ["identity", "product"]

    def test_failing_systems_are_searched_once_each(self, monkeypatch):
        # the rotated N=4 Weyl-Heisenberg state with two nonzero weights:
        # neither system certifies, and neither is searched a second time
        rng = np.random.default_rng(300)
        rho = weyl_bell_diagonal(4, [0.6, 0.4] + [0.0] * 14)
        rho2 = lq.apply_local_unitary(rho, lq.haar_unitary(4, rng), lq.haar_unitary(4, rng))
        svds = count_calls(monkeypatch, "nullspace")
        searches = count_calls(monkeypatch, "_search_pair")
        certifies = count_calls(monkeypatch, "certify")
        verdict = lq.decide(rho, rho2)
        assert verdict.outcome == INCONCLUSIVE
        assert (len(svds), len(searches)) == (3, 2)
        modes = [a["mode"] for a in verdict.details["attempts"]]
        assert modes == ["identity", "product", "coupled"]
        # the identity check, then at most k + 1 candidates per k-dimensional space
        dims = [a["null_dim"] for a in verdict.details["attempts"][1:]]
        assert dims == [198, 1]
        assert len(certifies) <= 1 + sum(k + 1 for k in dims)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_failing_search_certifies_at_most_k_plus_one_times(self, monkeypatch, k):
        # two states with different spectra and k orthonormal directions
        # whose halves are nonsingular: every candidate reaches certify and
        # none passes; the basis rows come first, then one combination
        rho, rho2 = lq.random_density(2, 4, seed=310), lq.random_density(2, 4, seed=311)
        rng = np.random.default_rng(312)
        z = rng.standard_normal((8, k)) + 1j * rng.standard_normal((8, k))
        vecs = np.linalg.qr(z)[0].T
        certifies = count_calls(monkeypatch, "certify")
        found = decider._search_pair(
            rho, rho2, vecs, DEFAULT_TOL, lambda c: (c[:4].reshape(2, 2), c[4:].reshape(2, 2))
        )
        assert found is None
        assert len(certifies) == k + (k >= 2)

    def test_singular_candidate_reaches_certify(self):
        # the maximally mixed state is fixed by every local unitary, so the
        # polar factors of a singular X and of Y = 0 certify it
        rho = lq.validate_density(np.eye(4) / 4, 2)
        found = decider._search_pair(
            rho, rho, np.ones((1, 1)), DEFAULT_TOL,
            lambda c: (np.diag([1.0, 0.0]), np.zeros((2, 2))),
        )
        assert isinstance(found, decider.Certificate)
        assert found.residual == 0

    def test_successful_product_search_takes_one_svd(self, monkeypatch):
        # one stacked polar call for X and Y; a one-dimensional product
        # space needs no split
        rho, rho2, _, _ = orbit_pair(3, 4, seed=280)
        svd, search = np.linalg.svd, decider._search_pair
        svds = []

        def counted_svd(*args, **kwargs):
            svds.append(1)
            return svd(*args, **kwargs)

        def counted_search(*args):
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "svd", counted_svd)
                return search(*args)

        monkeypatch.setattr(decider, "_search_pair", counted_search)
        verdict = lq.decide(rho, rho2)
        assert verdict.outcome == EQUIVALENT
        assert [a["mode"] for a in verdict.details["attempts"]] == ["identity", "product"]
        assert len(svds) == 1

    def test_one_singleton_tries_the_coupled_system_first(self):
        # a pure state: one singleton, whose coupling rows need no phase
        # alignment, and a product system with freedom on both sides
        rho, rho2, _, _ = orbit_pair(3, 1, seed=282)
        verdict = lq.decide(rho, rho2)
        assert verdict.outcome == EQUIVALENT
        assert [a["mode"] for a in verdict.details["attempts"]] == ["identity", "coupled"]

    def test_identity_residual_is_certify_at_the_identity(self, monkeypatch):
        rho = lq.random_density(3, 5, seed=283)
        rho2 = _perturbed(rho, 284)
        certifies = count_calls(monkeypatch, "certify")
        verdict = lq.decide(rho, rho2)
        assert verdict.outcome == EQUIVALENT
        assert verdict.details["attempts"] == [{"mode": "identity", "success": True}]
        assert certifies == []
        eye = np.eye(3)
        np.testing.assert_array_equal(verdict.certificate.u, eye)
        np.testing.assert_array_equal(verdict.certificate.w, eye)
        residual = verdict.certificate.residual
        assert 0 < residual <= 2e-12
        assert float.hex(residual) == float.hex(decider.certify(rho, rho2, eye, eye))

    def test_identity_certifies_a_state_against_itself(self, monkeypatch):
        rho = weyl_bell_diagonal(3, [0.3, 0.2, 0.2] + [0.05] * 6)
        svds = count_calls(monkeypatch, "nullspace")
        verdict = lq.decide(rho, rho)
        assert verdict.outcome == EQUIVALENT
        assert svds == []
        assert verdict.details["attempts"] == [{"mode": "identity", "success": True}]


GRAM_STATES = [
    (2, 1, None), (2, 3, None), (2, 4, None), (2, 3, [2, 1]), (2, 4, [2, 2]),
    (3, 4, None), (3, 9, None), (3, 5, [2, 1, 2]), (3, 4, [3, 1]), (3, 6, [2, 2, 1, 1]),
    (4, 5, None), (4, 16, None), (4, 6, [2, 1, 1, 2]), (4, 7, [3, 1, 3]),
]


def _block_key_parts(key):
    """(side, first 0-based index, tau, cycle type) of a block-invariant key."""
    side, rest = key.split(":", 1)
    ids, tau, ctype = re.fullmatch(r"block\(([\d,]+)\):len(\d+):type\(([\d,]+)\)", rest).groups()
    return side, int(ids.split(",")[0]) - 1, int(tau), ctype


class TestGramTest:
    """``decide`` compares the Gram matrices Tr(P_b P_c) of the block
    operators H_b and K_b before the certificate, in place of the signature
    up to word length 2, whose every value is one of their entries or |b|."""

    @pytest.mark.parametrize("n, rank, profile", GRAM_STATES)
    def test_length_two_signature_is_gram_entries(self, n, rank, profile):
        rho = lq.random_density(n, rank, profile, seed=330 + 10 * n + rank)
        sd = lq.spectral_decompose(rho)
        flat = decider._block_operators(sd, sd, sd.blocks)[:, 0].reshape(2, len(sd.blocks), -1)
        gram = flat @ flat.conj().swapaxes(-1, -2)  # gram[side, b, c] = Tr(P_b P_c), H then K
        block_of = {p: k for k, b in enumerate(sd.blocks) for p in b}
        sig = fingerprint_from_decomposition(sd, lq.power_traces(rho), Tolerances(tau_cap=2))
        checked = 0
        for group in sig.balanced_groups:
            for row, value in zip(group.letters.astype(int) - 1, group.values):
                if group.length == 1:
                    expected = 1.0
                else:
                    # (i,i)(j,j) is Tr(H_i H_j) on L and Tr(K_i K_j) on R;
                    # (i,j)(j,i) the other way round
                    (i, k), (j, _) = row
                    side = 0 if (i == k) == (group.side == "L") else 1
                    expected = gram[side, block_of[i], block_of[j]]
                assert abs(value - expected) <= 1e-13, (group.side, row)
                checked += 1
        for key, value in sig.block_invariants.items():
            side, first, tau, ctype = _block_key_parts(key)
            b = block_of[first]
            if tau == 1:
                expected = len(sd.blocks[b])
            else:
                # type (2) is Tr(H_b^2) on L and Tr(K_b^2) on R; type (1,1) the other way
                g = 0 if (ctype == "2") == (side == "L") else 1
                expected = gram[g, b, b]
            assert abs(value - expected) <= 1e-13, key
            checked += 1
        assert checked == len(sig.balanced_words) + len(sig.block_invariants) > 0

    def test_block_operators_are_the_per_state_products(self):
        # the bits the intertwiners see: A A^dag and A^dag A, summed per block
        rho, rho2, _, _ = orbit_pair(3, 6, seed=331, profile=[2, 1, 2, 1])
        sd1, sd2 = lq.spectral_decompose(rho), lq.spectral_decompose(rho2)
        starts = [b[0] for b in sd1.blocks]
        ops = decider._block_operators(sd1, sd2, sd1.blocks)
        assert ops.shape == (2, 2, 4, 3, 3)
        for t, sd in enumerate((sd1, sd2)):
            a = np.array(sd.coeff_matrices)
            for s, x in enumerate((a, a.conj().transpose(0, 2, 1))):
                ref = np.add.reduceat(x @ x.conj().transpose(0, 2, 1), starts, axis=0)
                np.testing.assert_array_equal(ops[s, t], ref)

    def test_equivalent_pair_builds_no_signature_and_no_product_system(self, monkeypatch):
        rho, rho2, _, _ = orbit_pair(3, 4, seed=280)
        signatures = count_calls(monkeypatch, "fingerprint_from_decomposition")
        products = count_calls(monkeypatch, "_product_system")
        verdict = lq.decide(rho, rho2)
        assert verdict.outcome == EQUIVALENT
        assert (signatures, products) == ([], [])

    def test_same_spectrum_pair_fails_it_before_any_certificate(self, monkeypatch):
        rho = lq.random_density(3, 4, seed=332)
        w, v = np.linalg.eigh(rho.matrix)
        u = lq.haar_unitary(9, np.random.default_rng(333)) @ v
        other = lq.validate_density((u * w) @ dagger(u), 3)
        sd1, sd2 = lq.spectral_decompose(rho), lq.spectral_decompose(other)
        blocks = decider._joint_blocks(sd1, sd2)
        assert not decider._gram_agrees(decider._block_operators(sd1, sd2, blocks), 1e-8)
        attempts = count_calls(monkeypatch, "_attempt_certificate")
        verdict = lq.decide(rho, other)
        assert verdict.outcome == NOT_EQUIVALENT
        assert attempts == []
        tol = DEFAULT_TOL.replace(tau_cap=2)
        sig1, sig2 = (
            fingerprint_from_decomposition(sd, lq.power_traces(r), tol, blocks=blocks)
            for sd, r in ((sd1, rho), (sd2, other))
        )
        w = verdict.witness
        assert (w.kind, w.key, w.value_a, w.value_b) == compare_signatures(sig1, sig2, 1e-8)


def _full_rank_orbit_pair(n, seed):
    """A full-rank state with well-separated eigenvalues and its LU image
    (``random_density`` cannot space N^2 Dirichlet weights at N >= 6)."""
    rng = np.random.default_rng(seed)
    nn = n * n
    lams = np.sort(np.arange(1, nn + 1) + rng.uniform(0, 0.5, nn))[::-1]
    basis = lq.haar_unitary(nn, rng)
    rho = lq.validate_density((basis * (lams / lams.sum())) @ dagger(basis), n)
    return rho, lq.apply_local_unitary(rho, lq.haar_unitary(n, rng), lq.haar_unitary(n, rng))


def _record_systems(monkeypatch, name):
    shapes = []
    inner = getattr(decider, name)

    def recorded(*args):
        system = inner(*args)
        shapes.append(system.shape)
        return system

    monkeypatch.setattr(decider, name, recorded)
    return shapes


def _sylvester(p, q):
    """Rows of P Z - Z Q = 0 on the row-major vec of Z."""
    eye = np.eye(len(p))
    return np.kron(p, eye) - np.kron(eye, q.T)


def _row_space_residual(p, c):
    """||P - P C+ C|| / ||P||: how far the rows of P lie from the row span of C."""
    _, s, vh = np.linalg.svd(c, full_matrices=False)
    span = vh[s > 1e-10 * s[0]]
    return np.linalg.norm(p - p @ dagger(span) @ span) / np.linalg.norm(p)


class TestCertificateSystem:
    """The coupled system holds the 2 N^2 coupling rows of each singleton
    and nothing else: pair rows between two singletons are implied by
    their coupling rows, and degenerate blocks enter through the product
    system instead."""

    def test_nondegenerate_n6_shape(self):
        rho, _ = _full_rank_orbit_pair(6, 46)
        sd = lq.spectral_decompose(rho)
        assert len(sd.blocks) == 36
        system = decider._certificate_system(sd, list(sd.coeff_matrices), range(36))
        assert system.shape == (2 * 36 * 36, 72)  # before pair rows were dropped: 95,904 rows

    def test_full_rank_n8_pair_decides(self, monkeypatch):
        rho, rho2 = _full_rank_orbit_pair(8, 48)
        products = _record_systems(monkeypatch, "_product_system")
        coupled = _record_systems(monkeypatch, "_certificate_system")
        verdict = lq.decide(rho, rho2)
        assert verdict.outcome == EQUIVALENT, verdict.reason
        # each local family has a one-dimensional intertwiner space, so the
        # product system is one column, tested by its norm and never built
        assert (products, coupled) == ([], [])
        assert verdict.details["attempts"][-1] == {"mode": "product", "null_dim": 1, "success": True}
        assert lq.certify(rho, rho2, verdict.certificate.u, verdict.certificate.w) <= 1e-8

    def test_partly_degenerate_coupled_system_has_no_pair_rows(self, monkeypatch):
        rho, rho2, _, _ = orbit_pair(3, 4, seed=281, profile=[2, 1, 1])
        products = _record_systems(monkeypatch, "_product_system")
        assert lq.decide(rho, rho2).outcome == EQUIVALENT
        assert products == []  # one column, tested by its norm
        sd = lq.spectral_decompose(rho)
        singles = [b[0] for b in sd.blocks if len(b) == 1]
        coupled = decider._certificate_system(sd, list(sd.coeff_matrices), singles)
        # two singletons' coupling rows (4 x 9), no rows for the block
        assert coupled.shape == (4 * 9, 18)

    def test_singleton_pair_rows_lie_in_the_coupling_row_span(self):
        n = 3
        rng = np.random.default_rng(287)
        u, w = lq.haar_unitary(n, rng), lq.haar_unitary(n, rng)
        a1, a2 = [], []
        for _ in range(3):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a1.append(a / np.linalg.norm(a))
            a2.append(u @ a1[-1] @ w)
        coupling = np.vstack([r for a, b in zip(a1, a2) for r in decider._coupling_rows(a, b, n)])
        # (X, Y) = (U^dag, W) solves the coupling rows: C is rank deficient
        assert np.linalg.matrix_rank(coupling, tol=1e-10) < 2 * n * n
        known = np.concatenate([dagger(u).reshape(-1), w.reshape(-1)])
        assert np.linalg.norm(coupling @ known) < 1e-12
        zero = np.zeros((n * n, n * n))
        pairs = []
        for i in range(3):
            for j in range(3):
                x_rows = _sylvester(a1[i] @ dagger(a1[j]), a2[i] @ dagger(a2[j]))
                y_rows = _sylvester(dagger(a1[i]) @ a1[j], dagger(a2[i]) @ a2[j])
                pairs.append(np.hstack([x_rows, zero]))
                pairs.append(np.hstack([zero, y_rows]))
                assert _row_space_residual(pairs[-2], coupling) <= 1e-10
                assert _row_space_residual(pairs[-1], coupling) <= 1e-10
        # not the other way round: the pair rows leave directions free that
        # the coupling rows fix
        assert _row_space_residual(coupling, np.vstack(pairs)) > 1e-3
        # the system keeps the coupling rows and so has their null space
        sd1 = decomposition_from_coeffs(n, [0.5, 0.3, 0.2], a1)
        system = decider._certificate_system(sd1, a2, [0, 1, 2])
        assert np.linalg.matrix_rank(system, tol=1e-10) == np.linalg.matrix_rank(coupling, tol=1e-10)
        assert np.linalg.norm(system @ known) < 1e-12


def _intertwiners(sd1, sd2):
    """Both sides' intertwiners of the local families over the blocks of sd1."""
    ops = decider._block_operators(sd1, sd2, sd1.blocks)
    return decider._intertwiners(ops, sd1.eigenvalues[[b[0] for b in sd1.blocks]])


def _kronecker_intertwiners(ps, qs):
    """Reference: the null space of the rows P_b (x) 1 - 1 (x) Q_b^T of
    P_b Z = Z Q_b on the row-major vec of Z, all N^2 entries unknown, with
    the cutoff ``_intertwiners`` uses."""
    eye = np.eye(ps.shape[1])
    rows = np.vstack([np.kron(p, eye) - np.kron(eye, q.T) for p, q in zip(ps, qs)])
    scale = np.max(np.linalg.norm(ps, axis=(1, 2)) + np.linalg.norm(qs, axis=(1, 2)))
    return nullspace(rows).basis(EPS_NULL, scale)


def _rotated(rho, seed):
    rng = np.random.default_rng(seed)
    n = rho.dim_local
    return lq.apply_local_unitary(rho, lq.haar_unitary(n, rng), lq.haar_unitary(n, rng))


def _intertwiner_pairs():
    """(name, rho1, rho2, dims): seeded pairs and, where fixed, the
    dimensions of both sides' spaces."""
    for n, rank in ((2, 3), (3, 5), (4, 7), (5, 9)):
        rho, img, _, _ = orbit_pair(n, rank, seed=290 + n)
        yield f"orbit-n{n}", rho, img, (1, 1)
    yield "orbit-n6", *_full_rank_orbit_pair(6, 296), (1, 1)
    for n, rank, profile in ((3, 4, [2, 1, 1]), (3, 6, [3, 2, 1]), (4, 6, [2, 1, 1, 2])):
        rho, img, _, _ = orbit_pair(n, rank, seed=297 + n, profile=profile)
        yield f"degenerate-n{n}-{profile}", rho, img, None
    for n in (3, 4):
        yield f"werner-n{n}", werner(n, 0.3), _rotated(werner(n, 0.3), 300 + n), (n * n, n * n)
        yield f"isotropic-n{n}", isotropic(n, 0.4), _rotated(isotropic(n, 0.4), 302 + n), (n * n, n * n)
    # a pure state: one block, whose operator has N distinct eigenvalues
    rho, img, _, _ = orbit_pair(3, 1, seed=304)
    yield "pure-n3", rho, img, (3, 3)
    wh = weyl_bell_diagonal(3, [0.3, 0.2, 0.15, 0.1, 0.08, 0.07, 0.05, 0.03, 0.02])
    yield "weyl-heisenberg-n3", wh, _rotated(wh, 305), (9, 9)
    # rho_A (x) 1/N: every K_b is a multiple of 1, so the sides' systems
    # have N and N^2 unknowns and take an SVD call each
    product = lq.validate_density(np.kron(np.diag([0.5, 0.3, 0.2]), np.eye(3) / 3), 3)
    yield "product-n3", product, _rotated(product, 309), (3, 9)
    # a mixed state against its complex conjugate: no common intertwiner
    rho = lq.random_density(3, 4, seed=306)
    yield "conjugate-n3", rho, lq.validate_density(rho.matrix.conj(), 3), (0, 0)


class TestProductSystem:
    """Intertwiners of the local families H_b = sum A_p A_p^dag and
    K_b = sum A_p^dag A_p, and rho1 T = T rho2 over their products."""

    def test_true_local_unitaries_solve_it(self):
        n = 3
        rho, rho2, u1, u2 = orbit_pair(n, 4, seed=283, profile=[2, 1, 1])
        sd1, sd2 = lq.spectral_decompose(rho), lq.spectral_decompose(rho2)
        xs, ys = _intertwiners(sd1, sd2)
        # X = U1^dag and Y = U2^T lie in the intertwiner spaces
        cx, cy = xs.conj() @ dagger(u1).reshape(-1), ys.conj() @ u2.T.reshape(-1)
        assert np.linalg.norm(cx @ xs - dagger(u1).reshape(-1)) < 1e-10
        assert np.linalg.norm(cy @ ys - u2.T.reshape(-1)) < 1e-10
        system = decider._product_system(rho, rho2, xs, ys)
        assert system.shape == (n ** 4, len(xs) * len(ys))
        assert np.linalg.norm(system @ np.outer(cx, cy).reshape(-1)) < 1e-10

    def test_scalar_families_leave_every_matrix_free(self):
        # Werner states: both local families are multiples of 1, so their
        # rows are rounding noise; a cutoff relative to the largest
        # singular value would keep only part of the N^2 directions
        n = 3
        rho = werner(n, 0.3)
        moved = _rotated(rho, 284)
        sd1, sd2 = lq.spectral_decompose(rho), lq.spectral_decompose(moved)
        assert [b.shape for b in _intertwiners(sd1, sd2)] == [(n * n, n * n)] * 2
        verdict = lq.decide(rho, moved)
        assert verdict.outcome == EQUIVALENT
        assert lq.certify(rho, moved, verdict.certificate.u, verdict.certificate.w) <= 1e-8

    @pytest.mark.parametrize("rho, rho2, dims", [pytest.param(*p[1:], id=p[0]) for p in _intertwiner_pairs()])
    def test_spaces_match_the_kronecker_rows(self, rho, rho2, dims):
        sd1, sd2 = lq.spectral_decompose(rho), lq.spectral_decompose(rho2)
        ops = decider._block_operators(sd1, sd2, sd1.blocks)
        bases = _intertwiners(sd1, sd2)
        if dims is not None:
            assert tuple(len(b) for b in bases) == dims
        for basis, (ps, qs) in zip(bases, ops):
            ref = _kronecker_intertwiners(ps, qs)
            assert basis.shape == ref.shape
            # orthonormal rows, and the projectors onto the two spans agree
            np.testing.assert_allclose(basis.conj() @ basis.T, np.eye(len(basis)), atol=1e-10)
            assert np.max(np.abs(basis.T @ basis.conj() - ref.T @ ref.conj()), initial=0) <= 1e-8

    def test_full_rank_n10_certifies_in_little_memory(self):
        # the N^2-unknown rows of each local family would take 16 N^6 bytes
        # (16 MB at N = 10), and their SVD more
        rng = np.random.default_rng(307)
        n = 10
        basis = lq.haar_unitary(n * n, rng)
        lams = np.linspace(1, 2, n * n)
        rho = lq.validate_density((basis * (lams / lams.sum())) @ dagger(basis), n)
        rho2 = _rotated(rho, 308)
        tracemalloc.start()
        try:
            verdict = lq.decide(rho, rho2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.outcome == EQUIVALENT
        assert verdict.details["attempts"][-1]["mode"] == "product"
        assert peak < 16e6


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


def _near_gap_image(n, rel, seed):
    """A state whose top two eigenvalues differ by ``rel`` (relative), and an
    exact local-unitary image of it."""
    base = np.sort(np.random.default_rng(seed).dirichlet(np.ones(n * n)))[::-1].copy()
    base[1] = base[0] * (1 - rel)
    base /= base.sum()
    v = lq.haar_unitary(n * n, 10 + seed)
    m = (v * base) @ v.conj().T
    rho = lq.validate_density((m + m.conj().T) / 2, n)
    return rho, lq.apply_local_unitary(rho, lq.haar_unitary(n, 30 + seed), lq.haar_unitary(n, 40 + seed))


NEAR_GAP_RELS = (
    1e-11, 3e-11, 1e-10, 3e-10, 1e-9, 3e-9, 1e-8, 3e-8, 1e-7, 3e-7,
    1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3,
)


def near_gap_corpus(n):
    """(name, rho_a, rho_b, equivalent) at local dimension ``n``: for seeds
    0-2 and every gap of ``NEAR_GAP_RELS``, the exact image and the image
    moved by a 1e-12 Hermitian perturbation, both ways, and the state
    against its complex conjugate, which no local unitary reaches."""
    for seed in range(3):
        for rel in NEAR_GAP_RELS:
            rho, image = _near_gap_image(n, rel, seed)
            moved = _perturbed(image, 1800 + seed)
            name = f"near-gap:n{n}-s{seed}-rel{rel:g}"
            yield f"{name} image", rho, image, True
            yield f"{name} image swapped", image, rho, True
            yield f"{name} perturbed", rho, moved, True
            yield f"{name} perturbed swapped", moved, rho, True
            yield f"{name} conjugate", rho, lq.validate_density(rho.matrix.conj(), n), False


class TestNearGapImages:
    # eigh pins the two eigenvectors only to about eps * |rho| / gap, so a
    # word such as L:(1,1)(1,1) moves by more than eps_inv; the pair still
    # certifies once the two eigenvalues share a block.  At (4, 3e-8, 1)
    # every word agrees but the systems at the fine blocks fail
    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize(
        "n, rel, seed",
        [(2, 1e-8, 2), (2, 3e-8, 7), (3, 1e-8, 1), (3, 1e-8, 5), (3, 3e-8, 0), (4, 3e-8, 1)],
    )
    def test_exact_image_is_not_rejected(self, n, rel, seed, swap):
        rho, image = _near_gap_image(n, rel, seed)
        a, b = (image, rho) if swap else (rho, image)
        verdict = lq.decide(a, b)
        assert verdict.outcome == EQUIVALENT
        assert verdict.details["coarse_blocks"][0] == [0, 1]
        assert lq.certify(a, b, verdict.certificate.u, verdict.certificate.w) <= DEFAULT_TOL.eps_cert

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sweep_keeps_witnesses_only_for_the_conjugate(self, n):
        for name, a, b, equivalent in near_gap_corpus(n):
            verdict = lq.decide(a, b)
            if equivalent:
                assert verdict.outcome != NOT_EQUIVALENT, name
            else:
                assert verdict.outcome == NOT_EQUIVALENT, name
                va, vb = recompute_witness(a, b, verdict.witness)
                assert not values_close(va, vb, DEFAULT_TOL.eps_inv), name
