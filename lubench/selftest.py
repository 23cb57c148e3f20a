#!/usr/bin/env python3
"""Quick tests of the benchmark's own checks: each must pass a right output
and reject a deliberately wrong one.  Needs only numpy:

    python3 lubench/selftest.py
"""

import unittest
from types import SimpleNamespace

import numpy as np

import checks
import inputs


def orbit(n=2, profile=(1, 1, 1), seed=5):
    rng = np.random.default_rng(seed)
    m = inputs.random_state(n, profile, rng)
    m2, u1, u2 = inputs.local_image(m, n, rng)
    # m2 = (u^dag (x) (w*)^dag) m (u (x) w*) with u = U1^dag and w = U2^T.
    return m, m2, u1.conj().T, u2.T


def signature(values, block=0.25):
    group = SimpleNamespace(side="L", length=2, letters=np.array([[[1, 1], [2, 2]]]),
                            values=np.array(values, dtype=complex))
    return SimpleNamespace(dim_local=2, rank=2, block_sizes=(1, 1), tau_balanced=2, tau_block=4,
                           power_traces=np.array([1.0, 0.5]), balanced_groups=[group],
                           block_invariants={"L:block(1,2):len1:type(1)": block})


class CertificateChecks(unittest.TestCase):
    def test_true_certificate_passes(self):
        m, m2, u, w = orbit()
        checks.check_certificate(m, m2, u, w)
        self.assertFalse(checks.check_equivalent_pair("equivalent", m, m2, u, w))

    def test_tampered_certificate_is_rejected(self):
        m, m2, u, w = orbit()
        flip = np.diag([1.0, -1.0])
        with self.assertRaises(checks.CheckFailed):
            checks.check_certificate(m, m2, u @ flip, w)
        with self.assertRaises(checks.CheckFailed):
            checks.check_certificate(m, m2, u, w.T)

    def test_non_unitary_certificate_is_rejected(self):
        m, m2, u, w = orbit()
        with self.assertRaises(checks.CheckFailed):
            checks.check_certificate(m, m2, 1.001 * u, w)


class VerdictChecks(unittest.TestCase):
    def test_flipped_outcome_on_equivalent_pair_is_rejected(self):
        m, m2, _, _ = orbit()
        with self.assertRaises(checks.CheckFailed):
            checks.check_equivalent_pair("not_equivalent", m, m2)

    def test_inconclusive_counts_as_failed(self):
        m, m2, _, _ = orbit()
        self.assertTrue(checks.check_equivalent_pair("inconclusive", m, m2))

    def test_flipped_outcome_on_inequivalent_pair_is_rejected(self):
        a, b = inputs.diag_half_pair()
        self.assertFalse(checks.check_inequivalent_pair("not_equivalent", a, b, 2))
        with self.assertRaises(checks.CheckFailed):
            checks.check_inequivalent_pair("equivalent", a, b, 2)

    def test_no_proof_for_an_orbit_pair(self):
        m, m2, _, _ = orbit(3, (2, 1, 1))
        self.assertIsNone(checks.inequivalence_proof(m, m2, 3))
        with self.assertRaises(checks.CheckFailed):
            checks.check_inequivalent_pair("not_equivalent", m, m2, 3)

    def test_diag_pair_block_values(self):
        a, b = inputs.diag_half_pair()
        doc = {"outcome": "not_equivalent", "witness": {
            "kind": "block_invariant", "key": checks.DIAG_PAIR_KEY,
            "value_a": [2.0, 0.0], "value_b": [4.0, 0.0]}}
        self.assertFalse(checks.check_compare_report(1, doc, a, b, 2, diag_pair=True))
        with self.assertRaises(checks.CheckFailed):
            checks.check_compare_report(0, doc, a, b, 2, diag_pair=True)
        doc["witness"]["value_b"] = [3.0, 0.0]
        with self.assertRaises(checks.CheckFailed):
            checks.check_compare_report(1, doc, a, b, 2, diag_pair=True)


class SignatureChecks(unittest.TestCase):
    def test_power_traces(self):
        m, _, _, _ = orbit()
        lams = np.linalg.eigvalsh(m)
        traces = np.array([np.sum(lams ** s) for s in range(1, 5)])
        checks.check_power_traces(m, traces)
        traces[2] += 1e-7
        with self.assertRaises(checks.CheckFailed):
            checks.check_power_traces(m, traces)

    def test_perturbed_signature_is_rejected(self):
        checks.check_signatures_match(signature([0.3]), signature([0.3 + 1e-12]))
        with self.assertRaises(checks.CheckFailed):
            checks.check_signatures_match(signature([0.3]), signature([0.3 + 1e-6]))
        with self.assertRaises(checks.CheckFailed):
            checks.check_signatures_match(signature([0.3]), signature([0.3], block=0.26))

    def test_digests_must_be_identical(self):
        d1 = checks.signature_digest(signature([0.3]))
        d2 = checks.signature_digest(signature([np.nextafter(0.3, 1.0)]))
        checks.check_identical([d1, d1])
        with self.assertRaises(checks.CheckFailed):
            checks.check_identical([d1, d2])


if __name__ == "__main__":
    unittest.main()
