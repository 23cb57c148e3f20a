"""The three workloads: operation kinds, their seeded inputs and their checks.

A workload is a list of kinds, and each kind a list of cases (inputs).
One round runs every case once, in order; a run is a whole number of
rounds, so each kind keeps its share of the operations whatever the run
length.  A kind's median is taken over all its cases: more cases of a
cheap kind give its median more samples and make it depend less on the
particular states one seed draws.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs

# Inputs of the families that fail every time are fixed, not drawn from
# --seed, so every run fails exactly the same operations.
FIXED_SEED = 1207


@dataclass
class Kind:
    """One operation kind of a workload.

    ``cases`` holds one input per repetition; a round runs ``op`` once on
    each.  ``keep(case, output)`` turns an output into a compact record,
    with the clock stopped, so that no large output is held during the
    pass.  ``check(case, record)`` returns True when the operation failed
    and raises ``checks.CheckFailed`` on a wrong output.  When
    ``identical`` is set, every record of one case must carry the same
    ``digest``.  ``lu_check(case, digest)`` is a heavier property check,
    run by the first worker only, of the output whose digest the records
    carry.
    """

    name: str
    cases: list
    op: Callable[[object], object]
    keep: Callable[[object, object], "Record"]
    check: Callable[[object, "Record"], bool]
    identical: bool = False
    lu_check: Callable[[object, str], None] | None = None


@dataclass
class Record:
    digest: str | None
    data: object


def _rng(seed: int, kind: int, case: int) -> np.random.Generator:
    return np.random.default_rng([seed, kind, case])


# ---------------------------------------------------------------------------
# fingerprint: library fingerprint(rho) on single states

# (name, N, degeneracy profile, cases).  Nondegenerate N=3..4 states of
# rank 3..6 evaluate 1.4e4..1.6e5 balanced words; the degenerate ones
# exercise block sums (partly degenerate keeps a few singleton words).
FINGERPRINT_KINDS = (
    ("n3-r3", 3, (1, 1, 1), 3),
    ("n3-r4", 3, (1, 1, 1, 1), 1),
    ("n4-r5", 4, (1, 1, 1, 1, 1), 2),
    ("n3-r6", 3, (1, 1, 1, 1, 1, 1), 1),
    ("n3-p211", 3, (2, 1, 1), 4),
    ("n3-p33", 3, (3, 3), 3),
    ("n3-p4", 3, (4,), 3),
    ("n2-p2", 2, (2,), 10),
)


def fingerprint_kinds(lq, seed: int, workdir: Path) -> list[Kind]:
    def op(case):
        return lq.invariants.fingerprint(case[2])

    def keep(case, sig):
        return Record(checks.signature_digest(sig), np.array(sig.power_traces))

    def check(case, rec):
        checks.check_power_traces(case[0], rec.data)
        return False

    def lu_check(case, digest):
        m, image, rho = case
        sig = lq.invariants.fingerprint(rho)
        checks.check_identical([digest, checks.signature_digest(sig)])
        moved = lq.invariants.fingerprint(lq.validate_density(image, rho.dim_local))
        checks.check_signatures_match(sig, moved)

    kinds = []
    for k, (name, n, profile, count) in enumerate(FINGERPRINT_KINDS):
        cases = []
        for c in range(count):
            rng = _rng(seed, k, c)
            m = inputs.random_state(n, profile, rng)
            image, _, _ = inputs.local_image(m, n, rng)
            cases.append((m, image, lq.validate_density(m, n)))
        kinds.append(Kind(name, cases, op, keep, check, identical=True, lu_check=lu_check))
    return kinds


# ---------------------------------------------------------------------------
# decide-orbit: library decide(rho, (U1 (x) U2) rho (U1 (x) U2)^dagger)

# (name, N, profile, cases).  Nondegenerate pairs at N=2..6, the N=6 pair
# at full rank (its stacked certificate system is the memory peak), and
# partly degenerate profiles, which fail two "full" attempts before the
# "safe" mode certifies.
ORBIT_KINDS = (
    ("n2-r2", 2, (1, 1), 8),
    ("n2-r4", 2, (1, 1, 1, 1), 8),
    ("n3-r3", 3, (1, 1, 1), 8),
    ("n3-r9", 3, (1,) * 9, 4),
    ("n4-r4", 4, (1, 1, 1, 1), 6),
    ("n4-r16", 4, (1,) * 16, 2),
    ("n5-r5", 5, (1,) * 5, 4),
    ("n6-r36", 6, (1,) * 36, 1),
    ("n3-p21", 3, (2, 1), 3),
    ("n3-p211", 3, (2, 1, 1), 3),
    ("n3-p311", 3, (3, 1, 1), 2),
    ("n4-p211", 4, (2, 1, 1), 2),
)

# Orbit pairs with no singleton eigenvalue: `inconclusive
# (degenerate-no-certificate)` on every input today.
NO_SINGLETON_KINDS = (
    ("nosingle-n2-p2", 2, (2,)),
    ("nosingle-n2-p22", 2, (2, 2)),
    ("nosingle-n3-p2", 3, (2,)),
    ("nosingle-n3-p3", 3, (3,)),
)

# Unmoved Bell-diagonal pairs with permuted weights.  Every connector
# candidate has trace 0 there, so phase alignment leaves the phases free
# and the pair comes back `inconclusive (numerical)`.
BELL_PERMUTATIONS = ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))


def _decide_kind(lq, name, cases) -> Kind:
    """Each case is (m1, m2, rho1, rho2) for a pair known to be LU-equivalent."""

    def op(case):
        return lq.decider.decide(case[2], case[3])

    def keep(case, verdict):
        cert = verdict.certificate
        return Record(None, (verdict.outcome, None if cert is None else (cert.u, cert.w)))

    def check(case, rec):
        outcome, uw = rec.data
        return checks.check_equivalent_pair(outcome, case[0], case[1], *(uw or (None, None)))

    return Kind(name, cases, op, keep, check)


def _orbit_pair(lq, n, profile, rng):
    m = inputs.random_state(n, profile, rng)
    m2, _, _ = inputs.local_image(m, n, rng)
    return m, m2, lq.validate_density(m, n), lq.validate_density(m2, n)


def orbit_kinds(lq, seed: int, workdir: Path) -> list[Kind]:
    kinds = []
    for k, (name, n, profile, count) in enumerate(ORBIT_KINDS):
        cases = [_orbit_pair(lq, n, profile, _rng(seed, k, c)) for c in range(count)]
        kinds.append(_decide_kind(lq, name, cases))
    for k, (name, n, profile) in enumerate(NO_SINGLETON_KINDS):
        kinds.append(_decide_kind(lq, name, [_orbit_pair(lq, n, profile, _rng(FIXED_SEED, k, 0))]))
    m1 = inputs.bell_diagonal(inputs.BELL_WEIGHTS)
    bell = []
    for perm in BELL_PERMUTATIONS:
        m2 = inputs.bell_diagonal([inputs.BELL_WEIGHTS[p] for p in perm])
        bell.append((m1, m2, lq.validate_density(m1, 2), lq.validate_density(m2, 2)))
    kinds.append(_decide_kind(lq, "bell-perm", bell))
    return kinds


# ---------------------------------------------------------------------------
# cli: the luequiv command line, in process, on state files

# compare --json on pairs proved inequivalent, each rejected by one
# invariant stage: (name, N, profile, how the second state is made, cases).
COMPARE_KINDS = (
    ("cmp-spectrum-n3", 3, (1, 1, 1, 1), "other-spectrum", 4),
    ("cmp-words-n3", 3, (1, 1, 1, 1), "same-spectrum", 4),
    ("cmp-words-n4", 4, (1, 1, 1, 1, 1), "same-spectrum", 4),
    ("cmp-block-n3", 3, (3,), "same-spectrum", 4),
    ("cmp-block-diag", 2, None, "diag-pair", 1),
)

# fingerprint on moderate states: key building and JSON output dominate.
CLI_FINGERPRINT_KINDS = (
    ("fp-n3-r3", 3, (1, 1, 1), 1),
    ("fp-n4-r3", 4, (1, 1, 1), 1),
    ("fp-n3-p211", 3, (2, 1, 1), 2),
    ("fp-n2-r4", 2, (1, 1, 1, 1), 4),
)


def _run_cli(lq, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = lq.cli.main(argv)
    return code, out.getvalue()


def _inequivalent_pair(n, profile, how, rng):
    """Draw until an LU-invariant spectrum proves the pair inequivalent."""
    if how == "diag-pair":
        return inputs.diag_half_pair()
    for _ in range(100):
        m1 = inputs.random_state(n, profile, rng)
        if how == "same-spectrum":
            m2 = inputs.same_spectrum_state(m1, rng)
        else:
            m2 = inputs.random_state(n, profile, rng)
        if checks.inequivalence_proof(m1, m2, n) is not None:
            return m1, m2
    raise RuntimeError(f"no provably inequivalent pair drawn for N={n} {profile}")


def cli_kinds(lq, seed: int, workdir: Path) -> list[Kind]:
    def op(case):
        return _run_cli(lq, case[-1])

    def keep_compare(case, result):
        code, text = result
        return Record(None, (code, json.loads(text)))

    def check_compare(case, rec):
        m1, m2, n, how, _ = case
        return checks.check_compare_report(
            rec.data[0], rec.data[1], m1, m2, n, diag_pair=how == "diag-pair"
        )

    def keep_fingerprint(case, result):
        code, text = result
        doc = json.loads(text)
        head = (code, doc.get("kind"), doc.get("local_dim"), doc.get("power_traces"))
        return Record(hashlib.sha256(text.encode()).hexdigest(), head)

    def check_fingerprint(case, rec):
        m, n, _ = case
        code, kind, local_dim, power = rec.data
        if code != 0 or kind != "fingerprint" or local_dim != n:
            raise checks.CheckFailed(f"fingerprint command exited {code} with a wrong report")
        checks.check_power_traces(m, power)
        return False

    kinds = []
    for k, (name, n, profile, how, count) in enumerate(COMPARE_KINDS):
        cases = []
        for c in range(count):
            m1, m2 = _inequivalent_pair(n, profile, how, _rng(seed, k, c))
            fa, fb = workdir / f"{name}-{c}-a.json", workdir / f"{name}-{c}-b.json"
            inputs.write_state(fa, m1, n, f"{name} {c} a")
            inputs.write_state(fb, m2, n, f"{name} {c} b")
            cases.append((m1, m2, n, how, ["compare", str(fa), str(fb), "--json"]))
        kinds.append(Kind(name, cases, op, keep_compare, check_compare))
    for k, (name, n, profile, count) in enumerate(CLI_FINGERPRINT_KINDS, start=len(COMPARE_KINDS)):
        cases = []
        for c in range(count):
            m = inputs.random_state(n, profile, _rng(seed, k, c))
            path = workdir / f"{name}-{c}.json"
            inputs.write_state(path, m, n, f"{name} {c}")
            cases.append((m, n, ["fingerprint", str(path)]))
        kinds.append(Kind(name, cases, op, keep_fingerprint, check_fingerprint, identical=True))
    return kinds


# workload name -> (root span of one operation, function that makes its kinds)
WORKLOADS = {
    "fingerprint": ("invariants.fingerprint", fingerprint_kinds),
    "decide-orbit": ("decider.decide", orbit_kinds),
    "cli": ("cli.command", cli_kinds),
}
