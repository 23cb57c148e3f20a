"""Output checks that use none of `luequiv`'s code.

Each check either passes, reports an operation as failed (an
`inconclusive` verdict on a pair known to be LU-equivalent), or raises
`CheckFailed` for a wrong output, which stops the run.  The expected
answers come from how the inputs were made (`inputs.py`) or from
properties the method must have; nothing is compared against a stored
copy of the program's earlier output.
"""

from __future__ import annotations

import hashlib

import numpy as np

# The program's default tolerances, restated: a certificate must reach
# eps_cert and LU-images must agree on every invariant within eps_inv.
EPS_CERT = 1e-8
EPS_INV = 1e-8
EPS_UNITARY = 1e-8
EPS_POWER = 1e-10
# Smallest spectral gap accepted as proof that two states are inequivalent.
PROOF_GAP = 1e-6

# The block sum named by this key, sum_{a,b} Tr(A_a A_b^dag A_b A_a^dag),
# equals Tr(sum_a A_a K A_a^dag) with K = sum_b A_b^dag A_b.  For
# diag(1/2, 1/2, 0, 0) the eigenvectors reshape to A = E11, E12, so K = 1
# and the value is Tr(E11) + Tr(E11) = 2.  For diag(1/2, 0, 1/2, 0) they
# are E11, E21, so K = 2 E11 and the value is 2 (Tr(E11) + Tr(E22)) = 4.
DIAG_PAIR_KEY = "L:block(1,2):len2:type(1,1)"
DIAG_PAIR_VALUES = (2.0, 4.0)


class CheckFailed(Exception):
    """The program returned a wrong output."""


def _close(x, y, eps: float) -> np.ndarray:
    x, y = np.asarray(x), np.asarray(y)
    return np.abs(x - y) <= eps * np.maximum(1.0, np.maximum(np.abs(x), np.abs(y)))


def certificate_residual(m1, m2, u, w) -> float:
    """||m2 - (u^dag (x) (w*)^dag) m1 (u (x) w*)||_F, the program's certificate convention."""
    v = np.kron(np.conj(u).T, np.asarray(w).T)
    return float(np.linalg.norm(m2 - v @ m1 @ v.conj().T))


def check_certificate(m1, m2, u, w) -> None:
    for name, x in (("u", np.asarray(u)), ("w", np.asarray(w))):
        err = float(np.linalg.norm(x @ x.conj().T - np.eye(x.shape[0])))
        if not err <= EPS_UNITARY:
            raise CheckFailed(f"certificate {name} is not unitary: ||{name}{name}^dag - 1|| = {err:.3e}")
    res = certificate_residual(m1, m2, u, w)
    if not res <= EPS_CERT:
        raise CheckFailed(f"certificate residual {res:.3e} exceeds {EPS_CERT:g}")


def check_equivalent_pair(outcome: str, m1, m2, u=None, w=None) -> bool:
    """Verdict on a pair known to be LU-equivalent; True when the operation failed."""
    if outcome == "equivalent":
        check_certificate(m1, m2, u, w)
        return False
    if outcome == "inconclusive":
        return True
    raise CheckFailed(f"verdict {outcome!r} on a pair known to be LU-equivalent")


def reduced_states(m, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(Tr_B m, Tr_A m) for m on C^n (x) C^n."""
    r = np.asarray(m).reshape(n, n, n, n)
    return np.einsum("abcb->ac", r), np.einsum("abac->bc", r)


def inequivalence_proof(m1, m2, n: int) -> str | None:
    """Name an LU-invariant spectrum that differs between the states, else None.

    The spectrum of a state and those of its two reduced states are
    unchanged by any U1 (x) U2, so a gap in one of them proves the states
    inequivalent.
    """
    if np.max(np.abs(np.linalg.eigvalsh(m1) - np.linalg.eigvalsh(m2))) > PROOF_GAP:
        return "spectrum"
    for side, r1, r2 in zip("AB", reduced_states(m1, n), reduced_states(m2, n)):
        if np.max(np.abs(np.linalg.eigvalsh(r1) - np.linalg.eigvalsh(r2))) > PROOF_GAP:
            return f"reduced spectrum {side}"
    return None


def check_inequivalent_pair(outcome: str, m1, m2, n: int) -> bool:
    """Verdict on a pair that must be proved inequivalent; True when the operation failed."""
    if inequivalence_proof(m1, m2, n) is None:
        raise CheckFailed("pair has no independent proof of inequivalence")
    if outcome == "not_equivalent":
        return False
    if outcome == "inconclusive":
        return True
    raise CheckFailed(f"verdict {outcome!r} on a pair proved inequivalent")


def check_compare_report(exit_code: int, doc: dict, m1, m2, n: int, diag_pair: bool = False) -> bool:
    """A `compare --json` report on a pair proved inequivalent; True when it failed.

    For the diag pair a witness named DIAG_PAIR_KEY must carry the
    hand-computed values.
    """
    expected_exit = {"equivalent": 0, "not_equivalent": 1, "inconclusive": 2}.get(doc.get("outcome"))
    if exit_code != expected_exit:
        raise CheckFailed(f"exit code {exit_code} does not match outcome {doc.get('outcome')!r}")
    failed = check_inequivalent_pair(doc["outcome"], m1, m2, n)
    witness = doc.get("witness")
    if not failed and witness is None:
        raise CheckFailed("not_equivalent report names no witness")
    if diag_pair and witness is not None and witness["key"] == DIAG_PAIR_KEY:
        got = (witness["value_a"][0], witness["value_b"][0])
        if not np.all(_close(got, DIAG_PAIR_VALUES, 1e-12)):
            raise CheckFailed(f"block values {got} differ from the hand-computed {DIAG_PAIR_VALUES}")
    return failed


def check_power_traces(m, traces) -> None:
    """Power traces against Tr(m^s), s = 1 .. dim, from matrix powers."""
    m = np.asarray(m)
    p = np.eye(m.shape[0], dtype=complex)
    expected = []
    for _ in range(m.shape[0]):
        p = p @ m
        expected.append(np.trace(p).real)
    traces = np.asarray(traces, dtype=float)
    if traces.shape != (m.shape[0],):
        raise CheckFailed(f"{traces.shape[0]} power traces, expected {m.shape[0]}")
    bad = ~_close(traces, expected, EPS_POWER)
    if np.any(bad):
        s = int(np.argmax(bad))
        raise CheckFailed(f"Tr(rho^{s + 1}) reported {traces[s]!r}, matrix powers give {expected[s]!r}")


def check_signatures_match(a, b) -> None:
    """Two invariant signatures agree within EPS_INV (read field by field)."""
    shape_a = (a.dim_local, a.rank, tuple(a.block_sizes), a.tau_balanced, a.tau_block)
    shape_b = (b.dim_local, b.rank, tuple(b.block_sizes), b.tau_balanced, b.tau_block)
    if shape_a != shape_b:
        raise CheckFailed(f"signature structure {shape_a} != {shape_b}")
    if not np.all(_close(a.power_traces, b.power_traces, EPS_INV)):
        raise CheckFailed("power traces differ")
    if len(a.balanced_groups) != len(b.balanced_groups):
        raise CheckFailed("balanced word groups differ in number")
    for ga, gb in zip(a.balanced_groups, b.balanced_groups):
        if (ga.side, ga.length) != (gb.side, gb.length) or not np.array_equal(ga.letters, gb.letters):
            raise CheckFailed(f"balanced words {ga.side}:len{ga.length} differ in their letters")
        bad = ~_close(ga.values, gb.values, EPS_INV)
        if np.any(bad):
            k = int(np.argmax(bad))
            raise CheckFailed(
                f"balanced word {ga.side}:len{ga.length} #{k}: {ga.values[k]} vs {gb.values[k]}"
            )
    if a.block_invariants.keys() != b.block_invariants.keys():
        raise CheckFailed("block invariant keys differ")
    for key, va in a.block_invariants.items():
        if not _close(va, b.block_invariants[key], EPS_INV):
            raise CheckFailed(f"block invariant {key}: {va} vs {b.block_invariants[key]}")


def signature_digest(sig) -> str:
    """SHA-256 over every number of a signature, for bit-for-bit comparison."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(sig.power_traces).tobytes())
    for g in sig.balanced_groups:
        h.update(f"{g.side}{g.length}".encode())
        h.update(np.ascontiguousarray(g.letters).tobytes())
        h.update(np.ascontiguousarray(g.values).tobytes())
    for key in sorted(sig.block_invariants):
        h.update(key.encode())
        h.update(np.complex128(sig.block_invariants[key]).tobytes())
    return h.hexdigest()


def check_identical(digests) -> None:
    """Repeated outputs for one input must be byte-identical."""
    if len(set(digests)) != 1:
        raise CheckFailed(f"{len(set(digests))} different outputs for one input")
