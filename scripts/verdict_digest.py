#!/usr/bin/env python3
"""One line per decided pair or CLI report, for diffing two checkouts.

For a decided pair a line holds, tab-separated: the pair's name, the
outcome, the reason, the witness key ("-" without a witness), the
certificate attempts as mode/null_dim, the SHA-256 of the
certificate's u and w bytes, and ``float.hex`` of its residual (both "-"
without a certificate).  For a CLI report it holds the subcommand, the
input's name, the exit code and the SHA-256 of the bytes written to
stdout.  For an algebra basis it holds the state's name, the side, the
dimension and the SHA-256 of the admitted word keys; values stay out, as
they move at rounding level.  Run this one script, with its corpora,
against the ``src`` of each checkout, so that both sides print the same
columns, and diff.  A change to the numerics may move a line's
certificate bytes and residual (columns 6 and 7); columns 1-5 (name,
outcome, reason, witness, attempts) must not move unless the change
means them to:

    PYTHONPATH=../before/src python scripts/verdict_digest.py > before.txt
    PYTHONPATH=src python scripts/verdict_digest.py > after.txt
    diff before.txt after.txt

Corpora (all by default, or name them with --corpus):

    known-answers  tests/test_known_answers.py, forward, swapped and with
                   the second state moved by 1e-12
    decide-order   tests/test_decide_order.py, forward and swapped
    criterion-3    the orbit pairs of acceptance criterion 3
    agreement      build_corpus of scripts/run_agreement_corpus.py,
                   60 pairs at N=2 and at N=3, seed 0, both ways
    decide-orbit   the lubench decide-orbit inputs, seeds 1-4, both ways
    cli-pairs      the state pairs of the lubench cli compare inputs,
                   seeds 1-4, loaded from their files as the CLI loads
                   them and decided in the library, both ways
    cli-reports    luequiv.cli.main, in process, on the lubench cli
                   inputs of seeds 1-2 and on the states of
                   tests/test_cli.py (each subcommand but validate),
                   plus the fingerprint of an N=4 rank-10 state (two-digit
                   word labels, an 8.7 MB report) and of an N=4 state of
                   degeneracy profile (2,2,1,1,1) (word and block tables)
    algebra        build_algebra, both sides, on the 200 states of
                   acceptance criterion 5 and both states of the 50
                   orbit pairs of criterion 6
    near-gap       near_gap_corpus of tests/test_decider.py at N=2-4:
                   states whose top two eigenvalues sit a relative gap
                   of 1e-11 to 1e-3 apart, against their exact and their
                   1e-12-perturbed local-unitary images, both ways, and
                   against their complex conjugates
    full-rank      full-rank orbit pairs at N=6, 8, 10 and 12, each state
                   from a Haar unitary of size N^2 and a linspace
                   spectrum, and Werner (p = 0.3) and isotropic (f = 0.4)
                   orbit pairs at N=3-5, both ways
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
for sub in ("tests", "scripts", "lubench"):
    sys.path.insert(0, str(ROOT / sub))

import luequiv as lq  # noqa: E402
import luequiv.cli  # noqa: E402,F401


def known_answers():
    import test_known_answers as ka

    for k, (name, a, b) in enumerate(ka.corpus()):
        yield name, a, b
        yield f"{name} swapped", b, a
        yield f"{name} perturbed", a, ka._perturbed(b, 1700 + k)


def decide_order():
    import test_decide_order as do

    for name, a, b in do.corpus():
        yield name, a, b
        yield f"{name} swapped", b, a


def criterion_3():
    from conftest import orbit_pair

    # the loop of tests/test_acceptance.py::test_criterion_3_...
    for n in (2, 3):
        for k in range(100):
            rho, rho2, _, _ = orbit_pair(n, 1 + k % (n * n), seed=7000 + 1000 * n + k)
            yield f"criterion-3:n{n}-k{k}", rho, rho2


def agreement():
    from run_agreement_corpus import build_corpus

    for n in (2, 3):
        for k, (a, b, _) in enumerate(build_corpus(n, 60, 0)):
            yield f"agreement:n{n}-{k}", a, b
            yield f"agreement:n{n}-{k} swapped", b, a


def decide_orbit():
    import workloads

    for seed in (1, 2, 3, 4):
        for kind in workloads.orbit_kinds(lq, seed, None):
            for c, (_, _, a, b) in enumerate(kind.cases):
                yield f"decide-orbit:s{seed}-{kind.name}-{c}", a, b
                yield f"decide-orbit:s{seed}-{kind.name}-{c} swapped", b, a


def cli_pairs():
    import workloads

    from luequiv.io import load_state

    with tempfile.TemporaryDirectory() as tmp:
        for seed in (1, 2, 3, 4):
            workdir = Path(tmp) / f"s{seed}"
            workdir.mkdir()
            for kind in workloads.cli_kinds(lq, seed, workdir):
                for c, case in enumerate(kind.cases):
                    argv = case[-1]
                    if argv[0] != "compare":
                        continue
                    a, b = (load_state(path)[0] for path in argv[1:3])
                    yield f"cli-pairs:s{seed}-{kind.name}-{c}", a, b
                    yield f"cli-pairs:s{seed}-{kind.name}-{c} swapped", b, a


def _cli_inputs(tmp: Path):
    """(name, argv) per CLI call; later calls read the files earlier ones write."""
    import workloads
    from test_cli import write_states

    from luequiv.io import save_state

    for seed in (1, 2):
        workdir = tmp / f"s{seed}"
        workdir.mkdir()
        for kind in workloads.cli_kinds(lq, seed, workdir):
            for c, case in enumerate(kind.cases):
                yield f"cli-reports:s{seed}-{kind.name}-{c}", case[-1]
    states = write_states(tmp)
    for name, path in states.items():
        yield f"cli-reports:{name}", ["fingerprint", path]
    yield "cli-reports:bell tau-cap 1", ["fingerprint", states["bell"], "--tau-cap", "1"]
    # two-digit word labels (91,700 words), and word and block tables together
    for name, rank, profile in (("n4-r10", 10, None), ("n4-p22111", 7, [2, 2, 1, 1, 1])):
        path = tmp / f"{name}.json"
        save_state(path, lq.random_density(4, rank, profile, seed=19).matrix, 4)
        yield f"cli-reports:{name}", ["fingerprint", path]
    for a in ("mixed", "bell", "flat_a", "flat_b"):
        for b in ("mixed", "bell", "flat_a", "flat_b"):
            yield f"cli-reports:{a}-{b}", ["compare", states[a], states[b], "--json"]
    moved, report = tmp / "moved.json", tmp / "report.json"
    yield "cli-reports:bell seed 11", ["orbit", states["bell"], "--seed", "11", "--out", moved]
    yield "cli-reports:bell-moved", ["compare", states["bell"], moved, "--json", "--report", report]
    yield "cli-reports:report bell-moved", ["certify", report, states["bell"], moved]
    yield "cli-reports:report bell-mixed", ["certify", report, states["bell"], states["mixed"]]
    yield "cli-reports:mixed-mixed oracle", [
        "oracle", states["mixed"], states["mixed"], "--restarts", "1", "--iters", "50"
    ]


def cli_reports():
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in _cli_inputs(Path(tmp)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = lq.cli.main([str(a) for a in argv])
            sha = hashlib.sha256(out.getvalue().encode()).hexdigest()
            yield "\t".join([argv[0], name, str(code), sha])


def algebra():
    from conftest import orbit_pair
    from luequiv.states import transform_decomposition

    # the loops of tests/test_acceptance.py::test_criterion_5_... and _6_...
    states = []
    for n in (2, 3):
        for k in range(100):
            rho = lq.random_density(n, 1 + k % (n * n), seed=11_000 + 100 * n + k)
            states.append((f"criterion-5:n{n}-k{k}", lq.spectral_decompose(rho)))
    for k in range(50):
        rho, _, u1, u2 = orbit_pair(2, 1 + k % 4, seed=13_000 + k)
        sd = lq.spectral_decompose(rho)
        states.append((f"criterion-6:k{k}", sd))
        states.append((f"criterion-6:k{k} moved", transform_decomposition(sd, u1, u2)))
    for name, sd in states:
        for side in ("L", "R"):
            basis = lq.build_algebra(sd, side)
            keys = "\n".join(w.key() for w in basis.words)
            yield "\t".join([name, side, str(basis.dim), hashlib.sha256(keys.encode()).hexdigest()])


def near_gap():
    import test_decider as td

    for n in (2, 3, 4):
        for name, a, b, _ in td.near_gap_corpus(n):
            yield name, a, b


def full_rank():
    from conftest import werner
    from test_known_answers import isotropic

    states = []
    for n in (6, 8, 10, 12):
        rng = np.random.default_rng(1900 + n)
        basis = lq.haar_unitary(n * n, rng)
        lams = np.linspace(1, 2, n * n)
        rho = lq.validate_density((basis * (lams / lams.sum())) @ basis.conj().T, n)
        states.append((f"full-rank:n{n}", rho, rng))
    for n in (3, 4, 5):
        states.append((f"full-rank:werner-n{n}", werner(n, 0.3), np.random.default_rng(1910 + n)))
        states.append((f"full-rank:isotropic-n{n}", isotropic(n, 0.4), np.random.default_rng(1920 + n)))
    for name, rho, rng in states:
        n = rho.dim_local
        image = lq.apply_local_unitary(rho, lq.haar_unitary(n, rng), lq.haar_unitary(n, rng))
        yield name, rho, image
        yield f"{name} swapped", image, rho


def _verdicts(pairs):
    """A corpus of decided pairs, as digest lines."""
    return lambda: (digest_line(name, lq.decide(a, b)) for name, a, b in pairs())


CORPORA = {
    "known-answers": _verdicts(known_answers),
    "decide-order": _verdicts(decide_order),
    "criterion-3": _verdicts(criterion_3),
    "agreement": _verdicts(agreement),
    "decide-orbit": _verdicts(decide_orbit),
    "cli-pairs": _verdicts(cli_pairs),
    "cli-reports": cli_reports,
    "algebra": algebra,
    "near-gap": _verdicts(near_gap),
    "full-rank": _verdicts(full_rank),
}


def digest_line(name: str, verdict) -> str:
    attempts = " ".join(
        f"{a['mode']}/{a.get('null_dim', '-')}" for a in verdict.details.get("attempts", [])
    )
    cert = verdict.certificate
    bits = residual = "-"
    if cert is not None:
        raw = b"".join(np.ascontiguousarray(m, dtype=complex).tobytes() for m in (cert.u, cert.w))
        bits = hashlib.sha256(raw).hexdigest()
        residual = float.hex(cert.residual)
    key = verdict.witness.key if verdict.witness is not None else "-"
    return "\t".join([name, verdict.outcome, verdict.reason, key, attempts or "-", bits, residual])


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--corpus", action="append", choices=list(CORPORA),
                        help="corpus to run (repeatable; default all)")
    args = parser.parse_args()
    for corpus in args.corpus or list(CORPORA):
        for line in CORPORA[corpus]():
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
