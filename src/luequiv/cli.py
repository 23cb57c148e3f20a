"""Command line front end.

Subcommands::

    luequiv validate STATE                 check a state file
    luequiv fingerprint STATE              print the invariant signature
    luequiv compare A B                    decide equivalence, print a report
    luequiv orbit STATE --out OUT          conjugate by seeded local unitaries
    luequiv oracle A B                     brute-force optimization oracle
    luequiv certify REPORT A B             re-verify a report's certificate

Exit codes (stable):

    0  success / states equivalent
    1  states not equivalent / certificate check failed
    2  inconclusive
    3  parse, usage or I/O error
    4  not Hermitian          5  trace differs from one
    6  not positive semidefinite
    7  dimension mismatch     8  not unitary
    9  other library error
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .config import DEFAULT_TOL, EPS_ORACLE, Tolerances
from .decider import EQUIVALENT, INCONCLUSIVE, NOT_EQUIVALENT, certify, decide
from .errors import (
    DimensionMismatch,
    LuequivError,
    NotHermitian,
    NotPositiveSemidefinite,
    NotUnitary,
    NotUnitTrace,
    ParseError,
)
from .invariants import InvariantSignature, _letter_labels, _word_bodies, fingerprint
from .io import (
    REPORT_SCHEMA_VERSION,
    ComplexTable,
    dump_json,
    file_digest,
    load_state,
    matrix_to_pairs,
    pairs_to_matrix,
    save_state,
)
from .states import apply_local_unitary
from .testkit import brute_force_oracle, haar_unitary

EXIT_OK = 0
EXIT_NOT_EQUIVALENT = 1
EXIT_INCONCLUSIVE = 2
EXIT_PARSE = 3
EXIT_NOT_HERMITIAN = 4
EXIT_NOT_UNIT_TRACE = 5
EXIT_NOT_PSD = 6
EXIT_DIMENSION = 7
EXIT_NOT_UNITARY = 8
EXIT_LIBRARY = 9

_ERROR_CODES = [  # first match wins; the base class last catches the rest
    (ParseError, EXIT_PARSE),
    (NotHermitian, EXIT_NOT_HERMITIAN),
    (NotUnitTrace, EXIT_NOT_UNIT_TRACE),
    (NotPositiveSemidefinite, EXIT_NOT_PSD),
    (DimensionMismatch, EXIT_DIMENSION),
    (NotUnitary, EXIT_NOT_UNITARY),
    (LuequivError, EXIT_LIBRARY),
]


# flag -> (the Tolerances field it sets, or None; argparse keywords).
# Each subcommand adds only the flags it reads.
_FLAGS = {
    "--json": (None, dict(action="store_true", help="machine-readable output")),
    "--no-validate": (None, dict(action="store_true", help="skip density-matrix validation")),
    "--seed": (None, dict(type=int, default=0, help="random seed")),
    "--tau-cap": ("tau_cap", dict(
        type=int, help="maximum word length, with no upper bound; block sums, unlike words, "
        "have no evaluation budget, and their keys grow with the partition numbers of the cap"
    )),
    "--eps-inv": ("eps_inv", dict(type=float, help="invariant comparison tolerance")),
    "--eps-cert": ("eps_cert", dict(type=float, help="certificate residual tolerance")),
    "--eps-deg": ("eps_deg", dict(type=float, help="degeneracy gap tolerance")),
}


def _tolerances(args) -> Tolerances:
    """DEFAULT_TOL with the fields of the tolerance flags given on the line;
    an out-of-range value is a usage error."""
    overrides = {
        field: getattr(args, field)
        for field, _ in _FLAGS.values()
        if field and getattr(args, field, None) is not None
    }
    try:
        return DEFAULT_TOL.replace(**overrides)
    except ValueError as exc:
        build_parser().error(str(exc))


def _word_table(sig: InvariantSignature) -> ComplexTable:
    """``sig.balanced_words`` in key order, from its groups: the L and R
    groups of a length share one letters array, so the key bodies are built
    and sorted once, and every ``L:`` key sorts before every ``R:`` key."""
    groups = sig.balanced_groups
    if not groups:
        return ComplexTable((), [], np.empty((0, 0), complex))
    labels = _letter_labels(sig.rank)
    bodies = list(chain.from_iterable(_word_bodies(g.letters, labels) for g in groups[0::2]))
    order = sorted(range(len(bodies)), key=bodies.__getitem__)
    values = np.stack([np.concatenate([g.values for g in groups[s::2]]) for s in (0, 1)])
    return ComplexTable(("L:", "R:"), list(map(bodies.__getitem__, order)), values[:, order])


def _signature_doc(path: str, tol: Tolerances, validate: bool) -> dict:
    rho, label = load_state(path, validate=validate)
    sig = fingerprint(rho, tol)
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": "fingerprint",
        "tool_version": __version__,
        "input_digest": file_digest(path),
        "label": label,
        "local_dim": sig.dim_local,
        "rank": sig.rank,
        "block_sizes": list(sig.block_sizes),
        "power_traces": [float(x) for x in sig.power_traces],
        "balanced_words": _word_table(sig),
        "block_invariants": sig.block_invariants,
        "tau_balanced": sig.tau_balanced,
        "tau_block": sig.tau_block,
        "tolerances": tol.as_dict(),
    }


def cmd_validate(args) -> int:
    rho, label = load_state(args.state)
    print(f"valid density matrix: N={rho.dim_local}" + (f" label={label!r}" if label else ""))
    return EXIT_OK


def cmd_fingerprint(args) -> int:
    doc = _signature_doc(args.state, _tolerances(args), not args.no_validate)
    sys.stdout.write(dump_json(doc))
    return EXIT_OK


def cmd_compare(args) -> int:
    tol = _tolerances(args)
    rho_a, label_a = load_state(args.state_a, validate=not args.no_validate)
    rho_b, label_b = load_state(args.state_b, validate=not args.no_validate)
    verdict = decide(rho_a, rho_b, tol)
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": "verdict",
        "tool_version": __version__,
        "inputs": {
            "a": {"digest": file_digest(args.state_a), "label": label_a},
            "b": {"digest": file_digest(args.state_b), "label": label_b},
        },
        "outcome": verdict.outcome,
        "reason": verdict.reason,
        "witness": None,
        "certificate": None,
        "tolerances": tol.as_dict(),
        "details": verdict.details,
    }
    if verdict.witness is not None:
        doc["witness"] = {
            "kind": verdict.witness.kind,
            "key": verdict.witness.key,
            "value_a": complex(verdict.witness.value_a),
            "value_b": complex(verdict.witness.value_b),
        }
    if verdict.certificate is not None:
        doc["certificate"] = {
            "u": matrix_to_pairs(verdict.certificate.u),
            "w": matrix_to_pairs(verdict.certificate.w),
            "residual": verdict.certificate.residual,
        }
    text = dump_json(doc)
    if args.report:
        Path(args.report).write_text(text)
    if args.json:
        sys.stdout.write(text)
    else:
        print(f"outcome: {verdict.outcome} ({verdict.reason})")
        if verdict.witness is not None:
            w = verdict.witness
            print(f"witness: {w.kind} {w.key} values {w.value_a:.9g} vs {w.value_b:.9g}")
        if verdict.certificate is not None:
            print(f"certificate residual: {verdict.certificate.residual:.3e}")
    return {
        EQUIVALENT: EXIT_OK,
        NOT_EQUIVALENT: EXIT_NOT_EQUIVALENT,
        INCONCLUSIVE: EXIT_INCONCLUSIVE,
    }[verdict.outcome]


def cmd_orbit(args) -> int:
    rho, label = load_state(args.state)
    rng = np.random.default_rng(args.seed)
    u1 = haar_unitary(rho.dim_local, rng)
    u2 = haar_unitary(rho.dim_local, rng)
    out = apply_local_unitary(rho, u1, u2)
    out_label = f"{label or 'state'} orbit seed={args.seed}"
    save_state(args.out, out.matrix, out.dim_local, label=out_label)
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": "orbit",
        "tool_version": __version__,
        "seed": args.seed,
        "input_digest": file_digest(args.state),
        "output_digest": file_digest(args.out),
        "u1": matrix_to_pairs(u1),
        "u2": matrix_to_pairs(u2),
    }
    sys.stdout.write(dump_json(doc))
    return EXIT_OK


def cmd_oracle(args) -> int:
    rho_a, _ = load_state(args.state_a, validate=not args.no_validate)
    rho_b, _ = load_state(args.state_b, validate=not args.no_validate)
    if rho_a.dim_local > 3:
        print("warning: the oracle is intended for N <= 3", file=sys.stderr)
    result = brute_force_oracle(
        rho_a, rho_b, restarts=args.restarts, iters=args.iters, seed=args.seed
    )
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": "oracle",
        "tool_version": __version__,
        "best_distance": result.best_distance,
        "converged": result.converged,
        "restarts_used": result.restarts_used,
        "restarts": args.restarts,
        "iters": args.iters,
        "seed": args.seed,
        "eps_oracle": EPS_ORACLE,
        "u1": matrix_to_pairs(result.best_pair[0]),
        "u2": matrix_to_pairs(result.best_pair[1]),
    }
    sys.stdout.write(dump_json(doc))
    return EXIT_OK


def cmd_certify(args) -> int:
    tol = _tolerances(args)
    try:
        report = json.loads(Path(args.report).read_text())
        cert = report["certificate"]
        u = pairs_to_matrix(cert["u"])
        w = pairs_to_matrix(cert["w"])
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ParseError(f"{args.report}: no readable certificate ({exc})") from exc
    rho_a, _ = load_state(args.state_a, validate=not args.no_validate)
    rho_b, _ = load_state(args.state_b, validate=not args.no_validate)
    residual = certify(rho_a, rho_b, u, w)
    ok = residual <= tol.eps_cert
    sys.stdout.write(dump_json({
        "kind": "certify",
        "residual": residual,
        "eps_cert": tol.eps_cert,
        "pass": bool(ok),
    }))
    return EXIT_OK if ok else EXIT_NOT_EQUIVALENT


class _Parser(argparse.ArgumentParser):
    """Ends usage errors with EXIT_PARSE, not argparse's 2 (inconclusive)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _add_flags(p: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        field, kwargs = _FLAGS[flag]
        p.add_argument(flag, dest=field, **kwargs)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not change it."""
    parser = _Parser(
        prog="luequiv",
        description="Local-unitary equivalence of bipartite density matrices.",
        epilog=__doc__.split("Exit codes")[1].join(["Exit codes", ""]),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"luequiv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a state file")
    p.add_argument("state")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("fingerprint", help="print the invariant signature")
    p.add_argument("state")
    _add_flags(p, "--no-validate", "--tau-cap", "--eps-deg")
    p.set_defaults(func=cmd_fingerprint)

    p = sub.add_parser("compare", help="decide local-unitary equivalence")
    p.add_argument("state_a")
    p.add_argument("state_b")
    p.add_argument("--report", default=None, help="also write the JSON report here")
    _add_flags(p, "--json", "--no-validate", "--tau-cap", "--eps-inv", "--eps-cert", "--eps-deg")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("orbit", help="conjugate a state by seeded local unitaries")
    p.add_argument("state")
    p.add_argument("--out", required=True, help="output state file")
    _add_flags(p, "--seed")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("oracle", help="brute-force equivalence oracle")
    p.add_argument("state_a")
    p.add_argument("state_b")
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--iters", type=int, default=2000)
    _add_flags(p, "--seed", "--no-validate")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("certify", help="re-verify a report's certificate")
    p.add_argument("report")
    p.add_argument("state_a")
    p.add_argument("state_b")
    _add_flags(p, "--eps-cert", "--no-validate")
    p.set_defaults(func=cmd_certify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LuequivError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _ERROR_CODES if isinstance(exc, cls))


def entrypoint() -> None:  # console script
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
