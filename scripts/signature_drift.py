#!/usr/bin/env python3
"""Every key, letter and value of the signatures of a fixed corpus, for
telling rounding drift from a real change between two checkouts.

`scripts/verdict_digest.py` hashes bytes, so a value that moves in its
last digit reads the same as one that moves by 1.  This script writes the
signatures themselves to one `.npz` file and compares two such files:

    PYTHONPATH=src python scripts/signature_drift.py before.npz
    PYTHONPATH=/path/to/other/src python scripts/signature_drift.py after.npz
    python scripts/signature_drift.py --compare before.npz after.npz

The corpus is the lubench `fingerprint` inputs of seeds 1-3 (81 states),
the valid states of tests/test_cli.py, and two N=4 states with degenerate
blocks: profile (3,1,1), and the (2,2,1,1,1) state of
`scripts/verdict_digest.py`.  `--compare` prints whether the
keys, their order and the word letters are equal, and the largest change
of a value, relative to max(1, |v|) and absolute; it exits 1 when the
keys, order or letters differ.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def corpus(lq):
    """(name, density matrix) pairs, in a fixed order."""
    for sub in ("tests", "lubench"):
        sys.path.insert(0, str(ROOT / sub))
    import workloads
    from test_cli import write_states

    from luequiv.errors import LuequivError
    from luequiv.io import load_state

    for seed in (1, 2, 3):
        for kind in workloads.fingerprint_kinds(lq, seed, None):
            for c, case in enumerate(kind.cases):
                yield f"fingerprint:s{seed}-{kind.name}-{c}", case[2]
    with tempfile.TemporaryDirectory() as tmp:
        for name, path in write_states(Path(tmp)).items():
            try:
                rho = load_state(path)[0]
            except LuequivError:  # trace2 is not a density matrix
                continue
            yield f"cli:{name}", rho
    # block sums at N=4, where the block evaluation's intermediates are largest
    for profile in ([3, 1, 1], [2, 2, 1, 1, 1]):
        name = "".join(map(str, profile))
        yield f"n4-p{name}", lq.random_density(4, sum(profile), profile, seed=19)


def entries(sig) -> dict[str, np.ndarray]:
    """One signature as named arrays; the names carry every key in order."""
    out = {"power": np.asarray(sig.power_traces)}
    for g, group in enumerate(sig.balanced_groups):
        name = f"words{g}:{group.side}:len{group.length}"
        out[name + ":letters"] = np.asarray(group.letters)
        out[name + ":values"] = np.asarray(group.values)
    out["block:keys"] = np.array(list(sig.block_invariants), dtype=str)
    out["block:values"] = np.array(list(sig.block_invariants.values()), dtype=complex)
    return out


def write(path: str) -> None:
    import luequiv as lq

    arrays = {}
    names = []
    for name, rho in corpus(lq):
        names.append(name)
        for key, value in entries(lq.fingerprint(rho)).items():
            arrays[f"{len(names) - 1}/{key}"] = value
    np.savez(path, names=np.array(names, dtype=str), **arrays)
    print(f"{path}: {len(names)} states, {len(arrays)} arrays")


def compare(path_a: str, path_b: str) -> int:
    a, b = np.load(path_a), np.load(path_b)
    same = a.files == b.files and np.array_equal(a["names"], b["names"])
    rel = absolute = 0.0
    for key in a.files if same else ():
        x, y = a[key], b[key]
        if key.endswith(("letters", "keys")) or key == "names":
            same = same and x.dtype == y.dtype and np.array_equal(x, y)
        elif x.shape != y.shape:
            same = False
        elif x.size:
            diff = np.abs(x - y)
            rel = max(rel, float(np.max(diff / np.maximum(1.0, np.abs(x)))))
            absolute = max(absolute, float(np.max(diff)))
    print(f"keys, order and letters equal: {'yes' if same else 'NO'}")
    print(f"largest value change: {rel:.3g} relative to max(1, |v|), {absolute:.3g} absolute")
    return 0 if same else 1


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("out", nargs="?", help="write the corpus signatures to this .npz")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two .npz files")
    args = parser.parse_args()
    if (args.out is None) == (args.compare is None):
        parser.error("give either an output file or --compare A B")
    if args.compare:
        return compare(*args.compare)
    write(args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
