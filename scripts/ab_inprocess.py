#!/usr/bin/env python3
"""In-process A/B timing of two luequiv checkouts on one lubench workload.

    python scripts/ab_inprocess.py WORKLOAD --base ../parent [--head .] \
        [--seed S] [--rounds R]

The ``src/luequiv`` of each checkout is copied into a temporary directory
as the packages ``luequiv_base`` and ``luequiv_head`` (the package imports
itself only relatively), and both are imported into this one process.
The workload's kinds are built for each copy by ``lubench/workloads.py``
from the same seed, in separate work directories.  Every case runs once on
each side, and its output is checked, untimed; then R rounds run each case
on both sides back to back, alternating case by case which side goes first.

Separate benchmark processes of one pair of checkouts on a small, shared
machine read ops ratios far apart from run to run, because the machine's
speed drifts between them.  Interleaved in one process both sides see the
same stretch of it, which resolves steps of a few percent.  Prints, per
kind, each side's median latency and head/base, then base/head of the
total time spent inside operations (above 1: head is faster).  Set
OPENBLAS_NUM_THREADS=1, as lubench does.
"""

from __future__ import annotations

import argparse
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "lubench"))

import checks  # noqa: E402
import workloads  # noqa: E402

SIDES = ("base", "head")


def load_copies(checkouts: dict[str, Path], tmp: Path) -> dict:
    """Import each checkout's package as ``luequiv_<side>``."""
    sys.path.insert(0, str(tmp))
    mods = {}
    for side, root in checkouts.items():
        name = f"luequiv_{side}"
        shutil.copytree(root / "src" / "luequiv", tmp / name)
        mods[side] = importlib.import_module(name)
        importlib.import_module(f"{name}.cli")
    return mods


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--base", type=Path, required=True, help="checkout to compare against")
    parser.add_argument("--head", type=Path, default=ROOT, help="checkout under test (default: this one)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=30)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        mods = load_copies({"base": args.base.resolve(), "head": args.head.resolve()}, tmp)
        build = workloads.WORKLOADS[args.workload][1]
        kinds = {}
        for side in SIDES:
            workdir = tmp / f"work-{side}"
            workdir.mkdir()
            kinds[side] = build(mods[side], args.seed, workdir)
        names = [k.name for k in kinds["base"]]
        cases = [(k, c) for k in range(len(names)) for c in range(len(kinds["base"][k].cases))]

        for side in SIDES:  # warm-up, with every output checked
            for k, c in cases:
                kind = kinds[side][k]
                out = kind.op(kind.cases[c])
                kind.check(kind.cases[c], kind.keep(kind.cases[c], out))

        lat = {side: [[] for _ in names] for side in SIDES}
        for r in range(args.rounds):
            for i, (k, c) in enumerate(cases):
                for side in (SIDES if (r + i) % 2 == 0 else SIDES[::-1]):
                    kind = kinds[side][k]
                    t = time.perf_counter()
                    kind.op(kind.cases[c])
                    lat[side][k].append(time.perf_counter() - t)

    print(f"{args.workload} seed {args.seed}, {args.rounds} rounds")
    print(f"{'kind':<18}{'base ms':>10}{'head ms':>10}{'head/base':>11}")
    for k, name in enumerate(names):
        b, h = (statistics.median(lat[side][k]) * 1e3 for side in SIDES)
        print(f"{name:<18}{b:>10.3f}{h:>10.3f}{h / b:>11.3f}")
    busy = {side: sum(map(sum, lat[side])) for side in SIDES}
    print(f"busy s: base {busy['base']:.3f}, head {busy['head']:.3f}; "
          f"base/head {busy['base'] / busy['head']:.3f}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except checks.CheckFailed as exc:
        sys.exit(f"wrong output: {exc}")
