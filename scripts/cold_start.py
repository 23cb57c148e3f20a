#!/usr/bin/env python3
"""Wall-clock time of fresh `python -m luequiv.cli` processes.

Each command runs in a new process, so the times include the interpreter,
every import and the first call's cold caches: what a shell user waits
for.  The `lubench` workloads call the CLI inside one warm process and
cannot show this.  Commands run on the state files of tests/test_cli.py,
one N=3 rank-3 state and the N=4 rank-10 state of the
scripts/verdict_digest.py cli-reports corpus (the largest report there,
8.7 MB), with one BLAS thread, interleaved over --runs rounds; the script
prints the median, minimum and maximum of each.  Set
PYTHONPATH to the checkout to be timed:

    PYTHONPATH=src python scripts/cold_start.py
    PYTHONPATH=/path/to/other/src python scripts/cold_start.py
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

import luequiv as lq  # noqa: E402
from luequiv.io import save_state  # noqa: E402
from test_cli import write_states  # noqa: E402


def commands(directory: Path) -> dict[str, list]:
    states = write_states(directory)
    n3r3 = directory / "n3r3.json"
    save_state(n3r3, lq.random_density(3, 3, seed=1).matrix, 3)
    n4r10 = directory / "n4r10.json"
    save_state(n4r10, lq.random_density(4, 10, seed=19).matrix, 4)
    return {
        "--version": ["--version"],
        "compare --json": ["compare", states["bell"], states["bell"], "--json"],
        "fingerprint": ["fingerprint", states["bell"]],
        "fingerprint n3-r3": ["fingerprint", n3r3],
        "fingerprint n4-r10": ["fingerprint", n4r10],
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--runs", type=int, default=5, help="processes per command")
    args = parser.parse_args()
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        cmds = commands(Path(tmp))
        times: dict[str, list[float]] = {name: [] for name in cmds}
        for _ in range(args.runs):
            for name, argv in cmds.items():
                t = time.perf_counter()
                subprocess.run(
                    [sys.executable, "-m", "luequiv.cli", *map(str, argv)],
                    env=env,
                    stdout=subprocess.DEVNULL,
                    check=True,
                )
                times[name].append(time.perf_counter() - t)
    for name, ts in times.items():
        print(f"{name:20s} median {statistics.median(ts):.3f} s"
              f"  min {min(ts):.3f}  max {max(ts):.3f}  ({len(ts)} runs)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
