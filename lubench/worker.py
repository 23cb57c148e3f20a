#!/usr/bin/env python3
"""One fresh process of a benchmark run; `run.py` starts it and reads its last line.

    python3 lubench/worker.py --workload W --seed S --seconds T --trace 0|1 \
        --part I --out DIR

Order: import `luequiv` and make one untimed call per operation kind
(together the set-up time), run whole rounds of the workload back to back
until the time spent inside operations reaches --seconds, then check
every output; part 0 also runs the LU checks.  Peak RSS is read before the
checks, whose own arrays would otherwise count.  Prints one JSON object as
its last line.
"""

import os

# One BLAS thread, fixed before numpy loads: with OpenBLAS's default pool
# the small LAPACK calls of a fresh process stall for its first second.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(Path.cwd() / "src"))
    t0 = time.perf_counter()
    import luequiv
    import luequiv.cli  # noqa: F401  (the cli workload calls luequiv.cli.main)
    import_s = time.perf_counter() - t0

    import checks
    import tracing
    import workloads

    root, build = workloads.WORKLOADS[args.workload]
    rec = None
    if args.trace:
        rec = tracing.Recorder()
        tracing.install(rec)
    workdir = args.out / f"{args.workload}-seed{args.seed}-part{args.part}"
    workdir.mkdir(parents=True, exist_ok=True)
    kinds = build(luequiv, args.seed, workdir)

    def call(kind, c):
        if rec is None:
            return kind.op(kind.cases[c])
        rec.op = f"{kind.name}#{c}"
        return rec.span(root, kind.op, kind.cases[c])

    t1 = time.perf_counter()
    warm = []
    for kind in kinds:
        out = call(kind, 0)
        warm.append(kind.keep(kind.cases[0], out))
        del out
    setup_s = import_s + (time.perf_counter() - t1)

    if rec is not None:
        rec.reset()
    latencies = {kind.name: [] for kind in kinds}
    records = {kind.name: [[] for _ in kind.cases] for kind in kinds}
    busy_s, rounds = 0.0, 0
    # A round takes case c of every kind before case c + 1 of any, so each
    # kind's samples spread over the round rather than sharing one stretch
    # of the machine's (noisy) speed.
    order = sorted((c, k) for k, kind in enumerate(kinds) for c in range(len(kind.cases)))
    while rounds == 0 or busy_s < args.seconds:
        for c, k in order:
            kind = kinds[k]
            t = time.perf_counter()
            out = call(kind, c)
            dt = time.perf_counter() - t
            busy_s += dt
            latencies[kind.name].append(dt)
            records[kind.name][c].append(kind.keep(kind.cases[c], out))
            del out
        rounds += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = None
    if rec is not None:
        layers = {"self_s": dict(rec.self_s), "counts": dict(rec.counts)}
        (workdir / "spans.json").write_text(json.dumps(
            {"fields": ["id", "parent", "op", "name", "start", "end"], "spans": rec.spans}
        ))
        rec.reset()

    attempted = sum(len(r) for recs in records.values() for r in recs)
    failed, error = 0, None
    # The warm-up output is checked too; it joins the records of case 0.
    for kind, first in zip(kinds, warm):
        records[kind.name][0].insert(0, first)
    cases = [(kind, c) for kind in kinds for c in range(len(kind.cases))]
    try:
        for kind, c in cases:
            case, recs = kind.cases[c], records[kind.name][c]
            for j, r in enumerate(recs):
                failed += bool(kind.check(case, r)) and not (c == 0 and j == 0)
            if kind.identical:
                checks.check_identical([r.digest for r in recs])
        for kind, c in cases:
            if args.part == 0 and kind.lu_check is not None:
                kind.lu_check(kind.cases[c], records[kind.name][c][0].digest)
    except checks.CheckFailed as exc:
        error = f"{kind.name} case {c}: {exc}"

    print(json.dumps({
        "part": args.part,
        "import_s": import_s,
        "setup_s": setup_s,
        "rounds": rounds,
        "busy_s": busy_s,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": peak_rss_mb,
        "latencies": latencies,
        "layers": layers,
        "error": error,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
