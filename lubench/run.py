#!/usr/bin/env python3
"""Benchmark of luequiv's fingerprint, decide and command line.

Run from the root of a luequiv checkout:

    python3 lubench/run.py --workload {fingerprint,decide-orbit,cli} \
        --seed N --seconds T --trace {0,1}

A run starts PARTS fresh worker processes one after another, each with a
one-thread BLAS pool.  Each imports `luequiv` and makes one untimed call
per operation kind: set-up is measured PARTS times and setup_s is the
median.  Each process then issues the workload's operations back to back
(one closed-loop caller) for a PARTS-th of --seconds, in whole rounds, and
checks its outputs against computations that use none of `luequiv`'s
code.  Splitting the timed pass over the processes lets each kind's
median draw on three stretches of the machine's drifting speed.
With --trace 0 the last line of standard output is a JSON object holding
the end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run.  Details, and the spans of a traced run, go to lubench/out/.
A wrong output stops the run, which then reports "correct": false and
exits 1; a process that fails makes it exit non-zero with no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKLOADS = ("fingerprint", "decide-orbit", "cli")
PARTS = 3
DEADLINE_S = 170.0

END_TO_END_UNITS = {"ops_per_s": "1/s", "latency_gmean_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}

# Self time per round of each span, in ms, under the metric name <span>_ms.
SPANS = (
    "states.validate_density",
    "states.spectral_decompose",
    "invariants.power_traces",
    "invariants.word_enum",
    "invariants.word_eval",
    "invariants.block_sum",
    "invariants.signature",
    "invariants.balanced_keys",
    "invariants.compare",
    "invariants.word_trace",
    "decider.decide",
    "decider.align",
    "decider.system",
    "decider.search",
    "decider.certify",
    "linalg.nullspace",
    "linalg.polar",
    "io.load_state",
    "io.file_digest",
    "io.dump_json",
    "cli.command",
)
# Counters per round, except the maximum, which is over the whole run.
COUNTS = (
    "invariants.words_evaluated",
    "invariants.word_trace_calls",
    "decider.attempts",
    "decider.certify_calls",
    "linalg.nullspace_calls",
)
MAXIMA = ("decider.system_rows_max",)


def run_parts(args) -> list[dict] | None:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    start = time.monotonic()
    parts = []
    for part in range(PARTS):
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds / PARTS), "--trace", str(args.trace),
            "--part", str(part), "--out", str(OUT),
        ]
        left = DEADLINE_S - (time.monotonic() - start)
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired:
            print(f"worker {part} did not finish within the {DEADLINE_S:g} s deadline", file=sys.stderr)
            return None
        if proc.returncode != 0 or not proc.stdout.strip():
            sys.stderr.write(proc.stderr)
            print(f"worker {part} exited with code {proc.returncode}", file=sys.stderr)
            return None
        parts.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        if parts[-1]["error"]:
            break  # a wrong output stops the run
    return parts


def kind_medians_ms(parts) -> dict[str, float]:
    merged: dict[str, list[float]] = {}
    for p in parts:
        for name, lat in p["latencies"].items():
            merged.setdefault(name, []).extend(lat)
    return {name: 1000.0 * statistics.median(lat) for name, lat in merged.items()}


def end_to_end(parts) -> dict[str, float]:
    medians = kind_medians_ms(parts)
    return {
        "ops_per_s": sum(p["attempted"] for p in parts) / sum(p["busy_s"] for p in parts),
        "latency_gmean_ms": math.exp(statistics.fmean(math.log(v) for v in medians.values())),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
        "setup_s": statistics.median(p["setup_s"] for p in parts),
    }


def per_layer(parts) -> dict[str, tuple[float, str]]:
    rounds = sum(p["rounds"] for p in parts)
    self_s = [p["layers"]["self_s"] for p in parts]
    counts = [p["layers"]["counts"] for p in parts]
    out = {}
    for span in SPANS:
        out[f"{span}_ms"] = (1000.0 * sum(s.get(span, 0.0) for s in self_s) / rounds, "ms")
    for name in COUNTS:
        out[name] = (sum(c.get(name, 0) for c in counts) / rounds, "count")
    for name in MAXIMA:
        out[name] = (max(c.get(name, 0) for c in counts), "count")
    out["setup.import_s"] = (statistics.median(p["import_s"] for p in parts), "s")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (Path("src") / "luequiv" / "__init__.py").is_file():
        print("run from the root of a luequiv checkout: src/luequiv not found", file=sys.stderr)
        return 2

    parts = run_parts(args)
    if parts is None:
        return 1
    errors = [p["error"] for p in parts if p["error"]]
    correct = not errors
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "errors": errors,
        "kind_median_ms": kind_medians_ms(parts), "end_to_end": end_to_end(parts),
        "parts": [{k: v for k, v in p.items() if k != "latencies"} for p in parts],
    }
    if args.trace:
        layers = per_layer(parts)
        summary["per_layer"] = {k: v for k, (v, _) in layers.items()}
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in summary["end_to_end"].items()}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1)
    )
    for name, ms in summary["kind_median_ms"].items():
        print(f"{args.workload:>12} {name:<16} median {ms:10.3f} ms", file=sys.stderr)
    for error in errors:
        print(f"wrong output: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
