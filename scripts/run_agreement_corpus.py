#!/usr/bin/env python3
"""Decider vs. brute-force oracle on a corpus of state pairs.

Builds a seeded corpus (half conjugated orbit pairs, half independent
random pairs), runs both the decision pipeline and the optimization
oracle on every pair, and reports the agreement table.  The oracle only
gives evidence, not proof, so inconclusive verdicts are reported
separately instead of counting as contradictions.
"""

import argparse
import json
import time

import numpy as np

import luequiv as lq
from luequiv.decider import EQUIVALENT, INCONCLUSIVE, NOT_EQUIVALENT


def build_corpus(n: int, pairs: int, seed: int):
    corpus = []
    rng = np.random.default_rng(seed)
    half = pairs // 2
    for k in range(half):
        rank = int(rng.integers(1, n * n + 1))
        rho = lq.random_density(n, rank, seed=seed + 11 * k)
        sub = np.random.default_rng(seed + 13 * k + 7)
        u1, u2 = lq.haar_unitary(n, sub), lq.haar_unitary(n, sub)
        corpus.append((rho, lq.apply_local_unitary(rho, u1, u2), True))
    for k in range(pairs - half):
        ra = int(rng.integers(1, n * n + 1))
        rb = int(rng.integers(1, n * n + 1))
        corpus.append(
            (
                lq.random_density(n, ra, seed=seed + 17 * k + 3),
                lq.random_density(n, rb, seed=seed + 19 * k + 5),
                False,
            )
        )
    return corpus


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--local-dim", type=int, default=2)
    parser.add_argument("--pairs", type=int, default=50)
    parser.add_argument("--restarts", type=int, default=20)
    parser.add_argument("--iters", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args()

    corpus = build_corpus(args.local_dim, args.pairs, args.seed)
    rows = []
    t0 = time.time()
    for idx, (rho, rho2, is_orbit) in enumerate(corpus):
        verdict = lq.decide(rho, rho2)
        oracle = lq.brute_force_oracle(
            rho, rho2, restarts=args.restarts, iters=args.iters, seed=idx
        )
        rows.append(
            {
                "pair": idx,
                "orbit": is_orbit,
                "verdict": verdict.outcome,
                "reason": verdict.reason,
                "stage": next(
                    (a["mode"] for a in verdict.details.get("attempts", []) if a["success"]),
                    None,
                ),
                "witness": verdict.witness.key if verdict.witness else None,
                "oracle_distance": oracle.best_distance,
                "oracle_converged": oracle.converged,
            }
        )
        if not args.json:
            print(
                f"pair {idx:3d} orbit={int(is_orbit)} verdict={verdict.outcome:15s} "
                f"oracle={oracle.best_distance:.2e} converged={int(oracle.converged)}"
            )
    contradictions = [
        r for r in rows
        if r["verdict"] != INCONCLUSIVE
        and (r["verdict"] == EQUIVALENT) != r["oracle_converged"]
    ]
    summary = {
        "pairs": len(rows),
        "equivalent": sum(r["verdict"] == EQUIVALENT for r in rows),
        "not_equivalent": sum(r["verdict"] == NOT_EQUIVALENT for r in rows),
        "inconclusive": sum(r["verdict"] == INCONCLUSIVE for r in rows),
        "contradictions": len(contradictions),
        "elapsed_s": round(time.time() - t0, 2),
    }
    if args.json:
        print(json.dumps({"summary": summary, "rows": rows}, indent=2))
    else:
        print("\nsummary:", json.dumps(summary))
    return 0 if not contradictions else 1


if __name__ == "__main__":
    raise SystemExit(main())
