"""Tolerance configuration threaded through every numerical routine."""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    """All numerical thresholds and the word budget in one record.

    Every comparison the library makes is controlled from here so that a
    verdict can be reproduced from the tolerances recorded in a report.
    """

    eps_herm: float = 1e-10       # Hermiticity check, relative to max(1, ||M||_F)
    eps_trace: float = 1e-10      # unit-trace check for density matrices
    eps_psd: float = 1e-10        # most negative admissible eigenvalue
    eps_rank: float = 1e-10       # absolute eigenvalue cutoff for the rank
    eps_deg: float = 1e-8         # relative gap below which eigenvalues share a block
    eps_inv: float = 1e-8         # invariant comparison (relative above magnitude 1)
    eps_cert: float = 1e-8        # certificate residual acceptance
    eps_det: float = 1e-12        # nonsingularity floor (Gram dets, certificate X and Y)
    eps_indep: float = 1e-8       # relative admission threshold in algebra closure
    eps_span: float = 1e-8        # residual for basis-expansion membership
    eps_null: float = 1e-8        # singular-value cutoff for null spaces, relative to a scale
    eps_unitary: float = 1e-10    # unitarity check on supplied matrices
    eps_oracle: float = 1e-6      # convergence threshold of the brute-force oracle
    tau_cap: int | None = None    # max word length; None -> min(N^2, 6)
    word_eval_limit: int = 1_000_000   # hard cap on word evaluations per signature

    def effective_tau_cap(self, dim_local: int) -> int:
        if self.tau_cap is not None:
            return self.tau_cap
        return min(dim_local * dim_local, 6)

    def replace(self, **kw) -> "Tolerances":
        return replace(self, **kw)

    def as_dict(self) -> dict:
        return asdict(self)


DEFAULT_TOL = Tolerances()
