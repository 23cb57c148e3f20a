"""Numerical thresholds.  ``Tolerances`` holds the four a caller sets (the
CLI's ``--eps-inv``, ``--eps-cert``, ``--eps-deg`` and ``--tau-cap``); the
others are module constants, which the package version pins."""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, replace

EPS_HERM = 1e-10          # Hermiticity check, relative to max(1, ||M||_F)
EPS_TRACE = 1e-10         # unit-trace check for density matrices
EPS_PSD = 1e-10           # most negative admissible eigenvalue
EPS_RANK = 1e-10          # absolute eigenvalue cutoff for the rank
EPS_DET = 1e-12           # nonsingularity floor of Gram determinants
EPS_INDEP = 1e-8          # relative admission threshold in algebra closure
EPS_SPAN = 1e-8           # residual for basis-expansion membership
EPS_NULL = 1e-8           # singular-value cutoff for null spaces, relative to a scale
EPS_UNITARY = 1e-10       # unitarity check on supplied matrices
EPS_ORACLE = 1e-6         # convergence threshold of the brute-force oracle
WORD_EVAL_LIMIT = 1_000_000   # hard cap on word evaluations per signature


@dataclass(frozen=True)
class Tolerances:
    """The thresholds a caller sets; a verdict is reproduced from these
    and the package version."""

    eps_deg: float = 1e-8         # relative gap below which eigenvalues share a block
    eps_inv: float = 1e-8         # invariant comparison (relative above magnitude 1)
    eps_cert: float = 1e-8        # certificate residual acceptance
    tau_cap: int | None = None    # max word length; None -> min(N^2, 6)

    def __post_init__(self):
        for name in ("eps_deg", "eps_inv", "eps_cert"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and 0 <= value < math.inf):
                raise ValueError(f"{name} must be a finite number of at least 0, got {value!r}")
        cap = self.tau_cap
        if not (cap is None or (type(cap) is int and cap >= 1)):
            raise ValueError(f"tau_cap must be None or an integer of at least 1, got {cap!r}")

    def effective_tau_cap(self, dim_local: int) -> int:
        if self.tau_cap is not None:
            return self.tau_cap
        return min(dim_local * dim_local, 6)

    def replace(self, **kw) -> "Tolerances":
        return replace(self, **kw)

    def as_dict(self) -> dict:
        return asdict(self)


DEFAULT_TOL = Tolerances()
