"""Decide local-unitary equivalence of bipartite density matrices.

The library computes trace-polynomial invariants of a bipartite density
matrix (power traces, word traces over eigenvector coefficient matrices,
and degeneracy-block sums).  ``decide`` compares power traces, then the
words, and reconstructs an explicit local-unitary certificate from the
product system of local intertwiners, with the coupled singleton system
as fallback, and polar decompositions.  ``build_algebra`` (the matrix
algebras the words span) is library API checked by acceptance criteria 5
and 6; ``decide`` does not call it.  A command line front end handles
JSON state files; see :mod:`luequiv.cli`.
"""

__version__ = "0.1.0"

from .config import DEFAULT_TOL, Tolerances
from .states import (
    DensityMatrix,
    SpectralDecomposition,
    apply_local_unitary,
    spectral_decompose,
    validate_density,
)
from .invariants import (
    InvariantSignature,
    Word,
    block_invariant,
    compare_signatures,
    fingerprint,
    power_traces,
    word_trace,
)
from .algebra import AlgebraBasis, build_algebra, express_in_basis, gram_det
from .decider import (
    Certificate,
    EquivalenceVerdict,
    Witness,
    certify,
    decide,
)
from .testkit import OracleResult, brute_force_oracle, haar_unitary, random_density

__all__ = [
    "DEFAULT_TOL",
    "Tolerances",
    "DensityMatrix",
    "SpectralDecomposition",
    "validate_density",
    "spectral_decompose",
    "apply_local_unitary",
    "Word",
    "InvariantSignature",
    "power_traces",
    "word_trace",
    "block_invariant",
    "fingerprint",
    "compare_signatures",
    "AlgebraBasis",
    "build_algebra",
    "gram_det",
    "express_in_basis",
    "EquivalenceVerdict",
    "Witness",
    "Certificate",
    "decide",
    "certify",
    "haar_unitary",
    "random_density",
    "brute_force_oracle",
    "OracleResult",
    "__version__",
]
