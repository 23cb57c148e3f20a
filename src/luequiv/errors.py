"""Exception types shared across the package."""


class LuequivError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(LuequivError):
    """Operands have incompatible shapes or local dimensions."""


class NotHermitian(LuequivError):
    """Matrix is not Hermitian within tolerance."""


class NotUnitTrace(LuequivError):
    """Matrix trace differs from one beyond tolerance."""


class NotPositiveSemidefinite(LuequivError):
    """Matrix has an eigenvalue below the negativity tolerance."""


class NotUnitary(LuequivError):
    """Matrix is not unitary within tolerance."""


class ConvergenceFailure(LuequivError):
    """An iterative dense solver failed to converge."""


class IndexOutOfRange(LuequivError):
    """A word or block refers to an eigenvector index beyond the rank."""


class PatternMismatch(LuequivError):
    """A block-invariant pattern is not a permutation of the slots."""


class GramSingular(LuequivError):
    """Gram matrix of an algebra basis is numerically singular."""


class NotInSpan(LuequivError):
    """Matrix does not lie in the span of the algebra basis."""


class InvalidProfile(LuequivError):
    """A degeneracy profile does not match the requested rank."""


class ParseError(LuequivError):
    """A state or report file could not be parsed."""
