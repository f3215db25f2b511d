"""Exception hierarchy shared by all bklab modules."""


class BkLabError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(BkLabError):
    """Matrix or block dimensions are incompatible with the operation, an
    input has a non-finite entry, or eigenvalue multisets cannot be matched."""


class GradeError(BkLabError):
    """A declared grade is invalid (for instance, smaller than the degree)."""


class PlacementError(BkLabError):
    """A coefficient placement violates its pattern or the antidiagonal sums."""


class PreconditionError(BkLabError):
    """A norm radius or hypothesis of the perturbation results is violated;
    the message names the violated condition."""


class ConvergenceError(BkLabError):
    """A fixed-point iteration hit its cap or reached a non-finite iterate,
    ``||dP|| / ||P||`` overflowed, or QZ (LAPACK ``zggev``) failed."""


class InconclusiveError(BkLabError):
    """A bounded scan ended before the sought structure was fully determined."""


class EigenstructureShiftError(BkLabError):
    """A minimal index is smaller than its shift; the input cannot be the
    eigenstructure of a valid block Kronecker linearization."""


class LayoutError(BkLabError):
    """A structural identity that must hold by construction failed, which
    signals a bug rather than bad input."""
