"""Exception types shared across the package."""


class RelucertError(Exception):
    """Base class for all package errors."""


class ParseError(RelucertError):
    """Malformed document (JSON network, dataset CSV, query file)."""


class DimensionMismatch(RelucertError):
    """Shapes in a document or call do not chain."""


class InvalidValue(RelucertError):
    """A numeric field violates its domain (negative variance, lo > hi, ...)."""


class InvalidArg(RelucertError):
    """A call argument violates its precondition."""


class Divergence(RelucertError):
    """Training loss became non-finite."""


class SolverFailure(RelucertError):
    """An LP or MILP solve did not produce a usable result."""


class NumericalBreakdown(SolverFailure):
    """The simplex tableau lost numerical integrity (singular basis, pivot stall)."""


class TooManyUnstable(RelucertError):
    """Pattern enumeration refused: unstable neuron count above the cap."""
