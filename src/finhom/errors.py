"""Exception types shared across the library."""


class FinhomError(Exception):
    """Base class for all library errors."""


class UnsupportedRingError(FinhomError):
    """An operation was requested over a ring that cannot support it.

    The classic case is asking for injectivity of a finitely generated
    module over the integers: no nonzero finitely generated injective
    Z-module exists, so the question is refused rather than answered
    falsely.
    """


class DimensionMismatchError(FinhomError):
    """Matrix or module dimensions are incompatible."""


class PreconditionFailedError(FinhomError):
    """A stated precondition of an operation does not hold for the input."""


class BudgetExceededError(FinhomError):
    """A bounded search ran out of its bound: a small subobject needs
    more generators than the bound allows."""


class NotInClassError(FinhomError):
    """An object failed the membership predicate of the class it was
    claimed to belong to."""


class CertificateMissingError(FinhomError):
    """A construction needed a class certificate that could not be
    produced for its input."""


class FactorizationObstructedError(FinhomError):
    """No factorization of the requested kind exists within bounded,
    finitely presented data.

    Over quasi-Frobenius rings such as Z/4 the multiplicative Euler
    characteristic of a bounded complex of free modules is a power of the
    ring's size; a factorization whose certificates would force a
    different characteristic cannot exist at this scale, no matter the
    budget.
    """


class ParseError(FinhomError):
    """Workspace text could not be parsed; carries line/column info."""

    def __init__(self, message, line=None, column=None):
        location = ""
        if line is not None:
            location = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + location)
        self.line = line
        self.column = column


class ValidationError(FinhomError):
    """A parsed object violated a structural invariant, or a computed
    certificate failed (named in the message)."""
