"""Exception hierarchy for the padlog package.

Every failure mode that callers are expected to branch on gets its own
class.  All of them descend from PadlogError so a bare ``except
PadlogError`` catches anything raised deliberately by this library.
"""


class PadlogError(Exception):
    """Base class for all deliberate padlog failures."""


class InputError(PadlogError):
    """Malformed user-supplied data (files, CLI arguments, records)."""


class DenominatorBudgetExceeded(PadlogError):
    """An operation needed a power of p in the denominator beyond the
    context's budget."""


class DivisionByZero(PadlogError, ZeroDivisionError):
    """Division or inversion of a certified zero.  Scalars have no
    arithmetic, so nothing in padlog raises it; it stays exported for
    callers that catch it."""


class PrecisionLoss(PadlogError):
    """Not enough certified digits remain to decide the question asked."""


class Indeterminate(PadlogError):
    """A zero/nonzero (or unit/non-unit) decision fell inside the
    uncertainty window.  Carries whatever partial certificate was built."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class HypothesisFailed(PadlogError):
    """Input matrix failed the slope/unit admission checks.

    The full diagnostic report is attached as ``.report``.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NotFiltrationAdapted(PadlogError):
    """Basis-change matrix does not preserve the filtration block shape."""


class SingularOperator(PadlogError):
    """A linear operator that must be invertible is not."""


class NotInImage(PadlogError):
    """A vector certified to lie outside the image being factored through."""


class NotIntegral(PadlogError):
    """A value that must be p-integral has negative valuation.

    ``.witness`` locates the offending entry.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class IntegralityViolation(NotIntegral):
    """Integrality assertion failed inside a verified-construction step."""


class PrecisionExhausted(PrecisionLoss):
    """Working precision ran out mid-construction; retry with more digits."""


class DegenerateInput(PadlogError):
    """Input fails the geometric preconditions of a construction lemma."""


class SearchExhausted(PadlogError):
    """A bounded search for a certified witness ran out of candidates."""
