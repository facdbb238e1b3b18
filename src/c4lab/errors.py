"""Exception taxonomy shared by all modules."""


class C4LabError(Exception):
    """Base class for all library errors."""


class DomainError(C4LabError, ValueError):
    """Input violates a documented precondition (bad vertex id, empty graph, ...)."""


class UnsupportedParameterError(C4LabError, ValueError):
    """Parameter outside the supported desk-scale range (non-prime q, scale caps)."""


class ParameterError(C4LabError, ValueError):
    """Parameter is structurally too demanding for the given input (e.g. r too large)."""


class OracleLimitError(C4LabError):
    """Instance exceeds the exhaustive-oracle size limit."""


class GenerationFailure(C4LabError):
    """Randomized generator exhausted its retry budget (parameters too dense)."""


class ExtractionFailure(C4LabError):
    """Las Vegas routine exhausted its retry budget.

    `best` carries the best verified-but-below-target attempt, when one
    exists: for `sparsify_short_cycles`, the vertex mask of the densest
    survivor set.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class KernelFailure(C4LabError):
    """Kernel extraction exhausted its retry budget; the message gives the
    largest rainbow family any coloring found."""


class InvariantError(C4LabError):
    """A soundness check inside a construction failed: a defect, not bad input.

    Raised explicitly rather than asserted, so the check survives `python -O`.
    """


class StaleCertificateError(C4LabError):
    """Certificate digest does not match the graph it is being verified against."""


class CertificateFormatError(C4LabError, ValueError):
    """Certificate JSON lacks a field, or a field has the wrong type."""
