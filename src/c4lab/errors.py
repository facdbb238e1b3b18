"""Exception taxonomy shared by all modules."""


class C4LabError(Exception):
    """Base class for all library errors."""


class DomainError(C4LabError, ValueError):
    """A refused input: it violates a documented precondition (bad vertex
    id, s or k below its least value), lies outside the supported desk-scale
    range (non-prime q, the exhaustive search caps), asks more than the graph
    offers (no independent r-subset to regularize on), or is a malformed
    record (a certificate, witness or sidecar that is not JSON, lacks a
    field or has one of the wrong type)."""


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
