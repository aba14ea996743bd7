"""Exception hierarchy shared by all recurlab modules."""


class RecurlabError(Exception):
    """Base class for all package errors."""


class EmptyDomainError(RecurlabError):
    """Translation exhausts the signal's domain."""


class DimMismatchError(RecurlabError):
    """Signals of incompatible dimension were combined."""


class WindowOutOfDomainError(RecurlabError):
    """A window reaches outside a signal's domain."""


class WindowTooShortError(RecurlabError):
    """Scan window too short for the requested candidate translations."""


class DomainTooShortError(RecurlabError):
    """Signal domain too short for the requested tail scan."""


class StepSizeUnderflowError(RecurlabError):
    """Adaptive integrator step collapsed (stiffness or blow-up)."""


class NonFiniteRhsError(RecurlabError):
    """Right-hand side evaluated to NaN or infinity."""


class BadOrderError(RecurlabError):
    """Arguments violate a required ordering (e.g. eps >= delta0)."""


class LagOutOfRangeError(RecurlabError):
    """A delay lag falls outside [-r, 0]."""


class NonFiniteValueError(RecurlabError):
    """Iteration produced non-finite values (overflow guard)."""


class NonConvergenceError(RecurlabError):
    """Root solve failed: the eigenvalue solver or the residual gate refused it."""

    def __init__(self, message, worst_residual=None):
        super().__init__(message)
        self.worst_residual = worst_residual


class BranchCollisionError(RecurlabError):
    """Root branches collide: per-step motion exceeded half the separation.

    Carries the time interval around the (near-)collision; branches are
    never fabricated across it.
    """

    def __init__(self, message, interval):
        super().__init__(message)
        self.interval = interval


class ConfigError(RecurlabError):
    """Experiment configuration is invalid.

    ``key`` names the offending configuration entry when known.
    """

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key
