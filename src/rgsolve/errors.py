"""Exception types shared across the package, each of which reaches the caller: a selection rule
with nothing to select returns an empty set instead, and ``rgdr_step`` False if it cannot move."""


class RgsolveError(Exception):
    """Base class for every error raised by this package."""


class UsageError(RgsolveError):
    """The caller violated an operation's contract (shape, range, or state)."""


class GenerationError(RgsolveError):
    """A problem generator could not produce a valid draw."""


class DegenerateStepError(RgsolveError):
    """An aggregate column step collapsed: the update direction lies in the null space."""


class SubsolverError(RgsolveError):
    """CGLS failed to reach its tolerance within its iteration budget."""

    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class SizeGuardError(RgsolveError):
    """The instance exceeds the desk-scale guard for spectral computations."""
