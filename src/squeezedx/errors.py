"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ParseError -> 2, InvariantError (and
subclasses) -> 3, anything that makes a requested verification fail -> 1.
"""

__all__ = [
    "SqueezedXError",
    "ParseError",
    "InvariantError",
    "CoverageError",
    "GridMismatchError",
    "BoundaryError",
    "ConvergenceError",
]


class SqueezedXError(Exception):
    """Base class for all package errors."""


class ParseError(SqueezedXError, ValueError):
    """A config is malformed (bad JSON, unknown or missing keys) or a CLI path is unusable."""


class InvariantError(SqueezedXError, ValueError):
    """A domain invariant is violated; the message names the invariant."""


class CoverageError(InvariantError):
    """A spatial grid does not cover the state it is asked to sample."""


class GridMismatchError(InvariantError):
    """Two samples that must share a grid do not."""


class BoundaryError(SqueezedXError):
    """Wavefunction amplitude reached the grid edge during propagation."""


class ConvergenceError(SqueezedXError):
    """A quadrature rule failed its refinement (node-doubling) check; ``drift`` is the
    change the refinement made."""

    def __init__(self, message: str, drift: float):
        super().__init__(message)
        self.drift = drift
