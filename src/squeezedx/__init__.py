"""Squeezed and mixed Gaussian states of a 1-D harmonic oscillator in x-space."""

from . import errors, mixing, oracle, states
from .errors import *  # noqa: F403
from .mixing import *  # noqa: F403
from .oracle import *  # noqa: F403
from .states import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(errors.__all__ + states.__all__ + oracle.__all__ + mixing.__all__)
