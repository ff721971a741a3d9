"""Whole-line spike solutions of u'' - u + u**p = 0, the limit L / eps -> inf
of eps**2 u'' - u + u**p = 0 on [-L, L] with no-flux ends (the bounded problem
is ROADMAP.md item 3): eps and L only place a boundary spike's peak and clip
the default grids and the shoot table. The closed-form profile and a
phase-plane shooting solver live side by side so each can check the other."""

from . import analytic, ode, shooting, verify
from .analytic import *  # noqa: F401,F403
from .ode import *  # noqa: F401,F403
from .shooting import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *analytic.__all__,
    *ode.__all__,
    *shooting.__all__,
    *verify.__all__,
    "__version__",
]
