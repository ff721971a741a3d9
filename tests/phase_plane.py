"""The spike's phase plane in (u, v), v = u', for the tests.

The library integrates in log coordinates, w = ln u and z = u'/u, alone;
the tests read a run's points back as (u, v) with :func:`uv` and check the
conserved energy :func:`energy` along them.  The file name keeps pytest
from collecting it.
"""

import math
from typing import NamedTuple


class UV(NamedTuple):
    """A phase-plane point (u, v) with v = u'."""

    u: float
    v: float


def uv(state) -> UV:
    """The log-coordinate point (w, z) as (u, v) = (e**w, z * e**w):
    ``profile_samples``'s expression, so its bits."""
    w, z = state
    u = math.exp(w)
    return UV(u, z * u)


def energy(u: float, v: float, p: float) -> float:
    """H(u, v) = v**2/2 - u**2/2 + u**(p+1)/(p+1), conserved and 0 on the
    spike: ``verify.check_first_integral``'s expression, so its bits."""
    return 0.5 * v * v - 0.5 * u * u + math.pow(u, p + 1.0) / (p + 1.0)
