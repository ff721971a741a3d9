"""Closed-form single-spike profiles of u'' - u + u**p = 0 on the line.

The spike boundary-value problem

    u'' - u + u**p = 0,    u'(rho_peak) = 0,    u -> 0 away from the peak,
    u > 0,

has, for every admissible exponent p > 1, the exact solution

    u(rho) = ((1 + cosh((p - 1) * (rho - rho_peak))) / (1 + p)) ** (1 / (1 - p)),

a single spike of height ((p + 1) / 2) ** (1 / (p - 1)) centred at
``rho_peak``.  For p = 2 it reduces to the classical profile
(3/2) * sech(rho / 2)**2.  The derivation of this profile from the
generalized-hyperbolic trial function amp / cosh_b(rho)**power is kept as
test reference code in ``tests/ansatz_reference.py``, where the tests check
that it gives the same profile.

u is evaluated in log space with the dominant exponential factored out: a
naive cosh overflows once t = (p - 1) * |rho - rho_peak| grows past ~710
even though the profile value itself is still representable.  The
derivatives need no log terms of their own.  With w = exp(-t),
differentiating log u gives u'/u = -sign(rho - rho_peak) * tanh(t / 2), so
u' and u'' are u times a ratio of polynomials in w <= 1, free of sinh and
cosh.  Results that underflow below the smallest positive normal double
saturate to exactly 0.0, never NaN, which is the correct far-field limit.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from typing import Iterable, NamedTuple

from .ode import checked

__all__ = [
    "P_MIN",
    "P_MAX",
    "SpikeKind",
    "ProblemParams",
    "spike_amplitude",
    "eval_spike_rho",
    "eval_spike_rho_grid",
    "eval_spike_derivative",
    "eval_spike_second_derivative",
    "eval_spike_second_derivative_grid",
]

# Exponent range with well-conditioned arithmetic: the 1/(p - 1) powers blow
# up as p -> 1 and the profile flattens to the constant 1 as p -> infinity.
P_MIN = 1.01
P_MAX = 100.0

_LOG_TINY = math.log(sys.float_info.min)


class SpikeKind(Enum):
    """Where the spike sits: interior of the domain or glued to an endpoint."""

    INNER = "inner"
    BOUNDARY = "boundary"


@checked
class ProblemParams(NamedTuple):
    """Problem data for a single spike on the rescaled interval.

    The original problem lives on x in [-half_length, half_length] with the
    singular perturbation scale ``epsilon``; the rescaled coordinate is
    rho = x / epsilon.  An inner spike peaks at rho = 0, a boundary spike at
    rho = half_length / epsilon (the right endpoint).
    """

    p: float
    epsilon: float = 0.1
    half_length: float = 1.0
    kind: SpikeKind = SpikeKind.INNER

    # epsilon and half_length below are the field defaults, read from the class body.
    @classmethod
    def inner(cls, p: float, epsilon: float = epsilon, half_length: float = half_length):
        return cls(p, epsilon, half_length)

    @classmethod
    def boundary(cls, p: float, epsilon: float = epsilon, half_length: float = half_length):
        return cls(p, epsilon, half_length, SpikeKind.BOUNDARY)

    @property
    def peak_rho(self) -> float:
        """Peak position: 0 for an inner spike, the right endpoint for a boundary spike."""
        return self.half_length / self.epsilon if self.kind is SpikeKind.BOUNDARY else 0.0

    def _check(self) -> None:
        _check_p(self.p)
        if not isinstance(self.kind, SpikeKind):
            raise ValueError(f"kind must be a SpikeKind, got {self.kind!r}")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon!r}")
        if not (self.half_length > 0.0 and math.isfinite(self.half_length)):
            raise ValueError(f"half_length must be positive, got {self.half_length!r}")
        if not math.isfinite(self.half_length / self.epsilon):
            raise ValueError("half_length / epsilon overflows; shrink L or grow epsilon")


def _check_p(p: float) -> None:
    if not (math.isfinite(p) and P_MIN <= p <= P_MAX):
        raise ValueError(f"exponent p must lie in [{P_MIN}, {P_MAX}], got {p!r}")


def spike_amplitude(p: float) -> float:
    """Peak height ((p + 1) / 2) ** (1 / (p - 1)) of the spike.

    1.5 for p = 2, sqrt(2) for p = 3, (5/2)**(1/3) for p = 4.
    """
    _check_p(p)
    return ((p + 1.0) / 2.0) ** (1.0 / (p - 1.0))


def eval_spike_rho_grid(params: ProblemParams, rhos: Iterable[float]) -> list[float]:
    """Exact spike profile at each rescaled coordinate of ``rhos``.

    Even around the peak, strictly decreasing away from it, and decaying
    like exp(-|rho - peak_rho|) in the far field.  Uses
    1 + cosh(t) = e**t * (1 + e**-t)**2 / 2, so only decaying exponentials
    are formed.
    """
    p, peak = params.p, params.peak_rho
    pm1 = p - 1.0
    log_scale = math.log(2.0 * (p + 1.0))
    exp, log1p, tiny = math.exp, math.log1p, _LOG_TINY
    out = []
    for rho in rhos:
        dist = abs(rho - peak)
        log_u = (log_scale - 2.0 * log1p(exp(-(pm1 * dist)))) / pm1 - dist
        out.append(0.0 if log_u < tiny else exp(log_u))
    return out


def eval_spike_rho(params: ProblemParams, rho: float) -> float:
    """Exact spike profile at rescaled coordinate ``rho``; see :func:`eval_spike_rho_grid`."""
    return eval_spike_rho_grid(params, (rho,))[0]


def eval_spike_derivative(params: ProblemParams, rho: float) -> float:
    """du/drho of the exact profile, u' = -sign(rho - peak_rho) * u * tanh(t / 2).

    With w = exp(-t), tanh(t / 2) = (1 - w) / (1 + w); 1 - w comes from
    expm1, so it keeps its digits next to the peak.  Zero at the peak and
    wherever u has underflowed.
    """
    delta = rho - params.peak_rho
    t = (params.p - 1.0) * abs(delta)
    du = eval_spike_rho(params, rho) * -math.expm1(-t) / (1.0 + math.exp(-t))
    return -du if delta > 0.0 else du


def eval_spike_second_derivative_grid(
    params: ProblemParams, rhos: Iterable[float]
) -> tuple[list[float], list[float]]:
    """Columns u and d2u/drho2 of the exact profile at each of ``rhos``.

    The u column is :func:`eval_spike_rho_grid`'s.  u'' comes from
    differentiating the closed-form u' once more, not from the ODE:

        u'' = u * ((1 - w)**2 - 2 * (p - 1) * w) / (1 + w)**2,    w = exp(-t).

    Algebraically this equals u - u**p, so it feeds a meaningful residual
    check of all three closed forms.  u'' is 0 wherever u has underflowed.
    """
    rhos = list(rhos)
    us = eval_spike_rho_grid(params, rhos)
    peak, pm1 = params.peak_rho, params.p - 1.0
    two_pm1 = 2.0 * pm1
    exp = math.exp
    upps: list[float] = []
    for rho, u in zip(rhos, us):
        w = exp(-(pm1 * abs(rho - peak)))
        a, b = 1.0 - w, 1.0 + w
        upps.append(u * (a * a - two_pm1 * w) / (b * b))
    return us, upps


def eval_spike_second_derivative(params: ProblemParams, rho: float) -> float:
    """d2u/drho2 of the exact profile; see :func:`eval_spike_second_derivative_grid`."""
    return eval_spike_second_derivative_grid(params, (rho,))[1][0]
