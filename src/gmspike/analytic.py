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

All evaluators work in log space with the dominant exponential factored out:
a naive cosh overflows once (p - 1) * |rho - rho_peak| grows past ~710 even
though the profile value itself is still representable.  Results that
underflow below the smallest positive normal double saturate to exactly 0.0,
never NaN, which is the correct far-field limit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

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
_LN2 = math.log(2.0)


class SpikeKind(Enum):
    """Where the spike sits: interior of the domain or glued to an endpoint."""

    INNER = "inner"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class ProblemParams:
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

    def __post_init__(self) -> None:
        _check_p(self.p)
        if not isinstance(self.kind, SpikeKind):
            raise ValueError(f"kind must be a SpikeKind, got {self.kind!r}")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon!r}")
        if not (self.half_length > 0.0 and math.isfinite(self.half_length)):
            raise ValueError(f"half_length must be positive, got {self.half_length!r}")
        if not math.isfinite(self.half_length / self.epsilon):
            raise ValueError("half_length / epsilon overflows; shrink L or grow epsilon")

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
    """du/drho of the exact profile.

    Closed form u' = -sinh((p - 1)(rho - peak)) * u**p / (p + 1), evaluated
    in log space.  Zero at the peak, sign -sign(rho - peak_rho) elsewhere,
    same underflow saturation as :func:`eval_spike_rho`.
    """
    p = params.p
    delta = rho - params.peak_rho
    dist = abs(delta)
    t = (p - 1.0) * dist
    log_u = (math.log(2.0 * (p + 1.0)) - 2.0 * math.log1p(math.exp(-t))) / (p - 1.0) - dist
    # |u'| < u, so it has underflowed where u has; out there log_sinh can overflow to inf.
    if t == 0.0 or log_u < _LOG_TINY:
        return 0.0
    e2 = math.exp(-2.0 * t)
    # Below t ~ 5e-17, e2 rounds to 1 and log1p(-e2) would raise.
    log_sinh = t + (math.log1p(-e2) if e2 < 1.0 else math.log(-math.expm1(-2.0 * t))) - _LN2
    log_du = log_sinh + p * log_u - math.log(p + 1.0)
    if log_du < _LOG_TINY:
        return 0.0
    return -math.copysign(math.exp(log_du), delta)


def eval_spike_second_derivative_grid(
    params: ProblemParams, rhos: Iterable[float]
) -> tuple[list[float], list[float]]:
    """Columns u and d2u/drho2 of the exact profile at each of ``rhos``.

    u'' is derived independently of the ODE: differentiating the closed-form
    u' once more gives

        u'' = p * sinh(t)**2 * u**(2p - 1) / (p + 1)**2
              - (p - 1) * cosh(t) * u**p / (p + 1),

    with t = (p - 1) * (rho - peak).  Algebraically this equals u - u**p,
    so it feeds a meaningful residual check of all three closed forms.  The
    formula is built on log u, so the u column, equal to
    :func:`eval_spike_rho_grid`'s, costs one more exp per point.
    """
    p, peak = params.p, params.peak_rho
    pm1 = p - 1.0
    log_scale = math.log(2.0 * (p + 1.0))
    log_pm1, log_pp1, log_p = math.log(pm1), math.log(p + 1.0), math.log(p)
    two_log_pp1 = 2.0 * log_pp1
    power_sinh = 2.0 * p - 1.0
    exp, log, log1p, expm1 = math.exp, math.log, math.log1p, math.expm1
    tiny, ln2 = _LOG_TINY, _LN2
    us: list[float] = []
    upps: list[float] = []
    for rho in rhos:
        dist = abs(rho - peak)
        t = pm1 * dist
        log_u = (log_scale - 2.0 * log1p(exp(-t))) / pm1 - dist
        if log_u < tiny:
            # 0 < u'' = u - u**p < u; out here the log terms below can be inf - inf.
            us.append(0.0)
            upps.append(0.0)
            continue
        us.append(exp(log_u))
        e2 = exp(-2.0 * t)
        log_cosh = t + log1p(e2) - ln2
        log_term = log_pm1 + log_cosh + p * log_u - log_pp1
        term_cosh = 0.0 if log_term < tiny else exp(log_term)
        if t > 0.0:
            # Below t ~ 5e-17, e2 rounds to 1 and log1p(-e2) would raise.
            log_sinh = t + (log1p(-e2) if e2 < 1.0 else log(-expm1(-2.0 * t))) - ln2
            log_term = log_p + 2.0 * log_sinh + power_sinh * log_u - two_log_pp1
            upps.append((0.0 if log_term < tiny else exp(log_term)) - term_cosh)
        else:
            upps.append(0.0 - term_cosh)
    return us, upps


def eval_spike_second_derivative(params: ProblemParams, rho: float) -> float:
    """d2u/drho2 of the exact profile; see :func:`eval_spike_second_derivative_grid`."""
    return eval_spike_second_derivative_grid(params, (rho,))[1][0]
