"""Closed-form single-spike profiles of u'' - u + u**p = 0 on the line.

The spike boundary-value problem

    u'' - u + u**p = 0,    u'(rho_peak) = 0,    u -> 0 away from the peak,
    u > 0,

has, for every admissible exponent p > 1, the exact solution

    u(rho) = ((1 + cosh((p - 1) * (rho - rho_peak))) / (1 + p)) ** (1 / (1 - p)),

a single spike of height ((p + 1) / 2) ** (1 / (p - 1)) centred at
``rho_peak``.  For p = 2 it reduces to the classical profile
(3/2) * sech(rho / 2)**2.

The same profile also comes out of a generalized hyperbolic trial function

    u(rho) = amp / cosh_b(rho) ** power,
    cosh_b(rho) = (m * b**(k * rho) + q * b**(-k * rho)) / 2,

whose constants are pinned down by balancing the nonlinear and linear terms;
one scale q stays free and cancels from the assembled profile (see
:func:`derive_ansatz_constants`).

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
    "AnsatzConstants",
    "spike_amplitude",
    "eval_spike_rho",
    "eval_spike_rho_grid",
    "eval_spike_derivative",
    "eval_spike_second_derivative",
    "eval_spike_second_derivative_grid",
    "derive_ansatz_constants",
    "eval_ansatz",
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


def _profile_at(p: float, dists: Iterable[float]) -> list[float]:
    """u at each distance ``dist`` >= 0 from the peak, in log space.

    Uses 1 + cosh(t) = e**t * (1 + e**-t)**2 / 2 so only decaying
    exponentials are ever formed, and saturates below the smallest positive
    normal double instead of producing subnormals (or, via naive cosh, NaN).
    """
    pm1 = p - 1.0
    log_scale = math.log(2.0 * (p + 1.0))
    exp, log1p, tiny = math.exp, math.log1p, _LOG_TINY
    out = []
    for dist in dists:
        log_u = (log_scale - 2.0 * log1p(exp(-(pm1 * dist)))) / pm1 - dist
        out.append(0.0 if log_u < tiny else exp(log_u))
    return out


def eval_spike_rho_grid(params: ProblemParams, rhos: Iterable[float]) -> list[float]:
    """Exact spike profile at each rescaled coordinate of ``rhos``.

    Even around the peak, strictly decreasing away from it, and decaying
    like exp(-|rho - peak_rho|) in the far field.
    """
    peak = params.peak_rho
    return _profile_at(params.p, (abs(rho - peak) for rho in rhos))


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
    if t == 0.0:
        return 0.0
    e2 = math.exp(-2.0 * t)
    # Below t ~ 5e-17, e2 rounds to 1 and log1p(-e2) would raise.
    log_sinh = t + (math.log1p(-e2) if e2 < 1.0 else math.log(-math.expm1(-2.0 * t))) - _LN2
    log_u = (math.log(2.0 * (p + 1.0)) - 2.0 * math.log1p(math.exp(-t))) / (p - 1.0) - dist
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
        us.append(0.0 if log_u < tiny else exp(log_u))
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


@dataclass(frozen=True)
class AnsatzConstants:
    """Constants of the trial profile amp / cosh_b(rho)**power.

    Here cosh_b(rho) = (m * base**(k * rho) + q * base**(-k * rho)) / 2 is a
    two-sided exponential with independent weights.  Consistency of the
    balance requires power * k = 1 and m * q * (p + 1) / 2 = amp**(p - 1)
    with p = 2 * k + 1; both are enforced on construction.
    """

    power: float
    base: float
    k: float
    m: float
    q: float
    amp: float

    def __post_init__(self) -> None:
        for name in ("power", "k", "m", "q", "amp"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not (self.base > 1.0 and math.isfinite(self.base)):
            raise ValueError("base must exceed 1 for a decaying profile")
        if abs(self.power * self.k - 1.0) > 1e-12:
            raise ValueError("inconsistent constants: power * k must equal 1")
        p = 2.0 * self.k + 1.0
        lhs = self.m * self.q * (p + 1.0) / 2.0
        rhs = self.amp ** (p - 1.0)
        if abs(lhs - rhs) > 1e-9 * max(abs(lhs), abs(rhs)):
            raise ValueError(
                "inconsistent constants: m * q * (p + 1) / 2 must equal amp**(p - 1)"
            )


def derive_ansatz_constants(p: float, q: float, peak_rho: float = 0.0) -> AnsatzConstants:
    """Fix the trial-profile constants by balancing the equation.

    Substituting the trial profile into u'' - u + u**p = 0 forces

        power = 2 / (p - 1),     k = (p - 1) / 2,      base = e,
        amp = exp(-peak_rho) * (2 / (q**2 * (p + 1))) ** (1 / (1 - p)),
        m = exp(peak_rho * (1 - p)) * q.

    The weight q > 0 is free: it rescales m and amp in compensating ways and
    drops out of the evaluated profile.
    """
    _check_p(p)
    if not (math.isfinite(q) and q > 0.0):
        raise ValueError(f"q must be positive and finite, got {q!r}")
    if not math.isfinite(peak_rho):
        raise ValueError(f"peak_rho must be finite, got {peak_rho!r}")
    amp = math.exp(-peak_rho) * (2.0 / (q * q * (p + 1.0))) ** (1.0 / (1.0 - p))
    m = math.exp(peak_rho * (1.0 - p)) * q
    return AnsatzConstants(
        power=2.0 / (p - 1.0),
        base=math.e,
        k=(p - 1.0) / 2.0,
        m=m,
        q=q,
        amp=amp,
    )


def _logaddexp(a: float, b: float) -> float:
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


def eval_ansatz(constants: AnsatzConstants, rho: float) -> float:
    """Evaluate the trial profile amp / cosh_b(rho)**power in log space."""
    kr = constants.k * math.log(constants.base) * rho
    log_cosh = _logaddexp(math.log(constants.m) + kr, math.log(constants.q) - kr) - _LN2
    log_u = math.log(constants.amp) - constants.power * log_cosh
    return 0.0 if log_u < _LOG_TINY else math.exp(log_u)
