"""The paper's derivation of the spike, kept as reference code for the tests.

The closed-form profile in :mod:`gmspike.analytic` also comes out of a
generalized hyperbolic trial function

    u(rho) = amp / cosh_b(rho) ** power,
    cosh_b(rho) = (m * b**(k * rho) + q * b**(-k * rho)) / 2,

whose constants are pinned down by balancing the nonlinear and linear terms;
one scale q stays free and cancels from the assembled profile (see
:func:`derive_ansatz_constants`).  The tests check that this route gives the
closed form and that q drops out.  Nothing in the library calls it, so it
lives here; the file name keeps pytest from collecting it.
"""

import math
import sys
from dataclasses import dataclass

from gmspike import P_MAX, P_MIN

_LOG_TINY = math.log(sys.float_info.min)
_LN2 = math.log(2.0)


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
    if not (math.isfinite(p) and P_MIN <= p <= P_MAX):
        raise ValueError(f"exponent p must lie in [{P_MIN}, {P_MAX}], got {p!r}")
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
    """Evaluate the trial profile amp / cosh_b(rho)**power in log space,
    saturating to 0.0 below the smallest positive normal double."""
    kr = constants.k * math.log(constants.base) * rho
    log_cosh = _logaddexp(math.log(constants.m) + kr, math.log(constants.q) - kr) - _LN2
    log_u = math.log(constants.amp) - constants.power * log_cosh
    return 0.0 if log_u < _LOG_TINY else math.exp(log_u)
