"""Cross-checks between the closed-form profile and the shooting solver.

Two independent routes produce the same spike: direct evaluation of the
closed form, and one numerical integration inward from the saddle.  This
module quantifies their agreement (:func:`compare`), checks that the closed
form actually solves the equation (:func:`ode_residual`, using the
analytically derived second derivative rather than the ODE itself), and
monitors conservation of the phase-plane energy along integrated
trajectories (:func:`check_first_integral`).
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add, mul, sub
from typing import NamedTuple

from .analytic import ProblemParams, eval_spike_rho_grid, eval_spike_second_derivative_grid
# bench/child.py traces these two through this module.
from .analytic import eval_spike_rho, eval_spike_second_derivative  # noqa: F401
from .ode import Trajectory, hamiltonian
from .shooting import ShootingResult, eval_profile_grid

__all__ = [
    "ComparisonReport",
    "ode_residual",
    "compare",
    "check_first_integral",
]


class ComparisonReport(NamedTuple):
    """Grid-wise agreement between analytic and shooting profiles."""

    grid: list[float]
    analytic: list[float]
    numeric: list[float]
    numeric_v: list[float]
    max_abs_err: float
    l2_err: float


def ode_residual(
    params: ProblemParams, rho_grid, profile: list[float] | None = None
) -> list[float]:
    """Residual u'' - u + u**p of the closed form on a grid.

    u'' comes from the independently derived second-derivative formula, so
    a small residual certifies the algebra of all three closed forms rather
    than restating the equation.  A caller that also needs u passes a list
    as ``profile``: the u column the residual was built from is appended to
    it, so the closed form is evaluated once per point.
    """
    us, upps = eval_spike_second_derivative_grid(params, rho_grid)
    if profile is not None:
        profile.extend(us)
    p, power = params.p, math.pow
    return [upp - u + power(u, p) for u, upp in zip(us, upps)]


def compare(result: ShootingResult, rho_grid) -> ComparisonReport:
    """Evaluate both routes for ``result.params`` on a grid; report max and rms errors.

    The numeric values come from the integrator's dense output through
    :func:`gmspike.shooting.eval_profile_grid`.  Requires a grid, in any
    order, inside the integrated span.
    """
    grid = list(map(float, rho_grid))
    if not grid:
        raise ValueError("rho_grid must not be empty")
    params = result.params
    numeric, numeric_v = eval_profile_grid(result, grid)
    analytic = eval_spike_rho_grid(params, grid)
    abs_errs = list(map(abs, map(sub, analytic, numeric)))
    max_abs_err = max(abs_errs)
    # Added left to right: sum() of floats is compensated from Python 3.12 on.
    l2_err = math.sqrt(reduce(add, map(mul, abs_errs, abs_errs), 0.0) / len(abs_errs))
    return ComparisonReport(grid, analytic, numeric, numeric_v, max_abs_err, l2_err)


def check_first_integral(trajectory: Trajectory, p: float) -> float:
    """Maximum drift of the conserved energy over the trajectory samples."""
    samples = trajectory.samples
    first = hamiltonian(samples[0][1], p)
    drift = 0.0
    for _, state in samples:
        drift = max(drift, abs(hamiltonian(state, p) - first))
    return drift
