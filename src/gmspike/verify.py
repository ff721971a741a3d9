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

from .analytic import ProblemParams, eval_spike_rho, eval_spike_second_derivative
from .ode import Trajectory
from .shooting import ShootingResult, eval_profile_grid

__all__ = [
    "ComparisonReport",
    "ode_residual",
    "compare",
    "check_first_integral",
]


class ComparisonReport(NamedTuple):
    """Grid-wise agreement between analytic and shooting profiles: the columns
    of this report's points, and the totals over every point compared so far,
    l2_err being sqrt(sum_sq_err / points)."""

    grid: list[float]
    analytic: list[float]
    numeric: list[float]
    numeric_v: list[float]
    max_abs_err: float
    l2_err: float
    abs_err: list[float]
    sum_sq_err: float
    points: int


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
    us, upps = eval_spike_second_derivative(params, rho_grid)
    if profile is not None:
        profile.extend(us)
    p, power = params.p, math.pow
    return [upp - u + power(u, p) for u, upp in zip(us, upps)]


def compare(result: ShootingResult, rho_grid, before=None) -> ComparisonReport:
    """Evaluate both routes for ``result.params`` on a grid; report max and rms errors.

    The numeric values come from the integrator's dense output through
    :func:`gmspike.shooting.eval_profile_grid`.  Requires a grid, in any
    order, inside the integrated span.  ``before``, the report of the points
    compared before these, carries its totals on: a grid compared a block at
    a time, each report the next one's ``before``, ends with the whole grid's.
    """
    grid = list(map(float, rho_grid))
    if not grid:
        raise ValueError("rho_grid must not be empty")
    numeric, numeric_v = eval_profile_grid(result, grid)
    analytic = eval_spike_rho(result.params, grid)
    abs_err = list(map(abs, map(sub, analytic, numeric)))
    before = before or ComparisonReport([], [], [], [], 0.0, 0.0, [], 0.0, 0)
    # Added left to right: sum() of floats is compensated from Python 3.12 on.
    sum_sq_err = reduce(add, map(mul, abs_err, abs_err), before.sum_sq_err)
    max_abs_err = max(before.max_abs_err, max(abs_err))
    points = before.points + len(grid)
    return ComparisonReport(grid, analytic, numeric, numeric_v, max_abs_err,
                            math.sqrt(sum_sq_err / points), abs_err, sum_sq_err, points)


def check_first_integral(trajectory: Trajectory, p: float) -> float:
    """Maximum drift of the energy H = v**2/2 - u**2/2 + u**(p+1)/(p+1),
    which is conserved and 0 on the spike, over the trajectory's samples,
    each read as (u, v) = (e**w, z * e**w)."""
    energies = []
    for _, state in trajectory.samples:
        u = math.exp(state.w)
        v = state.z * u
        energies.append(0.5 * v * v - 0.5 * u * u + math.pow(u, p + 1.0) / (p + 1.0))
    return max(abs(energy - energies[0]) for energy in energies)
