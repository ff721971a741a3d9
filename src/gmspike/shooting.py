"""Shooting solver: one run inward from the saddle traces the spike.

The spike system u' = v, v' = u - u**p is reversible (rho -> -rho,
v -> -v) and conserves H(u, v) = v**2/2 - u**2/2 + u**(p+1)/(p+1), so the
far half of the spike is the branch of the level set H = 0 that leaves the
saddle (0, 0) into u > 0.  :func:`shoot` starts on that branch at

    (U0, U0 * sqrt(1 - 2 * U0**(p - 1) / (p + 1))),

where H = 0 to rounding, and makes one integration in sigma, the distance
from that far end, until v turns through 0.  A turn at u > 1 is the peak,
as every amplitude ((p + 1) / 2)**(1 / (p - 1)) exceeds 1, and one below a
minimum: the peak's u is the amplitude a_star and its sigma is sigma_pk,
so u at distance d from the peak is the run at sigma_pk - d.  Nothing here
reads the closed form; the run knows only p.

The run leaves the saddle, so an error off the orbit decays along it instead
of growing, as it would on a run from the peak towards the saddle: this is
shooting towards a fitting point (Keller 1968, *Numerical Methods for
Two-Point Boundary-Value Problems*).  The start lies on the saddle's stable
manifold itself, not on its linearisation (Beyn 1990, *IMA J. Numer. Anal.*
10:379), so the far end adds no truncation error.  At U0 = 1e-7, sigma_pk
runs from 16.2 (p = 100) to 82.7 (p = 1.01), which bounds how far from the
peak the profile can be read.

The profile is even about the peak (u even, v odd).  Boundary spikes reuse
the same run: the system is autonomous, so the profile peaking at the right
endpoint rho = L / epsilon is the inner one shifted there.  :func:`shoot`
keeps its last run, so results for one (p, integrator config) share a
:class:`Trajectory`, and the JSON ``integrations`` (1) counts the run behind
a profile, not the integrations this process made.  Two maps place the
run in the domain: :func:`eval_profile_grid` reads it at domain points, and
:func:`profile_samples` gives its own samples their domain points.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Sequence
from typing import NamedTuple

from .analytic import ProblemParams, SpikeKind
from .ode import SPAN_SLACK, IntegratorConfig, State, TerminalEvent, Trajectory, integrate

__all__ = [
    "ShootingConfig",
    "InwardRun",
    "ShootingResult",
    "ShootingError",
    "shoot",
    "eval_profile_grid",
    "profile_samples",
]

# u at the far end of the run.  The profile reaches sigma_pk, about
# ln(1 / U0) plus a constant of p, from the peak: 16.17 at p = 100, past the
# 10-wide default grids.
U0 = 1e-7

# End of the run if its peak event never fires; every p in [1.01, 100]
# peaks before sigma = 82.7.
_HORIZON = 200.0


class ShootingError(RuntimeError):
    """A shoot's run ended short of its peak: step-size control underflowed,
    or the run crossed u = 0, turned at a minimum or reached its horizon."""


class ShootingConfig(NamedTuple):
    """The settings of the amplitude scan the inward run replaced; it has
    none left.  :func:`shoot` takes no config of this class.

    ``scan_points`` is 0 because no amplitude is scanned: a shoot's one
    integration is its final run.  ``bench/child.py`` reads it, through
    ``ShootingResult.config``.
    """

    scan_points = 0  # Unannotated: NamedTuple makes every annotation a field.


class InwardRun(NamedTuple):
    """One integration of a shoot: its start ``u0``, the u at its peak,
    ``a_star``, and the distance ``sigma_pk`` it ran to get there."""

    u0: float
    a_star: float
    sigma_pk: float


class ShootingResult(NamedTuple):
    """The inward run and what it found.

    ``classifications`` is the run log, one :class:`InwardRun` per
    integration; a shoot makes one, and ``u0``, ``a_star`` and ``sigma_pk``
    read its entry.  ``converged`` is true on every result, since
    :func:`shoot` raises for a run that misses its peak.  ``bc_residual``
    is |u| + |v| at the far end of the profile, which is the run's start.
    ``config`` is always ``ShootingConfig()``; it stays because
    ``bench/child.py`` reads its ``scan_points``.
    """

    trajectory: Trajectory
    classifications: tuple[InwardRun, ...]
    params: ProblemParams
    config: ShootingConfig = ShootingConfig()

    @property
    def u0(self) -> float:
        return self.classifications[-1].u0

    @property
    def a_star(self) -> float:
        return self.classifications[-1].a_star

    @property
    def sigma_pk(self) -> float:
        return self.classifications[-1].sigma_pk

    @property
    def converged(self) -> bool:
        return self.trajectory.terminal_event is TerminalEvent.TURNED

    @property
    def bc_residual(self) -> float:
        _, _, u, v = self.trajectory.steps[0][:4]
        return abs(u) + abs(v)


@functools.lru_cache(maxsize=1)
def _inward_run(p: float, integrator_config: IntegratorConfig) -> Trajectory:
    v0 = U0 * math.sqrt(1.0 - 2.0 * U0 ** (p - 1.0) / (p + 1.0))
    return integrate(State(U0, v0), 0.0, _HORIZON, p, integrator_config)


def shoot(
    params: ProblemParams, integrator_config: IntegratorConfig = IntegratorConfig()
) -> ShootingResult:
    """Integrate once from the far end of the spike to its peak.

    The run starts at (U0, v0) with H(U0, v0) = 0 and ends at its first
    event, which on the spike is the peak; ``integrator_config`` sets its
    tolerances; a shoot of the last shoot's p and config reads its run.
    Raises :class:`ShootingError`, on every shoot of that run, if it ends
    any other way: step-size control underflows, or the run crosses u = 0,
    turns at a minimum (u <= 1) or reaches its horizon.
    """
    trajectory = _inward_run(params.p, integrator_config)
    sigma, state = trajectory.end
    event = trajectory.terminal_event
    if event is TerminalEvent.STEP_FAILURE:
        raise ShootingError(
            f"step size underflow at sigma={sigma!r} on the run inward from u0={U0!r}"
        )
    if event is not TerminalEvent.TURNED:
        raise ShootingError(
            f"shooting did not converge: the run inward from u0={U0!r} ended "
            f"{event.value} at sigma={sigma!r}, before its peak"
        )
    if not state.u > 1.0:
        raise ShootingError(
            f"shooting did not converge: the run inward from u0={U0!r} turned at "
            f"a minimum, u={state.u!r} at sigma={sigma!r}, before its peak"
        )
    run = InwardRun(U0, state.u, sigma)
    return ShootingResult(trajectory, (run,), params)


def check_within_wall(params: ProblemParams, rhos: Iterable[float]) -> None:
    """Raise ValueError if a boundary spike's ``rhos`` pass its wall by more than SPAN_SLACK."""
    if params.kind is SpikeKind.BOUNDARY:
        peak = params.peak_rho
        beyond = next((rho for rho in rhos if rho - peak > SPAN_SLACK), None)
        if beyond is not None:
            raise ValueError(
                f"rho={beyond!r} lies outside the domain; the boundary spike peaks "
                f"at the right endpoint rho={peak!r}"
            )


def eval_profile_grid(
    result: ShootingResult, rhos: Iterable[float]
) -> tuple[list[float], list[float]]:
    """Shooting profile u and v columns at the domain coordinates ``rhos``,
    any iterable of them; :func:`profile_samples` is its inverse.

    u at distance d from the peak is the run at sigma_pk - d.  The run
    climbs towards the peak, so v is the run's slope where rho < peak and
    its negative where rho > peak; at the peak itself the profile is
    (a_star, 0).  Raises ValueError, naming the point, if any point is NaN,
    or lies past the run's reach (:meth:`Trajectory.eval`) or, for boundary
    spikes, past the domain edge (:func:`check_within_wall`, named first).
    """
    # The points are read more than once below, so a one-shot iterable is listed.
    if not isinstance(rhos, Sequence):
        rhos = list(rhos)
    params = result.params
    check_within_wall(params, rhos)
    peak, reach = params.peak_rho, result.sigma_pk
    # Run positions are generated, and v flipped in place: no grid-sized list
    # beside the columns.  ``last`` is the point read last, the one eval refuses.
    try:
        us, vs = result.trajectory.eval(reach - abs((last := rho) - peak) for rho in rhos)
    except ValueError:
        far = f"rho={last!r} lies outside the integrated span"
        raise ValueError(f"{far}, which reaches {reach!r} from the peak at rho={peak!r}") from None
    for i, rho in enumerate(rhos):
        if rho > peak:
            vs[i] = -vs[i]
        elif rho == peak:
            # The run's end: v is 0 there only to within the event's location error.
            us[i], vs[i] = result.a_star, 0.0
    return us, vs


def profile_samples(result: ShootingResult) -> tuple[list[float], ...]:
    """The run's samples inside [-L/epsilon, L/epsilon] as columns (rho, d,
    u, v), read back from the peak: the inverse of :func:`eval_profile_grid`.
    With side 1 for an inner spike, whose rows run out to the right, and -1
    for a boundary one, whose rows run inward from the wall, a sample at
    distance d from the peak has rho = peak + side * d and v = -side times
    the run's v; the peak, d = 0, always gives a row, with v = 0."""
    params = result.params
    side = -1.0 if params.kind is SpikeKind.BOUNDARY else 1.0
    peak, sigma_pk = params.peak_rho, result.sigma_pk
    to_far_wall = peak + params.half_length / params.epsilon
    rows = []
    for sigma, (u, v) in reversed(result.trajectory.samples):
        d = sigma_pk - sigma
        if d > to_far_wall:
            break
        rows.append((peak + side * d, d, u, -side * v if d else 0.0))
    return tuple(map(list, zip(*rows)))
