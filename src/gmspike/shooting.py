"""Shooting solver: one run inward from the saddle traces the spike.

The spike system u' = v, v' = u - u**p is reversible (rho -> -rho,
v -> -v) and conserves H(u, v) = v**2/2 - u**2/2 + u**(p+1)/(p+1), so the
far half of the spike is the branch of the level set H = 0 that leaves the
saddle (0, 0) into u > 0.  :func:`shoot` starts on that branch at

    (U0, U0 * sqrt(1 - 2 * U0**(p - 1) / (p + 1))),

where H = 0 to rounding, and makes one integration in sigma, the distance
from that far end, until v turns through 0 at u > 0.  That ``TURNED`` event
is the peak: its u is the amplitude a_star and its sigma is sigma_pk, so u
at distance d from the peak is the run at sigma_pk - d.  Nothing here reads
the closed form; the run knows only p.

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
endpoint rho = L / epsilon is the inner one shifted there.
:func:`eval_profile_grid` maps domain coordinates onto the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Iterable, NamedTuple, Sequence

from .analytic import ProblemParams, SpikeKind
from .ode import IntegratorConfig, State, TerminalEvent, Trajectory, integrate

__all__ = [
    "ShootingConfig",
    "InwardRun",
    "ShootingResult",
    "ShootingError",
    "shoot",
    "eval_profile_grid",
]

# u at the far end of the run.  The profile reaches sigma_pk, about
# ln(1 / U0) plus a constant of p, from the peak: 16.17 at p = 100, past the
# 10-wide default grids.
U0 = 1e-7

# End of the run if its peak event never fires; every p in [1.01, 100]
# peaks before sigma = 82.7.
_HORIZON = 200.0


class ShootingError(RuntimeError):
    """A shoot's run ended anywhere but its peak: step-size control
    underflowed, or the run crossed u = 0 or reached its horizon."""


@dataclass(frozen=True)
class ShootingConfig:
    """The settings of the amplitude scan the inward run replaced; it has
    none left.  :func:`shoot` takes no config of this class.

    ``scan_points`` is 0 because no amplitude is scanned: a shoot's one
    integration is its final run.  ``bench/child.py`` reads it, through
    ``ShootingResult.config``.
    """

    scan_points: ClassVar[int] = 0


class InwardRun(NamedTuple):
    """One integration of a shoot: its start ``u0``, the u at its peak,
    ``a_star``, and the distance ``sigma_pk`` it ran to get there."""

    u0: float
    a_star: float
    sigma_pk: float


@dataclass(frozen=True)
class ShootingResult:
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
    integrator_config: IntegratorConfig
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


def shoot(
    params: ProblemParams, integrator_config: IntegratorConfig = IntegratorConfig()
) -> ShootingResult:
    """Integrate once from the far end of the spike to its peak.

    The run starts at (U0, v0) with H(U0, v0) = 0 and ends at its first
    event, which on the spike is the peak; ``integrator_config`` sets its
    tolerances.  Raises :class:`ShootingError` if it ends any other way:
    step-size control underflows, or the run crosses u = 0 or reaches its
    horizon.
    """
    p = params.p
    v0 = U0 * math.sqrt(1.0 - 2.0 * U0 ** (p - 1.0) / (p + 1.0))
    trajectory = integrate(State(U0, v0), 0.0, _HORIZON, p, integrator_config)
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
    run = InwardRun(U0, state.u, sigma)
    return ShootingResult(trajectory, (run,), params, integrator_config)


def check_within_wall(params: ProblemParams, rhos: Iterable[float]) -> None:
    """Raise ValueError if a boundary spike's ``rhos`` pass its wall by more than 1e-9."""
    if params.kind is SpikeKind.BOUNDARY:
        peak = params.peak_rho
        beyond = next((rho for rho in rhos if rho - peak > 1e-9), None)
        if beyond is not None:
            raise ValueError(
                f"rho={beyond!r} lies outside the domain; the boundary spike peaks "
                f"at the right endpoint rho={peak!r}"
            )


def eval_profile_grid(
    result: ShootingResult, rhos: Sequence[float]
) -> tuple[list[float], list[float]]:
    """Shooting profile u and v columns at the domain coordinates ``rhos``.

    u at distance d from the peak is the run at sigma_pk - d.  The run
    climbs towards the peak, so v is the run's slope where rho < peak and
    its negative where rho > peak; at the peak itself the profile is
    (a_star, 0).  Raises ValueError, naming the point, if any point is NaN,
    lies farther than sigma_pk from the peak or, for boundary spikes, past
    the domain edge.
    """
    params = result.params
    peak = params.peak_rho
    check_within_wall(params, rhos)
    reach = result.sigma_pk
    far = next((rho for rho in rhos if not abs(rho - peak) <= reach + 1e-9), None)
    if far is not None:
        raise ValueError(
            f"rho={far!r} lies outside the integrated span, which reaches "
            f"{reach!r} from the peak at rho={peak!r}"
        )
    # Run positions are generated, not stored: no grid-sized list beside the columns.
    us, vs = result.trajectory.eval(reach - abs(rho - peak) for rho in rhos)
    for i, rho in enumerate(rhos):
        if rho > peak:
            vs[i] = -vs[i]
        elif rho == peak:
            # The run's end: v is 0 there only to within the event's location error.
            us[i], vs[i] = result.a_star, 0.0
    return us, vs
