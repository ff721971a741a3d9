"""Shooting solver that recovers the spike amplitude from the dynamics.

The spike orbit leaves the initial condition (a, 0) and must approach the
saddle (0, 0), so the peak amplitude a is found by a scan-and-bisect search
on the phase plane:

* amplitudes above the spike height overshoot (u falls through 0 with
  v < 0),
* amplitudes below it undershoot (v turns through 0 while u > 0),
* the spike itself connects, reaching the truncated endpoint rho_l with
  the boundary functional |u| + |v| at most eta.

The scan classifies scan_points amplitudes across [amplitude - delta,
amplitude + delta], and a connecting run is the answer: the connecting scan
point with the smallest boundary residual or, only if no scan point
connects, the first connecting midpoint of a bisection of the bracket from
the last undershoot to the first overshoot.  Bisection also ends once the
bracket is narrower than refine_tol or holds no double strictly inside; the
midpoint it has just run is then the answer.  Once the bracket is tighter
than the truncated horizon can resolve, under and over events stop firing
and a midpoint connects, so this is the achievable accuracy.  Every
integration is logged once, in order, as a :class:`Classification`, and the
answer's own run is the reported one: no orbit is integrated twice.

Every run, the reported one included, ends at its first event: an
undershoot at its first turn, a minimum or, when a lies below the centre
u = 1, a maximum; an overshoot at u = 0.  Its boundary residual is read
where it ended.

Boundary spikes reuse the same computation.  The system is autonomous and
even, so the profile peaking at the right endpoint rho = L / epsilon is the
inner solution reflected; :func:`eval_profile_grid` maps between the domain
coordinate and the integrated distance-from-peak frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

from .analytic import ProblemParams, SpikeKind, spike_amplitude
from .ode import IntegratorConfig, State, TerminalEvent, Trajectory, hamiltonian, integrate

__all__ = [
    "DEFAULT_RHO_L",
    "Verdict",
    "ShootingConfig",
    "Classification",
    "ShootingResult",
    "Shot",
    "ShootingError",
    "NoBracketError",
    "classify",
    "shoot",
    "eval_profile_grid",
]

# Truncation point of the far-field condition.  The profile decays like
# exp(-rho) for every admissible p, so u(12) ~ 1e-5 sits well inside the
# default eta = 0.01 acceptance band while keeping the amplitude truncation
# error exp(-rho_l) far below the 1e-4 accuracy target.
DEFAULT_RHO_L = 12.0


class Verdict(Enum):
    OVERSHOOT = "overshoot"
    UNDERSHOOT = "undershoot"
    CONNECT = "connect"


class ShootingError(RuntimeError):
    """Integration inside the shooting loop failed."""


class NoBracketError(ShootingError):
    """The scan produced neither a sign change nor a connecting amplitude.
    ``classifications`` is the scan's log, one entry per integration."""

    def __init__(self, message: str, classifications: tuple[Classification, ...]) -> None:
        super().__init__(message)
        self.classifications = classifications


@dataclass(frozen=True)
class ShootingConfig:
    delta: float = 0.1
    eta: float = 0.01
    rho_l: float = DEFAULT_RHO_L
    scan_points: int = 41
    refine_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not (self.delta > 0.0 and math.isfinite(self.delta)):
            raise ValueError("delta must be positive")
        if not (self.eta > 0.0 and math.isfinite(self.eta)):
            raise ValueError("eta must be positive")
        if not (self.rho_l > 0.0 and math.isfinite(self.rho_l)):
            raise ValueError("rho_l must be positive")
        if self.scan_points < 3:
            raise ValueError("scan_points must be at least 3")
        if not (self.refine_tol > 0.0):
            raise ValueError("refine_tol must be positive")


class Classification(NamedTuple):
    """One integration of a shoot.  ``bc_residual`` is |u| + |v| where its
    run ended: at rho_l, at an overshoot's u = 0 event, or at an
    undershoot's first turning point."""

    a: float
    verdict: Verdict
    bc_residual: float


def _bc_residual(trajectory: Trajectory) -> float:
    state = trajectory.end[1]
    return abs(state.u) + abs(state.v)


class Shot(NamedTuple):
    """One integration from (a, 0) and the verdict it earned.

    ``bc_residual`` is |u| + |v| and ``signed_bc_residual`` is u + v at the
    end of the trajectory: at rho_l, or at the terminating event if one
    fired first.
    """

    verdict: Verdict
    trajectory: Trajectory

    @property
    def bc_residual(self) -> float:
        return _bc_residual(self.trajectory)

    @property
    def signed_bc_residual(self) -> float:
        state = self.trajectory.end[1]
        return state.u + state.v


@dataclass(frozen=True)
class ShootingResult:
    """Refined amplitude plus the evidence that produced it.

    ``bc_residual`` and ``signed_bc_residual`` are read from the end of the
    accepted trajectory, as on a :class:`Shot`; ``converged`` says whether
    ``bc_residual`` is within ``config.eta``.  ``classifications`` logs each
    integration once, in order, scan points first; ``a_star`` is one entry's
    amplitude and ``trajectory`` that entry's run.  ``bracket_history``
    starts with the scan's bracket, when it has one.
    """

    a_star: float
    trajectory: Trajectory
    classifications: tuple[Classification, ...]
    bracket_history: tuple[tuple[float, float], ...]
    params: ProblemParams
    config: ShootingConfig
    integrator_config: IntegratorConfig

    # Shot's properties read nothing but ``self.trajectory``.
    bc_residual = Shot.bc_residual
    signed_bc_residual = Shot.signed_bc_residual

    @property
    def converged(self) -> bool:
        return self.bc_residual <= self.config.eta


def classify(
    a: float,
    p: float,
    rho_l: float,
    config: IntegratorConfig = IntegratorConfig(),
    eta: float = ShootingConfig.eta,
) -> Shot:
    """Integrate one shot from (a, 0) to rho_l and classify it.

    Returns a :class:`Shot`: ``verdict`` is overshoot, undershoot, or
    connect; ``trajectory`` is the integrated orbit, which ends at rho_l or
    at its first event.  The event alone gives the verdict: a turn at
    u > 0 is an undershoot, u crossing 0 an overshoot.
    """
    if not (a > 0.0 and math.isfinite(a)):
        raise ValueError(f"amplitude must be positive, got {a!r}")
    trajectory = integrate(State(a, 0.0), 0.0, rho_l, p, config)
    event = trajectory.terminal_event
    if event is TerminalEvent.STEP_FAILURE:
        raise ShootingError(f"step size underflow while integrating amplitude {a!r}")
    if event is TerminalEvent.TURNED:
        verdict = Verdict.UNDERSHOOT
    elif event is TerminalEvent.U_CROSSED_ZERO:
        verdict = Verdict.OVERSHOOT
    elif _bc_residual(trajectory) <= eta:
        verdict = Verdict.CONNECT
    else:
        # Horizon reached with no event and the functional still large: the
        # orbit is still descending the spike.  The conserved energy of the
        # computed endpoint tells which side it will eventually fall to.
        energy = hamiltonian(trajectory.end[1], p)
        verdict = Verdict.UNDERSHOOT if energy < 0.0 else Verdict.OVERSHOOT
    return Shot(verdict, trajectory)


def shoot(
    params: ProblemParams,
    config: ShootingConfig = ShootingConfig(),
    integrator_config: IntegratorConfig = IntegratorConfig(),
) -> ShootingResult:
    """Scan, bracket, and bisect to the spike amplitude; a connecting run is the answer.

    The scan classifies scan_points amplitudes across [amplitude - delta,
    amplitude + delta].  If any connects, the one with the smallest boundary
    residual (the first on ties) is the answer.  Otherwise the bracket from
    the last undershoot to the first overshoot is bisected until a midpoint
    connects, the bracket is narrower than refine_tol, or it holds no double
    strictly inside; the midpoint just run is the answer.  Each integration
    is logged once, in order.  Raises :class:`NoBracketError`, with the log,
    when the scan neither brackets nor connects.
    """
    p = params.p
    amp = spike_amplitude(p)
    if amp - config.delta <= 0.0:
        raise ValueError("scan window must stay at positive amplitudes")
    log: list[Classification] = []

    def run(a: float) -> Shot:
        shot = classify(a, p, config.rho_l, integrator_config, config.eta)
        log.append(Classification(a, shot.verdict, shot.bc_residual))
        return shot

    n = config.scan_points
    step = 2.0 * config.delta / (n - 1)
    answer = None
    for i in range(n):
        a = amp - config.delta + i * step
        shot = run(a)
        if shot.verdict is Verdict.CONNECT and (
            answer is None or shot.bc_residual < answer[1].bc_residual
        ):
            answer = (a, shot)

    # The bracket spans from the last undershoot to the first overshoot;
    # connecting points in between do not widen it.
    unders = [i for i, entry in enumerate(log) if entry.verdict is Verdict.UNDERSHOOT]
    overs = [i for i, entry in enumerate(log) if entry.verdict is Verdict.OVERSHOOT]
    bracket_history: list[tuple[float, float]] = []
    if unders and overs and unders[-1] < overs[0]:
        bracket_history.append((log[unders[-1]].a, log[overs[0]].a))

    if answer is None:
        if not bracket_history:
            raise NoBracketError(
                "scan found no undershoot-to-overshoot transition and no connecting amplitude",
                tuple(log),
            )
        lo, hi = bracket_history[0]
        a = 0.5 * (lo + hi)
        while True:
            shot = run(a)
            if shot.verdict is Verdict.CONNECT or hi - lo <= config.refine_tol:
                break
            if shot.verdict is Verdict.UNDERSHOOT:
                lo = a
            else:
                hi = a
            bracket_history.append((lo, hi))
            mid = 0.5 * (lo + hi)
            # A bracket with no double strictly inside is as narrow as it gets.
            if not lo < mid < hi:
                break
            a = mid
        answer = (a, shot)

    a_star, final = answer
    return ShootingResult(
        a_star, final.trajectory, tuple(log), tuple(bracket_history),
        params, config, integrator_config,
    )


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

    The trajectory is integrated in the distance-from-peak frame; inner
    spikes extend to rho < peak by evenness (u even, v odd) and boundary
    spikes are the reflection peaking at the right endpoint, so v flips
    sign on the interior side.  Raises ValueError, naming the point, if any
    point is NaN, lies beyond the integrated span or, for boundary spikes,
    past the domain edge.
    """
    params = result.params
    peak = params.peak_rho
    check_within_wall(params, rhos)
    reach = result.trajectory.end[0]
    far = next((rho for rho in rhos if not abs(rho - peak) <= reach + 1e-9), None)
    if far is not None:
        raise ValueError(
            f"rho={far!r} lies outside the integrated span, which reaches "
            f"{reach!r} from the peak at rho={peak!r}"
        )
    # Distances are generated, not stored: no grid-sized list beside the columns.
    us, vs = result.trajectory.eval(abs(rho - peak) for rho in rhos)
    for i, rho in enumerate(rhos):
        if rho - peak < 0.0:
            vs[i] = -vs[i]
    return us, vs
