"""Shooting solver that recovers the spike amplitude from the dynamics.

The spike orbit leaves the initial condition (a, 0) and must approach the
saddle (0, 0), so the peak amplitude a is found by a scan-and-bisect search
on the phase plane:

* amplitudes above the spike height overshoot (u falls through 0 with
  v < 0),
* amplitudes below it undershoot (v turns through 0 while u > 0),
* the spike itself connects, reaching the truncated endpoint rho_l with
  the boundary functional |u| + |v| at most eta.

The scan covers [amplitude - delta, amplitude + delta]; the first
undershoot-to-overshoot transition brackets the answer and plain bisection
refines it.  Refinement stops early when a midpoint already connects: once
the bracket is tighter than the separation the truncated horizon can
resolve, under and over events stop firing and the midpoint is the answer
to within the achievable accuracy.

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
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

from .analytic import ProblemParams, SpikeKind, spike_amplitude
from .ode import IntegratorConfig, State, TerminalEvent, Trajectory, hamiltonian, integrate

__all__ = [
    "DEFAULT_RHO_L",
    "Verdict",
    "ShootingConfig",
    "ScanEntry",
    "ScanResult",
    "ShootingResult",
    "Shot",
    "ShootingError",
    "NoBracketError",
    "classify",
    "scan",
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
    """The scan produced neither a sign change nor a connecting amplitude."""

    def __init__(self, message: str, scan_result: "ScanResult") -> None:
        super().__init__(message)
        self.scan_result = scan_result


@dataclass(frozen=True)
class ShootingConfig:
    delta: float = 0.1
    eta: float = 0.01
    rho_l: float = DEFAULT_RHO_L
    scan_points: int = 41
    refine_tol: float = 1e-10
    max_bisections: int = 200

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
        if self.max_bisections < 1:
            raise ValueError("max_bisections must be at least 1")


@dataclass(frozen=True)
class ScanEntry:
    """One scanned amplitude.  ``bc_residual`` is |u| + |v| where its run
    ended: at rho_l, at an overshoot's u = 0 event, or at an undershoot's
    first turning point."""

    a: float
    verdict: Verdict
    bc_residual: float


@dataclass(frozen=True)
class ScanResult:
    """Verdicts across the window.  ``best_connect`` is the connecting
    amplitude with the smallest residual (the first on ties) and its shot,
    kept so that a shoot without a bracket does not integrate it again."""

    entries: tuple[ScanEntry, ...]
    bracket: tuple[float, float] | None
    best_connect: tuple[float, Shot] | None = field(default=None, repr=False, compare=False)


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
    ``bc_residual`` is within ``config.eta``.  ``classifications`` lists
    every amplitude examined, scan points first, bisection midpoints after,
    and ends with the final run's (a_star, verdict), even when that run is
    the connecting midpoint before it.
    """

    a_star: float
    trajectory: Trajectory
    classifications: tuple[tuple[float, Verdict], ...]
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


def scan(
    params: ProblemParams,
    config: ShootingConfig = ShootingConfig(),
    integrator_config: IntegratorConfig = IntegratorConfig(),
) -> ScanResult:
    """Classify scan_points amplitudes across [amplitude - delta, amplitude + delta].

    The bracket, when present, spans from the last undershoot to the first
    overshoot; connecting points in between do not widen it.
    """
    p = params.p
    amp = spike_amplitude(p)
    if amp - config.delta <= 0.0:
        raise ValueError("scan window must stay at positive amplitudes")

    n = config.scan_points
    step = 2.0 * config.delta / (n - 1)
    entries = []
    best_connect = None
    for i in range(n):
        a = amp - config.delta + i * step
        shot = classify(a, p, config.rho_l, integrator_config, config.eta)
        entries.append(ScanEntry(a=a, verdict=shot.verdict, bc_residual=shot.bc_residual))
        if shot.verdict is Verdict.CONNECT and (
            best_connect is None or shot.bc_residual < best_connect[1].bc_residual
        ):
            best_connect = (a, shot)
        # Only the best connecting trajectory outlives its iteration.
        del shot

    last_under = None
    first_over = None
    for i, entry in enumerate(entries):
        if entry.verdict is Verdict.UNDERSHOOT:
            last_under = i
        elif entry.verdict is Verdict.OVERSHOOT and first_over is None:
            first_over = i
    bracket = None
    if last_under is not None and first_over is not None and last_under < first_over:
        bracket = (entries[last_under].a, entries[first_over].a)
    return ScanResult(entries=tuple(entries), bracket=bracket, best_connect=best_connect)


def shoot(
    params: ProblemParams,
    config: ShootingConfig = ShootingConfig(),
    integrator_config: IntegratorConfig = IntegratorConfig(),
) -> ShootingResult:
    """Scan, bracket, and bisect to the spike amplitude.

    Bisection halves the bracket until it is narrower than refine_tol or
    holds no double strictly inside, stopping early if a midpoint connects
    outright.  Without a bracket the connecting scan point with the smallest
    boundary residual is taken.  Raises :class:`NoBracketError` when the
    scan neither brackets nor connects.  A connecting midpoint or scan point
    is the final run; otherwise a_star is classified once more.
    """
    p = params.p
    scan_result = scan(params, config, integrator_config)
    classifications: list[tuple[float, Verdict]] = [
        (e.a, e.verdict) for e in scan_result.entries
    ]
    bracket_history: list[tuple[float, float]] = []
    final = None

    if scan_result.bracket is not None:
        lo, hi = scan_result.bracket
        bracket_history.append((lo, hi))
        a_star = 0.5 * (lo + hi)
        for _ in range(config.max_bisections):
            mid = 0.5 * (lo + hi)
            # A bracket with no double strictly inside is as narrow as it gets.
            if hi - lo <= config.refine_tol or not lo < mid < hi:
                a_star = mid
                break
            shot = classify(mid, p, config.rho_l, integrator_config, config.eta)
            classifications.append((mid, shot.verdict))
            if shot.verdict is Verdict.CONNECT:
                a_star, final = mid, shot
                break
            if shot.verdict is Verdict.UNDERSHOOT:
                lo = mid
            else:
                hi = mid
            bracket_history.append((lo, hi))
            a_star = 0.5 * (lo + hi)
        else:
            raise ShootingError(
                f"bisection did not reach refine_tol within {config.max_bisections} iterations"
            )
    elif scan_result.best_connect is not None:
        a_star, final = scan_result.best_connect
    else:
        raise NoBracketError(
            "scan found no undershoot-to-overshoot transition and no "
            "connecting amplitude",
            scan_result,
        )

    if final is None:
        final = classify(a_star, p, config.rho_l, integrator_config, config.eta)
    classifications.append((a_star, final.verdict))
    return ShootingResult(
        a_star=a_star,
        trajectory=final.trajectory,
        classifications=tuple(classifications),
        bracket_history=tuple(bracket_history),
        params=params,
        config=config,
        integrator_config=integrator_config,
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
