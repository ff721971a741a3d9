"""First-order spike system and an adaptive embedded Runge-Kutta integrator.

The second-order equation u'' - u + u**p = 0 becomes

    u' = v,    v' = u - u**p,

with equilibria (0, 0) (saddle) and (1, 0) (centre) and the conserved energy

    H(u, v) = v**2 / 2 - u**2 / 2 + u**(p + 1) / (p + 1),

which is exactly 0 on the spike orbit and is used as a drift diagnostic.

Integration uses the Dormand-Prince 5(4) embedded pair with the standard
quartic dense-output interpolant.  Each accepted step is kept as its raw
stages; its interpolant is built from them only where it is read: on a step
that changes the sign of u or of v, and, for every step at once, on the
first dense evaluation of a returned trajectory.  An interpolant is one flat
tuple (rho0, h, u0, v0, cu1..cu4, cv1..cv4), and :func:`_dense` is the one
evaluator of its quartic, shared by event location and by
:meth:`Trajectory.eval`, which turns a whole sequence of points into u and
v columns without building a :class:`State` per point.  Every accepted step
is scanned for those sign changes before it is committed, so phase-plane
events cannot be skipped; their locations are resolved to 1e-10 in rho by
bisecting the dense interpolant.  Zero crossings of u terminate the
trajectory, zero crossings of v are recorded for the shooting classifier.
On request, the first v crossing with 0 < u < u(rho_start) also ends the
run (``TURNED``): the orbit has turned back inside the homoclinic loop,
which settles the classifier's verdict, so nothing after it is read.
No cap on u is needed: H is conserved, so an orbit from (a, 0) never rises
above the larger of a and the spike height.

For fractional p the right-hand side is undefined at u < 0; trajectories
are truncated at the u = 0 event, but the internal stage evaluations of the
step that straddles the crossing may probe slightly past it.  Those stages
use the sign-preserving extension u * |u|**(p - 1), which is C1 at 0 and
only ever influences the discarded part of the final step.  Integer p uses
the true power for all u.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable

__all__ = [
    "TerminalEvent",
    "State",
    "IntegratorConfig",
    "Trajectory",
    "hamiltonian",
    "integrate",
    "EVENT_LOCATION_TOL",
    "PROPAGATING_ORDER",
]

# Spatial resolution of event bisection on the dense interpolant.
EVENT_LOCATION_TOL = 1e-10

# The pair advances the fifth-order solution; the embedded fourth-order
# result only feeds the error estimate.
PROPAGATING_ORDER = 5

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0

# Dormand-Prince 5(4) tableau.
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)

# Dense-output coefficients: on an accepted step the interpolant is
# y(theta) = y0 + h * (c1*theta + c2*theta**2 + c3*theta**3 + c4*theta**4)
# with c_j = sum_i P[i][j-1] * k_i.  Stage 2 does not contribute.
_P1 = (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432)
_P3 = (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799)
_P4 = (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072)
_P5 = (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632)
_P6 = (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844)
_P7 = (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423)


class TerminalEvent(Enum):
    REACHED_END = "reached_end"
    U_CROSSED_ZERO = "u_crossed_zero"
    TURNED = "turned"
    STEP_FAILURE = "step_failure"


@dataclass(frozen=True)
class State:
    """Phase-plane point (u, v) with v = du/drho."""

    u: float
    v: float


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    h_init: float = 1e-3
    h_min: float = 1e-12
    h_max: float = 0.1

    def __post_init__(self) -> None:
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if not (0.0 < self.h_min <= self.h_init <= self.h_max):
            raise ValueError("step bounds must satisfy 0 < h_min <= h_init <= h_max")


def _coefficients(
    k1: float, k3: float, k4: float, k5: float, k6: float, k7: float
) -> tuple[float, float, float, float]:
    """Quartic dense-output coefficients of one component of a step."""
    return (
        _P1[0] * k1,
        _P1[1] * k1 + _P3[1] * k3 + _P4[1] * k4 + _P5[1] * k5 + _P6[1] * k6 + _P7[1] * k7,
        _P1[2] * k1 + _P3[2] * k3 + _P4[2] * k4 + _P5[2] * k5 + _P6[2] * k6 + _P7[2] * k7,
        _P1[3] * k1 + _P3[3] * k3 + _P4[3] * k4 + _P5[3] * k5 + _P6[3] * k6 + _P7[3] * k7,
    )


def _interpolant(step: tuple[float, ...]) -> tuple[float, ...]:
    """Interpolant (rho0, h, u0, v0, cu1..cu4, cv1..cv4) of one raw step
    (rho, h, u, v, k1, k3..k7 of u, then of v)."""
    rho0, h, u0, v0, k1u, k3u, k4u, k5u, k6u, k7u, k1v, k3v, k4v, k5v, k6v, k7v = step
    return (
        rho0, h, u0, v0,
        *_coefficients(k1u, k3u, k4u, k5u, k6u, k7u),
        *_coefficients(k1v, k3v, k4v, k5v, k6v, k7v),
    )


def _dense(c: tuple[float, ...], theta: float) -> tuple[float, float]:
    """(u, v) of interpolant ``c`` at the fraction ``theta`` of its step."""
    _, h, u0, v0, cu1, cu2, cu3, cu4, cv1, cv2, cv3, cv4 = c
    return (
        u0 + h * theta * (cu1 + theta * (cu2 + theta * (cu3 + theta * cu4))),
        v0 + h * theta * (cv1 + theta * (cv2 + theta * (cv3 + theta * cv4))),
    )


@dataclass
class Trajectory:
    """Result of one integration run.

    ``steps`` holds the raw stages of each accepted step as flat tuples
    (rho, h, u, v, k1, k3..k7 of u, then of v); the last one reaches past
    ``end`` when a terminal event cut it short.  :meth:`eval` turns them
    into dense interpolants on first use.  ``end`` is the final (rho,
    state): the event location, ``rho_end``, or the last accepted point
    after a step failure.  ``v_zero_crossings`` lists sign changes of v
    located on the dense interpolant, in increasing rho order.
    """

    steps: list[tuple[float, ...]] = field(repr=False)
    end: tuple[float, State]
    accepted_steps: int
    rejected_steps: int
    terminal_event: TerminalEvent
    v_zero_crossings: list[tuple[float, State]] = field(default_factory=list)

    @property
    def samples(self) -> list[tuple[float, State]]:
        """(rho, state) at the start point and after every accepted step,
        with strictly increasing rho; ``[end]`` when no step was accepted."""
        return [(step[0], State(step[2], step[3])) for step in self.steps] + [self.end]

    @property
    def rho_start(self) -> float:
        return self.steps[0][0] if self.steps else self.end[0]

    @property
    def rho_end(self) -> float:
        return self.end[0]

    def eval(self, rhos: Iterable[float]) -> tuple[list[float], list[float]]:
        """Dense-output u and v columns at the points ``rhos``, in their order.

        Points within 1e-9 of the integrated span are clamped onto it; a
        point farther out raises ValueError, wherever it is in ``rhos``.
        """
        lo, hi = self.rho_start, self.end[0]
        interpolants, starts = self._interpolants, self._starts
        us: list[float] = []
        vs: list[float] = []
        for rho in rhos:
            if not lo <= rho <= hi:
                if rho < lo - 1e-9 or rho > hi + 1e-9:
                    raise ValueError(f"rho={rho!r} outside the integrated span [{lo}, {hi}]")
                rho = min(max(rho, lo), hi)
            if interpolants:
                # rho >= starts[0] here, so the index is never negative.
                c = interpolants[bisect.bisect_right(starts, rho) - 1]
                u, v = _dense(c, (rho - c[0]) / c[1])
            else:
                u, v = self.end[1].u, self.end[1].v
            us.append(u)
            vs.append(v)
        return us, vs

    @cached_property
    def _interpolants(self) -> list[tuple[float, ...]]:
        return [_interpolant(step) for step in self.steps]

    @cached_property
    def _starts(self) -> list[float]:
        return [step[0] for step in self.steps]


def _power(u: float, p: float, integer_p: bool) -> float:
    if u >= 0.0 or integer_p:
        return math.pow(u, p)
    return -math.pow(-u, p)


def hamiltonian(state: State, p: float) -> float:
    """Conserved energy v**2/2 - u**2/2 + u**(p+1)/(p+1); 0 on the spike."""
    u, v = state.u, state.v
    if u < 0.0 and not float(p).is_integer():
        raise ValueError(f"u**(p+1) undefined for u={u!r} < 0 with fractional p={p!r}")
    return 0.5 * v * v - 0.5 * u * u + math.pow(u, p + 1.0) / (p + 1.0)


def _bisect_theta(
    c: tuple[float, ...],
    component: int,
    target: float,
    lo: float,
    hi: float,
    sign_lo: float,
) -> float:
    """Locate a crossing of one component of interpolant ``c`` through ``target``."""
    span = c[1]
    while (hi - lo) * span > EVENT_LOCATION_TOL:
        mid = 0.5 * (lo + hi)
        value = _dense(c, mid)[component] - target
        if value == 0.0:
            return mid
        if (value > 0.0) == (sign_lo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def integrate(
    initial: State,
    rho_start: float,
    rho_end: float,
    p: float,
    config: IntegratorConfig = IntegratorConfig(),
    *,
    stop_at_turn: bool = False,
) -> Trajectory:
    """Integrate the spike system from ``rho_start`` to ``rho_end``.

    Adaptive Dormand-Prince 5(4) with local error kept below
    rel_tol * |state| + abs_tol per step.  Returns early with the matching
    terminal event when u crosses 0, when step-size control underflows
    h_min, or, with ``stop_at_turn``, at the first v crossing with
    0 < u < initial.u; otherwise runs to ``rho_end`` exactly.
    """
    if not (math.isfinite(rho_start) and math.isfinite(rho_end) and rho_start < rho_end):
        raise ValueError(f"need rho_start < rho_end, got [{rho_start!r}, {rho_end!r}]")
    u, v = initial.u, initial.v
    if not (math.isfinite(u) and math.isfinite(v)):
        raise ValueError(f"initial state must be finite, got {initial!r}")
    integer_p = float(p).is_integer()
    if u < 0.0 and not integer_p:
        raise ValueError("initial u must be nonnegative for fractional p")

    rel, ab = config.rel_tol, config.abs_tol
    h_min, h_max = config.h_min, config.h_max

    def f(uu: float, vv: float) -> tuple[float, float]:
        return vv, uu - _power(uu, p, integer_p)

    u_start = u
    rho = rho_start
    k1u, k1v = f(u, v)
    h = min(max(config.h_init, h_min), h_max, rho_end - rho_start)
    steps: list[tuple[float, ...]] = []
    crossings: list[tuple[float, State]] = []
    accepted = 0
    rejected = 0
    event = TerminalEvent.REACHED_END

    while True:
        last = rho + h >= rho_end
        h_step = rho_end - rho if last else h

        try:
            yu = u + h_step * (_A21 * k1u)
            yv = v + h_step * (_A21 * k1v)
            k2u, k2v = f(yu, yv)
            yu = u + h_step * (_A31 * k1u + _A32 * k2u)
            yv = v + h_step * (_A31 * k1v + _A32 * k2v)
            k3u, k3v = f(yu, yv)
            yu = u + h_step * (_A41 * k1u + _A42 * k2u + _A43 * k3u)
            yv = v + h_step * (_A41 * k1v + _A42 * k2v + _A43 * k3v)
            k4u, k4v = f(yu, yv)
            yu = u + h_step * (_A51 * k1u + _A52 * k2u + _A53 * k3u + _A54 * k4u)
            yv = v + h_step * (_A51 * k1v + _A52 * k2v + _A53 * k3v + _A54 * k4v)
            k5u, k5v = f(yu, yv)
            yu = u + h_step * (_A61 * k1u + _A62 * k2u + _A63 * k3u + _A64 * k4u + _A65 * k5u)
            yv = v + h_step * (_A61 * k1v + _A62 * k2v + _A63 * k3v + _A64 * k4v + _A65 * k5v)
            k6u, k6v = f(yu, yv)
            u_new = u + h_step * (_B1 * k1u + _B3 * k3u + _B4 * k4u + _B5 * k5u + _B6 * k6u)
            v_new = v + h_step * (_B1 * k1v + _B3 * k3v + _B4 * k4v + _B5 * k5v + _B6 * k6v)
            k7u, k7v = f(u_new, v_new)
        except OverflowError:
            # u**p overflowed at a trial stage: the step is far too long.
            err_norm = math.inf
        else:
            err_u = h_step * (
                _E1 * k1u + _E3 * k3u + _E4 * k4u + _E5 * k5u + _E6 * k6u + _E7 * k7u
            )
            err_v = h_step * (
                _E1 * k1v + _E3 * k3v + _E4 * k4v + _E5 * k5v + _E6 * k6v + _E7 * k7v
            )
            scale_u = ab + rel * max(abs(u), abs(u_new))
            scale_v = ab + rel * max(abs(v), abs(v_new))
            ratio_u = err_u / scale_u
            ratio_v = err_v / scale_v
            err_norm = math.sqrt(0.5 * (ratio_u * ratio_u + ratio_v * ratio_v))

        # Written so that a NaN estimate is rejected too.
        if not err_norm <= 1.0:
            rejected += 1
            h = h_step * max(_MIN_FACTOR, _SAFETY * err_norm ** -0.2)
            if h < h_min:
                event = TerminalEvent.STEP_FAILURE
                break
            continue

        steps.append(
            (rho, h_step, u, v, k1u, k3u, k4u, k5u, k6u, k7u, k1v, k3v, k4v, k5v, k6v, k7v)
        )
        accepted += 1

        crossed_zero = u > 0.0 >= u_new
        v_changed = (v < 0.0 < v_new) or (v_new < 0.0 < v) or (v_new == 0.0 and v != 0.0)
        if crossed_zero or v_changed:
            c = _interpolant(steps[-1])
            theta_end = _bisect_theta(c, 0, 0.0, 0.0, 1.0, 1.0) if crossed_zero else 1.0
            if v_changed:
                if v_new == 0.0 and not crossed_zero:
                    theta_v = 1.0
                else:
                    theta_v = _bisect_theta(c, 1, 0.0, 0.0, 1.0, v)
                if theta_v <= theta_end:
                    rho_v = rho + theta_v * h_step
                    uc, vc = _dense(c, theta_v)
                    crossings.append((rho_v, State(uc, vc)))
                    if stop_at_turn and 0.0 < uc < u_start:
                        rho, u, v = rho_v, uc, vc
                        event = TerminalEvent.TURNED
                        break
            if crossed_zero:
                rho = rho + theta_end * h_step
                u, v = _dense(c, theta_end)
                if u < 0.0:
                    u = 0.0
                event = TerminalEvent.U_CROSSED_ZERO
                break

        rho = rho_end if last else rho + h_step
        u, v = u_new, v_new
        k1u, k1v = k7u, k7v

        if last:
            event = TerminalEvent.REACHED_END
            break

        if err_norm == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err_norm ** -0.2))
        h = min(h_max, max(h_min, h_step * factor))

    return Trajectory(
        steps=steps,
        end=(rho, State(u, v)),
        accepted_steps=accepted,
        rejected_steps=rejected,
        terminal_event=event,
        v_zero_crossings=crossings,
    )
