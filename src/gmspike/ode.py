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

The field is defined in one place, the stage block of :func:`integrate`,
and written out there at each of its stage points rather than called as a
function.  The shooting solver spends nearly all its time in that loop, and
there a Python call per stage, plus one for the power, cost more than the
stage's own arithmetic.  ``u ** p`` with a float exponent gives the same
bits and raises the same OverflowError as ``math.pow``, so the inlined loop
takes every step, and stores every stage, exactly as a loop calling the
field would; the ``integrate/`` digests of ``tests/test_golden.py`` pin that.
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
]

# Spatial resolution of event bisection on the dense interpolant.
EVENT_LOCATION_TOL = 1e-10

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
        # An infinite tolerance switches error control off, and an infinite
        # bound lets one step span the whole run.
        if not (0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if not (0.0 < self.h_min <= self.h_init <= self.h_max < math.inf):
            raise ValueError("step bounds must satisfy 0 < h_min <= h_init <= h_max < inf")


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
    rejected_steps: int
    terminal_event: TerminalEvent
    v_zero_crossings: list[tuple[float, State]] = field(default_factory=list)

    @property
    def samples(self) -> list[tuple[float, State]]:
        """(rho, state) at the start point and after every accepted step,
        with strictly increasing rho; ``[end]`` when no step was accepted."""
        return [(step[0], State(step[2], step[3])) for step in self.steps] + [self.end]

    @property
    def accepted_steps(self) -> int:
        return len(self.steps)

    @property
    def rho_start(self) -> float:
        return self.steps[0][0] if self.steps else self.end[0]

    def eval(self, rhos: Iterable[float]) -> tuple[list[float], list[float]]:
        """Dense-output u and v columns at the points ``rhos``, in their order.

        Points within 1e-9 of the integrated span are clamped onto it; a
        point farther out, or NaN, raises ValueError, wherever it is in
        ``rhos``.
        """
        lo, hi = self.rho_start, self.end[0]
        interpolants, starts = self._interpolants, self._starts
        us: list[float] = []
        vs: list[float] = []
        for rho in rhos:
            if not lo <= rho <= hi:
                if not lo - 1e-9 <= rho <= hi + 1e-9:
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
    # A float exponent makes ** return a float for any real base, as
    # math.pow does.
    p = float(p)
    # u**p is singular at u = 0 for p < 0, and a non-finite p leaves no
    # step acceptable.
    if not (0.0 < p < math.inf):
        raise ValueError(f"p must be positive and finite, got {p!r}")
    integer_p = p.is_integer()
    if u < 0.0 and not integer_p:
        raise ValueError("initial u must be nonnegative for fractional p")

    rel, ab = config.rel_tol, config.abs_tol
    h_min, h_max = config.h_min, config.h_max

    # The stage loop reads each of these every step: locals, not globals.
    a21, a31, a32, a41, a42, a43 = _A21, _A31, _A32, _A41, _A42, _A43
    a51, a52, a53, a54 = _A51, _A52, _A53, _A54
    a61, a62, a63, a64, a65 = _A61, _A62, _A63, _A64, _A65
    b1, b3, b4, b5, b6 = _B1, _B3, _B4, _B5, _B6
    e1, e3, e4, e5, e6, e7 = _E1, _E3, _E4, _E5, _E6, _E7
    safety, min_factor, max_factor = _SAFETY, _MIN_FACTOR, _MAX_FACTOR
    sqrt = math.sqrt
    steps: list[tuple[float, ...]] = []
    append = steps.append

    u_start = u
    rho = rho_start
    # Every stage k = (ku, kv) below is the field u' = v, v' = u - u**p at
    # its stage point, written out in place (see the module docstring).
    k1u, k1v = v, u - (u ** p if u >= 0.0 or integer_p else -((-u) ** p))
    h = min(max(config.h_init, h_min), h_max, rho_end - rho_start)
    crossings: list[tuple[float, State]] = []
    rejected = 0
    event = TerminalEvent.REACHED_END

    while True:
        last = rho + h >= rho_end
        h_step = rho_end - rho if last else h

        try:
            yu = u + h_step * (a21 * k1u)
            yv = v + h_step * (a21 * k1v)
            k2u, k2v = yv, yu - (yu ** p if yu >= 0.0 or integer_p else -((-yu) ** p))
            yu = u + h_step * (a31 * k1u + a32 * k2u)
            yv = v + h_step * (a31 * k1v + a32 * k2v)
            k3u, k3v = yv, yu - (yu ** p if yu >= 0.0 or integer_p else -((-yu) ** p))
            yu = u + h_step * (a41 * k1u + a42 * k2u + a43 * k3u)
            yv = v + h_step * (a41 * k1v + a42 * k2v + a43 * k3v)
            k4u, k4v = yv, yu - (yu ** p if yu >= 0.0 or integer_p else -((-yu) ** p))
            yu = u + h_step * (a51 * k1u + a52 * k2u + a53 * k3u + a54 * k4u)
            yv = v + h_step * (a51 * k1v + a52 * k2v + a53 * k3v + a54 * k4v)
            k5u, k5v = yv, yu - (yu ** p if yu >= 0.0 or integer_p else -((-yu) ** p))
            yu = u + h_step * (a61 * k1u + a62 * k2u + a63 * k3u + a64 * k4u + a65 * k5u)
            yv = v + h_step * (a61 * k1v + a62 * k2v + a63 * k3v + a64 * k4v + a65 * k5v)
            k6u, k6v = yv, yu - (yu ** p if yu >= 0.0 or integer_p else -((-yu) ** p))
            u_new = u + h_step * (b1 * k1u + b3 * k3u + b4 * k4u + b5 * k5u + b6 * k6u)
            v_new = v + h_step * (b1 * k1v + b3 * k3v + b4 * k4v + b5 * k5v + b6 * k6v)
            k7u, k7v = v_new, u_new - (
                u_new ** p if u_new >= 0.0 or integer_p else -((-u_new) ** p)
            )
        except OverflowError:
            # u**p overflowed at a trial stage: the step is far too long.
            err_norm = math.inf
        else:
            err_u = h_step * (e1 * k1u + e3 * k3u + e4 * k4u + e5 * k5u + e6 * k6u + e7 * k7u)
            err_v = h_step * (e1 * k1v + e3 * k3v + e4 * k4v + e5 * k5v + e6 * k6v + e7 * k7v)
            # x if x > y else y is max(y, x), and x if x < y else y is
            # min(y, x), NaN included: the first argument wins unless the
            # comparison holds.
            scale = abs(u)
            new = abs(u_new)
            ratio_u = err_u / (ab + rel * (new if new > scale else scale))
            scale = abs(v)
            new = abs(v_new)
            ratio_v = err_v / (ab + rel * (new if new > scale else scale))
            err_norm = sqrt(0.5 * (ratio_u * ratio_u + ratio_v * ratio_v))

        # Written so that a NaN estimate is rejected too.
        if not err_norm <= 1.0:
            rejected += 1
            factor = safety * err_norm ** -0.2
            h = h_step * (factor if factor > min_factor else min_factor)
            if h < h_min:
                event = TerminalEvent.STEP_FAILURE
                break
            continue

        append((rho, h_step, u, v, k1u, k3u, k4u, k5u, k6u, k7u, k1v, k3v, k4v, k5v, k6v, k7v))

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
            factor = max_factor
        else:
            factor = safety * err_norm ** -0.2
            factor = factor if factor > min_factor else min_factor
            factor = factor if factor < max_factor else max_factor
        h = h_step * factor
        h = h if h > h_min else h_min
        h = h if h < h_max else h_max

    return Trajectory(
        steps=steps,
        end=(rho, State(u, v)),
        rejected_steps=rejected,
        terminal_event=event,
        v_zero_crossings=crossings,
    )
