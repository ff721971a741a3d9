"""The spike system in log coordinates, and an adaptive Runge-Kutta integrator.

With w = ln u and z = u'/u, the equation u'' - u + u**p = 0 becomes

    w' = z,    z' = 1 - e**((p - 1) * w) - z**2,

whose points are :class:`LogState` (w, z).  The centre u = 1 is (0, 0), and
the saddle u = 0 lies at w = -inf, which no run reaches.  ``shooting``
writes this field into the template below.

Integration uses the Dormand-Prince 5(4) embedded pair with the standard
quartic dense-output interpolant.  Each accepted step is kept as its raw
stages; its interpolant is built from them only where it is read: on a step
that ends the run, and, on a returned trajectory, when a dense evaluation
first enters that step, which keeps it for later ones.  A grid that reads
only part of a run builds only that part.  An interpolant is one flat tuple
(rho0, h, u0, v0, cu1..cu4, cv1..cv4), built in one flat expression by
:func:`_interpolant`, and :func:`_dense` evaluates its quartic.
:meth:`Trajectory.eval` turns a sequence of points into columns of the two
components by walking them: it unpacks a step once, writes ``_dense`` out
for as long as the points stay in that step, and bisects only for a point
that leaves it, so a sorted or V-shaped grid costs a bisection per step
entered, not per point, and gets ``_dense``'s bits.

A trial step of length h is accepted when its error norm err is at most 1,
and either way the next is h * min(10, max(0.2, 0.9 * err**(-1/5))) (Hairer,
Norsett & Wanner 1993, *Solving ODEs I*, II.4).  Each accepted step is
scanned for a sign change of z between its ends, located by bisecting the
interpolant until no float lies between the ends of the bracket, at the far
end: a run restarted there does not see the event again.  The bisection
evaluates z alone.  An exact zero, at a midpoint or at the step's end, is
bisected like any other sign change; one at the step's start is located at
the least theta above 0, the bisection's answer, without halving down to
it.  The scan assumes at most one sign change per step, which the field's
bound on the next step must keep.  The first event ends every run: that
sign change (``TURNED``), or else a step that ends where the field says
the orbit has left its domain (``LEFT_LOOP``).

One template holds the run: the stages, the controller, the stored stages,
the h_min floor, the rule that an overflow at a stage rejects the step, and
the event scan.  A :class:`Field` gives it, as lines of Python text, the two
components of the derivative, the error scales, the bound on the next step
and the test that the orbit has left; :func:`kernel` writes them in and
compiles the result once per field, under this file's name and with each
line at its line here, so that a traceback or a profile points into this
file.  The field is written out at each stage point, not called: the
shooting solver spends nearly all its time in that loop, where a Python call
per stage cost more than the stage's own arithmetic.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, NamedTuple

__all__ = [
    "TerminalEvent",
    "LogState",
    "Field",
    "kernel",
    "IntegratorConfig",
    "Trajectory",
    "SPAN_SLACK",
]

# How far past a run's span :meth:`Trajectory.eval` still reads a point,
# clamped onto the span: room for the rounding of a mapped coordinate.
SPAN_SLACK = 1e-9

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
_E1, _E3, _E4 = 71 / 57600, -71 / 16695, 71 / 1920
_E5, _E6, _E7 = -17253 / 339200, 22 / 525, -1 / 40

# Dense-output coefficients: on an accepted step the interpolant is
# y(theta) = y0 + h * (c1*theta + c2*theta**2 + c3*theta**3 + c4*theta**4)
# with c_j = sum_i P[i][j-1] * k_i.  Stage 2 does not contribute.
_P1 = (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432)
_P3 = (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799)
_P4 = (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072)
_P5 = (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632)
_P6 = (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844)
_P7 = (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423)
# The same coefficients as scalars, _Pij = _Pi[j - 1], so that
# :func:`_interpolant` is one flat expression with no indexing.
_P12, _P13, _P14 = _P1[1:]
_P32, _P33, _P34 = _P3[1:]
_P42, _P43, _P44 = _P4[1:]
_P52, _P53, _P54 = _P5[1:]
_P62, _P63, _P64 = _P6[1:]
_P72, _P73, _P74 = _P7[1:]


class TerminalEvent(Enum):
    REACHED_END = "reached_end"
    LEFT_LOOP = "left_loop"
    TURNED = "turned"
    STEP_FAILURE = "step_failure"


def checked(cls):
    """Make the NamedTuple ``cls`` run its ``_check``, which raises ValueError
    on bad fields, on every construction; a field of the wrong type is bad, its
    TypeError a ValueError naming the record.  ``_make``, which ``_replace``
    calls, and unpickling at every protocol build through the constructor."""
    new = cls.__new__

    def __new__(cls, *args, **kwargs):
        self = new(cls, *args, **kwargs)
        try:
            self._check()
        except TypeError as exc:
            raise ValueError(f"bad {cls.__name__} field: {exc}") from exc
        return self

    cls.__reduce__ = lambda self: (type(self), tuple(self))
    # A NamedTuple class body may not define these two; the class may be given them.
    cls.__new__ = __new__
    cls._make = classmethod(lambda cls, iterable: cls(*iterable))
    return cls


class LogState(NamedTuple):
    """Phase-plane point in log coordinates: w = ln u and z = u'/u."""

    w: float
    z: float


@checked
class IntegratorConfig(NamedTuple):
    """A run's error tolerances; its step sizes are class constants, not fields."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    # Unannotated: NamedTuple makes every annotation a field.
    h_init = 1e-3
    h_min = 1e-12

    def _check(self) -> None:
        # An infinite tolerance switches error control off.
        if not (0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")


def _interpolant(step: tuple[float, ...]) -> tuple[float, ...]:
    """Interpolant (rho0, h, u0, v0, cu1..cu4, cv1..cv4) of one raw step
    (rho, h, u, v, k1, k3..k7 of u, then of v).

    Each c_j sums P1[j-1]*k1 + P3[j-1]*k3 + ... + P7[j-1]*k7 in that order,
    reading P[i][j-1] as the scalar _Pij; c1 is k1 alone, since P1[0] is 1.0
    and the other rows start with 0.0.
    """
    rho0, h, u0, v0, k1u, k3u, k4u, k5u, k6u, k7u, k1v, k3v, k4v, k5v, k6v, k7v = step
    return (
        rho0, h, u0, v0,
        k1u,
        _P12 * k1u + _P32 * k3u + _P42 * k4u + _P52 * k5u + _P62 * k6u + _P72 * k7u,
        _P13 * k1u + _P33 * k3u + _P43 * k4u + _P53 * k5u + _P63 * k6u + _P73 * k7u,
        _P14 * k1u + _P34 * k3u + _P44 * k4u + _P54 * k5u + _P64 * k6u + _P74 * k7u,
        k1v,
        _P12 * k1v + _P32 * k3v + _P42 * k4v + _P52 * k5v + _P62 * k6v + _P72 * k7v,
        _P13 * k1v + _P33 * k3v + _P43 * k4v + _P53 * k5v + _P63 * k6v + _P73 * k7v,
        _P14 * k1v + _P34 * k3v + _P44 * k4v + _P54 * k5v + _P64 * k6v + _P74 * k7v,
    )


def _dense(c: tuple[float, ...], theta: float) -> tuple[float, float]:
    """(w, z) of interpolant ``c`` at the fraction ``theta`` of its step."""
    _, h, u0, v0, cu1, cu2, cu3, cu4, cv1, cv2, cv3, cv4 = c
    return (
        u0 + h * theta * (cu1 + theta * (cu2 + theta * (cu3 + theta * cu4))),
        v0 + h * theta * (cv1 + theta * (cv2 + theta * (cv3 + theta * cv4))),
    )


class Trajectory:
    """Result of one integration run: a plain object, which caches its interpolants.

    ``steps`` holds the raw stages of each accepted step as flat tuples
    (rho, h, u, v, k1, k3..k7 of u, then of v); the last one reaches past
    ``end`` when a terminal event cut it short.  :meth:`eval` builds a
    step's dense interpolant when a point first enters that step, and keeps
    it in ``_interpolants``.  ``end`` is the final (rho, LogState): the event
    location, ``rho_end``, or the last accepted point after a step failure.
    """

    def __init__(
        self, steps: list[tuple[float, ...]], end: tuple[float, LogState], rejected_steps: int,
        terminal_event: TerminalEvent,
    ) -> None:
        self.steps, self.end = steps, end
        self.rejected_steps, self.terminal_event = rejected_steps, terminal_event

    @property
    def samples(self) -> list[tuple[float, LogState]]:
        """(rho, LogState) at the start point and after every accepted step,
        with strictly increasing rho; ``[end]`` when no step was accepted."""
        return [(step[0], LogState(step[2], step[3])) for step in self.steps] + [self.end]

    @property
    def accepted_steps(self) -> int:
        return len(self.steps)

    @property
    def rho_start(self) -> float:
        return self.steps[0][0] if self.steps else self.end[0]

    def eval(self, rhos: Iterable[float]) -> tuple[list[float], list[float]]:
        """Dense-output columns of w and z at the points ``rhos``, in their order.

        Points within :data:`SPAN_SLACK` of the integrated span are clamped
        onto it; a point farther out, or NaN, raises ValueError, wherever it
        is in ``rhos``.
        """
        lo, hi = self.rho_start, self.end[0]
        steps, interpolants, starts = self.steps, self._interpolants, self._starts
        us, vs = [], []
        add_u, add_v = us.append, vs.append
        # The step read last covers [start, stop); NaN makes the first point bisect.
        start = stop = math.nan
        for rho in rhos:
            if not lo <= rho <= hi:
                if not lo - SPAN_SLACK <= rho <= hi + SPAN_SLACK:
                    raise ValueError(f"rho={rho!r} outside the integrated span [{lo}, {hi}]")
                rho = min(max(rho, lo), hi)
            if not interpolants:
                # The end state's w and z.
                add_u(self.end[1].w)
                add_v(self.end[1].z)
                continue
            if not start <= rho < stop:
                # rho >= starts[0] here, so the index is never negative.
                i = bisect.bisect_right(starts, rho) - 1
                c = interpolants[i]
                if c is None:
                    c = interpolants[i] = _interpolant(steps[i])
                start, h, u0, v0, cu1, cu2, cu3, cu4, cv1, cv2, cv3, cv4 = c
                stop = starts[i + 1]
            # _dense, written out: the same expression, so the same bits.
            theta = (rho - start) / h
            add_u(u0 + h * theta * (cu1 + theta * (cu2 + theta * (cu3 + theta * cu4))))
            add_v(v0 + h * theta * (cv1 + theta * (cv2 + theta * (cv3 + theta * cv4))))
        return us, vs

    @cached_property
    def _interpolants(self) -> list[tuple[float, ...] | None]:
        """Interpolant of each step, or None until :meth:`eval` first enters it."""
        return [None] * len(self.steps)

    @cached_property
    def _starts(self) -> list[float]:
        """Step starts, then inf: step i covers [starts[i], starts[i + 1])."""
        return [step[0] for step in self.steps] + [math.inf]


def _quartic(q: tuple[float, ...], theta: float) -> float:
    """One component of an interpolant at ``theta``, from q = (x0, h, c1..c4)
    of that component: :func:`_dense`'s expression, so its bits."""
    x0, h, c1, c2, c3, c4 = q
    return x0 + h * theta * (c1 + theta * (c2 + theta * (c3 + theta * c4)))


# The least float above 0: a sign change at theta = 0 is located here.
_THETA_MIN = 5e-324


def _bisect_theta(c: tuple[float, ...], sign_lo: float) -> float:
    """Locate, in (0, 1], a zero of z on interpolant ``c`` whose sign at
    theta = 0 is that of ``sign_lo``: halve [lo, hi] until no float lies
    strictly between them, and return ``hi``, the far side of the sign
    change, so that a run restarted there does not see it again.

    Only z is evaluated, by :func:`_quartic`.  A sign that has already
    changed at the least theta above 0 returns that theta at once: with one
    change per step, the halving would reach it, after about 1,075 halvings
    into the subnormals."""
    q = (c[3], c[1], *c[8:12])
    positive = sign_lo > 0.0
    if (_quartic(q, _THETA_MIN) > 0.0) != positive:
        return _THETA_MIN
    lo, hi = 0.0, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if (_quartic(q, mid) > 0.0) == positive:
            lo = mid
        else:
            hi = mid
    return hi


def _check_exponent(p: float) -> None:
    """Raise ValueError unless 0 < p < inf."""
    # p < 0 makes u**p singular at u = 0; a non-finite p leaves no step acceptable.
    if not 0.0 < p < math.inf:
        raise ValueError(f"p must be positive and finite, got {p!r}")


def _check_run(initial: tuple[float, float], rho_start: float, rho_end: float):
    """The finite start ``initial``, or ValueError unless rho_start < rho_end are finite."""
    if not (math.isfinite(rho_start) and math.isfinite(rho_end) and rho_start < rho_end):
        raise ValueError(f"need rho_start < rho_end, got [{rho_start!r}, {rho_end!r}]")
    a, b = initial
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"initial state must be finite, got {initial!r}")
    return a, b


class Field(NamedTuple):
    """A vector field as the text :func:`kernel` writes into the template.

    The template names the state's two slots u and v, which hold w and z;
    each part below is one line of Python over them and the template's
    locals.  The run is compiled as ``integrate_<name>``, and ``check``
    refuses a bad p or start.  ``rhs`` is the two components of the
    derivative, with ``{u}`` and ``{v}`` where a stage's point goes; ``scale_u`` and ``scale_v`` divide a step's error
    estimates; ``bound`` is three statements that may lower h, the next
    step after an accepted one.  A step across which v changes sign ends
    the run ``TURNED`` where it does; one that does not, and ends with
    ``left`` true, ends it ``LEFT_LOOP`` at the step's end.
    """

    name: str
    check: str
    rhs: str
    scale_u: str
    scale_v: str
    bound: tuple[str, str, str]
    left: str


# One Dormand-Prince run, as text: :func:`kernel` fills in a Field and
# compiles it under this file's name, with each line at its line here.
_TEMPLATE_LINE, _TEMPLATE = sys._getframe().f_lineno + 1, """\
def integrate_{name}(initial, rho_start, rho_end, p, config=IntegratorConfig()):
    u, v = _check_run(initial, rho_start, rho_end)
    # The field's arithmetic is in floats, whatever number p is given as.
    p = float(p)
    {check}

    rel, ab = config.rel_tol, config.abs_tol
    h_min = config.h_min

    # The stage loop reads each of these every step: locals, not globals.
    a21, a31, a32, a41, a42, a43 = _A21, _A31, _A32, _A41, _A42, _A43
    a51, a52, a53, a54 = _A51, _A52, _A53, _A54
    a61, a62, a63, a64, a65 = _A61, _A62, _A63, _A64, _A65
    b1, b3, b4, b5, b6 = _B1, _B3, _B4, _B5, _B6
    e1, e3, e4, e5, e6, e7 = _E1, _E3, _E4, _E5, _E6, _E7
    safety, min_factor, max_factor = _SAFETY, _MIN_FACTOR, _MAX_FACTOR
    quarter_turn = 0.5 * math.pi
    quarter_turn_sq = quarter_turn * quarter_turn
    sqrt, exp, pm1 = math.sqrt, math.exp, p - 1.0
    steps = []
    append = steps.append

    rho = rho_start
    # Each stage k = (ku, kv) below is the one field, written out (module docstring).
    k1u, k1v = {rhs_start}
    h = min(config.h_init, rho_end - rho_start)
    rejected = 0
    event = TerminalEvent.REACHED_END

    while True:
        last = rho + h >= rho_end
        h_step = rho_end - rho if last else h

        try:
            yu = u + h_step * (a21 * k1u)
            yv = v + h_step * (a21 * k1v)
            k2u, k2v = {rhs_stage}
            yu = u + h_step * (a31 * k1u + a32 * k2u)
            yv = v + h_step * (a31 * k1v + a32 * k2v)
            k3u, k3v = {rhs_stage}
            yu = u + h_step * (a41 * k1u + a42 * k2u + a43 * k3u)
            yv = v + h_step * (a41 * k1v + a42 * k2v + a43 * k3v)
            k4u, k4v = {rhs_stage}
            yu = u + h_step * (a51 * k1u + a52 * k2u + a53 * k3u + a54 * k4u)
            yv = v + h_step * (a51 * k1v + a52 * k2v + a53 * k3v + a54 * k4v)
            k5u, k5v = {rhs_stage}
            yu = u + h_step * (a61 * k1u + a62 * k2u + a63 * k3u + a64 * k4u + a65 * k5u)
            yv = v + h_step * (a61 * k1v + a62 * k2v + a63 * k3v + a64 * k4v + a65 * k5v)
            k6u, k6v = {rhs_stage}
            u_new = u + h_step * (b1 * k1u + b3 * k3u + b4 * k4u + b5 * k5u + b6 * k6u)
            v_new = v + h_step * (b1 * k1v + b3 * k3v + b4 * k4v + b5 * k5v + b6 * k6v)
            k7u, k7v = {rhs_end}
        except OverflowError:
            # The field overflowed at a trial stage: the step is far too long.
            err_norm = math.inf
        else:
            err_u = h_step * (e1 * k1u + e3 * k3u + e4 * k4u + e5 * k5u + e6 * k6u + e7 * k7u)
            err_v = h_step * (e1 * k1v + e3 * k3v + e4 * k4v + e5 * k5v + e6 * k6v + e7 * k7v)
            # In the scales, x if x > y else y is max(y, x), NaN included:
            # the first argument wins unless the comparison holds.
            ratio_u = err_u / ({scale_u})
            ratio_v = err_v / ({scale_v})
            err_norm = sqrt(0.5 * (ratio_u * ratio_u + ratio_v * ratio_v))

        # One step-size factor for accepted and rejected steps alike, clamped
        # to [min_factor, max_factor]: a NaN estimate gets min_factor.  x if
        # x < y else y is min(y, x), NaN included.
        factor = max_factor if err_norm == 0.0 else safety * err_norm ** -0.2
        factor = factor if factor > min_factor else min_factor
        factor = factor if factor < max_factor else max_factor
        if not err_norm <= 1.0:
            rejected += 1
            h = h_step * factor
            if h < h_min:
                event = TerminalEvent.STEP_FAILURE
                break
            continue

        append((rho, h_step, u, v, k1u, k3u, k4u, k5u, k6u, k7u, k1v, k3v, k4v, k5v, k6v, k7v))

        v_changed = (v < 0.0 < v_new) or (v_new < 0.0 < v) or (v_new == 0.0 and v != 0.0)
        if v_changed or {left}:
            c = _interpolant(steps[-1])
            # theta * h_step is h_step itself at theta = 1.
            theta = _bisect_theta(c, v) if v_changed else 1.0
            rho, (u, v) = rho + theta * h_step, _dense(c, theta)
            event = TerminalEvent.TURNED if v_changed else TerminalEvent.LEFT_LOOP
            break

        rho = rho_end if last else rho + h_step
        u, v = u_new, v_new
        k1u, k1v = k7u, k7v

        if last:
            break

        h = h_step * factor
        h = h if h > h_min else h_min
        {bound[0]}
        {bound[1]}
        {bound[2]}

    return Trajectory(steps, (rho, LogState(u, v)), rejected, event)
"""


@functools.lru_cache(maxsize=None)
def kernel(field: Field) -> Callable[..., Trajectory]:
    """The template's run with ``field`` written in, compiled once per field:
    a function (initial, rho_start, rho_end, p, config) -> Trajectory."""
    if any("\n" in part for part in (*field.bound, *(x for x in field if isinstance(x, str)))):
        raise ValueError(f"each part of field {field.name!r} must be one line")
    rhs = field.rhs.format
    source = _TEMPLATE.format(
        name=field.name, check=field.check,
        rhs_start=rhs(u="u", v="v"), rhs_stage=rhs(u="yu", v="yv"),
        rhs_end=rhs(u="u_new", v="v_new"),
        scale_u=field.scale_u, scale_v=field.scale_v, bound=field.bound, left=field.left,
    )
    namespace: dict = {}
    # Blank lines put each line of the template at its line in this file.
    exec(compile("\n" * (_TEMPLATE_LINE - 1) + source, __file__, "exec"), globals(), namespace)
    return namespace[f"integrate_{field.name}"]

