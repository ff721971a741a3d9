"""Integrator checks: local model, conservation, events, and dense output."""

import ast
import bisect
import linecache
import math
import os
import random
import subprocess
import sys
import traceback
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from gmspike import ode, shooting
from gmspike import (
    SPAN_SLACK,
    IntegratorConfig,
    LogState,
    ProblemParams,
    TerminalEvent,
    eval_spike_derivative,
    eval_spike_rho,
    shoot,
    spike_amplitude,
)
from phase_plane import energy, uv
from test_shooting import _record_peak_bisection

# The spike field's run, in log coordinates: w = ln u and z = u'/u.
integrate = shooting.integrate

AMP2 = spike_amplitude(2.0)
PARAMS2 = ProblemParams.inner(2.0)

# Tolerances that no step of 0.1 meets.
UNSATISFIABLE = IntegratorConfig(rel_tol=1e-14, abs_tol=1e-16)
# Tolerances that every step meets.
LOOSE = IntegratorConfig(rel_tol=1.0, abs_tol=1e6)

# u'' = -u from the template: every line of the spike field's run, with none
# of its bounds, and its turn wherever v changes sign.  Its exact solution
# from (1, 0) is (cos, -sin).  The template returns each point (u, v) as a
# LogState, so the tests read its components by index.
OSCILLATOR = ode.Field(
    name="oscillator",
    check="pass",
    rhs="{v}, -{u}",
    scale_u="ab + rel * (new if (new := abs(u_new)) > (scale := abs(u)) else scale)",
    scale_v="ab + rel * (new if (new := abs(v_new)) > (scale := abs(v)) else scale)",
    bound=("pass", "pass", "pass"),
    left="False",
)


def at_rest(u):
    """The point (u, 0) in log coordinates."""
    return LogState(math.log(u), 0.0)


def fixed_step_run(h, config, *args, run=integrate):
    """``run(*args, config)`` with the class's step sizes set to ``h`` and no
    growth allowed: every step is h long, and the first one the tolerances
    reject ends the run."""
    with mock.patch.multiple(IntegratorConfig, h_init=h, h_min=h), mock.patch.object(
        ode, "_MAX_FACTOR", 1.0
    ):
        return run(*args, config)


class TestHamiltonian:
    @pytest.mark.parametrize(
        "u, expected",
        [
            (1.0, -0.16666666666666669),
            (1.4, -0.06533333333333347),
            (1.5, 0.0),
            (1.6, 0.08533333333333348),
        ],
    )
    def test_frozen_values_p2(self, u, expected):
        assert energy(u, 0.0, 2.0) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("p", (2.0, 2.5, 3.0, 4.0, 10.0))
    def test_vanishes_on_spike_states(self, p):
        value = energy(spike_amplitude(p), 0.0, p)
        assert abs(value) < 1e-14


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel_tol": 0.0},
            {"abs_tol": -1.0},
            # Infinite tolerances switch error control off, and NaN ones
            # reject every step.
            {"rel_tol": math.inf},
            {"abs_tol": math.inf},
            {"rel_tol": math.nan},
            {"abs_tol": math.nan},
            # A field of the wrong type is a bad field, not a TypeError.
            {"rel_tol": "1"},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            IntegratorConfig(**kwargs)
        with pytest.raises(ValueError):
            IntegratorConfig()._replace(**kwargs)

    def test_step_sizes_are_class_constants(self):
        assert list(IntegratorConfig._fields) == ["rel_tol", "abs_tol"]
        config = IntegratorConfig()
        assert (config.h_init, config.h_min) == (1e-3, 1e-12)
        # No length cap: a step grows as far as the error control, and near
        # the centre a quarter turn of the local frequency, allow.
        assert not hasattr(IntegratorConfig, "h_max")
        with pytest.raises(TypeError):
            IntegratorConfig(h_min=1.0)


class TestIntegrateBasics:
    def test_equilibrium_stays_put(self):
        # Every stage derivative vanishes at the centre, w = 0 (u = 1), so the
        # state is preserved bit for bit and no step is ever rejected.
        trajectory = integrate(LogState(0.0, 0.0), 0.0, 5.0, 2.0)
        assert trajectory.terminal_event is TerminalEvent.REACHED_END
        assert all(s.w == 0.0 and s.z == 0.0 for _, s in trajectory.samples)
        assert trajectory.rejected_steps == 0

    def test_tracks_closed_form(self):
        # Down from the peak; the end is 2.8e-9 off in u and in u'.
        trajectory = integrate(at_rest(AMP2), 0.0, 10.0, 2.0)
        assert trajectory.terminal_event is TerminalEvent.REACHED_END
        assert trajectory.samples[-1][0] == 10.0
        end = uv(trajectory.samples[-1][1])
        assert end.u == pytest.approx(eval_spike_rho(PARAMS2, [10.0])[0], abs=1e-8)
        assert end.v == pytest.approx(eval_spike_derivative(PARAMS2, [10.0])[0], abs=1e-8)
        assert trajectory.rejected_steps <= 2

    def test_dense_output_matches_samples(self):
        trajectory = integrate(at_rest(AMP2), 0.0, 6.0, 2.0)
        samples = trajectory.samples
        ws, zs = trajectory.eval(rho for rho, _ in samples)
        assert len(ws) == len(zs) == len(samples)
        for (_, state), w, z in zip(samples, ws, zs):
            assert w == pytest.approx(state.w, rel=1e-12, abs=1e-14)
            assert z == pytest.approx(state.z, rel=1e-12, abs=1e-14)

    def test_dense_output_matches_closed_form(self):
        trajectory = integrate(at_rest(AMP2), 0.0, 10.0, 2.0)
        grid = [float(rho) for rho in np.linspace(0.0, 10.0, 1001)]
        ws, _ = trajectory.eval(grid)
        for w, exact in zip(ws, eval_spike_rho(PARAMS2, grid)):
            assert math.exp(w) == pytest.approx(exact, abs=1e-8)

    def test_eval_allows_round_off_slack(self):
        trajectory = integrate(at_rest(AMP2), 0.0, 5.0, 2.0)
        us, vs = trajectory.eval([5.0 + 5e-10, -5e-10])
        assert (us, vs) == trajectory.eval([5.0, 0.0])
        with pytest.raises(ValueError):
            trajectory.eval([5.1])
        with pytest.raises(ValueError):
            trajectory.eval([-0.1])
        # Every point is checked, not only the ends of the sequence.
        with pytest.raises(ValueError):
            trajectory.eval([0.0, 5.1, 2.0])
        # Also once the walk is inside a step, and the point is named.
        with pytest.raises(ValueError, match=r"rho=5\.1 "):
            trajectory.eval([1.0, 1.0001, 1.0002, 5.1, 1.0003])
        with pytest.raises(ValueError, match=r"rho=-0\.1 "):
            trajectory.eval([4.9, 4.8, -0.1])

    def test_eval_refuses_nan(self):
        trajectory = integrate(at_rest(AMP2), 0.0, 5.0, 2.0)
        with pytest.raises(ValueError, match="rho=nan"):
            trajectory.eval([1.0, math.nan])
        with pytest.raises(ValueError, match="rho=nan"):
            trajectory.eval([1.0, 1.0001, math.nan, 1.0002])

    def test_reversible_through_mirrored_start(self):
        # u is even and v odd about the peak, so the run from the mirrored
        # endpoint turns at the peak, and continuing it for the same span
        # again must reproduce the endpoint.  Each run down from the peak
        # stays short of 9.6, where one from a shoot's peak may end
        # LEFT_LOOP by rounding.
        forward = integrate(at_rest(AMP2), 0.0, 8.0, 2.0)
        end = forward.end[1]
        back = integrate(LogState(end.w, -end.z), 0.0, 16.0, 2.0)
        assert back.terminal_event is TerminalEvent.TURNED
        rho_turn, turn = back.end
        assert rho_turn == pytest.approx(8.0, abs=1e-8)
        assert uv(turn).u == pytest.approx(AMP2, abs=1e-8)
        final = uv(integrate(turn, rho_turn, 16.0, 2.0).end[1])
        assert final.u == pytest.approx(uv(end).u, abs=1e-8)
        assert final.v == pytest.approx(uv(end).v, abs=1e-8)

    @pytest.mark.parametrize(
        "initial, span",
        [
            (LogState(0.0, 0.0), (0.0, 0.0)),
            (LogState(0.0, 0.0), (2.0, 1.0)),
            (LogState(math.nan, 0.0), (0.0, 1.0)),
        ],
    )
    def test_rejects_invalid_setup(self, initial, span):
        with pytest.raises(ValueError):
            integrate(initial, span[0], span[1], 2.0)

    @pytest.mark.parametrize("p", (-1.0, 0.0, math.nan, math.inf))
    def test_rejects_nonpositive_or_nonfinite_p(self, p):
        with pytest.raises(ValueError):
            integrate(at_rest(AMP2), 0.0, 1.0, p)


def _eval_by_bisection(trajectory, rhos):
    """Dense output the plain way: clamp, bisect the step starts and call
    ``_dense`` for every point."""
    lo, hi = trajectory.rho_start, trajectory.end[0]
    starts = [step[0] for step in trajectory.steps]
    interpolants = [ode._interpolant(step) for step in trajectory.steps]
    us, vs = [], []
    for rho in rhos:
        rho = min(max(rho, lo), hi)
        if interpolants:
            c = interpolants[bisect.bisect_right(starts, rho) - 1]
            u, v = ode._dense(c, (rho - c[0]) / c[1])
        else:
            u, v = trajectory.end[1]
        us.append(u)
        vs.append(v)
    return us, vs


def _bits(columns):
    return [[x.hex() for x in column] for column in columns]


class TestDenseWalk:
    """Trajectory.eval walks the points through the steps; it gives the
    bits of a bisection and a ``_dense`` call per point, in any order."""

    SPIKE = integrate(at_rest(AMP2), 0.0, 10.0, 2.0)
    # One step: the span is shorter than the first step.
    ONE_STEP = fixed_step_run(0.1, LOOSE, at_rest(AMP2), 0.0, 0.05, 2.0)
    NO_STEP = fixed_step_run(0.1, UNSATISFIABLE, at_rest(AMP2), 0.0, 4.0, 2.0)

    @staticmethod
    def grids(trajectory):
        lo, hi = trajectory.rho_start, trajectory.end[0]
        ascending = [float(x) for x in np.linspace(lo, hi, 2001)]
        mid = 0.5 * (lo + hi)
        shuffled = list(ascending)
        random.Random(7).shuffle(shuffled)
        starts = [step[0] for step in trajectory.steps]
        return {
            "ascending": ascending,
            "descending": ascending[::-1],
            "v_shaped": [hi - abs(rho - mid) for rho in ascending],
            "random": shuffled,
            "step_starts": starts + [hi] + starts[::-1] + starts,
            "ends": [lo, hi, lo - 5e-10, hi + 5e-10, lo, lo + 1e-9, hi - 1e-9, hi + 1e-9],
        }

    def test_runs_have_the_steps_their_names_say(self):
        assert len(self.SPIKE.steps) > 50
        assert len(self.ONE_STEP.steps) == 1
        assert self.NO_STEP.steps == []

    @pytest.mark.parametrize("name", ["SPIKE", "ONE_STEP", "NO_STEP"])
    def test_matches_bisection_bit_for_bit(self, name):
        trajectory = getattr(self, name)
        for kind, grid in self.grids(trajectory).items():
            got = trajectory.eval(grid)
            assert _bits(got) == _bits(_eval_by_bisection(trajectory, grid)), kind

    def test_a_grid_can_be_any_iterable(self):
        grid = [float(x) for x in np.linspace(0.0, 10.0, 101)]
        assert _bits(self.SPIKE.eval(iter(grid))) == _bits(self.SPIKE.eval(grid))


def _energies(trajectory, p):
    """H at each sample of a run, read as (u, v)."""
    return [energy(*uv(state), p) for _, state in trajectory.samples]


class TestConservation:
    def test_first_integral_drift_small(self):
        energies = _energies(integrate(at_rest(AMP2), 0.0, 10.0, 2.0), 2.0)
        drift = max(abs(energy - energies[0]) for energy in energies)
        assert drift < 1e-8

    def test_drift_shrinks_with_tolerance(self):
        def drift_at(rel_tol, abs_tol):
            config = IntegratorConfig(rel_tol=rel_tol, abs_tol=abs_tol)
            energies = _energies(integrate(at_rest(AMP2), 0.0, 10.0, 2.0, config), 2.0)
            return max(abs(energy - energies[0]) for energy in energies)

        loose = drift_at(1e-10, 1e-12)
        tight = drift_at(5e-11, 5e-13)
        assert tight < loose


class TestEvents:
    @pytest.mark.parametrize("p", (2.0, 2.5))
    def test_overshoot_leaves_the_loop(self, p):
        # From rest 0.1 above the spike height the orbit lies outside the
        # homoclinic loop (H > 0): the run ends at its first step with
        # z < -1, on its way to u = 0, and u = e**w stays positive and finite.
        a = spike_amplitude(p) + 0.1
        trajectory = integrate(at_rest(a), 0.0, 12.0, p)
        assert trajectory.terminal_event is TerminalEvent.LEFT_LOOP
        end = trajectory.end[1]
        assert end.z < -1.0 <= trajectory.samples[-2][1].z
        assert all(math.isfinite(state.w) for _, state in trajectory.samples)
        # H is conserved to the tolerances: 3.0e-11 off at the end.
        assert energy(*uv(end), p) == pytest.approx(energy(a, 0.0, p), abs=1e-9)

    def test_undershoot_records_turning_points(self):
        # The first turn of an undershoot is recorded as the run's end.
        trajectory = integrate(at_rest(1.4), 0.0, 30.0, 2.0)
        assert trajectory.terminal_event is TerminalEvent.TURNED
        rho_end, end = trajectory.end
        assert rho_end == pytest.approx(3.5622832910823736, rel=1e-8)
        assert uv(end).u == pytest.approx(0.42749172182100076, rel=1e-7)
        assert abs(uv(end).v) < 1e-9
        assert all(state.w <= math.log(1.4) for _, state in trajectory.samples)

    def test_turn_ends_a_run_that_asks_for_it(self):
        # Every run asks for it: the first turn ends the run well before the
        # end of its span, whichever side of the centre it starts.
        stopped = integrate(at_rest(1.4), 0.0, 30.0, 2.0)
        assert stopped.terminal_event is TerminalEvent.TURNED
        assert stopped.end[0] < 30.0
        assert stopped.end[1].w < math.log(1.4)
        # Started below the centre, the first turn is a maximum above the
        # start, and it ends the run too.
        inside = integrate(at_rest(0.5), 0.0, 30.0, 2.0)
        assert inside.terminal_event is TerminalEvent.TURNED
        assert inside.end[0] < 30.0
        assert abs(inside.end[1].z) < 1e-9
        assert inside.end[1].w > math.log(0.5)

    @pytest.mark.parametrize("p", (1.01, 2.0, 100.0))
    @pytest.mark.parametrize("offset", ("1e-9", "1e-3", "0.5", "0.999"))
    def test_no_step_passes_two_turns(self, p, offset):
        # Steps have no length cap, so only the error control and the
        # quarter-turn bound keep a step from passing a minimum and the next
        # maximum, both sign changes of z.
        # From a maximum at (a, 0) inside the loop, 1 < a < amp, the run
        # must stop at its first minimum: z < 0 and w falling until then.
        amp = spike_amplitude(p)
        a = 1.0 + float(offset) * (amp - 1.0)
        trajectory = integrate(at_rest(a), 0.0, 200.0, p)
        assert trajectory.terminal_event is TerminalEvent.TURNED
        samples = trajectory.samples
        assert all(state.z < 0.0 for _, state in samples[1:-1])
        assert all(x[1].w >= y[1].w for x, y in zip(samples, samples[1:]))
        end = uv(trajectory.end[1])
        assert end.u < 1.0
        # H is conserved to the tolerances, so the minimum is this orbit's;
        # the drift is 1.7e-10 at most (p = 100, offset 0.999).
        assert energy(end.u, 0.0, p) == pytest.approx(energy(a, 0.0, p), abs=1e-9)

    def test_step_failure_reported(self):
        trajectory = fixed_step_run(0.1, UNSATISFIABLE, at_rest(AMP2), 0.0, 4.0, 2.0)
        assert trajectory.terminal_event is TerminalEvent.STEP_FAILURE
        assert trajectory.rejected_steps >= 1
        # No step was accepted: the dense output is the start point alone.
        assert trajectory.steps == []
        assert trajectory.eval([0.0, 5e-10]) == ([math.log(AMP2)] * 2, [0.0, 0.0])
        with pytest.raises(ValueError):
            trajectory.eval([1e-3])

    def test_a_crossing_at_the_start_is_located_in_two_evaluations(self, monkeypatch):
        # v = 5e-324 and v' = -1: one step of 1 already has v <= 0 at the
        # least theta above 0.  The bisection returns that theta without
        # halving into the subnormals, and the end is read once.
        probes = _record_peak_bisection(monkeypatch)
        run = ode.kernel(OSCILLATOR)
        trajectory = fixed_step_run(1.0, LOOSE, (1.0, 5e-324), 0.0, 2.0, 1.0, run=run)
        assert trajectory.terminal_event is TerminalEvent.TURNED
        assert trajectory.end == (5e-324, (1.0, 0.0))
        assert [theta for _, theta in probes] == [5e-324, 5e-324]

    @pytest.mark.parametrize("p", (1.01, 1.2, 2.0, 4.0, 10.0, 100.0))
    @pytest.mark.parametrize("delta", (1e-13, 1e-12, 1e-10, 1e-8, 1e-4))
    def test_steps_stay_under_a_half_period_near_the_centre(self, p, delta):
        # The event scan assumes one sign change of z per step.  Near the
        # centre (1, 0) the orbit is a small ellipse of half-period
        # pi / sqrt(p - 1): from a maximum delta above it, the run must stop
        # at the first minimum, half a period on, and each step must stay
        # short of that.  Close to the centre the error control alone would
        # let a step pass the turn; the quarter-turn bound holds a step to
        # half a half-period (0.5 of it to within 3e-9 from 1e-10 in), and each run
        # ends within 0.6% of it (the widest is p = 1.01 from 1e-13, 0.51%
        # short).
        half_period = math.pi / math.sqrt(p - 1.0)
        trajectory = integrate(LogState(math.log1p(delta), 0.0), 0.0, 400.0, p)
        assert trajectory.terminal_event is TerminalEvent.TURNED
        rho, end = trajectory.end
        assert end.w < 0.0
        assert rho == pytest.approx(half_period, rel=0.006)
        assert max(step[1] for step in trajectory.steps) < 0.501 * half_period

    @pytest.mark.parametrize("p", (1.2, 2.0, 100.0))
    def test_a_run_restarted_at_its_turn_does_not_turn_again_at_once(self, p):
        # A turn is located on the far side of the sign change of z, so a
        # run restarted there sees none: from a maximum inside the loop it
        # turns at the minimum, and restarted there, at the next maximum,
        # about a period of small oscillation on.
        first = integrate(at_rest(0.9 * spike_amplitude(p) + 0.1), 0.0, 200.0, p)
        rho, turn = first.end
        assert first.terminal_event is TerminalEvent.TURNED and turn.w < 0.0
        assert turn.z >= 0.0
        again = integrate(turn, rho, rho + 200.0, p)
        assert again.terminal_event is TerminalEvent.TURNED
        assert again.accepted_steps > 10
        assert again.end[1].w > 0.0
        assert again.end[0] - rho == pytest.approx(rho, rel=0.01)

    def test_a_start_1e_12_from_the_centre_stops_at_its_first_minimum(self):
        # From here the error control alone lets a step pass the first
        # minimum, at 31.42; the quarter-turn bound must stop the run within
        # 0.1 of it.
        half_period = math.pi / math.sqrt(1.01 - 1.0)
        trajectory = integrate(LogState(math.log1p(1e-12), 0.0), 0.0, 400.0, 1.01)
        assert trajectory.terminal_event is TerminalEvent.TURNED
        rho, end = trajectory.end
        assert end.w < 0.0
        assert abs(rho - half_period) < 0.1

    def test_a_start_1e_14_from_the_centre_sees_no_field(self):
        # The floor of the bound: at p = 1.01, 1 - e**((p - 1) w) rounds to 0
        # at every stage of a run from w = log1p(1e-14), so nothing turns and
        # the run goes to its end.  A forward run from near the centre must
        # start above it.
        start = LogState(math.log1p(1e-14), 0.0)
        trajectory = integrate(start, 0.0, 400.0, 1.01)
        assert trajectory.terminal_event is TerminalEvent.REACHED_END
        assert trajectory.end == (400.0, start)

    def test_overflowing_trial_step_is_rejected(self, monkeypatch):
        # A first trial step of 100 from the shoot's start at p = 100 takes
        # e**((p - 1) w) past the largest float at a stage, where exp raises
        # OverflowError; those steps must shrink, not raise, and the run
        # still ends at its peak.
        overflows = []
        real_exp = math.exp

        def exp(x):
            try:
                return real_exp(x)
            except OverflowError:
                overflows.append(x)
                raise

        p, u0 = 100.0, shooting.U0
        start = LogState(math.log(u0), math.sqrt(1.0 - 2.0 * u0 ** (p - 1.0) / (p + 1.0)))
        monkeypatch.setattr(ode, "math", types.SimpleNamespace(**{**vars(math), "exp": exp}))
        monkeypatch.setattr(IntegratorConfig, "h_init", 100.0)
        trajectory = integrate(start, 0.0, 200.0, p)
        assert overflows
        assert trajectory.terminal_event is TerminalEvent.TURNED
        assert trajectory.rejected_steps >= len(overflows)
        assert real_exp(trajectory.end[1].w) == pytest.approx(spike_amplitude(p), abs=1e-10)


def _line_interpolant(h, c0, c1):
    """Interpolant of one step of length ``h`` whose z is c0 + c1 * theta
    exactly, for c1 * h and h powers of two, and whose w is 1."""
    return (0.0, h, 1.0, c0, 0.0, 0.0, 0.0, 0.0, c1 / h, 0.0, 0.0, 0.0)


class TestEventBisection:
    """Every event is located by one bisection of z, an exact zero
    included, to rounding: it returns the far end of a bracket with no
    float inside.  ``component`` is z's index in ``_dense``'s (w, z)."""

    @pytest.mark.parametrize("component", (1,))
    @pytest.mark.parametrize("sign", (1.0, -1.0))
    @pytest.mark.parametrize("h", (1.0, 0.25, 2.0**-20))
    # theta - 1/2 is exactly 0 at the first midpoint; theta - 1 at the step's end.
    @pytest.mark.parametrize("zero", (0.5, 1.0))
    def test_locates_an_exact_zero_to_the_tolerance(self, component, sign, h, zero):
        c = _line_interpolant(h, -sign * zero, sign)
        assert ode._dense(c, zero)[component] == 0.0
        theta = ode._bisect_theta(c, c[3])
        assert 0.0 <= theta - zero <= math.ulp(zero)

    @pytest.mark.parametrize("component", (1,))
    @pytest.mark.parametrize("sign", (1.0, -1.0))
    @pytest.mark.parametrize("start", (0.0, -0.0))
    def test_a_zero_at_the_start_is_the_least_theta_above_it(self, component, sign, start):
        # The halving would reach the same theta, 1,075 halvings on.
        c = _line_interpolant(1.0, start, -sign)
        assert ode._dense(c, 0.0)[component] == start
        assert ode._bisect_theta(c, sign) == 5e-324 == math.nextafter(0.0, 1.0)

    @pytest.mark.parametrize("component", (1,))
    def test_the_one_component_quartic_has_the_dense_bits(self, component):
        # _bisect_theta's q: z's start, the step and z's coefficients.
        rng = random.Random(component)
        c = tuple(rng.uniform(-2.0, 2.0) for _ in range(12))
        q = (c[3], c[1], *c[8:12])
        for theta in [rng.random() for _ in range(200)] + [0.0, 5e-324, 1.0]:
            assert ode._quartic(q, theta).hex() == ode._dense(c, theta)[component].hex()


class TestStepControl:
    """The controller's clamps, on the inward runs of the benchmark's
    ``shoot_range`` and on runs from rest below, at and above the spike
    height."""

    @pytest.fixture(scope="class")
    def runs(self):
        runs = {
            f"shoot/p{p:g}": shoot(ProblemParams.inner(p)).trajectory
            for p in (1.01, 1.2, 2.0, 4.0, 10.0, 100.0)
        }
        for p in (1.01, 1.2, 2.5, 3.0, 100.0):
            for scale in (0.9, 1.0, 1.1):
                start = at_rest(scale * spike_amplitude(p))
                runs[f"rest/p{p:g}_a{scale:g}"] = integrate(start, 0.0, 12.0, p)
        return runs

    def test_the_runs_are_there(self, runs):
        assert len(runs) == 6 + 15
        assert sum(t.rejected_steps for t in runs.values()) > 0

    def test_a_step_grows_at_most_max_factor(self, runs):
        for key, trajectory in runs.items():
            hs = [step[1] for step in trajectory.steps]
            assert all(b <= ode._MAX_FACTOR * a for a, b in zip(hs, hs[1:])), key

    def test_every_step_but_the_last_is_at_least_h_min(self, runs):
        for key, trajectory in runs.items():
            hs = [step[1] for step in trajectory.steps]
            assert all(h >= IntegratorConfig.h_min for h in hs[:-1]), key

    def test_an_accepted_step_is_floored_at_h_min(self):
        # Every step of 0.1 meets rel_tol = 1.2e-8 here, but some only with
        # err above 0.9**5, where the factor is below 1: h_min = 0.1 alone
        # keeps the next step 0.1 long.  9e-9 fails the first step, and
        # from 1.6e-8 up no factor falls below 1.
        config = IntegratorConfig(rel_tol=1.2e-8)
        trajectory = fixed_step_run(0.1, config, at_rest(AMP2), 0.0, 4.0, 2.0)
        assert trajectory.terminal_event is TerminalEvent.REACHED_END
        assert trajectory.rejected_steps == 0
        assert [step[1] for step in trajectory.steps[:-1]] == [0.1] * 39


class TestNoRunaway:
    """Why integrate needs no cap on u, and stays free of the closed form."""

    @pytest.mark.parametrize("p", (1.2, 2.0, 100.0))
    @pytest.mark.parametrize("offset", (-1.0, 0.0, 1.0))
    def test_orbit_never_rises_above_its_start_or_the_spike(self, p, offset):
        # H is conserved, so an orbit from (a, 0) stays below max(a, amp);
        # a lies 0.1 below, at or 0.1 above the spike height.
        amp = spike_amplitude(p)
        a = amp + offset * 0.1
        trajectory = integrate(at_rest(a), 0.0, 12.0, p)
        assert max(state.w for _, state in trajectory.samples) <= math.log(max(a, amp))

    def test_ode_imports_nothing_from_analytic(self):
        source = Path(__file__).parents[1] / "src" / "gmspike" / "ode.py"
        modules = []
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.ImportFrom):
                modules.append(node.module or "")
                if node.module is None:  # from . import <module>
                    modules += [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                modules += [alias.name for alias in node.names]
        assert not [m for m in modules if "analytic" in m.split(".")]


class TestOrder:
    def test_constants(self):
        assert SPAN_SLACK == 1e-9

    def test_fixed_step_convergence_rate(self):
        # On the oscillator, whose exact solution is known everywhere.
        def endpoint_error(h):
            run = ode.kernel(OSCILLATOR)
            trajectory = fixed_step_run(h, LOOSE, (1.0, 0.0), 0.0, 3.0, 1.0, run=run)
            u, v = trajectory.samples[-1][1]
            return abs(u - math.cos(3.0)) + abs(v + math.sin(3.0))

        errors = [endpoint_error(h) for h in (0.4, 0.2, 0.1, 0.05)]
        slopes = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
        # Dormand-Prince advances its fifth-order solution.
        assert all(5 - 0.5 < s < 5 + 0.5 for s in slopes)
        assert errors[-1] < 1e-8


class TestKernel:
    """One template of the Dormand-Prince run, compiled once per field."""

    def test_a_second_field_matches_its_exact_solution(self):
        run = ode.kernel(OSCILLATOR)((1.0, 0.0), 0.0, 3.0, 1.0)
        assert run.terminal_event is TerminalEvent.REACHED_END
        assert run.end[0] == 3.0
        for rho, (u, v) in run.samples:
            assert u == pytest.approx(math.cos(rho), abs=1e-9)
            assert v == pytest.approx(-math.sin(rho), abs=1e-9)
        grid = [3.0 * k / 100 for k in range(101)]
        us, vs = run.eval(grid)
        assert max(abs(u - math.cos(rho)) for rho, u in zip(grid, us)) < 1e-9
        assert max(abs(v + math.sin(rho)) for rho, v in zip(grid, vs)) < 1e-9

    def test_a_second_field_turns_at_pi(self):
        run = ode.kernel(OSCILLATOR)((1.0, 0.0), 0.0, 5.0, 1.0)
        assert run.terminal_event is TerminalEvent.TURNED
        rho, end = run.end
        assert type(end) is LogState
        assert rho == pytest.approx(math.pi, abs=1e-9)
        assert end[0] == pytest.approx(-1.0, abs=1e-9)

    def test_a_field_is_compiled_once(self):
        assert ode.kernel(OSCILLATOR) is ode.kernel(OSCILLATOR)
        assert ode.kernel(shooting._LOG_SPIKE) is shooting.integrate

    def test_each_part_of_a_field_is_one_line(self):
        with pytest.raises(ValueError, match="must be one line"):
            ode.kernel(OSCILLATOR._replace(name="two_lines", rhs="{v},\\\n-{u}"))
        with pytest.raises(ValueError, match="must be one line"):
            ode.kernel(OSCILLATOR._replace(name="two_lines", bound=("pass", "pass", "x = 1\ny = 2")))

    @pytest.mark.parametrize("run", ("integrate", "shooting.integrate"))
    def test_a_traceback_points_at_the_template_line_in_ode_py(self, run, monkeypatch):
        # The kernel is compiled under ode.py's name with each line at its
        # line there, so a traceback quotes the line that ran.
        def broken(step):
            raise RuntimeError("no interpolant")

        monkeypatch.setattr(ode, "_interpolant", broken)
        with pytest.raises(RuntimeError) as failure:
            if run == "integrate":
                # A run of the test's own field, which turns at pi.
                ode.kernel(OSCILLATOR)((1.0, 0.0), 0.0, 5.0, 1.0)
            else:
                shoot(ProblemParams.inner(2.0))
        frames = [f for f in traceback.extract_tb(failure.value.__traceback__)
                  if f.filename == ode.__file__ and f.name.startswith("integrate_")]
        assert len(frames) == 1
        assert frames[0].line == "c = _interpolant(steps[-1])"
        code = (ode.kernel(OSCILLATOR) if run == "integrate" else shooting.integrate).__code__
        assert code.co_filename == ode.__file__
        first = linecache.getline(ode.__file__, code.co_firstlineno)
        assert first.startswith("def integrate_{name}(")

    def test_import_compiles_one_kernel_and_a_shoot_none(self):
        # Without site packages, importing the CLI loads neither inspect nor
        # ast, compiles the log field's kernel alone, and a shoot compiles
        # nothing.
        script = (
            "import builtins, sys\n"
            "import gmspike.cli\n"
            "from gmspike import ProblemParams, ode, shoot\n"
            "assert 'inspect' not in sys.modules and 'ast' not in sys.modules\n"
            "assert ode.kernel.cache_info().currsize == 1\n"
            "calls = []\n"
            "real = builtins.compile\n"
            "builtins.compile = lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs)\n"
            "for p in (1.01, 2.0, 100.0):\n"
            "    shoot(ProblemParams.inner(p))\n"
            "print(len(calls), ode.kernel.cache_info().currsize)\n"
        )
        src = str(Path(ode.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-S", "-s", "-c", script],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "1"]
