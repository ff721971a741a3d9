"""Integrator checks: local model, conservation, events, and dense output."""

import ast
import bisect
import math
import random
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from gmspike import ode
from gmspike import (
    EVENT_LOCATION_TOL,
    SPAN_SLACK,
    IntegratorConfig,
    ProblemParams,
    State,
    TerminalEvent,
    eval_spike_derivative,
    eval_spike_rho,
    hamiltonian,
    integrate,
    shoot,
    spike_amplitude,
)
from test_golden import _integrate_runs

AMP2 = spike_amplitude(2.0)
PARAMS2 = ProblemParams.inner(2.0)

# Tolerances that no step of 0.1 meets.
UNSATISFIABLE = IntegratorConfig(rel_tol=1e-14, abs_tol=1e-16)
# Tolerances that every step meets.
LOOSE = IntegratorConfig(rel_tol=1.0, abs_tol=1e6)


def fixed_step_run(h, config, *args):
    """``integrate(*args, config)`` with the class's step sizes set to ``h``
    and no growth allowed: every step is h long, and the first one the
    tolerances reject ends the run."""
    with mock.patch.multiple(IntegratorConfig, h_init=h, h_min=h), mock.patch.object(
        ode, "_MAX_FACTOR", 1.0
    ):
        return integrate(*args, config)


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
        assert hamiltonian(State(u, 0.0), 2.0) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("p", (2.0, 2.5, 3.0, 4.0, 10.0))
    def test_vanishes_on_spike_states(self, p):
        value = hamiltonian(State(spike_amplitude(p), 0.0), p)
        assert abs(value) < 1e-14

    # u < 0 lies outside the spike problem for every p, integer or not.
    @pytest.mark.parametrize("p", (2.5, 2.0, 3.0))
    def test_negative_u_rejected_for_every_p(self, p):
        with pytest.raises(ValueError, match="u must be nonnegative"):
            hamiltonian(State(-0.1, 0.0), p)

    # The p that integrate refuses; at p = -1 the energy would divide by 0.
    @pytest.mark.parametrize("p", (-1.0, 0.0, -0.5, math.nan, math.inf))
    def test_rejects_nonpositive_or_nonfinite_p(self, p):
        with pytest.raises(ValueError, match="p must be positive and finite"):
            hamiltonian(State(0.5, 0.0), p)


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
        # Every stage derivative vanishes at u=1, so the state is preserved
        # bit for bit and no step is ever rejected.
        trajectory = integrate(State(1.0, 0.0), 0.0, 5.0, 2.0)
        assert trajectory.terminal_event is TerminalEvent.REACHED_END
        assert all(s.u == 1.0 and s.v == 0.0 for _, s in trajectory.samples)
        assert trajectory.rejected_steps == 0

    def test_tracks_closed_form(self):
        trajectory = integrate(State(AMP2, 0.0), 0.0, 10.0, 2.0)
        assert trajectory.terminal_event is TerminalEvent.REACHED_END
        assert trajectory.samples[-1][0] == 10.0
        end = trajectory.samples[-1][1]
        assert end.u == pytest.approx(eval_spike_rho(PARAMS2, [10.0])[0], abs=5e-7)
        assert end.v == pytest.approx(eval_spike_derivative(PARAMS2, [10.0])[0], abs=5e-7)
        assert trajectory.rejected_steps <= 2

    def test_dense_output_matches_samples(self):
        trajectory = integrate(State(AMP2, 0.0), 0.0, 6.0, 2.0)
        samples = trajectory.samples
        us, vs = trajectory.eval(rho for rho, _ in samples)
        assert len(us) == len(vs) == len(samples)
        for (_, state), u, v in zip(samples, us, vs):
            assert u == pytest.approx(state.u, rel=1e-12, abs=1e-14)
            assert v == pytest.approx(state.v, rel=1e-12, abs=1e-14)

    def test_dense_output_matches_closed_form(self):
        trajectory = integrate(State(AMP2, 0.0), 0.0, 10.0, 2.0)
        grid = [float(rho) for rho in np.linspace(0.0, 10.0, 1001)]
        us, _ = trajectory.eval(grid)
        for u, exact in zip(us, eval_spike_rho(PARAMS2, grid)):
            assert u == pytest.approx(exact, abs=1e-7)

    def test_eval_allows_round_off_slack(self):
        trajectory = integrate(State(AMP2, 0.0), 0.0, 5.0, 2.0)
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
        trajectory = integrate(State(AMP2, 0.0), 0.0, 5.0, 2.0)
        with pytest.raises(ValueError, match="rho=nan"):
            trajectory.eval([1.0, math.nan])
        with pytest.raises(ValueError, match="rho=nan"):
            trajectory.eval([1.0, 1.0001, math.nan, 1.0002])

    def test_reversible_through_mirrored_start(self):
        # u is even and v odd about the peak, so the run from the mirrored
        # endpoint turns at the peak, and continuing it for the same span
        # again must reproduce the endpoint.
        forward = integrate(State(AMP2, 0.0), 0.0, 8.0, 2.0)
        end = forward.end[1]
        back = integrate(State(end.u, -end.v), 0.0, 16.0, 2.0)
        assert back.terminal_event is TerminalEvent.TURNED
        rho_turn, turn = back.end
        assert rho_turn == pytest.approx(8.0, abs=1e-8)
        assert turn.u == pytest.approx(AMP2, abs=1e-8)
        final = integrate(turn, rho_turn, 16.0, 2.0).end[1]
        assert final.u == pytest.approx(end.u, abs=1e-8)
        assert final.v == pytest.approx(end.v, abs=1e-8)

    @pytest.mark.parametrize(
        "initial, span",
        [
            (State(1.0, 0.0), (0.0, 0.0)),
            (State(1.0, 0.0), (2.0, 1.0)),
            (State(math.nan, 0.0), (0.0, 1.0)),
        ],
    )
    def test_rejects_invalid_setup(self, initial, span):
        with pytest.raises(ValueError):
            integrate(initial, span[0], span[1], 2.0)

    @pytest.mark.parametrize("p", (2.5, 2.0, 3.0))
    def test_rejects_negative_start_for_every_p(self, p):
        with pytest.raises(ValueError, match="u must be nonnegative"):
            integrate(State(-0.5, 0.0), 0.0, 1.0, p)

    @pytest.mark.parametrize("p", (-1.0, 0.0, math.nan, math.inf))
    def test_rejects_nonpositive_or_nonfinite_p(self, p):
        with pytest.raises(ValueError):
            integrate(State(AMP2, 0.0), 0.0, 1.0, p)


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
            u, v = trajectory.end[1].u, trajectory.end[1].v
        us.append(u)
        vs.append(v)
    return us, vs


def _bits(columns):
    return [[x.hex() for x in column] for column in columns]


class TestDenseWalk:
    """Trajectory.eval walks the points through the steps; it gives the
    bits of a bisection and a ``_dense`` call per point, in any order."""

    SPIKE = integrate(State(AMP2, 0.0), 0.0, 10.0, 2.0)
    # One step: the span is shorter than the first step.
    ONE_STEP = fixed_step_run(0.1, LOOSE, State(AMP2, 0.0), 0.0, 0.05, 2.0)
    NO_STEP = fixed_step_run(0.1, UNSATISFIABLE, State(AMP2, 0.0), 0.0, 4.0, 2.0)

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


class TestConservation:
    def test_first_integral_drift_small(self):
        trajectory = integrate(State(AMP2, 0.0), 0.0, 12.0, 2.0)
        h0 = hamiltonian(trajectory.samples[0][1], 2.0)
        drift = max(
            abs(hamiltonian(state, 2.0) - h0) for _, state in trajectory.samples
        )
        assert drift < 1e-8

    def test_drift_shrinks_with_tolerance(self):
        def drift_at(rel_tol, abs_tol):
            config = IntegratorConfig(rel_tol=rel_tol, abs_tol=abs_tol)
            trajectory = integrate(State(AMP2, 0.0), 0.0, 12.0, 2.0, config)
            h0 = hamiltonian(trajectory.samples[0][1], 2.0)
            return max(
                abs(hamiltonian(state, 2.0) - h0) for _, state in trajectory.samples
            )

        loose = drift_at(1e-10, 1e-12)
        tight = drift_at(5e-11, 5e-13)
        assert tight < loose


class TestEvents:
    def test_overshoot_stops_at_zero_crossing(self):
        trajectory = integrate(State(1.6, 0.0), 0.0, 12.0, 2.0)
        assert trajectory.terminal_event is TerminalEvent.U_CROSSED_ZERO
        rho_end, end = trajectory.samples[-1]
        assert rho_end == pytest.approx(3.0900841000136845, rel=1e-9)
        assert end.u == 0.0
        assert end.v == pytest.approx(-0.41311822354789757, rel=1e-9)
        # Crossing with v < 0 at u = 0 means positive first-integral level.
        assert hamiltonian(end, 2.0) == pytest.approx(
            hamiltonian(State(1.6, 0.0), 2.0), abs=1e-9
        )

    def test_undershoot_records_turning_points(self):
        # The first turn of an undershoot is recorded as the run's end.
        trajectory = integrate(State(1.4, 0.0), 0.0, 30.0, 2.0)
        assert trajectory.terminal_event is TerminalEvent.TURNED
        rho_end, end = trajectory.end
        assert rho_end == pytest.approx(3.5622832910823736, rel=1e-8)
        assert end.u == pytest.approx(0.42749172182100076, rel=1e-7)
        assert abs(end.v) < 1e-9
        assert all(0.0 < state.u <= 1.4 for _, state in trajectory.samples)

    def test_turn_ends_a_run_that_asks_for_it(self):
        # Every run asks for it: the first turn ends the run well before the
        # end of its span, whichever side of the centre it starts.
        stopped = integrate(State(1.4, 0.0), 0.0, 30.0, 2.0)
        assert stopped.terminal_event is TerminalEvent.TURNED
        assert stopped.end[0] < 30.0
        assert 0.0 < stopped.end[1].u < 1.4
        # Started below the centre, the first turn is a maximum above the
        # start, and it ends the run too.
        inside = integrate(State(0.5, 0.0), 0.0, 30.0, 2.0)
        assert inside.terminal_event is TerminalEvent.TURNED
        assert inside.end[0] < 30.0
        assert abs(inside.end[1].v) < 1e-9
        assert inside.end[1].u > 0.5

    @pytest.mark.parametrize("p", (1.01, 2.0, 100.0))
    @pytest.mark.parametrize("offset", ("1e-9", "1e-3", "0.5", "0.999"))
    def test_no_step_passes_two_turns(self, p, offset):
        # Steps have no length cap, so only the error control and the
        # quarter-turn bound keep a step from passing a minimum and the next
        # maximum, both sign changes of v.
        # From a maximum at (a, 0) inside the loop, 1 < a < amp, the run
        # must stop at its first minimum: v < 0 and u falling until then.
        amp = spike_amplitude(p)
        a = 1.0 + float(offset) * (amp - 1.0)
        trajectory = integrate(State(a, 0.0), 0.0, 200.0, p)
        assert trajectory.terminal_event is TerminalEvent.TURNED
        samples = trajectory.samples
        assert all(state.v < 0.0 for _, state in samples[1:-1])
        assert all(x[1].u >= y[1].u for x, y in zip(samples, samples[1:]))
        end = trajectory.end[1]
        assert end.u < 1.0
        # H is conserved to the tolerances, so the minimum is this orbit's;
        # the drift is 1.2e-10 at most (p = 100, offset 0.999).
        energy = hamiltonian(State(a, 0.0), p)
        assert hamiltonian(State(end.u, 0.0), p) == pytest.approx(energy, abs=1e-9)

    def test_step_failure_reported(self):
        trajectory = fixed_step_run(0.1, UNSATISFIABLE, State(AMP2, 0.0), 0.0, 4.0, 2.0)
        assert trajectory.terminal_event is TerminalEvent.STEP_FAILURE
        assert trajectory.rejected_steps >= 1
        # No step was accepted: the dense output is the start point alone.
        assert trajectory.steps == []
        assert trajectory.eval([0.0, 5e-10]) == ([AMP2, AMP2], [0.0, 0.0])
        with pytest.raises(ValueError):
            trajectory.eval([1e-3])

    def test_fractional_p_crosses_zero_cleanly(self):
        amp = spike_amplitude(2.5)
        trajectory = integrate(State(amp + 0.1, 0.0), 0.0, 12.0, 2.5)
        assert trajectory.terminal_event is TerminalEvent.U_CROSSED_ZERO
        end = trajectory.samples[-1][1]
        assert 0.0 <= end.u <= 1e-9
        assert all(math.isfinite(state.u) for _, state in trajectory.samples)

    @pytest.mark.parametrize("p", (2.5, 2.0, 3.0))
    def test_start_at_zero_heading_below_ends_there(self, p):
        # u >= 0 at every accepted point: a run from u = 0 with v < 0 leaves
        # the domain at once, so it ends at its start, not below it.
        trajectory = integrate(State(0.0, -0.1), 0.0, 1.0, p)
        assert trajectory.terminal_event is TerminalEvent.U_CROSSED_ZERO
        rho, end = trajectory.end
        assert 0.0 <= rho <= EVENT_LOCATION_TOL
        assert end == State(0.0, -0.1)

    @pytest.mark.parametrize("p", (1.01, 1.2, 2.0, 4.0, 10.0, 100.0))
    @pytest.mark.parametrize("delta", (1e-13, 1e-12, 1e-10, 1e-8, 1e-4))
    def test_steps_stay_under_a_half_period_near_the_centre(self, p, delta):
        # The event scan assumes one sign change of v per step.  Near the
        # centre (1, 0) the orbit is a small ellipse of half-period
        # pi / sqrt(p - 1): from a maximum delta above it, the run must stop
        # at the first minimum, half a period on, and each step must stay
        # short of that.  Closer than about 1e-11, the error control alone
        # lets a step pass the turn; the quarter-turn bound holds a step to
        # half a half-period, and each run ends within 1.2% of it (the
        # widest is p = 1.01 from 1e-13, at 31.05).
        half_period = math.pi / math.sqrt(p - 1.0)
        trajectory = integrate(State(1.0 + delta, 0.0), 0.0, 400.0, p)
        assert trajectory.terminal_event is TerminalEvent.TURNED
        rho, end = trajectory.end
        assert end.u < 1.0
        assert rho == pytest.approx(half_period, rel=0.012)
        assert max(step[1] for step in trajectory.steps) < 0.51 * half_period

    def test_a_start_1e_12_from_the_centre_stops_at_its_first_minimum(self):
        # From here the error control alone lets a step pass the first
        # minimum, at 31.42 (the run then ends TURNED at 61.83); the
        # quarter-turn bound must stop it within 0.1 of that minimum.
        half_period = math.pi / math.sqrt(1.01 - 1.0)
        trajectory = integrate(State(1.0 + 1e-12, 0.0), 0.0, 400.0, 1.01)
        assert trajectory.terminal_event is TerminalEvent.TURNED
        rho, end = trajectory.end
        assert end.u < 1.0
        assert abs(rho - half_period) < 0.1

    def test_a_start_1e_14_from_the_centre_sees_no_field(self):
        # The floor of the bound: at p = 1.01, u - u**p rounds to 0 at every
        # stage of a run from 1 + 1e-14, so nothing turns and the run goes
        # to its end.  A forward run from near the centre must start above it.
        trajectory = integrate(State(1.0 + 1e-14, 0.0), 0.0, 400.0, 1.01)
        assert trajectory.terminal_event is TerminalEvent.REACHED_END
        assert trajectory.end == (400.0, State(1.0 + 1e-14, 0.0))

    def test_a_start_at_the_saddle_runs_to_its_end(self):
        # The bound divides by no u: at (0, 0) the field and excess are 0.
        trajectory = integrate(State(0.0, 0.0), 0.0, 1.0, 2.0)
        assert trajectory.terminal_event is TerminalEvent.REACHED_END
        assert trajectory.end == (1.0, State(0.0, 0.0))

    def test_overflowing_trial_step_is_rejected(self):
        # Far above the p = 100 spike, u**100 overflows inside the stages of
        # the first trial steps; those steps must shrink, not raise.
        trajectory = integrate(State(1.5, 0.0), 0.0, 2.0, 100.0, IntegratorConfig())
        assert trajectory.terminal_event is TerminalEvent.U_CROSSED_ZERO
        assert trajectory.rejected_steps >= 1
        assert trajectory.end[1].u == 0.0


def _line_interpolant(h, c0, c1, component):
    """Interpolant of one step of length ``h`` whose ``component`` is
    c0 + c1 * theta exactly, for c1 * h and h powers of two, and whose
    other component is 1."""
    line, flat = (c0, c1 / h, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0, 0.0)
    u, v = (line, flat) if component == 0 else (flat, line)
    return (0.0, h, u[0], v[0], *u[1:], *v[1:])


class TestEventBisection:
    """Every event is located by one bisection, an exact zero included."""

    @pytest.mark.parametrize("component", (0, 1))
    @pytest.mark.parametrize("sign", (1.0, -1.0))
    @pytest.mark.parametrize("h", (1.0, 0.25, 2.0**-20))
    # theta - 1/2 is exactly 0 at the first midpoint; theta - 1 at the step's end.
    @pytest.mark.parametrize("zero", (0.5, 1.0))
    def test_locates_an_exact_zero_to_the_tolerance(self, component, sign, h, zero):
        c = _line_interpolant(h, -sign * zero, sign, component)
        assert ode._dense(c, zero)[component] == 0.0
        theta = ode._bisect_theta(c, component, c[2 + component])
        assert abs(theta - zero) <= EVENT_LOCATION_TOL / h


class TestStepControl:
    """The controller's clamps, on the inward runs of the benchmark's
    ``shoot_range`` and the ``integrate/`` golden runs."""

    @pytest.fixture(scope="class")
    def runs(self):
        runs = {
            f"shoot/p{p:g}": shoot(ProblemParams.inner(p)).trajectory
            for p in (1.01, 1.2, 2.0, 4.0, 10.0, 100.0)
        }
        runs.update((key, integrate(*args)) for key, args in _integrate_runs().items())
        return runs

    def test_the_runs_are_there(self, runs):
        assert len(runs) == 6 + 17
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
        # Every step of 0.1 meets rel_tol = 3e-7 here, but some only with
        # err above 0.9**5, where the factor is below 1: h_min = 0.1 alone
        # keeps the next step 0.1 long.  2.2e-7 fails the first step, and
        # from 3.8e-7 up no factor falls below 1.
        config = IntegratorConfig(rel_tol=3e-7)
        trajectory = fixed_step_run(0.1, config, State(AMP2, 0.0), 0.0, 4.0, 2.0)
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
        trajectory = integrate(State(a, 0.0), 0.0, 12.0, p)
        assert max(state.u for _, state in trajectory.samples) <= max(a, amp)

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
        assert EVENT_LOCATION_TOL == 1e-10
        assert SPAN_SLACK == 1e-9

    def test_fixed_step_convergence_rate(self):
        def endpoint_error(h):
            trajectory = fixed_step_run(h, LOOSE, State(AMP2, 0.0), 0.0, 4.0, 2.0)
            end = trajectory.samples[-1][1]
            return abs(end.u - eval_spike_rho(PARAMS2, [4.0])[0]) + abs(
                end.v - eval_spike_derivative(PARAMS2, [4.0])[0]
            )

        errors = [endpoint_error(h) for h in (0.4, 0.2, 0.1, 0.05)]
        slopes = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
        # Dormand-Prince advances its fifth-order solution.
        assert all(5 - 0.5 < s < 5 + 0.5 for s in slopes)
        assert errors[-1] < 1e-8
