"""Integrator checks: local model, conservation, events, and dense output."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from gmspike import (
    EVENT_LOCATION_TOL,
    IntegratorConfig,
    ProblemParams,
    State,
    TerminalEvent,
    eval_spike_derivative,
    eval_spike_rho,
    hamiltonian,
    integrate,
    spike_amplitude,
)

AMP2 = spike_amplitude(2.0)
PARAMS2 = ProblemParams.inner(2.0)

# Forces one oversized fixed step at a tolerance it cannot meet.
UNSATISFIABLE = IntegratorConfig(
    rel_tol=1e-14, abs_tol=1e-16, h_init=0.1, h_min=0.1, h_max=0.1
)


def fixed_step_config(h):
    return IntegratorConfig(rel_tol=1.0, abs_tol=1e6, h_init=h, h_min=h, h_max=h)


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

    def test_negative_u_rejected_for_fractional_p(self):
        with pytest.raises(ValueError):
            hamiltonian(State(-0.1, 0.0), 2.5)


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel_tol": 0.0},
            {"abs_tol": -1.0},
            {"h_min": 0.2, "h_init": 0.1},
            {"h_max": 1e-6},
            # Infinite tolerances switch error control off; infinite bounds
            # let one step span the run.
            {"rel_tol": math.inf},
            {"abs_tol": math.inf},
            {"h_max": math.inf},
            {"h_init": math.inf, "h_max": math.inf},
            {"h_min": math.inf, "h_init": math.inf, "h_max": math.inf},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            IntegratorConfig(**kwargs)


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
        assert end.u == pytest.approx(eval_spike_rho(PARAMS2, 10.0), abs=5e-7)
        assert end.v == pytest.approx(eval_spike_derivative(PARAMS2, 10.0), abs=5e-7)
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
        for rho, u in zip(grid, us):
            assert u == pytest.approx(eval_spike_rho(PARAMS2, rho), abs=1e-7)

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

    def test_eval_refuses_nan(self):
        trajectory = integrate(State(AMP2, 0.0), 0.0, 5.0, 2.0)
        with pytest.raises(ValueError, match="rho=nan"):
            trajectory.eval([1.0, math.nan])

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

    def test_rejects_negative_start_for_fractional_p(self):
        with pytest.raises(ValueError):
            integrate(State(-0.5, 0.0), 0.0, 1.0, 2.5)

    @pytest.mark.parametrize("p", (-1.0, 0.0, math.nan, math.inf))
    def test_rejects_nonpositive_or_nonfinite_p(self, p):
        with pytest.raises(ValueError):
            integrate(State(AMP2, 0.0), 0.0, 1.0, p)


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

    def test_step_failure_reported(self):
        trajectory = integrate(State(AMP2, 0.0), 0.0, 4.0, 2.0, UNSATISFIABLE)
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

    def test_overflowing_trial_step_is_rejected(self):
        # Far above the p = 100 spike, u**100 overflows inside the stages of
        # the first trial steps; those steps must shrink, not raise.
        trajectory = integrate(State(1.5, 0.0), 0.0, 2.0, 100.0, IntegratorConfig())
        assert trajectory.terminal_event is TerminalEvent.U_CROSSED_ZERO
        assert trajectory.rejected_steps >= 1
        assert trajectory.end[1].u == 0.0


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

    def test_fixed_step_convergence_rate(self):
        def endpoint_error(h):
            trajectory = integrate(State(AMP2, 0.0), 0.0, 4.0, 2.0, fixed_step_config(h))
            end = trajectory.samples[-1][1]
            return abs(end.u - eval_spike_rho(PARAMS2, 4.0)) + abs(
                end.v - eval_spike_derivative(PARAMS2, 4.0)
            )

        errors = [endpoint_error(h) for h in (0.4, 0.2, 0.1, 0.05)]
        slopes = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
        # Dormand-Prince advances its fifth-order solution.
        assert all(5 - 0.5 < s < 5 + 0.5 for s in slopes)
        assert errors[-1] < 1e-8
