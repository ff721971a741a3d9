"""Shooting solver checks: the inward run, its log, and the profile read from it."""

import ast
import math
import re
from operator import sub
from pathlib import Path

import pytest

from gmspike import (
    EVENT_LOCATION_TOL,
    IntegratorConfig,
    InwardRun,
    ProblemParams,
    ShootingConfig,
    ShootingError,
    State,
    TerminalEvent,
    check_first_integral,
    eval_profile_grid,
    eval_spike_rho,
    hamiltonian,
    integrate,
    profile_samples,
    shoot,
    spike_amplitude,
)
from gmspike import ode as ode_mod
from gmspike import shooting as shooting_mod

# Tolerances that no step of 0.1 meets.
UNSATISFIABLE = IntegratorConfig(rel_tol=1e-14, abs_tol=1e-16)

P_RANGE = (1.01, 1.2, 2.0, 4.0, 10.0, 100.0)


def _start(result):
    """(u, v) where the reported run starts."""
    return result.trajectory.samples[0][1]


def _record_peak_bisection(monkeypatch):
    """List (span, theta) of every dense-output probe of the runs that follow.

    A shoot reads its dense interpolant only to locate the peak event: the
    probes of the bisection, then the located point."""
    probes = []
    real_dense = ode_mod._dense

    def recording_dense(c, theta):
        probes.append((c[1], theta))
        return real_dense(c, theta)

    monkeypatch.setattr(ode_mod, "_dense", recording_dense)
    return probes


def _assert_halves_until_tolerance(result, probes):
    """The peak bisection's probes halve the bracket until it is shorter
    than EVENT_LOCATION_TOL in sigma, and the located point is its middle.
    Returns the number of halvings."""
    rho, h = result.trajectory.steps[-1][:2]
    assert {span for span, _ in probes} == {h}
    *halvings, located = [theta for _, theta in probes]
    assert halvings[0] == 0.5
    for k, (before, after) in enumerate(zip(halvings, halvings[1:])):
        assert abs(after - before) == 0.5 ** (k + 2)
    width = 0.5 ** len(halvings)
    assert width * h <= EVENT_LOCATION_TOL < 2.0 * width * h
    assert abs(located - halvings[-1]) == 0.5 * width
    assert result.sigma_pk == rho + located * h
    return len(halvings)


def _minimum_named_by(error):
    """(u, sigma) of the minimum that a shoot's error names."""
    message = str(error)
    assert message.startswith("shooting did not converge: "), message
    match = re.search(r" turned at a minimum, u=(\S+) at sigma=(\S+), before its peak$", message)
    assert match is not None, message
    return float(match.group(1)), float(match.group(2))


class TestClassify:
    """A shoot's run is classified by the event that ends it: the peak
    (``TURNED``) converges.  Its answer is the connecting amplitude, which
    runs from either side of it classify apart."""

    @pytest.mark.parametrize("p", (2.0, 3.0, 4.0))
    def test_sides_of_the_connecting_amplitude(self, p):
        # Started at rest above the shot's peak a run overshoots through
        # u = 0; started below, it undershoots and turns at u > 0.
        result = shoot(ProblemParams.inner(p))
        a = result.a_star
        assert result.converged
        assert integrate(State(a + 0.1, 0.0), 0.0, 12.0, p).terminal_event is (
            TerminalEvent.U_CROSSED_ZERO
        )
        assert integrate(State(a - 0.1, 0.0), 0.0, 12.0, p).terminal_event is (
            TerminalEvent.TURNED
        )
        assert abs(hamiltonian(State(a, 0.0), p)) <= 1e-10 * a * a

    def test_reference_amplitudes_p2(self):
        result = shoot(ProblemParams.inner(2.0))
        assert result.converged
        assert abs(result.a_star - 1.5) < 1e-10
        assert integrate(State(1.6, 0.0), 0.0, 12.0, 2.0).terminal_event is (
            TerminalEvent.U_CROSSED_ZERO
        )
        assert integrate(State(1.4, 0.0), 0.0, 12.0, 2.0).terminal_event is (
            TerminalEvent.TURNED
        )

    def test_energy_sign_resolves_short_horizons(self):
        # Cut at sigma = 5, no run from the far end reaches an event, so only
        # the sign of H tells the sides of the spike orbit apart.  Moving the
        # shoot's start off H = 0 by a relative 1e-6 in v gives each sign,
        # and the run keeps it; the start itself stays on H = 0.
        p, u0 = 2.0, shooting_mod.U0
        v0 = _start(shoot(ProblemParams.inner(p))).v
        for scale, sign in ((1.0 + 1e-6, 1.0), (1.0 - 1e-6, -1.0), (1.0, 0.0)):
            start = State(u0, v0 * scale)
            run = integrate(start, 0.0, 5.0, p)
            assert run.terminal_event is TerminalEvent.REACHED_END
            end = run.end[1]
            if sign == 0.0:
                assert abs(hamiltonian(start, p)) <= 1e-13 * u0**2
            else:
                assert math.copysign(1.0, hamiltonian(start, p)) == sign
                assert math.copysign(1.0, hamiltonian(end, p)) == sign

    def test_integrator_breakdown_is_an_error(self, monkeypatch):
        # Every step is 0.1 long, so the first rejection ends the run.
        for name in ("h_init", "h_min"):
            monkeypatch.setattr(IntegratorConfig, name, 0.1)
        with pytest.raises(ShootingError, match="step size underflow"):
            shoot(ProblemParams.inner(2.0), integrator_config=UNSATISFIABLE)


class TestSingleRun:
    """A shoot makes one run, which finds the amplitude alone:
    ``ShootingConfig.scan_points`` is 0, so the scan part of its log is
    empty."""

    def test_last_step_brackets_the_peak(self, default_shoots):
        # The run's last step brackets the peak: v changes sign across it,
        # and the amplitude lies between its two ends.
        result = default_shoots[2.0]
        assert result.classifications[:result.config.scan_points] == ()
        rho, h, u, v = result.trajectory.steps[-1][:4]
        assert rho < result.sigma_pk <= rho + h
        assert u < 1.5 and v > 0.0
        assert abs(result.a_star - 1.5) < 1e-10

    def test_residuals_are_nonnegative(self, default_shoots):
        for result in default_shoots.values():
            assert result.classifications[:result.config.scan_points] == ()
            assert result.bc_residual >= 0.0

    def test_localizes_the_p3_amplitude(self, default_shoots):
        result = default_shoots[3.0]
        assert result.converged
        assert abs(result.a_star - math.sqrt(2.0)) < 1e-10

    def test_run_log_holds_one_entry(self):
        # With no scan point, the log holds the one run, and it connects.
        result = shoot(ProblemParams.inner(2.0))
        assert ShootingConfig.scan_points == 0
        assert len(result.classifications) == 1
        assert result.trajectory.terminal_event is TerminalEvent.TURNED
        assert all(abs(entry.a_star - 1.5) < 1e-10 for entry in result.classifications)


class TestInwardRun:
    @pytest.mark.parametrize("p", P_RANGE)
    def test_start_lies_on_the_spike_orbit(self, p):
        # H = 0 on the spike, and the start's H is zero to rounding.
        start = _start(shoot(ProblemParams.inner(p)))
        assert start.u == shooting_mod.U0 == 1e-7
        assert 0.0 < start.v <= start.u
        assert abs(hamiltonian(start, p)) <= 1e-13 * start.u**2

    @pytest.mark.parametrize("p", P_RANGE)
    def test_the_peak_event_fires(self, p):
        result = shoot(ProblemParams.inner(p))
        trajectory = result.trajectory
        assert trajectory.terminal_event is TerminalEvent.TURNED
        assert result.converged
        assert (result.sigma_pk, result.a_star) == (trajectory.end[0], trajectory.end[1].u)
        # The run reaches farther than the old far-field truncation at rho = 12.
        assert 16.1 < result.sigma_pk < 83.0

    @pytest.mark.parametrize("p", (1.01, 1.05, 1.1, 1.2, 2.0, 4.0, 10.0, 100.0))
    def test_amplitude_and_tail_match_the_closed_form(self, p):
        result = shoot(ProblemParams.inner(p))
        assert abs(result.a_star - spike_amplitude(p)) < 1e-10
        (u,), _ = eval_profile_grid(result, [10.0])
        (exact,) = eval_spike_rho(result.params, [10.0])
        assert abs(u - exact) / exact < 1e-8

    @pytest.mark.parametrize("p", (1.01, 2.0, 100.0))
    def test_errors_fall_as_the_tolerance_tightens(self, p):
        amp = spike_amplitude(p)
        gaps, drifts = [], []
        for rel_tol in (1e-6, 1e-8, 1e-10, 1e-12):
            result = shoot(ProblemParams.inner(p), integrator_config=IntegratorConfig(rel_tol))
            gaps.append(abs(result.a_star - amp))
            drifts.append(check_first_integral(result.trajectory, p))
        for errors in (gaps, drifts):
            assert all(tight <= loose for loose, tight in zip(errors, errors[1:])), errors
            assert errors[-1] * 1e3 <= errors[0], errors

    @pytest.mark.parametrize(
        "patch, p, end",
        [
            # Cut at sigma = 5, the run stops without its peak event.
            pytest.param("short_horizon", 100.0, "reached_end at sigma=5.0,", id="reached_end"),
            pytest.param(
                "outside_loop_start", 2.0, "u_crossed_zero at sigma=0.5493", id="u_crossed_zero"
            ),
        ],
    )
    def test_run_that_misses_its_peak_raises(self, request, patch, p, end):
        request.getfixturevalue(patch)
        with pytest.raises(ShootingError) as failure:
            shoot(ProblemParams.inner(p))
        message = str(failure.value)
        assert message.startswith("shooting did not converge: ")
        assert f" ended {end}" in message

    @pytest.mark.parametrize("p", (2.0, 3.0, 4.0, 10.0, 100.0))
    def test_a_start_outside_the_loop_crosses_zero_at_artanh_half(self, p, outside_loop_start):
        with pytest.raises(ShootingError) as failure:
            shoot(ProblemParams.inner(p))
        message = str(failure.value)
        match = re.search(r" ended u_crossed_zero at sigma=(\S+), before its peak$", message)
        assert match is not None, message
        assert abs(float(match.group(1)) - math.atanh(0.5)) < 1e-5

    @pytest.mark.parametrize("p", P_RANGE)
    def test_a_turn_at_a_minimum_raises(self, p, inside_loop_start):
        # The run from (u0, -v0 / 2) turns at u < u0: a minimum, not the peak.
        with pytest.raises(ShootingError) as failure:
            shoot(ProblemParams.inner(p))
        u, sigma = _minimum_named_by(failure.value)
        u0 = shooting_mod.U0
        v0 = u0 * math.sqrt(1.0 - 2.0 * u0 ** (p - 1.0) / (p + 1.0))
        assert 0.0 < u < u0
        # H is conserved, so the minimum lies on the start's level set.
        assert hamiltonian(State(u, 0.0), p) == pytest.approx(
            hamiltonian(State(u0, -0.5 * v0), p), rel=1e-4
        )
        if p >= 2.0:
            assert u == pytest.approx(u0 * math.sqrt(3.0) / 2.0, rel=1e-5)
            assert abs(sigma - math.atanh(0.5)) < 1e-5

    @pytest.mark.parametrize("p", (1.01, 1.2, 2.0))
    def test_a_mirrored_start_that_turns_at_a_minimum_raises(self, p, mirrored_start):
        # Rounding carries the run from (u0, -v0) off the orbit into the
        # saddle and back out, to a turn within 1e-9 of u = 0.
        with pytest.raises(ShootingError) as failure:
            shoot(ProblemParams.inner(p))
        u, sigma = _minimum_named_by(failure.value)
        assert 0.0 < u < 1e-9
        assert 0.0 < sigma < shooting_mod._HORIZON

    def test_imports_nothing_from_analytic_but_the_problem(self):
        # The run must check the closed form, not start from it.
        from_analytic = set()
        for node in ast.walk(ast.parse(Path(shooting_mod.__file__).read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {alias.name for alias in node.names}
                if isinstance(node, ast.ImportFrom) and node.module == "analytic":
                    from_analytic |= names
                else:
                    assert not [name for name in names if "analytic" in name.split(".")]
        assert from_analytic == {"ProblemParams", "SpikeKind"}


class TestShoot:
    @pytest.mark.parametrize("p", (2.0, 3.0, 4.0))
    def test_recovers_closed_form_amplitude(self, p, default_shoots):
        result = default_shoots[p]
        assert result.converged
        assert abs(result.a_star - spike_amplitude(p)) < 1e-10
        # The far end of the profile is the run's start, 2e-7 from the saddle.
        start = _start(result)
        assert result.bc_residual == start.u + start.v <= 2.0 * shooting_mod.U0
        assert result.trajectory.samples[-1][0] == result.sigma_pk

    def test_run_log_ends_at_the_answer(self, default_shoots):
        result = default_shoots[2.0]
        end_rho, end = result.trajectory.end
        assert result.classifications == (InwardRun(shooting_mod.U0, end.u, end_rho),)
        assert (result.u0, result.a_star, result.sigma_pk) == result.classifications[-1]

    @pytest.mark.parametrize("p", (1.01, 1.2, 2.0, 3.0, 4.0, 10.0, 100.0))
    def test_each_integration_is_logged_once(self, p, monkeypatch):
        # One integrate call for the inner shoot, from the far end, and one
        # log entry for it; the boundary shoot after it reads that run and
        # carries that entry, with no call of its own.
        starts = []
        real_integrate = shooting_mod.integrate

        def recording_integrate(initial, *args, **kwargs):
            starts.append(initial)
            return real_integrate(initial, *args, **kwargs)

        monkeypatch.setattr(shooting_mod, "integrate", recording_integrate)
        inner = shoot(ProblemParams.inner(p))
        assert len(starts) == 1
        assert [entry.u0 for entry in inner.classifications] == [starts[0].u]
        assert starts[0] == _start(inner)
        boundary = shoot(ProblemParams.boundary(p))
        assert len(starts) == 1
        assert boundary.trajectory is inner.trajectory
        assert boundary.classifications == inner.classifications

    def test_bisection_halves_until_tolerance(self, monkeypatch):
        # The peak, and with it a_star and sigma_pk, is located by bisecting
        # v on the last step's dense interpolant.
        probes = _record_peak_bisection(monkeypatch)
        result = shoot(ProblemParams.inner(2.0))
        assert _assert_halves_until_tolerance(result, probes) >= 20
        assert abs(result.a_star - 1.5) < 1e-10
        assert result.converged

    @pytest.mark.parametrize("p", (2.0, 2.5, 3.0, 4.0))
    def test_amplitude_error_within_truncation_envelope(self, p):
        # The run truncates the orbit at u0 instead of the saddle, but starts
        # on H = 0 there: the truncation moves the amplitude by no more than
        # rounding, and the envelope is the integrator's error alone.
        result = shoot(ProblemParams.inner(p))
        assert result.converged
        assert abs(hamiltonian(_start(result), p)) <= 1e-13 * result.u0**2
        assert abs(result.a_star - spike_amplitude(p)) <= 1e-10

    @pytest.mark.parametrize("p", (2.0, 3.0, 4.0))
    def test_short_horizon_still_meets_the_acceptance_band(self, p):
        # Read no farther than rho = 10 from the peak, the profile meets the
        # acceptance band of the paper's checks with room to spare.
        result = shoot(ProblemParams.inner(p))
        assert result.converged
        assert abs(result.a_star - spike_amplitude(p)) < 1e-4
        assert result.bc_residual <= 0.01
        grid = [0.25 * k for k in range(-40, 41)]
        us, _ = eval_profile_grid(result, grid)
        exact = eval_spike_rho(result.params, grid)
        assert max(abs(u - e) for u, e in zip(us, exact)) < 1e-6

    def test_degenerate_window_returns_best_connect(self):
        # With ShootingConfig.scan_points = 0 the window is empty: the one
        # run is the connecting one, and its peak is the answer.
        result = shoot(ProblemParams.inner(2.0))
        assert result.converged
        assert abs(result.a_star - 1.5) <= 2e-6
        assert result.classifications[-1] == (result.u0, result.a_star, result.sigma_pk)

    def test_degenerate_window_integrates_each_scan_point_once(self, monkeypatch):
        # The empty window's scan points, none, and the final run, once: the
        # counts bench/child.py traces as scan 0, bisect 0 and final 1.
        calls = []
        real_integrate = shooting_mod.integrate

        def counting_integrate(initial, *args, **kwargs):
            calls.append(initial.u)
            return real_integrate(initial, *args, **kwargs)

        monkeypatch.setattr(shooting_mod, "integrate", counting_integrate)
        result = shoot(ProblemParams.inner(2.0))
        assert len(calls) == ShootingConfig.scan_points + 1 == 1
        assert calls == [entry.u0 for entry in result.classifications]

    def test_integrator_config_passthrough(self):
        # The tighter tolerance reaches the run: it takes more steps than the default.
        tight = shoot(ProblemParams.inner(2.0), integrator_config=IntegratorConfig(rel_tol=1e-11))
        default = shoot(ProblemParams.inner(2.0))
        assert tight.trajectory.accepted_steps > default.trajectory.accepted_steps
        assert tight.converged


class TestStopAtTurn:
    """A run ends at its first event, and the event tells which side of the
    spike orbit it started on."""

    # A window of 41 starts 0.1 either side of the spike height; it dips
    # below the centre u = 1 at p = 50 and 100.
    @pytest.mark.parametrize("p", (1.2, 2.0, 10.0, 50.0, 100.0))
    def test_verdict_matches_the_full_run(self, p):
        # H is conserved, so the energy of the start decides where the full
        # orbit goes: inside the homoclinic loop (H < 0) it turns at u > 0,
        # outside it (H > 0) it crosses u = 0.  The spike itself, the
        # window's centre, has H = 0 to rounding and is skipped.
        amp = spike_amplitude(p)
        window = [amp - 0.1 + i * 0.005 for i in range(41)]
        far = [0.5 * amp, 0.8 * amp, 1.1 * amp, 1.2 * amp]
        checked = 0
        for a in window + far:
            energy = hamiltonian(State(a, 0.0), p)
            if abs(energy) <= 1e-12:
                continue
            checked += 1
            event = integrate(State(a, 0.0), 0.0, 12.0, p).terminal_event
            expected = TerminalEvent.TURNED if energy < 0.0 else TerminalEvent.U_CROSSED_ZERO
            assert event is expected, a
        assert checked == len(window) + len(far) - 1

    @pytest.mark.parametrize("p", P_RANGE)
    def test_the_reported_run_never_climbs(self, p):
        # Read outward from the peak, as the profile is, the run only
        # descends: it climbs from its start to its peak and stops there.
        samples = shoot(ProblemParams.inner(p)).trajectory.samples
        assert all(state.v > 0.0 for _, state in samples[:-1])
        assert all(a[1].u < b[1].u for a, b in zip(samples, samples[1:]))
        # The turn is located to EVENT_LOCATION_TOL in sigma, so v there is
        # 0 only to within |v'| * EVENT_LOCATION_TOL, with v' = u - u**p.
        end = samples[-1][1]
        assert abs(end.v) <= EVENT_LOCATION_TOL * abs(end.u - end.u**p)

    def test_a_start_below_the_centre_stops_at_its_maximum(self):
        # Run on past its maximum, the orbit would circle the centre to
        # rho = 12 (2,808 steps).
        trajectory = integrate(State(0.98, 0.0), 0.0, 12.0, 100.0)
        assert trajectory.terminal_event is TerminalEvent.TURNED
        assert trajectory.end[1].u > 0.98
        assert trajectory.accepted_steps < 400


class TestEvalProfile:
    def test_inner_symmetry(self, default_shoots):
        result = default_shoots[2.0]
        (u,), (v,) = eval_profile_grid(result, [0.0])
        assert u == result.a_star
        assert v == 0.0
        for r in (0.7, 2.5, 9.0):
            (left_u,), (left_v,) = eval_profile_grid(result, [-r])
            (right_u,), (right_v,) = eval_profile_grid(result, [r])
            assert left_u == right_u
            assert left_v == -right_v
        (_,), (v,) = eval_profile_grid(result, [3.0])
        assert v < 0.0

    def test_boundary_reflects_and_guards_domain(self, default_shoots):
        result = shoot(ProblemParams.boundary(3.0))
        inner = default_shoots[3.0]
        assert result.a_star == inner.a_star
        peak = result.params.peak_rho
        (u,), (v,) = eval_profile_grid(result, [peak])
        assert u == result.a_star
        assert v == 0.0
        (u,), (v,) = eval_profile_grid(result, [peak - 2.0])
        assert v > 0.0
        assert [u] == pytest.approx(eval_spike_rho(result.params, [peak - 2.0]), abs=1e-7)
        # The boundary profile is the inner one's left half, shifted to the wall.
        for d in (0.7, 2.5, 9.0):
            assert eval_profile_grid(result, [peak - d]) == eval_profile_grid(inner, [-d])
        with pytest.raises(ValueError):
            eval_profile_grid(result, [peak + 0.1])

    @pytest.mark.parametrize("kind", ("inner", "boundary"))
    @pytest.mark.parametrize("rho", (-20.0, math.nan))
    def test_range_error_names_the_grid_point(self, default_shoots, kind, rho):
        # The run reaches sigma_pk = 17.16 from the peak; -20 lies 20 (inner)
        # or 30 (boundary, peak at rho = 10) from it.  The error names the point given.
        result = default_shoots[3.0] if kind == "inner" else shoot(ProblemParams.boundary(3.0))
        with pytest.raises(ValueError, match=f"^rho={rho!r} lies outside the integrated span"):
            eval_profile_grid(result, [result.params.peak_rho - 1.0, rho])

    def test_a_point_past_the_wall_is_named_before_a_far_one(self):
        result = shoot(ProblemParams.boundary(3.0))
        peak = result.params.peak_rho
        with pytest.raises(ValueError, match=f"^rho={peak - 30.0!r} lies outside the integrated"):
            eval_profile_grid(result, [peak - 1.0, peak - 30.0, peak - 40.0, peak + 5e-10])
        with pytest.raises(ValueError, match=f"^rho={peak + 0.5!r} lies outside the domain"):
            eval_profile_grid(result, [peak - 1.0, peak - 30.0, peak + 0.5, peak + 0.7])
        # The wall holds to 1e-9, far inside the run's reach.
        with pytest.raises(ValueError, match=f"^rho={peak + 1e-8!r} lies outside the domain"):
            eval_profile_grid(result, [peak - 1.0, peak + 1e-8])

    def test_a_grid_can_be_any_iterable(self, default_shoots):
        # The points are scanned before they are read: a generator used to
        # be spent by the scan and give ([], []).
        result = default_shoots[2.0]
        grid = [x * 0.5 for x in range(-4, 5)]
        columns = eval_profile_grid(result, grid)
        assert len(columns[0]) == len(grid)
        assert eval_profile_grid(result, (x * 0.5 for x in range(-4, 5))) == columns
        assert eval_profile_grid(result, iter(grid)) == columns
        assert eval_profile_grid(result, tuple(grid)) == columns
        assert eval_profile_grid(result, map(float, grid)) == columns

    def test_a_one_shot_grid_names_the_point_past_the_wall(self):
        result = shoot(ProblemParams.boundary(3.0))
        peak = result.params.peak_rho
        with pytest.raises(ValueError, match=f"^rho={peak + 0.5!r} lies outside the domain"):
            eval_profile_grid(result, iter([peak + 0.5, peak - 30.0]))

    @pytest.mark.parametrize("kind", ("inner", "boundary"))
    @pytest.mark.parametrize("p", (1.2, 2.0, 100.0))
    def test_grid_form_matches_one_point_bit_for_bit(self, p, kind):
        factory = ProblemParams.inner if kind == "inner" else ProblemParams.boundary
        result = shoot(factory(p))
        peak, reach = result.params.peak_rho, result.sigma_pk
        # Unsorted; the peak, points between steps on the interior side, and
        # points inside the 1e-9 clamp margin past each end of the span.
        grid = [peak - 0.37, peak, peak - reach - 5e-10, peak - 1.234567, peak - reach]
        if kind == "inner":
            grid += [peak + reach + 5e-10, peak + 0.37, peak + 3.3, peak - 3.3]
        else:
            grid += [peak + 5e-10, peak + 9e-10, peak - 3.3]
        us, vs = eval_profile_grid(result, grid)
        assert len(us) == len(vs) == len(grid)
        for rho, u, v in zip(grid, us, vs):
            (one_u,), (one_v,) = eval_profile_grid(result, [rho])
            assert (u, v) == (one_u, one_v), rho
            assert math.copysign(1.0, u) == math.copysign(1.0, one_u), rho
            assert math.copysign(1.0, v) == math.copysign(1.0, one_v), rho
        (u,), (v,) = eval_profile_grid(result, [peak])
        assert (u, v) == (result.a_star, 0.0)
        assert math.copysign(1.0, v) == 1.0

    @pytest.mark.parametrize("epsilon", (0.1, 0.2))
    @pytest.mark.parametrize("kind", ("inner", "boundary"))
    @pytest.mark.parametrize("p", (2.0, 3.0, 4.0))
    def test_the_two_maps_are_inverse(self, p, kind, epsilon):
        # profile_samples places the run's samples in the domain, and
        # eval_profile_grid reads the run back at those points.
        factory = ProblemParams.inner if kind == "inner" else ProblemParams.boundary
        result = shoot(factory(p, epsilon))
        rhos, ds, us, vs = profile_samples(result)
        assert len(rhos) == len(ds) == len(us) == len(vs) > 1
        assert (rhos[0], ds[0], us[0], vs[0]) == (result.params.peak_rho, 0.0, result.a_star, 0.0)
        assert all(abs(rho) <= 1.0 / epsilon for rho in rhos)
        eval_us, eval_vs = eval_profile_grid(result, rhos)
        assert (eval_us[0], eval_vs[0]) == (result.a_star, 0.0)
        assert max(map(abs, map(sub, eval_us, us))) <= 1e-15
        assert max(map(abs, map(sub, eval_vs, vs))) <= 1e-15


class TestConfigValidation:
    def test_defaults(self):
        # The inward run has no settings: no scan, no far-field truncation.
        assert ShootingConfig._fields == ()
        assert ShootingConfig() == ShootingConfig()
        assert ShootingConfig.scan_points == ShootingConfig().scan_points == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta": 0.1},
            {"eta": 0.01},
            {"rho_l": 12.0},
            {"scan_points": 41},
            {"refine_tol": 1e-10},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        # The settings of the amplitude search went with it.
        with pytest.raises(TypeError):
            ShootingConfig(**kwargs)
