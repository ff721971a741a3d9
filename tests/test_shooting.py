"""Shooting solver checks: classification, bracketing, and refinement."""

import math

import pytest

from gmspike import (
    DEFAULT_RHO_L,
    EVENT_LOCATION_TOL,
    IntegratorConfig,
    NoBracketError,
    ProblemParams,
    ShootingConfig,
    ShootingError,
    Shot,
    State,
    TerminalEvent,
    Verdict,
    classify,
    eval_profile_grid,
    eval_spike_rho,
    hamiltonian,
    integrate,
    shoot,
    spike_amplitude,
)
from gmspike import shooting as shooting_mod

# Forces one oversized fixed step at a tolerance it cannot meet.
UNSATISFIABLE = IntegratorConfig(
    rel_tol=1e-14, abs_tol=1e-16, h_init=0.1, h_min=0.1, h_max=0.1
)

# Window tight enough that no run leaves the neighbourhood of the connecting
# orbit before the shortened horizon, so every verdict falls through to the
# boundary residual.
ALL_CONNECT = ShootingConfig(delta=1e-6, rho_l=5.0, eta=0.1)


class TestClassify:
    @pytest.mark.parametrize("p", (2.0, 3.0, 4.0))
    def test_sides_of_the_connecting_amplitude(self, p):
        amp = spike_amplitude(p)
        assert classify(amp + 0.1, p, DEFAULT_RHO_L).verdict is Verdict.OVERSHOOT
        assert classify(amp - 0.1, p, DEFAULT_RHO_L).verdict is Verdict.UNDERSHOOT
        assert classify(amp, p, DEFAULT_RHO_L).verdict is Verdict.CONNECT

    def test_reference_amplitudes_p2(self):
        assert classify(1.6, 2.0, DEFAULT_RHO_L).verdict is Verdict.OVERSHOOT
        assert classify(1.4, 2.0, DEFAULT_RHO_L).verdict is Verdict.UNDERSHOOT
        assert classify(1.5, 2.0, 10.0).verdict is Verdict.CONNECT

    def test_energy_sign_resolves_short_horizons(self):
        # Gap small enough that neither event fires by rho = 5 and the
        # residual there exceeds eta, leaving only the first-integral sign.
        amp = spike_amplitude(2.0)
        assert classify(amp * (1 + 1e-6), 2.0, 5.0, eta=1e-6).verdict is Verdict.OVERSHOOT
        assert classify(amp * (1 - 1e-6), 2.0, 5.0, eta=1e-6).verdict is Verdict.UNDERSHOOT

    def test_integrator_breakdown_is_an_error(self):
        with pytest.raises(ShootingError):
            classify(1.5, 2.0, 4.0, config=UNSATISFIABLE)


class TestScan:
    """The scan is the first scan_points entries of a shoot's log, and its
    bracket the first of the bracket history."""

    def test_default_scan_brackets_the_amplitude(self, default_shoots):
        result = default_shoots[2.0]
        entries = result.classifications[:result.config.scan_points]
        assert len(entries) == 41
        assert entries[0].a == pytest.approx(1.4, rel=1e-12)
        assert entries[-1].a == pytest.approx(1.6, rel=1e-12)
        low, high = result.bracket_history[0]
        assert low < 1.5 < high
        assert high - low == pytest.approx(0.01, rel=1e-6)
        verdicts = [entry.verdict for entry in entries]
        assert verdicts[0] is Verdict.UNDERSHOOT
        assert verdicts[-1] is Verdict.OVERSHOOT

    def test_residuals_are_nonnegative(self, default_shoots):
        result = default_shoots[3.0]
        entries = result.classifications[:result.config.scan_points]
        assert all(entry.bc_residual >= 0.0 for entry in entries)

    def test_localizes_the_p3_amplitude(self, default_shoots):
        low, high = default_shoots[3.0].bracket_history[0]
        assert low < math.sqrt(2.0) < high
        assert high - low == pytest.approx(0.01, rel=1e-6)

    def test_degenerate_window_connects_everywhere(self):
        result = shoot(ProblemParams.inner(2.0), config=ALL_CONNECT)
        entries = result.classifications[:ALL_CONNECT.scan_points]
        assert {entry.verdict for entry in entries} == {Verdict.CONNECT}
        assert result.bracket_history == ()


class TestShoot:
    @pytest.mark.parametrize("p", (2.0, 3.0, 4.0))
    def test_recovers_closed_form_amplitude(self, p, default_shoots):
        result = default_shoots[p]
        assert result.converged
        assert abs(result.a_star - spike_amplitude(p)) < 1e-9
        assert result.bc_residual <= result.config.eta
        assert abs(result.signed_bc_residual) <= result.bc_residual
        assert result.trajectory.terminal_event is TerminalEvent.REACHED_END
        assert result.trajectory.samples[-1][0] == result.config.rho_l

    def test_run_log_ends_at_the_answer(self, default_shoots):
        # The window's centre connects, so the scan ends the search.
        result = default_shoots[2.0]
        assert len(result.classifications) == 41
        assert result.classifications[20][:2] == (result.a_star, Verdict.CONNECT)
        low, high = result.bracket_history[0]
        assert high - low == pytest.approx(0.01, rel=1e-6)

    def test_bisection_halves_until_tolerance(self):
        # A boundary tolerance no finite horizon can meet keeps the verdicts
        # binary, so refinement must run the bracket all the way down.
        config = ShootingConfig(eta=1e-6)
        result = shoot(ProblemParams.inner(2.0), config=config)
        history = result.bracket_history
        assert len(history) >= 20
        w0 = history[0][1] - history[0][0]
        for k, (low, high) in enumerate(history):
            assert abs((high - low) - w0 * 0.5**k) <= 1e-13
        final_width = history[-1][1] - history[-1][0]
        assert final_width <= 2.0 * config.refine_tol
        assert abs(result.a_star - 1.5) < 1e-9
        assert not result.converged

    @pytest.mark.parametrize("p", (2.0, 2.5, 3.0, 4.0))
    def test_amplitude_error_within_truncation_envelope(self, p):
        # The far-field decay rate is 1, so truncating at rho_l admits an
        # amplitude error of order e**(-rho_l) on top of the bisection width.
        result = shoot(ProblemParams.inner(p))
        bound = 10.0 * math.exp(-result.config.rho_l) + result.config.refine_tol
        assert result.converged
        assert abs(result.a_star - spike_amplitude(p)) <= bound

    @pytest.mark.parametrize("p", (2.0, 3.0, 4.0))
    def test_short_horizon_still_meets_the_acceptance_band(self, p):
        result = shoot(ProblemParams.inner(p), config=ShootingConfig(rho_l=10.0))
        assert result.converged
        assert abs(result.a_star - spike_amplitude(p)) < 1e-4
        assert result.bc_residual <= 0.01

    def test_degenerate_window_returns_best_connect(self):
        result = shoot(ProblemParams.inner(2.0), config=ALL_CONNECT)
        assert result.converged
        assert abs(result.a_star - 1.5) <= 2e-6

    def test_degenerate_window_integrates_each_scan_point_once(self, monkeypatch):
        # The best connecting scan point is the final run, not run again.
        amplitudes = []
        real_integrate = shooting_mod.integrate

        def counting_integrate(initial, *args, **kwargs):
            amplitudes.append(initial.u)
            return real_integrate(initial, *args, **kwargs)

        monkeypatch.setattr(shooting_mod, "integrate", counting_integrate)
        result = shoot(ProblemParams.inner(2.0), config=ALL_CONNECT)
        assert len(amplitudes) == ALL_CONNECT.scan_points == 41
        assert len(result.classifications) == 41
        best = min(result.classifications, key=lambda entry: entry.bc_residual)
        assert best.verdict is Verdict.CONNECT
        assert result.a_star == best.a
        assert result.bc_residual == best.bc_residual

    @pytest.mark.parametrize("p", (1.01, 1.2, 2.0, 3.0, 4.0, 10.0, 100.0))
    def test_each_integration_is_logged_once(self, p, monkeypatch):
        # No amplitude is integrated twice, and the log lists every run in order.
        amplitudes = []
        real_integrate = shooting_mod.integrate

        def recording_integrate(initial, *args, **kwargs):
            amplitudes.append(initial.u)
            return real_integrate(initial, *args, **kwargs)

        monkeypatch.setattr(shooting_mod, "integrate", recording_integrate)
        result = shoot(ProblemParams.inner(p))
        assert len(set(amplitudes)) == len(amplitudes)
        assert amplitudes == [entry.a for entry in result.classifications]
        if p not in (1.01, 100.0):
            # The window's centre connects, so the answer is a scan point.
            scan = result.classifications[:result.config.scan_points]
            assert result.a_star in [entry.a for entry in scan]

    def test_no_bracket_and_no_connect_raises(self, monkeypatch):
        stub = integrate(State(1.5, 0.0), 0.0, 0.5, 2.0)

        def always_overshoot(*args, **kwargs):
            return Shot(Verdict.OVERSHOOT, stub)

        monkeypatch.setattr(shooting_mod, "classify", always_overshoot)
        with pytest.raises(NoBracketError) as excinfo:
            shoot(ProblemParams.inner(2.0))
        entries = excinfo.value.classifications
        assert len(entries) == 41
        assert {entry.verdict for entry in entries} == {Verdict.OVERSHOOT}

    def test_integrator_config_passthrough(self):
        tight = IntegratorConfig(rel_tol=1e-11)
        result = shoot(ProblemParams.inner(2.0), integrator_config=tight)
        assert result.integrator_config is tight
        assert result.converged


class TestStopAtTurn:
    """A classification run ends at its first event, and the event is the verdict."""

    # The window dips below the centre u = 1 at p = 50 and 100.
    @pytest.mark.parametrize("p", (1.2, 2.0, 10.0, 50.0, 100.0))
    def test_verdict_matches_the_full_run(self, p):
        # H is conserved, so the energy of the start decides where the full
        # orbit goes: inside the homoclinic loop (H < 0) it turns at u > 0,
        # outside it (H > 0) it crosses u = 0.  The spike itself, the
        # window's centre, has H = 0 to rounding and is skipped.
        config = ShootingConfig()
        amp = spike_amplitude(p)
        step = 2.0 * config.delta / (config.scan_points - 1)
        window = [amp - config.delta + i * step for i in range(config.scan_points)]
        far = [0.5 * amp, 0.8 * amp, 1.1 * amp, 1.2 * amp]
        checked = 0
        for a in window + far:
            energy = hamiltonian(State(a, 0.0), p)
            if abs(energy) <= 1e-12:
                continue
            checked += 1
            shot = classify(a, p, config.rho_l, eta=config.eta)
            expected = Verdict.UNDERSHOOT if energy < 0.0 else Verdict.OVERSHOOT
            assert shot.verdict is expected, a
            event = shot.trajectory.terminal_event
            if event is TerminalEvent.TURNED:
                assert shot.verdict is Verdict.UNDERSHOOT, a
            elif event is TerminalEvent.U_CROSSED_ZERO:
                assert shot.verdict is Verdict.OVERSHOOT, a
        assert checked == len(window) + len(far) - 1

    @pytest.mark.parametrize("p", (1.01, 1.2, 2.0, 4.0, 10.0, 100.0))
    def test_the_reported_run_never_climbs(self, p):
        # The spike only descends from its peak; a run that turned and
        # climbed back would report the wrong branch of the orbit.
        samples = shoot(ProblemParams.inner(p)).trajectory.samples
        assert all(state.v <= 0.0 for _, state in samples[1:-1])
        # A run that ends at a turn, located to EVENT_LOCATION_TOL in rho,
        # has v = 0 there only to within |v'| * EVENT_LOCATION_TOL <= u * 1e-10.
        end = samples[-1][1]
        assert end.v <= EVENT_LOCATION_TOL * end.u

    def test_a_start_below_the_centre_stops_at_its_maximum(self):
        # Run on past its maximum, the orbit would circle the centre to
        # rho_l (2,808 steps) and reach the same verdict through the energy.
        shot = classify(0.98, 100.0, 12.0)
        assert shot.verdict is Verdict.UNDERSHOOT
        assert shot.trajectory.terminal_event is TerminalEvent.TURNED
        assert shot.trajectory.end[1].u > 0.98
        assert shot.trajectory.accepted_steps < 400


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
        assert result.a_star == default_shoots[3.0].a_star
        peak = result.params.peak_rho
        (u,), (v,) = eval_profile_grid(result, [peak])
        assert u == result.a_star
        assert v == 0.0
        (u,), (v,) = eval_profile_grid(result, [peak - 2.0])
        assert v > 0.0
        assert u == pytest.approx(eval_spike_rho(result.params, peak - 2.0), abs=1e-7)
        with pytest.raises(ValueError):
            eval_profile_grid(result, [peak + 0.1])

    @pytest.mark.parametrize("kind", ("inner", "boundary"))
    @pytest.mark.parametrize("rho", (-20.0, math.nan))
    def test_range_error_names_the_grid_point(self, default_shoots, kind, rho):
        # The trajectory is read at the distance from the peak (30 for a
        # boundary spike at rho = 10); the error names the point given.
        result = default_shoots[3.0] if kind == "inner" else shoot(ProblemParams.boundary(3.0))
        with pytest.raises(ValueError, match=f"^rho={rho!r} lies outside the integrated span"):
            eval_profile_grid(result, [result.params.peak_rho - 1.0, rho])

    @pytest.mark.parametrize("kind", ("inner", "boundary"))
    @pytest.mark.parametrize("p", (1.2, 2.0, 100.0))
    def test_grid_form_matches_one_point_bit_for_bit(self, p, kind):
        factory = ProblemParams.inner if kind == "inner" else ProblemParams.boundary
        result = shoot(factory(p))
        peak, reach = result.params.peak_rho, result.trajectory.end[0]
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


class TestConfigValidation:
    def test_defaults(self):
        config = ShootingConfig()
        assert config.delta == 0.1
        assert config.eta == 0.01
        assert config.rho_l == DEFAULT_RHO_L == 12.0
        assert config.scan_points == 41
        assert config.refine_tol == 1e-10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta": 0.0},
            {"eta": -1.0},
            {"rho_l": 0.0},
            {"scan_points": 2},
            {"refine_tol": 0.0},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ShootingConfig(**kwargs)
