"""Cross-checks between the closed form and the numerical solver."""

import math

import numpy as np
import pytest
from phase_plane import energy, uv

from gmspike import (
    IntegratorConfig,
    LogState,
    ProblemParams,
    check_first_integral,
    compare,
    eval_spike_rho,
    eval_spike_second_derivative,
    ode_residual,
    shoot,
    shooting,
    spike_amplitude,
)

P_VALUES = (2.0, 2.5, 3.0, 4.0, 10.0)


def fd_second_derivative(params: ProblemParams, rho: float, h: float = 1e-4) -> float:
    """O(h**2) central-difference second derivative of the closed form."""
    if not (h > 0.0):
        raise ValueError("h must be positive")
    um, u0, up = eval_spike_rho(params, [rho - h, rho, rho + h])
    return (up - 2.0 * u0 + um) / (h * h)


def fd_residual(params: ProblemParams, rho: float, h: float = 1e-4) -> float:
    """Residual with the second derivative replaced by finite differences."""
    (u,) = eval_spike_rho(params, [rho])
    return fd_second_derivative(params, rho, h) - u + math.pow(u, params.p)


class TestOdeResidual:
    @pytest.mark.parametrize("p", P_VALUES)
    def test_closed_form_solves_the_profile_equation(self, p):
        params = ProblemParams.inner(p)
        grid = np.linspace(-10.0, 10.0, 401)
        residual = ode_residual(params, grid)
        assert len(residual) == 401
        assert max(abs(r) for r in residual) < 1e-12

    def test_boundary_frame_is_just_a_shift(self):
        params = ProblemParams.boundary(3.0)
        grid = np.linspace(params.peak_rho - 10.0, params.peak_rho, 101)
        residual = ode_residual(params, grid)
        assert max(abs(r) for r in residual) < 1e-12

    def test_random_exponents_stay_below_budget(self):
        rng = np.random.default_rng(7)
        exponents = rng.uniform(1.01, 20.0, size=50)
        grid = rng.uniform(-10.0, 10.0, size=100)
        for p in exponents:
            residual = ode_residual(ProblemParams.inner(float(p)), grid)
            assert max(abs(r) for r in residual) < 1e-9

    def test_p2_agrees_with_the_sech_square_form(self):
        # Hand-differentiated residual of (3/2) sech^2(rho/2), kept separate
        # from the library's second-derivative formula.
        def sech_square_residual(rho):
            y = rho / 2.0
            sech2 = 1.0 / math.cosh(y) ** 2
            u = 1.5 * sech2
            upp = -0.75 * sech2 * (sech2 - 2.0 * math.tanh(y) ** 2)
            return upp - u + u * u

        grid = np.linspace(-10.0, 10.0, 401)
        own = ode_residual(ProblemParams.inner(2.0), grid)
        for rho, r in zip(grid, own):
            assert abs(sech_square_residual(rho)) < 1e-12
            assert abs(sech_square_residual(rho) - r) < 1e-12


class TestFiniteDifferences:
    @pytest.mark.parametrize("p", (2.0, 3.0, 7.0))
    def test_fd_second_derivative_agrees(self, p):
        params = ProblemParams.inner(p)
        rhos = (-3.0, -0.5, 0.9, 2.2)
        _, upps = eval_spike_second_derivative(params, rhos)
        for rho, upp in zip(rhos, upps):
            assert fd_second_derivative(params, rho) == pytest.approx(upp, abs=1e-7)

    def test_fd_residual_is_small(self):
        params = ProblemParams.inner(2.0)
        for rho in (-4.0, -1.0, 0.3, 1.8, 5.0):
            assert abs(fd_residual(params, rho)) < 1e-7

    def test_fd_residual_second_order_in_h(self):
        params = ProblemParams.inner(3.0)
        errors = [abs(fd_residual(params, 1.1, h=h)) for h in (0.04, 0.02, 0.01, 0.005)]
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 < coarse / fine < 4.5


class TestCompare:
    def test_report_fields(self, default_shoots):
        grid = np.linspace(-10.0, 10.0, 201)
        report = compare(default_shoots[2.0], grid)
        assert len(report.grid) == len(report.analytic) == len(report.numeric) == 201
        assert report.max_abs_err < 1e-6
        assert 0.0 < report.l2_err <= report.max_abs_err
        diffs = [abs(a - n) for a, n in zip(report.analytic, report.numeric)]
        assert report.abs_err == diffs
        assert report.max_abs_err == max(diffs)
        assert report.points == 201

    def test_l2_err_adds_the_squares_left_to_right(self, default_shoots):
        # On the sweep's p = 2 inner grid, 401 points over [-10, 10], a
        # compensated sum (as sum() is from Python 3.12 on) ends one ulp higher.
        # Both pins are the bits of the run in log coordinates, with its peak
        # located to rounding; the (u, v) run's were 7.944897966529032e-12
        # and ...034e-12.
        grid = [i * 0.05 - 10.0 for i in range(400)] + [10.0]
        report = compare(default_shoots[2.0], grid)
        squares = [(a - n) * (a - n) for a, n in zip(report.analytic, report.numeric)]
        total = 0.0
        for square in squares:
            total += square
        assert report.l2_err == math.sqrt(total / 401) == 1.4459194672931364e-11
        assert math.sqrt(math.fsum(squares) / 401) == 1.4459194672931367e-11

    def test_numeric_columns_share_the_symmetry(self, default_shoots):
        report = compare(default_shoots[2.0], [-2.0, 2.0])
        assert report.numeric[0] == report.numeric[1]
        assert report.numeric_v[0] == -report.numeric_v[1]

    def test_boundary_grid_ends_at_the_wall(self, default_shoots):
        params = ProblemParams.boundary(3.0)
        result = shoot(params)
        grid = np.linspace(params.peak_rho - 10.0, params.peak_rho, 101)
        report = compare(result, grid)
        assert report.grid[-1] == params.peak_rho
        assert report.numeric[-1] == result.a_star
        assert report.numeric_v[-1] == 0.0
        assert report.max_abs_err < 1e-6

    def test_single_point_grid_recovers_the_definitions(self, default_shoots):
        result = default_shoots[2.0]
        report = compare(result, [0.0])
        assert report.analytic[0] == spike_amplitude(2.0)
        assert report.numeric[0] == result.a_star
        assert report.numeric_v[0] == 0.0
        assert report.max_abs_err == abs(report.analytic[0] - report.numeric[0])

    @pytest.mark.parametrize(
        "kind, offsets",
        [
            # One interior point of an unsorted grid beyond the span ...
            ("inner", (0.5, -3.0, 30.0, 2.0, -1.0)),
            ("inner", (0.5, -30.0, 3.0, -1.0)),
            ("boundary", (-1.0, -4.0, -30.0, -2.0)),
            # ... or past the wall ...
            ("boundary", (-1.0, -4.0, 0.5, -2.0)),
            # ... or NaN, whose error max() would skip.
            ("inner", (0.0, math.nan)),
            ("boundary", (-1.0, math.nan)),
        ],
    )
    def test_rejects_any_point_out_of_reach(self, default_shoots, kind, offsets):
        if kind == "inner":
            result = default_shoots[3.0]
        else:
            result = shoot(ProblemParams.boundary(3.0))
        grid = [result.params.peak_rho + offset for offset in offsets]
        with pytest.raises(ValueError):
            compare(result, grid)

    def test_rejects_empty_grid(self, default_shoots):
        with pytest.raises(ValueError):
            compare(default_shoots[2.0], [])


def _from_rest(a, span, config=IntegratorConfig()):
    """The shoot's field run at p = 2 from (a, 0), (ln a, 0) in log coordinates."""
    return shooting.integrate(LogState(math.log(a), 0.0), 0.0, span, 2.0, config)


class TestFirstIntegral:
    def test_equilibrium_has_zero_drift(self):
        assert check_first_integral(_from_rest(1.0, 5.0), 2.0) == 0.0

    def test_matches_direct_evaluation(self):
        trajectory = _from_rest(spike_amplitude(2.0), 6.0)
        reported = check_first_integral(trajectory, 2.0)
        h0 = energy(*uv(trajectory.samples[0][1]), 2.0)
        manual = max(abs(energy(*uv(state), 2.0) - h0) for _, state in trajectory.samples)
        assert reported == manual
        assert reported < 1e-8

    def test_drift_responds_to_tolerances(self):
        amp = spike_amplitude(2.0)
        loose = _from_rest(amp, 10.0)
        tight = _from_rest(amp, 10.0, IntegratorConfig(rel_tol=5e-11, abs_tol=5e-13))
        assert check_first_integral(tight, 2.0) < check_first_integral(loose, 2.0)

    def test_off_level_orbit_also_conserves(self):
        trajectory = _from_rest(1.4, 20.0)
        assert check_first_integral(trajectory, 2.0) < 1e-8
