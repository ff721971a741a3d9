"""Checks for the closed-form spike profile, and for the paper's generalized-cosh
ansatz (test reference code in ``ansatz_reference``) against it."""

import decimal
import math
import sys

import numpy as np
import pytest
from ansatz_reference import AnsatzConstants, derive_ansatz_constants, eval_ansatz

from gmspike import (
    ProblemParams,
    SpikeKind,
    eval_spike_derivative,
    eval_spike_rho,
    eval_spike_second_derivative,
    ode_residual,
    spike_amplitude,
)

P_VALUES = (2.0, 2.5, 3.0, 4.0, 10.0)


def profile_direct(p, rho):
    """Textbook form of the profile, safe only for moderate rho."""
    return ((1.0 + np.cosh((p - 1.0) * rho)) / (1.0 + p)) ** (1.0 / (1.0 - p))


class TestSpikeAmplitude:
    @pytest.mark.parametrize(
        "p, expected",
        [
            (2.0, 1.5),
            (3.0, math.sqrt(2.0)),
            (4.0, 2.5 ** (1.0 / 3.0)),
        ],
    )
    def test_known_values(self, p, expected):
        assert spike_amplitude(p) == pytest.approx(expected, rel=1e-15)

    def test_decreasing_in_p(self):
        values = [spike_amplitude(p) for p in np.linspace(1.5, 20.0, 50)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_matches_peak_of_profile(self):
        for p in P_VALUES:
            params = ProblemParams.inner(p)
            (peak,) = eval_spike_rho(params, [0.0])
            assert peak == pytest.approx(spike_amplitude(p), rel=1e-14)


class TestProblemParams:
    def test_inner_defaults(self):
        params = ProblemParams.inner(2.0)
        assert params.kind is SpikeKind.INNER
        assert params.peak_rho == 0.0
        assert params.epsilon == 0.1
        assert params.half_length == 1.0

    def test_boundary_peak_location(self):
        params = ProblemParams.boundary(3.0, epsilon=0.05, half_length=2.0)
        assert params.kind is SpikeKind.BOUNDARY
        assert params.peak_rho == pytest.approx(40.0, rel=1e-15)

    @pytest.mark.parametrize(
        "epsilon, half_length", [(0.1, 1.0), (0.05, 2.0), (0.3, 0.7), (1e-3, 1e300)]
    )
    def test_boundary_peak_is_the_edge_bit_for_bit(self, epsilon, half_length):
        params = ProblemParams.boundary(3.0, epsilon, half_length)
        assert params.peak_rho == half_length / epsilon

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p": 1.0},
            {"p": 150.0},
            {"p": 2.0, "epsilon": 0.0},
            {"p": 2.0, "epsilon": 1.5},
            {"p": 2.0, "half_length": 0.0},
            {"p": 2.0, "kind": "boundary"},
            # The domain edge half_length / epsilon overflows to inf.
            {"p": 2.0, "epsilon": 1e-3, "half_length": 1e308},
            {"p": 2.0, "epsilon": 1e-3, "half_length": 1e308, "kind": SpikeKind.BOUNDARY},
            # A field of the wrong type is a bad field, not a TypeError.
            {"p": "2"},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ProblemParams(**kwargs)
        with pytest.raises(ValueError):
            ProblemParams.inner(2.0)._replace(**kwargs)


class TestClosedForm:
    def test_reduces_to_sech_square_for_p2(self):
        params = ProblemParams.inner(2.0)
        rho = np.linspace(-10.0, 10.0, 2001)
        u = np.array(eval_spike_rho(params, rho))
        reference = 1.5 / np.cosh(rho / 2.0) ** 2
        np.testing.assert_allclose(u, reference, rtol=0.0, atol=5e-15)

    @pytest.mark.parametrize("p", P_VALUES)
    def test_matches_direct_formula(self, p):
        params = ProblemParams.inner(p)
        rng = np.random.default_rng(42)
        rho = rng.uniform(-30.0, 30.0, size=200)
        u = np.array(eval_spike_rho(params, rho))
        np.testing.assert_allclose(u, profile_direct(p, rho), rtol=1e-13)

    @pytest.mark.parametrize("p", P_VALUES)
    def test_even_about_peak(self, p):
        params = ProblemParams.inner(p)
        rho = [0.3, 1.7, 5.0, 24.0]
        assert eval_spike_rho(params, rho) == eval_spike_rho(params, [-r for r in rho])

    def test_even_about_shifted_peak(self):
        params = ProblemParams.boundary(3.0)
        peak = params.peak_rho
        assert peak == pytest.approx(10.0)
        at_peak, left, right = eval_spike_rho(params, [peak, peak - 2.0, peak + 2.0])
        assert at_peak == pytest.approx(spike_amplitude(3.0), rel=1e-14)
        assert left == right

    @pytest.mark.parametrize("p", P_VALUES)
    def test_monotone_decay(self, p):
        params = ProblemParams.inner(p)
        rho = np.linspace(0.0, 40.0, 400)
        u = eval_spike_rho(params, rho)
        assert all(a > b for a, b in zip(u, u[1:]))

    @pytest.mark.parametrize("p", (2.0, 10.0))
    def test_tail_underflows_to_zero_without_nan(self, p):
        params = ProblemParams.inner(p)
        near, far, very_far = eval_spike_rho(params, [600.0, 720.0, 1e6])
        assert near > 0.0
        assert far == very_far == 0.0
        assert math.isfinite(eval_spike_derivative(params, [1e6])[0])


class TestDerivatives:
    def test_frozen_value_p2(self):
        # Independent route: d/drho of (3/2) sech^2(rho / 2) at rho = 2.
        params = ProblemParams.inner(2.0)
        oracle = -1.5 / math.cosh(1.0) ** 2 * math.tanh(1.0)
        (du,) = eval_spike_derivative(params, [2.0])
        assert du == pytest.approx(oracle, rel=1e-14)
        assert du == pytest.approx(-0.4797750063369184, rel=1e-14)

    @pytest.mark.parametrize("p", P_VALUES)
    def test_odd_about_peak(self, p):
        params = ProblemParams.inner(p)
        assert eval_spike_derivative(params, [0.0]) == [0.0]
        rho = [0.4, 2.1, 6.0]
        for left, right in zip(
            eval_spike_derivative(params, [-r for r in rho]), eval_spike_derivative(params, rho)
        ):
            assert right < 0.0
            assert left == pytest.approx(-right, rel=1e-14)

    @pytest.mark.parametrize("p", (2.0, 3.0, 10.0))
    def test_matches_central_difference_everywhere(self, p):
        params = ProblemParams.inner(p)
        h = 1e-6
        rho = np.linspace(-8.0, 8.0, 161)
        fd = (np.array(eval_spike_rho(params, rho + h)) - eval_spike_rho(params, rho - h)) / (
            2.0 * h
        )
        np.testing.assert_allclose(fd, eval_spike_derivative(params, rho), rtol=0.0, atol=1e-7)

    @pytest.mark.parametrize("p", (2.0, 3.0, 4.5))
    def test_first_derivative_fd_convergence(self, p):
        params = ProblemParams.inner(p)
        rho = 1.3
        (exact,) = eval_spike_derivative(params, [rho])
        errors = []
        for h in (0.04, 0.02, 0.01, 0.005):
            ahead, behind = eval_spike_rho(params, [rho + h, rho - h])
            fd = (ahead - behind) / (2.0 * h)
            errors.append(abs(fd - exact))
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 < coarse / fine < 4.5
        assert errors[-1] < 1e-5

    @pytest.mark.parametrize("p", P_VALUES)
    def test_second_derivative_satisfies_profile_equation(self, p):
        params = ProblemParams.inner(p)
        us, upps = eval_spike_second_derivative(params, np.linspace(-8.0, 8.0, 81))
        for u, upp in zip(us, upps):
            assert upp == pytest.approx(u - u**p, rel=0.0, abs=1e-12)

    def test_second_derivative_fd_convergence(self):
        params = ProblemParams.inner(3.0)
        rho = 0.9
        ((u,), (exact,)) = eval_spike_second_derivative(params, [rho])
        errors = []
        for h in (0.04, 0.02, 0.01, 0.005):
            ahead, behind = eval_spike_rho(params, [rho + h, rho - h])
            fd = (ahead - 2.0 * u + behind) / h**2
            errors.append(abs(fd - exact))
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 < coarse / fine < 4.6

    @pytest.mark.parametrize("kind", ("inner", "boundary"))
    @pytest.mark.parametrize("p", (1.01, 2.0, 100.0))
    def test_far_tail_saturates_to_zero(self, p, kind):
        # Far past exp's range, where (p - 1) * |rho - peak| overflows to inf
        # at p = 100: u, u', u'' and the residual are exactly 0, never NaN.
        params = ProblemParams.inner(p) if kind == "inner" else ProblemParams.boundary(p)
        far = (1e306, 1e307, 1e308, sys.float_info.max)
        rhos = [sign * r for r in far for sign in (1.0, -1.0)]
        zeros = [0.0] * len(rhos)
        us, upps = eval_spike_second_derivative(params, rhos)
        assert us == upps == eval_spike_rho(params, rhos) == zeros
        assert eval_spike_derivative(params, rhos) == zeros
        assert ode_residual(params, rhos) == zeros

    @pytest.mark.parametrize("p", (1.01, 2.0, 100.0))
    def test_finite_next_to_the_peak(self, p):
        # Here exp(-t) is 1 or a few ulps below it: u' keeps its sign and its
        # digits through expm1, and u'' is -(p - 1) * u / 2 to rounding.
        params = ProblemParams.inner(p)
        rhos = [1e-17, -1e-17]
        us, upps = eval_spike_second_derivative(params, rhos)
        for rho, du, u, upp in zip(rhos, eval_spike_derivative(params, rhos), us, upps):
            assert math.isfinite(du) and du != 0.0
            assert math.copysign(1.0, du) == -math.copysign(1.0, rho)
            assert upp < 0.0
            assert upp == pytest.approx(u - u**p, rel=1e-12)


REFERENCE_P = (1.01, 1.2, 2.0, 3.0, 4.0, 10.0, 100.0)
# Next to the peak, through the shoulder, and out to where u nears the
# smallest normal double.
REFERENCE_RHOS = (0.0, 1e-17, 1e-9, 1e-3, 0.1, 0.5) + tuple(
    1.0 + 699.0 * k / 43 for k in range(44)
)


def decimal_reference(p, peak, rho):
    """u, u' and u'' at 40 digits: u through exp and ln of the closed form,
    u' = -sinh(t) * u**p / (p + 1) with t = (p - 1)(rho - peak) signed, and
    u'' = u - u**p.  Every float input is taken at its exact binary value."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        p, delta = decimal.Decimal(p), decimal.Decimal(rho) - decimal.Decimal(peak)
        t = (p - 1) * delta
        w = (-abs(t)).exp()
        log_u = ((2 * (p + 1)).ln() - 2 * (1 + w).ln()) / (p - 1) - abs(delta)
        u, u_p = log_u.exp(), (p * log_u).exp()
        sinh = (t.exp() - (-t).exp()) / 2
        return float(u), float(-sinh * u_p / (p + 1)), float(u - u_p)


class TestHighPrecisionReference:
    """u' and u'' against a 40-digit reference, to within u's own rounding."""

    @pytest.mark.parametrize("kind", ("inner", "boundary"))
    @pytest.mark.parametrize("p", REFERENCE_P)
    def test_derivatives_match_to_rounding(self, p, kind):
        params = ProblemParams.inner(p) if kind == "inner" else ProblemParams.boundary(p)
        us, upps = eval_spike_second_derivative(params, REFERENCE_RHOS)
        dus = eval_spike_derivative(params, REFERENCE_RHOS)
        for rho, u, du, upp in zip(REFERENCE_RHOS, us, dus, upps):
            ref_u, ref_du, ref_upp = decimal_reference(p, params.peak_rho, rho)
            assert ref_u > sys.float_info.min
            assert abs(u - ref_u) <= 2e-13 * ref_u, rho
            assert abs(du - ref_du) <= 2e-13 * ref_u, rho
            assert abs(upp - ref_upp) <= 2e-13 * ref_u, rho


def reference_log_profile(p, dist):
    """log u as the closed form was evaluated one point per call."""
    t = (p - 1.0) * dist
    return (math.log(2.0 * (p + 1.0)) - 2.0 * math.log1p(math.exp(-t))) / (p - 1.0) - dist


def reference_exp(log_value):
    return 0.0 if log_value < math.log(sys.float_info.min) else math.exp(log_value)


def reference_second_derivative(p, dist):
    """u * ((1 - w)**2 - 2 (p - 1) w) / (1 + w)**2, w = exp(-(p - 1) * dist), written out."""
    w = math.exp(-((p - 1.0) * dist))
    u = reference_exp(reference_log_profile(p, dist))
    return u * ((1.0 - w) * (1.0 - w) - 2.0 * (p - 1.0) * w) / ((1.0 + w) * (1.0 + w))


def same_bits(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


class TestGridForms:
    """Grid evaluators against one-point grids and the per-point formulas written out."""

    # Unsorted offsets from the peak: the peak itself, signed zeros, points
    # where exp(-2t) rounds to 1, and a far field where u underflows.
    OFFSETS = (0.37, 0.0, -0.0, 1e-17, -1e-17, 720.0, -3.3, 1.234567, -720.0, 25.0, 5e-324)

    @pytest.mark.parametrize("kind", ("inner", "boundary"))
    @pytest.mark.parametrize("p", (1.01, 1.2, 2.0, 3.0, 100.0))
    def test_match_one_point_forms_bit_for_bit(self, p, kind):
        params = ProblemParams.inner(p) if kind == "inner" else ProblemParams.boundary(p)
        peak = params.peak_rho
        grid = [peak + d for d in self.OFFSETS] + [0.0, -0.0, -peak - 2.0]
        us = eval_spike_rho(params, grid)
        pair_us, upps = eval_spike_second_derivative(params, grid)
        assert len(us) == len(pair_us) == len(upps) == len(grid)
        for rho, u, pair_u, upp in zip(grid, us, pair_us, upps):
            dist = abs(rho - peak)
            assert same_bits(u, eval_spike_rho(params, [rho])[0]), rho
            assert same_bits(u, reference_exp(reference_log_profile(p, dist))), rho
            assert same_bits(pair_u, u), rho
            assert same_bits(upp, eval_spike_second_derivative(params, [rho])[1][0]), rho
            assert same_bits(upp, reference_second_derivative(p, dist)), rho
        if p == 2.0:
            assert us[self.OFFSETS.index(720.0)] == 0.0

        profile = []
        residual = ode_residual(params, grid, profile=profile)
        assert profile == us
        expected = [upp - u + math.pow(u, p) for u, upp in zip(us, upps)]
        assert all(same_bits(r, e) for r, e in zip(residual, expected))
        assert ode_residual(params, grid) == residual


class TestAnsatz:
    @pytest.mark.parametrize("p", P_VALUES)
    @pytest.mark.parametrize("q", (0.01, 1.0, 100.0))
    def test_constant_invariants(self, p, q):
        constants = derive_ansatz_constants(p, q)
        assert constants.power * constants.k == pytest.approx(1.0, rel=1e-14)
        lhs = constants.m * constants.q * (p + 1.0) / 2.0
        assert lhs == pytest.approx(constants.amp ** (p - 1.0), rel=1e-12)
        assert constants.base == math.e

    def test_frozen_constants_p2_q2(self):
        constants = derive_ansatz_constants(2.0, 2.0)
        assert constants.power == pytest.approx(2.0, rel=1e-15)
        assert constants.k == pytest.approx(0.5, rel=1e-15)
        assert constants.amp == pytest.approx(6.0, rel=1e-14)
        assert constants.m == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize("p", P_VALUES)
    def test_scale_factor_cancels(self, p):
        rho = np.linspace(-10.0, 10.0, 201)
        baseline = np.array(
            [eval_ansatz(derive_ansatz_constants(p, 1.0), r) for r in rho]
        )
        for q in (0.01, 100.0):
            constants = derive_ansatz_constants(p, q)
            values = np.array([eval_ansatz(constants, r) for r in rho])
            np.testing.assert_allclose(values, baseline, rtol=1e-12)

    @pytest.mark.parametrize("p", (2.0, 3.0, 4.0))
    @pytest.mark.parametrize("peak", (0.0, 10.0))
    def test_matches_closed_form(self, p, peak):
        constants = derive_ansatz_constants(p, 3.7, peak_rho=peak)
        if peak == 0.0:
            params = ProblemParams.inner(p)
        else:
            params = ProblemParams.boundary(p)
        rho = np.linspace(peak - 8.0, peak + 8.0, 81)
        for r, u in zip(rho, eval_spike_rho(params, rho)):
            assert eval_ansatz(constants, r) == pytest.approx(u, rel=1e-12)

    def test_widely_spaced_scale_factors_agree(self):
        a = eval_ansatz(derive_ansatz_constants(2.0, 5.0), 1.3)
        b = eval_ansatz(derive_ansatz_constants(2.0, 0.1), 1.3)
        assert a == pytest.approx(b, rel=1e-12)

    def test_far_tail_saturates(self):
        constants = derive_ansatz_constants(2.0, 1.0)
        assert eval_ansatz(constants, 800.0) == 0.0
        assert eval_ansatz(constants, -800.0) == 0.0

    @pytest.mark.parametrize("p, q", [(2.0, 0.0), (2.0, -1.0), (0.5, 1.0)])
    def test_rejects_invalid_inputs(self, p, q):
        with pytest.raises(ValueError):
            derive_ansatz_constants(p, q)

    def test_rejects_inconsistent_constants(self):
        good = derive_ansatz_constants(2.0, 1.0)
        with pytest.raises(ValueError):
            AnsatzConstants(
                power=good.power,
                base=good.base,
                k=good.k,
                m=2.0 * good.m,
                q=good.q,
                amp=good.amp,
            )
