"""End-to-end acceptance checks for the delivered behavior.

Each test covers one shipped guarantee at its stated tolerance and prints a
single PASS line with the measured figure once its assertions hold.
"""

import filecmp
import time

import numpy as np
from ansatz_reference import derive_ansatz_constants, eval_ansatz

from gmspike import (
    EVENT_LOCATION_TOL,
    IntegratorConfig,
    ProblemParams,
    State,
    TerminalEvent,
    check_first_integral,
    eval_spike_rho,
    hamiltonian,
    integrate,
    ode,
    ode_residual,
    shoot,
    shooting,
    spike_amplitude,
)

SWEEP_CASES = tuple(
    (p, kind) for p in ("2", "3", "4") for kind in ("inner", "boundary")
)


def test_closed_form_reduces_to_the_sech_square_profile():
    params = ProblemParams.inner(2.0)
    start = time.perf_counter()
    err = max(
        abs(eval_spike_rho(params, r) - 1.5 / np.cosh(r / 2.0) ** 2)
        for r in np.linspace(-10.0, 10.0, 401)
    )
    elapsed = time.perf_counter() - start
    assert err < 1e-12
    assert elapsed < 1.0
    print(f"PASS closed form vs (3/2)sech^2(rho/2): max abs err {err:.3e} < 1e-12")


def test_closed_form_satisfies_the_profile_equation():
    worst = 0.0
    grid = np.linspace(-10.0, 10.0, 401)
    start = time.perf_counter()
    for p in (2.0, 2.5, 3.0, 4.0, 10.0):
        residual = ode_residual(ProblemParams.inner(p), grid)
        worst = max(worst, max(abs(r) for r in residual))
    elapsed = time.perf_counter() - start
    assert worst < 1e-13
    assert elapsed < 1.0
    # Relative to u, out to where u nears the smallest normal double.
    worst_rel = 0.0
    wide = np.linspace(-700.0, 700.0, 2801)
    for p in (1.01, 1.2, 2.0, 3.0, 4.0, 10.0, 100.0):
        us = []
        residual = ode_residual(ProblemParams.inner(p), wide, profile=us)
        worst_rel = max(worst_rel, max(abs(r) / u for r, u in zip(residual, us)))
    assert worst_rel <= 1e-12
    print(
        f"PASS profile equation residual over p grid: max {worst:.3e} < 1e-13,"
        f" max |residual|/u {worst_rel:.3e} <= 1e-12 on [-700, 700]"
    )


def test_ansatz_is_invariant_under_the_free_scale_factor():
    grid = np.linspace(-10.0, 10.0, 401)
    worst = 0.0
    for p in (2.0, 3.0, 4.0):
        columns = [
            [eval_ansatz(derive_ansatz_constants(p, q), r) for r in grid]
            for q in (0.01, 1.0, 100.0)
        ]
        for i in range(len(columns)):
            for j in range(i + 1, len(columns)):
                for a, b in zip(columns[i], columns[j]):
                    worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    assert worst <= 1e-12
    print(f"PASS scale-factor invariance: max pairwise rel dev {worst:.3e} <= 1e-12")


def test_shooting_recovers_the_closed_form_amplitude_quickly():
    start = time.perf_counter()
    results = {p: shoot(ProblemParams.inner(p)) for p in (2.0, 3.0, 4.0)}
    elapsed = time.perf_counter() - start
    worst_gap = 0.0
    worst_residual = 0.0
    for p, result in results.items():
        assert result.converged
        worst_gap = max(worst_gap, abs(result.a_star - spike_amplitude(p)))
        worst_residual = max(worst_residual, result.bc_residual)
    assert worst_gap < 1e-10
    assert worst_residual <= 1e-6
    assert elapsed < 10.0
    print(
        f"PASS shooting amplitudes: max |a*-amp| {worst_gap:.3e} < 1e-10, "
        f"max residual {worst_residual:.3e} <= 1e-6, {elapsed:.2f}s < 10s"
    )


def test_sweep_artifacts_meet_the_error_budget(sweep_dirs):
    out = sweep_dirs[0]
    worst = 0.0
    for p, kind in SWEEP_CASES:
        lines = (out / f"compare_p{p}_{kind}.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 401
        worst = max(worst, max(float(row[4]) for row in rows))
        if kind == "boundary":
            # The spike must sit on the right wall with a flat profile there.
            assert float(rows[-1][0]) == 10.0
            assert abs(float(rows[-1][3])) <= 1e-9
            amp = spike_amplitude(float(p))
            assert abs(float(rows[-1][2]) - amp) < 1e-10
    assert worst <= 1e-9
    print(f"PASS sweep artifacts: max abs err over 6 cases {worst:.3e} <= 1e-9")


def test_first_integral_drift_is_bounded_and_tolerance_driven(default_shoots):
    accepted = default_shoots[2.0]
    drift = check_first_integral(accepted.trajectory, 2.0)
    halved = IntegratorConfig(rel_tol=5e-11, abs_tol=5e-13)
    tight_run = shoot(ProblemParams.inner(2.0), integrator_config=halved)
    tight = check_first_integral(tight_run.trajectory, 2.0)
    assert drift <= 1e-10
    assert tight < drift
    print(
        f"PASS first-integral drift {drift:.3e} <= 1e-10, "
        f"halved tolerances give {tight:.3e}"
    )


def test_sides_of_the_peak_and_bracket_halving(monkeypatch):
    # Sides of the peak: from rest above the spike height a run crosses
    # u = 0, from below it turns, and the shoot's one run ends at the peak
    # between them.
    assert integrate(State(1.6, 0.0), 0.0, 12.0, 2.0).terminal_event is (
        TerminalEvent.U_CROSSED_ZERO
    )
    assert integrate(State(1.4, 0.0), 0.0, 12.0, 2.0).terminal_event is TerminalEvent.TURNED
    # Halving: the peak is bisected on the last step's dense interpolant,
    # which a shoot reads for nothing else.
    thetas = []
    real_dense = ode._dense

    def recording_dense(c, theta):
        thetas.append(theta)
        return real_dense(c, theta)

    monkeypatch.setattr(ode, "_dense", recording_dense)
    result = shoot(ProblemParams.inner(2.0))
    assert result.trajectory.terminal_event is TerminalEvent.TURNED
    assert abs(result.a_star - 1.5) < 1e-10
    halvings = thetas[:-1]
    for k, (before, after) in enumerate(zip(halvings, halvings[1:])):
        assert abs(after - before) == 0.5 ** (k + 2)
    h = result.trajectory.steps[-1][1]
    final = 0.5 ** len(halvings) * h
    assert final <= EVENT_LOCATION_TOL
    print(
        f"PASS verdicts cross/turn at 1.6/1.4, run ends at the peak 1.5; peak "
        f"bracket halved {len(halvings)} times from {h:.2e} to {final:.2e}"
    )


def test_one_inward_run_goes_from_the_spike_orbit_to_the_peak(monkeypatch):
    calls = []
    real_integrate = shooting.integrate

    def counting_integrate(*args, **kwargs):
        calls.append(args)
        return real_integrate(*args, **kwargs)

    monkeypatch.setattr(shooting, "integrate", counting_integrate)
    worst_energy = 0.0
    for p in (1.01, 1.2, 2.0, 4.0, 10.0, 100.0):
        result = shoot(ProblemParams.inner(p))
        start = result.trajectory.samples[0][1]
        worst_energy = max(worst_energy, abs(hamiltonian(start, p)) / start.u**2)
        assert result.trajectory.terminal_event is TerminalEvent.TURNED
    assert worst_energy <= 1e-13
    assert len(calls) == 6
    print(
        f"PASS one integration per shoot over 6 exponents, each ending at its peak; "
        f"start |H| / u0^2 {worst_energy:.3e} <= 1e-13"
    )


def test_sweep_reruns_are_byte_identical(sweep_dirs):
    names = [f"compare_p{p}_{kind}.csv" for p, kind in SWEEP_CASES] + ["summary.csv"]
    match, mismatch, errors = filecmp.cmpfiles(
        sweep_dirs[0], sweep_dirs[1], names, shallow=False
    )
    assert sorted(match) == sorted(names)
    assert mismatch == []
    assert errors == []
    print(f"PASS deterministic artifacts: {len(names)} files byte-identical on rerun")
