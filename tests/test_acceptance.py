"""End-to-end acceptance checks for the delivered behavior.

Each test covers one shipped guarantee at its stated tolerance and prints a
single PASS line with the measured figure once its assertions hold.
"""

import filecmp
import time

import numpy as np
from ansatz_reference import derive_ansatz_constants, eval_ansatz

from gmspike import (
    DEFAULT_RHO_L,
    IntegratorConfig,
    ProblemParams,
    ShootingConfig,
    Verdict,
    check_first_integral,
    classify,
    eval_spike_rho,
    ode_residual,
    shoot,
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
    assert worst < 1e-9
    assert elapsed < 1.0
    print(f"PASS profile equation residual over p grid: max {worst:.3e} < 1e-9")


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
    assert worst_gap < 1e-4
    assert worst_residual <= 0.01
    assert elapsed < 10.0
    print(
        f"PASS shooting amplitudes: max |a*-amp| {worst_gap:.3e} < 1e-4, "
        f"max residual {worst_residual:.3e} <= 1e-2, {elapsed:.2f}s < 10s"
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
            assert abs(float(rows[-1][2]) - amp) < 1e-4
    assert worst <= 1e-4
    print(f"PASS sweep artifacts: max abs err over 6 cases {worst:.3e} <= 1e-4")


def test_first_integral_drift_is_bounded_and_tolerance_driven(default_shoots):
    accepted = default_shoots[2.0]
    drift = check_first_integral(accepted.trajectory, 2.0)
    halved = IntegratorConfig(rel_tol=5e-11, abs_tol=5e-13)
    tight_run = shoot(ProblemParams.inner(2.0), integrator_config=halved)
    tight = check_first_integral(tight_run.trajectory, 2.0)
    assert drift <= 1e-7
    assert tight < drift
    print(
        f"PASS first-integral drift {drift:.3e} <= 1e-7, "
        f"halved tolerances give {tight:.3e}"
    )


def test_classification_verdicts_and_bracket_halving():
    assert classify(1.6, 2.0, DEFAULT_RHO_L).verdict is Verdict.OVERSHOOT
    assert classify(1.4, 2.0, DEFAULT_RHO_L).verdict is Verdict.UNDERSHOOT
    assert classify(1.5, 2.0, DEFAULT_RHO_L).verdict is Verdict.CONNECT
    config = ShootingConfig(eta=1e-6)
    result = shoot(ProblemParams.inner(2.0), config=config)
    history = result.bracket_history
    w0 = history[0][1] - history[0][0]
    for k, (low, high) in enumerate(history):
        assert abs((high - low) - w0 * 0.5**k) <= 1e-13
    final = history[-1][1] - history[-1][0]
    assert final <= 2.0 * config.refine_tol
    print(
        f"PASS verdicts over/under/connect at 1.6/1.4/1.5; bracket halved "
        f"{len(history) - 1} times from {w0:.2e} to {final:.2e}"
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
