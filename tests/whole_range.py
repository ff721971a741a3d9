"""Shoot the whole documented range, P_MIN <= p <= P_MAX, at log-spaced p.

``test_shooting.py::TestWholeRange`` runs 200 exponents in tier-1.  The
2,000-exponent version is a script that needs the standard library alone:

    PYTHONPATH=src python tests/whole_range.py 2000

prints the worst figures and exits 1 if one breaks its bound.  The file
name keeps pytest from collecting it.
"""

import math
import sys

from gmspike import (
    P_MAX,
    P_MIN,
    IntegratorConfig,
    ProblemParams,
    ShootingError,
    eval_spike_rho,
    profile_samples,
    shoot,
    spike_amplitude,
)

# Bounds on every shoot at the default tolerances.  Like the work pins, each
# may go down, never up.  The worst of 2,000 exponents was 3.3e-11, 5.7e-10
# and 248 (p = 1.130).
AMP_REL_BOUND = 1e-10
RUN_REL_BOUND = 1e-9
ACCEPTED_BOUND = 248


def exponents(n):
    """``n`` log-spaced p from P_MIN to P_MAX, both ends exact."""
    step = math.log(P_MAX / P_MIN) / (n - 1)
    return [P_MIN, *(P_MIN * math.exp(k * step) for k in range(1, n - 1)), P_MAX]


def figures(p, integrator_config=IntegratorConfig()):
    """The shoot of the inner spike at ``p``, with |a* - amp| / amp and the
    worst relative error of u = e**w over every sample of the run, each at
    its distance d = sigma_pk - sigma from the peak, against the closed form.
    The samples are read through :func:`profile_samples` on a domain wide
    enough to hold the whole run.  The shoot raises ShootingError if it
    misses its peak."""
    params = ProblemParams.inner(p, half_length=1e3)
    result = shoot(params, integrator_config)
    amp = spike_amplitude(p)
    _, ds, us, _ = profile_samples(result)
    assert len(us) == result.trajectory.accepted_steps + 1
    run_rel = max(abs(u - e) / e for u, e in zip(us, eval_spike_rho(params, ds)))
    return result, abs(result.a_star - amp) / amp, run_rel


def main(argv):
    n = int(argv[1]) if len(argv) > 1 else 2000
    worst = {"amp_rel": (0.0, None), "run_rel": (0.0, None), "accepted": (0, None)}
    unconverged = []
    for p in exponents(n):
        try:
            result, amp_rel, run_rel = figures(p)
        except ShootingError:
            unconverged.append(p)
            continue
        for name, value in (("amp_rel", amp_rel), ("run_rel", run_rel),
                            ("accepted", result.trajectory.accepted_steps)):
            if value > worst[name][0]:
                worst[name] = (value, p)
    bounds = {"amp_rel": AMP_REL_BOUND, "run_rel": RUN_REL_BOUND, "accepted": ACCEPTED_BOUND}
    broken = [name for name, (value, _) in worst.items() if value > bounds[name]]
    print(f"{n} exponents in [{P_MIN}, {P_MAX}], {n - len(unconverged)} converged")
    for name, (value, p) in worst.items():
        print(f"  worst {name} {value:.3g} at p = {p!r} (bound {bounds[name]:g})")
    if unconverged or broken:
        print(f"FAILED: unconverged {unconverged}, over bound {broken}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
