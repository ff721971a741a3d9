"""Work pinned per shoot: integrations and accepted/rejected steps.

The counts are exact and do not depend on the machine.  A change may lower
them; it must never raise them.
"""

import math

import pytest

from gmspike import ProblemParams, ShootingConfig, shoot, shooting

# p -> (integrations, accepted steps, rejected steps) of
# shoot(ProblemParams.inner(p)) at default settings.
PINNED_WORK = {
    1.01: (68, 8_296, 0),
    1.2: (41, 4_464, 206),
    2.0: (41, 4_346, 2),
    4.0: (41, 4_390, 11),
    10.0: (41, 4_323, 19),
    100.0: (68, 9_872, 234),
}


def _count_work(monkeypatch):
    """[integrations, accepted steps, rejected steps] of the shoots from here on."""
    work = [0, 0, 0]
    real_integrate = shooting.integrate

    def counting_integrate(*args, **kwargs):
        trajectory = real_integrate(*args, **kwargs)
        work[0] += 1
        work[1] += trajectory.accepted_steps
        work[2] += trajectory.rejected_steps
        return trajectory

    monkeypatch.setattr(shooting, "integrate", counting_integrate)
    return work


@pytest.mark.parametrize("p", sorted(PINNED_WORK))
def test_shoot_work_is_pinned(p, monkeypatch):
    work = _count_work(monkeypatch)
    result = shoot(ProblemParams.inner(p))
    assert tuple(work) == PINNED_WORK[p]
    # The log holds one entry per integration.
    assert len(result.classifications) == work[0]


def test_bisection_stops_when_no_double_is_left_in_the_bracket(monkeypatch):
    # No midpoint connects at this eta, and refine_tol lies below the float
    # spacing at the amplitude, so the bracket closes to two adjacent doubles
    # after 44 halvings; bisection ends there, and its last midpoint, one end
    # of that bracket, is the answer and is not run again.
    work = _count_work(monkeypatch)
    result = shoot(ProblemParams.inner(3.0), ShootingConfig(refine_tol=1e-20, eta=1e-9))
    assert work[0] == 85
    lo, hi = result.bracket_history[-1]
    assert math.nextafter(lo, hi) == hi
    assert result.a_star in (lo, hi)
