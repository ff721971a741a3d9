"""Work pinned per shoot: integrations and accepted/rejected steps.

The counts are exact and do not depend on the machine.  A change may lower
them; it must never raise them.
"""

import pytest

from gmspike import ProblemParams, shoot, shooting

# p -> (integrations, accepted steps, rejected steps) of
# shoot(ProblemParams.inner(p)) at default settings.
PINNED_WORK = {
    1.01: (1, 829, 0),
    1.2: (1, 291, 0),
    2.0: (1, 305, 0),
    4.0: (1, 318, 0),
    10.0: (1, 327, 1),
    100.0: (1, 341, 14),
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


@pytest.mark.parametrize("p", sorted(PINNED_WORK))
def test_a_boundary_shoot_does_the_inner_work(p, monkeypatch):
    # A boundary spike is the inner one shifted to the wall: the same one run.
    work = _count_work(monkeypatch)
    shoot(ProblemParams.boundary(p))
    assert tuple(work) == PINNED_WORK[p]
