"""Work pinned per shoot: integrations and accepted/rejected steps.

The counts are exact and do not depend on the machine.  A change may lower
them; it must never raise them.
"""

import pytest

from gmspike import ProblemParams, shoot, shooting

# p -> (integrations, accepted steps, rejected steps) of
# shoot(ProblemParams.inner(p)) at default settings.
PINNED_WORK = {
    1.2: (42, 4_631, 206),
    2.0: (42, 4_599, 2),
    4.0: (42, 4_667, 11),
    10.0: (42, 4_615, 19),
    100.0: (68, 24_270, 582),
}


@pytest.mark.parametrize("p", sorted(PINNED_WORK))
def test_shoot_work_is_pinned(p, monkeypatch):
    work = [0, 0, 0]
    real_integrate = shooting.integrate

    def counting_integrate(*args, **kwargs):
        trajectory = real_integrate(*args, **kwargs)
        work[0] += 1
        work[1] += trajectory.accepted_steps
        work[2] += trajectory.rejected_steps
        return trajectory

    monkeypatch.setattr(shooting, "integrate", counting_integrate)
    shoot(ProblemParams.inner(p))
    assert tuple(work) == PINNED_WORK[p]
