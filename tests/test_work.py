"""Work pinned per shoot and per command: integrations, accepted/rejected
steps, and dense-output interpolants built.

The counts are exact and do not depend on the machine.  A change may lower
them; it must never raise them.
"""

import random

import pytest

from gmspike import (
    IntegratorConfig,
    ProblemParams,
    ShootingError,
    cli,
    eval_profile_grid,
    ode,
    shoot,
    shooting,
)

# p -> (integrations, accepted steps, rejected steps) of
# shoot(ProblemParams.inner(p)) at default settings.
PINNED_WORK = {
    1.01: (1, 231, 0),
    1.2: (1, 253, 0),
    2.0: (1, 274, 0),
    4.0: (1, 287, 0),
    10.0: (1, 296, 1),
    100.0: (1, 309, 14),
}

# Integrations made by a default sweep: it shoots the inner, then the
# boundary spike of each p in {2, 3, 4}, and each boundary shoot reads the
# inner shoot's run.
PINNED_SWEEP_INTEGRATIONS = 3

# Interpolants built (calls of ode._interpolant) by a command at default
# settings: one per step its grids read, plus one at each shoot's peak event.
PINNED_BUILDS = {
    "sweep": 679,
    "compare_p2_50001": 224,
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


@pytest.mark.parametrize("p", sorted(PINNED_WORK))
def test_a_boundary_shoot_takes_the_inner_steps(p):
    # Not just as many: the same steps and end, bit for bit, so one run can
    # serve both kinds.  The kept run is dropped between the shoots, so the
    # boundary shoot integrates on its own.
    inner = shoot(ProblemParams.inner(p)).trajectory
    shooting._inward_run.cache_clear()
    boundary = shoot(ProblemParams.boundary(p)).trajectory
    assert boundary is not inner
    assert repr(boundary.steps) == repr(inner.steps)
    assert repr(boundary.end) == repr(inner.end)


class TestKeptRun:
    """shoot keeps its last run under (p, integrator config): the next shoot
    of that key reads it, and any other key integrates again."""

    def test_a_sweep_integrates_once_per_exponent(self, monkeypatch, tmp_path):
        work = _count_work(monkeypatch)
        assert cli.main(["sweep", "--out", str(tmp_path)]) == 0
        assert work[0] == PINNED_SWEEP_INTEGRATIONS
        assert shooting._inward_run.cache_info().currsize <= 1

    def test_another_p_or_other_tolerances_integrate_again(self, monkeypatch):
        work = _count_work(monkeypatch)
        shoot(ProblemParams.inner(2.0))
        shoot(ProblemParams.boundary(2.0))
        assert work[0] == 1
        shoot(ProblemParams.inner(3.0))
        assert work[0] == 2
        shoot(ProblemParams.inner(3.0), integrator_config=IntegratorConfig(rel_tol=1e-8))
        assert work[0] == 3
        # Only the last run is kept.
        shoot(ProblemParams.inner(3.0))
        assert work[0] == 4

    def test_a_kept_run_that_misses_its_peak_raises_on_every_shoot(
        self, monkeypatch, short_horizon
    ):
        work = _count_work(monkeypatch)
        for params in (ProblemParams.inner(2.0), ProblemParams.boundary(2.0)):
            with pytest.raises(ShootingError, match="ended reached_end at sigma=5.0,"):
                shoot(params)
        assert work[0] == 1

    @pytest.mark.parametrize("p", (2.0, 3.0, 4.0))
    def test_a_boundary_profile_from_the_kept_run_has_the_fresh_bits(self, p):
        inner = shoot(ProblemParams.inner(p))
        # The inner profile fills some of the run's interpolants first, as a
        # sweep's inner compare does.
        eval_profile_grid(inner, [-10.0 + i / 100.0 for i in range(2001)])
        params = ProblemParams.boundary(p)
        kept = shoot(params)
        assert kept.trajectory is inner.trajectory
        assert kept.params == params
        shooting._inward_run.cache_clear()
        fresh = shoot(params)
        assert fresh.trajectory is not inner.trajectory
        grid = [params.peak_rho - 10.0 + i / 200.0 for i in range(2001)]
        assert _bits(eval_profile_grid(kept, grid)) == _bits(eval_profile_grid(fresh, grid))


def _count_builds(monkeypatch):
    """[interpolants built] from here on."""
    builds = [0]
    real_interpolant = ode._interpolant

    def counting_interpolant(step):
        builds[0] += 1
        return real_interpolant(step)

    monkeypatch.setattr(ode, "_interpolant", counting_interpolant)
    return builds


def _bits(columns):
    return [[x.hex() for x in column] for column in columns]


def _span_grid(trajectory, n=2001):
    lo, hi = trajectory.rho_start, trajectory.end[0]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


class TestInterpolantBuilds:
    """A trajectory builds a step's interpolant when a point first enters
    that step, and keeps it."""

    def test_sweep_builds_are_pinned(self, monkeypatch, tmp_path):
        builds = _count_builds(monkeypatch)
        assert cli.main(["sweep", "--out", str(tmp_path)]) == 0
        assert builds[0] == PINNED_BUILDS["sweep"]

    def test_dense_compare_builds_are_pinned(self, monkeypatch, tmp_path):
        builds = _count_builds(monkeypatch)
        argv = ["compare", "--p", "2", "--grid=-10:10:50001", "--out", str(tmp_path / "c.csv")]
        assert cli.main(argv) == 0
        assert builds[0] == PINNED_BUILDS["compare_p2_50001"]

    def test_a_second_eval_builds_none(self, monkeypatch):
        trajectory = shoot(ProblemParams.inner(2.0)).trajectory
        grid = _span_grid(trajectory)
        builds = _count_builds(monkeypatch)
        first = trajectory.eval(grid)
        assert builds[0] == trajectory.accepted_steps
        assert _bits(trajectory.eval(grid)) == _bits(first)
        assert builds[0] == trajectory.accepted_steps

    def test_the_fill_order_does_not_change_the_bits(self):
        trajectory = shoot(ProblemParams.inner(2.0)).trajectory
        grid = _span_grid(trajectory)
        shuffled = list(grid)
        random.Random(7).shuffle(shuffled)
        trajectory.eval(shuffled[: len(grid) // 3])
        shooting._inward_run.cache_clear()
        fresh = shoot(ProblemParams.inner(2.0)).trajectory
        assert fresh is not trajectory
        assert _bits(trajectory.eval(grid)) == _bits(fresh.eval(grid))


def _tableau_interpolant(step):
    """A step's interpolant from the tableau rows _P1.._P7: c_j is
    P1[j-1]*k1 + P3[j-1]*k3 + ... + P7[j-1]*k7, summed in that order, and
    c1 is P1[0]*k1 alone."""
    rows = (ode._P1, ode._P3, ode._P4, ode._P5, ode._P6, ode._P7)
    coefficients = []
    for ks in (step[4:10], step[10:16]):
        coefficients.append(rows[0][0] * ks[0])
        for j in (1, 2, 3):
            total = rows[0][j] * ks[0]
            for row, k in zip(rows[1:], ks[1:]):
                total += row[j] * k
            coefficients.append(total)
    return (*step[:4], *coefficients)


@pytest.mark.parametrize("p", sorted(PINNED_WORK))
def test_interpolants_follow_the_tableau(p):
    # eval over every step start fills the cache through ode._interpolant;
    # each entry must have the tableau's bits.
    trajectory = shoot(ProblemParams.inner(p)).trajectory
    trajectory.eval([step[0] for step in trajectory.steps])
    built = trajectory._interpolants
    assert len(built) == trajectory.accepted_steps
    for step, c in zip(trajectory.steps, built):
        assert [x.hex() for x in c] == [x.hex() for x in _tableau_interpolant(step)], step[0]
