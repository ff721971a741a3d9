"""Session-scoped fixtures shared across the suite.

Shooting runs and CLI sweeps are the slow pieces, so they run once and are
reused by the unit tests and the acceptance checks alike.
"""

import pytest

from gmspike import ProblemParams, State, cli, shoot, shooting


@pytest.fixture(scope="session")
def default_shoots():
    """Converged shooting results at default settings, keyed by exponent."""
    return {p: shoot(ProblemParams.inner(p)) for p in (2.0, 3.0, 4.0)}


@pytest.fixture(scope="session")
def sweep_dirs(tmp_path_factory):
    """Two independent sweep runs, for content checks and byte determinism."""
    dirs = []
    for name in ("sweep_a", "sweep_b"):
        out = tmp_path_factory.mktemp(name)
        assert cli.main(["sweep", "--out", str(out)]) == 0
        dirs.append(out)
    return tuple(dirs)


@pytest.fixture
def short_horizon(monkeypatch):
    """Cut every shoot's run at sigma = 5, short of its peak: sigma_pk is at
    least 16.17 (p = 100)."""
    real_integrate = shooting.integrate

    def cut(initial, rho_start, rho_end, *args, **kwargs):
        return real_integrate(initial, rho_start, 5.0, *args, **kwargs)

    monkeypatch.setattr(shooting, "integrate", cut)


@pytest.fixture
def mirrored_start(monkeypatch):
    """Start every shoot's run at (u0, -v0), on the branch of H = 0 that runs
    into the saddle instead of out of it.  Rounding then carries the run off
    that branch: at p = 2 and 3 it crosses u = 0 (at sigma = 19.26 for p = 2),
    at p = 4 it reaches its horizon."""
    real_integrate = shooting.integrate

    def mirrored(initial, *args, **kwargs):
        return real_integrate(State(initial.u, -initial.v), *args, **kwargs)

    monkeypatch.setattr(shooting, "integrate", mirrored)
