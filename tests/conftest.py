"""Session-scoped fixtures shared across the suite.

Shooting runs and CLI sweeps are the slow pieces, so they run once and are
reused by the unit tests and the acceptance checks alike.
"""

import pytest

from gmspike import ProblemParams, State, cli, shoot, shooting


@pytest.fixture(autouse=True)
def _fresh_inward_run():
    """Start every test without a kept run: shoot keeps its last run under
    (p, integrator config), a key that leaves out what tests patch, such as
    ``shooting.integrate`` or the ``IntegratorConfig`` step-size constants."""
    shooting._inward_run.cache_clear()


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


def _start_with_scaled_v(monkeypatch, scale):
    """Start every shoot's run at (u0, scale * v0) instead of (u0, v0)."""
    real_integrate = shooting.integrate

    def scaled(initial, *args, **kwargs):
        return real_integrate(State(initial.u, scale * initial.v), *args, **kwargs)

    monkeypatch.setattr(shooting, "integrate", scaled)


@pytest.fixture
def mirrored_start(monkeypatch):
    """Start every shoot's run at (u0, -v0), on the branch of H = 0 that runs
    into the saddle instead of out of it.  Rounding then carries the run off
    that branch: at p = 1.01, 1.2 and 2 it turns at a minimum (u = 1.0e-10,
    3.7e-11 and 1.1e-13), at p = 3 it crosses u = 0, at p >= 4 it reaches
    its horizon."""
    _start_with_scaled_v(monkeypatch, -1.0)


# Near the saddle, where u**p is negligible beside u and v0 = u0 (p >= 2),
# a run from (u0, -k * u0) is u0 * ((1 + k) * exp(-s) + (1 - k) * exp(s)) / 2.
# For k = 1/2 and 2 its event lies at s = artanh(1/2) = 0.5493, whatever
# the steps; p = 1.2 moves it to 0.56 and p = 1.01 to 1.4.


@pytest.fixture
def inside_loop_start(monkeypatch):
    """Start every shoot's run at (u0, -v0 / 2), inside the homoclinic loop
    (H < 0): it turns at its minimum u = u0 * sqrt(3) / 2 at sigma = 0.5493."""
    _start_with_scaled_v(monkeypatch, -0.5)


@pytest.fixture
def outside_loop_start(monkeypatch):
    """Start every shoot's run at (u0, -2 * v0), outside the homoclinic loop
    (H > 0): it crosses u = 0 at sigma = 0.5493."""
    _start_with_scaled_v(monkeypatch, -2.0)
