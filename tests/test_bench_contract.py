"""The benchmark still runs against the library.

``bench/child.py`` reads more of gmspike than the public calls: its tracer
patches ``shooting.integrate``, ``ode.Trajectory.eval``,
``verify.eval_spike_rho``, ``cli.eval_spike_rho``,
``verify.eval_spike_second_derivative``, ``cli.ode_residual``,
``cli.compare`` and ``cli.shoot``, the names through which the library
calls them; its observers read ``a_star``,
``bc_residual``, ``converged``, the length of ``classifications``,
``config.scan_points`` and the trajectory's step counts of a
``ShootingResult``, ``analytic.spike_amplitude`` and the sweep summary's
columns.  A change to ``src/`` that breaks one of them would only show when
the benchmark is run, so one traced op of each workload runs here, started
as ``bench/run.py`` starts it: ``dense_grid`` is the one that reaches
``Trajectory.eval`` and ``cli.ode_residual``.  Every case must pass its
check: the six ``shoot_range`` shoots, p = 1.01 included, the six
``sweep_cli`` spikes and the four ``dense_grid`` artifacts.  The closed
form's spans must be opened: ``dense_grid`` reaches both closed-form
evaluators and ``sweep_cli`` the profile's, so their per-layer figures are
measured, not 0.  ``verify.compare.us_per_point`` divides the time spent in
``cli.compare`` by the points of the reports it returns, so a grid command
must call it once per block, with that block's points.
"""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gmspike import cli

ROOT = Path(__file__).resolve().parents[1]
# An error that names an exception class is a crash, not a checked failure.
EXCEPTION_NAME = re.compile(r"\b[A-Z]\w*(Error|Exception)\b")


@pytest.mark.parametrize("workload", ["shoot_range", "sweep_cli", "dense_grid"])
def test_traced_bench_op_runs(workload, tmp_path):
    argv = [sys.executable, "-s", str(ROOT / "bench" / "child.py")]
    proc = subprocess.run(
        argv + [str(time.monotonic_ns()), workload, "1", "1",
                str(tmp_path), str(tmp_path / "spans.bin")],
        cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    outcome = json.loads(proc.stdout.strip().splitlines()[-1])
    assert isinstance(outcome["layers"], dict)
    crashed = [c for c in outcome["cases"] if EXCEPTION_NAME.search(str(c["error"]))]
    assert not crashed, [(c["case"], c["error"]) for c in crashed]
    failed = [(c["case"], c["error"]) for c in outcome["cases"] if not c["ok"]]
    assert len(outcome["cases"]) == {"shoot_range": 6, "sweep_cli": 6, "dense_grid": 4}[workload]
    assert not failed, failed
    layers = outcome["layers"]
    if workload != "shoot_range":
        assert layers["analytic.eval_spike_rho.calls"] > 0
    if workload == "dense_grid":
        assert layers["analytic.second_derivative.us_per_call"] > 0


def test_a_compare_calls_cli_compare_once_per_block(tmp_path, monkeypatch):
    # The tracer divides the time spent in cli.compare by the points of the
    # reports it returns, so a grid of 2,049 points must reach it as its
    # three blocks of 1,024, 1,024 and 1 points, each point once.
    grids, real = [], cli.compare

    def traced(result, rho_grid, *args, **kwargs):
        report = real(result, rho_grid, *args, **kwargs)
        grids.append((list(rho_grid), report.grid))
        return report

    monkeypatch.setattr(cli, "compare", traced)
    bounds = (-10.0, 10.0, 2049)
    argv = ["compare", "--p", "2", "--grid=-10:10:2049", "--out", str(tmp_path / "c.csv")]
    assert cli.main(argv) == 0
    blocks = list(cli._grid_blocks(bounds))
    assert [len(block) for block in blocks] == [1024, 1024, 1]
    assert [given for given, _ in grids] == [reported for _, reported in grids] == blocks
