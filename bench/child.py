"""Run one benchmark op in a fresh interpreter and print its outcome as JSON.

    python3 bench/child.py SPAWN_NS WORKLOAD SEED TRACE WORKDIR SPANS

SPAWN_NS is the parent's ``time.monotonic_ns()`` taken just before it
started this process.  Set-up time runs from then until gmspike, with
``gmspike.cli``, is imported; WORKLOAD ``none`` stops there.  The op is
timed around the calls into gmspike and nothing else: inputs are built
before it and outputs are checked after it.  A fixed reference loop is
timed before the first call and after each one (:class:`Stopwatch`), so
that the parent can scale every call to a reference speed of the host.
With TRACE 1 the public calls
are wrapped (see :func:`install_tracer`) and the spans are written to SPANS
when the op is over.  The last line of stdout is the outcome.
"""

import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
sys.path.insert(0, _SRC)

import gmspike  # noqa: E402
import gmspike.cli  # noqa: E402

READY_NS = time.monotonic_ns()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402

from spans import Tracer  # noqa: E402

# Budgets the checks hold the program to.  They are the ones the acceptance
# tests use, fixed here so that a change to a program default cannot relax
# the benchmark.
AMP_TOL = 1e-4
ETA = 0.01

P_RANGE = (1.01, 1.2, 2.0, 4.0, 10.0, 100.0)
SWEEP_CASES = tuple(
    f"compare_p{p}_{kind}" for p in ("2", "3", "4") for kind in ("inner", "boundary")
)
DENSE_ROWS = 50_001
CSV_HEADER = "rho,u_analytic,u_numeric,v_numeric,abs_error"


def reference_ns(n=20_000) -> int:
    """Time a fixed loop that uses no gmspike code: float arithmetic, calls
    and small tuples, like the integrator's inner loop."""

    def f(u, v):
        return v, u - math.pow(u, 1.5)

    u, v, h = 0.5, 0.0, 1e-4
    t0 = time.perf_counter_ns()
    for _ in range(n):
        k1u, k1v = f(u, v)
        k2u, k2v = f(u + h * k1u, v + h * k1v)
        u, v = u + 0.5 * h * (k1u + k2u), v + 0.5 * h * (k1v + k2v)
    return time.perf_counter_ns() - t0


class Stopwatch:
    """Times each call into gmspike, and the reference loop before the first
    call and after every call, so that each call has a reading of the host's
    speed on both sides of it."""

    def __init__(self) -> None:
        self.calls_ns: list[int] = []
        self.refs_ns = [reference_ns()]

    def call(self, fn, *args):
        t0 = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.calls_ns.append(time.perf_counter_ns() - t0)
            self.refs_ns.append(reference_ns())

    def timings(self) -> dict:
        return {"op_ns": sum(self.calls_ns), "calls_ns": self.calls_ns, "refs_ns": self.refs_ns}


def _peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _case(name, ok, reported_ok, error=None, artifacts=(), **extra):
    """One checked case.  ``reported_ok`` is what the program claimed (exit 0,
    converged); a case that fails its check while the program claimed
    success is a wrong output, not just a failure."""
    return {
        "case": name,
        "ok": bool(ok),
        "reported_ok": bool(reported_ok),
        "error": error,
        "artifacts": list(artifacts),
        **extra,
    }


def _call_main(main, argv):
    """gmspike.cli.main with its status lines kept off this process's stdout."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception as exc:  # recorded as a failed case by the checks
        return type(exc).__name__


def _observe_shoot(counts):
    def observe(result, args):
        n = len(result.classifications)
        scan = result.config.scan_points
        counts["shooting.integrations.scan"] += scan
        counts["shooting.integrations.bisect"] += n - scan - 1
        counts["shooting.integrations.final"] += 1
        counts["ode.steps.kept"] += result.trajectory.accepted_steps

    return observe


def install_tracer() -> Tracer:
    """Wrap the public calls between gmspike's modules, as the callers see them."""
    tracer = Tracer()
    counts = tracer.counts

    def on_integrate(trajectory, args):
        counts["ode.integrate.calls"] += 1
        counts["ode.steps.accepted"] += trajectory.accepted_steps
        counts["ode.steps.rejected"] += trajectory.rejected_steps

    def on_compare(report, args):
        counts["verify.compare.points"] += len(report.grid)
        counts["verify.max_abs_err"] = max(counts["verify.max_abs_err"], report.max_abs_err)

    def on_residual(values, args):
        counts["verify.ode_residual.points"] += len(values)

    tracer.patch(gmspike.shooting, "integrate", "ode.integrate", on_integrate)
    tracer.patch(gmspike.ode.Trajectory, "eval", "ode.eval")
    tracer.patch(gmspike.verify, "eval_spike_rho", "analytic.eval_spike_rho")
    tracer.patch(gmspike.cli, "eval_spike_rho", "analytic.eval_spike_rho")
    tracer.patch(gmspike.verify, "eval_spike_second_derivative", "analytic.second_derivative")
    tracer.patch(gmspike.cli, "ode_residual", "verify.ode_residual", on_residual)
    tracer.patch(gmspike.cli, "compare", "verify.compare", on_compare)
    tracer.patch(gmspike.cli, "shoot", "shooting.shoot", _observe_shoot(counts))
    return tracer


def _cli_main(tracer):
    main = gmspike.cli.main
    return main if tracer is None else tracer.wrap(main, "cli.main")


def op_shoot_range(rng, workdir, tracer, watch):
    """shoot(ProblemParams.inner(p)) at default settings for each p of the range."""
    order = list(P_RANGE)
    rng.shuffle(order)
    entry = gmspike.shooting.shoot
    if tracer is not None:
        entry = tracer.wrap(entry, "shooting.shoot", _observe_shoot(tracer.counts))
    ProblemParams = gmspike.analytic.ProblemParams
    outcomes, snapshots = [], []
    for p in order:
        if tracer is not None:
            snapshots.append(dict(tracer.counts))
        try:
            result = watch.call(entry, ProblemParams.inner(p))
        except Exception as exc:  # recorded as a failed case below
            result = exc
        outcomes.append((p, result))
    rss = _peak_rss_kib()

    cases, digests = [], {}
    if tracer is not None:
        snapshots.append(dict(tracer.counts))
    for i, (p, result) in enumerate(outcomes):
        name = f"p={p:g}"
        extra = {"wall_s": watch.calls_ns[i] / 1e9}
        if snapshots:
            extra["counts"] = {
                key: snapshots[i + 1].get(key, 0) - snapshots[i].get(key, 0)
                for key in ("ode.integrate.calls", "ode.steps.accepted", "ode.steps.rejected")
            }
        if isinstance(result, Exception):
            cases.append(_case(name, False, False, type(result).__name__, **extra))
            continue
        trajectory = result.trajectory
        gap = abs(result.a_star - gmspike.analytic.spike_amplitude(p))
        digests[name] = _digest(repr((
            result.a_star,
            result.bc_residual,
            len(result.classifications),
            trajectory.accepted_steps,
            trajectory.rejected_steps,
        )).encode())
        error = None
        if not result.converged:
            error = f"not converged: bc_residual {result.bc_residual!r}"
        elif not gap < AMP_TOL:
            error = f"|a* - amplitude| {gap!r} over budget"
        cases.append(_case(
            name,
            error is None,
            result.converged,
            error,
            artifacts=[name],
            integrations=len(result.classifications),
            amp_abs_err=gap,
            bc_residual=result.bc_residual,
            **extra,
        ))
    return {"rss_kib": rss, "units": len(order), "rows": 0,
            "bytes_written": 0, "cases": cases, "digests": digests}


def _read_outputs(directory):
    digests, sizes = {}, 0
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            data = fh.read()
        digests[name] = _digest(data)
        sizes += len(data)
    return digests, sizes


def sweep_cases(rc, out, digests):
    """Check each sweep case on its own summary row, whatever the exit code.

    A nonzero exit is blamed on the cases that have no row or no artifact;
    if every case passes although the sweep failed, it is blamed on all of
    them.  Returns the cases and the data rows written."""
    summary, rows = {}, 0
    if "summary.csv" in digests:
        with open(os.path.join(out, "summary.csv")) as fh:
            lines = fh.read().splitlines()
        columns = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(columns, line.split(",")))
            summary[f"compare_p{row.get('p')}_{row.get('kind')}"] = row
        rows = len(lines) - 1
    cases = []
    for name in SWEEP_CASES:
        row = summary.get(name)
        if row is None or f"{name}.csv" not in digests:
            error = "missing artifact" if rc == 0 else f"exit {rc}, no row or artifact"
            cases.append(_case(name, False, rc == 0, error,
                               artifacts=[f"{name}.csv", "summary.csv"]))
            continue
        error = None
        try:
            err, residual = float(row["max_abs_err"]), float(row["bc_residual"])
            converged = row["converged"] == "true"
        except (KeyError, ValueError) as exc:
            error, converged = f"{type(exc).__name__}: {exc}", False
        else:
            if not converged:
                error = f"not converged: bc_residual {residual!r}"
            elif not (err <= AMP_TOL and residual <= ETA):
                error = f"max_abs_err {err!r} or bc_residual {residual!r} over budget"
        with open(os.path.join(out, f"{name}.csv"), "rb") as fh:
            rows += fh.read().count(b"\n") - 1
        cases.append(_case(name, error is None, converged, error,
                           artifacts=[f"{name}.csv", "summary.csv"]))
    if rc != 0 and all(case["ok"] for case in cases):
        for case in cases:
            case.update(ok=False, reported_ok=False, error=f"exit {rc}")
    return cases, rows


def op_sweep_cli(rng, workdir, tracer, watch):
    """gmspike sweep --out DIR: the six-case artifact contract."""
    out = os.path.join(workdir, "sweep")
    main = _cli_main(tracer)
    rc = watch.call(_call_main, main, ["sweep", "--out", out])
    rss = _peak_rss_kib()

    digests, size = _read_outputs(out) if os.path.isdir(out) else ({}, 0)
    cases, rows = sweep_cases(rc, out, digests)
    return {"rss_kib": rss, "units": len(SWEEP_CASES), "rows": rows,
            "bytes_written": size, "cases": cases, "digests": digests}


def _dense_commands(rng, workdir):
    """The four grid commands, each on DENSE_ROWS points shifted by one
    seeded fraction of a grid step, in seeded order."""
    shift = rng.random()
    inner_lo = -10.0 + shift * 20.0 / (DENSE_ROWS - 1)
    inner = f"--grid={inner_lo!r}:{inner_lo + 20.0!r}:{DENSE_ROWS}"
    edge_lo = -shift * 10.0 / (DENSE_ROWS - 1)
    edge = f"--grid={edge_lo!r}:{edge_lo + 10.0!r}:{DENSE_ROWS}"
    commands = [
        ("analytic.csv", ["analytic", inner]),
        ("residual.csv", ["residual", inner]),
        ("compare_p2.csv", ["compare", "--p", "2", inner]),
        ("compare_p3_boundary.json",
         ["compare", "--p", "3", "--spike", "boundary", edge, "--format", "json"]),
    ]
    rng.shuffle(commands)
    return [(name, argv + ["--out", os.path.join(workdir, name)]) for name, argv in commands]


def _check_dense_output(name, data):
    """Raise if a grid artifact lacks its header or rows or misses the budget."""
    if name.endswith(".json"):
        comparison = json.loads(data)["result"]["comparison"]
        for key in ("grid", "analytic", "numeric", "numeric_v"):
            if len(comparison[key]) != DENSE_ROWS:
                raise ValueError(f"{key} has {len(comparison[key])} points")
        max_err = comparison["max_abs_err"]
    else:
        lines = data.decode().split("\n")
        if lines[0] != CSV_HEADER or lines[-1] != "" or len(lines) != DENSE_ROWS + 2:
            raise ValueError("wrong header or row count")
        if not name.startswith("compare"):
            return
        max_err = max(float(line.rsplit(",", 1)[1]) for line in lines[1:-1])
    if not max_err <= AMP_TOL:
        raise ValueError(f"max_abs_err {max_err!r} over budget")


def op_dense_grid(rng, workdir, tracer, watch):
    """analytic, residual and two compare commands on 50,001-point grids."""
    commands = _dense_commands(rng, workdir)
    main = _cli_main(tracer)
    codes = [watch.call(_call_main, main, argv) for _, argv in commands]
    rss = _peak_rss_kib()

    digests, size = _read_outputs(workdir)
    cases = []
    for (name, _), rc in zip(commands, codes):
        error = None if rc == 0 else str(rc)
        if rc == 0:
            try:
                with open(os.path.join(workdir, name), "rb") as fh:
                    _check_dense_output(name, fh.read())
            except (OSError, ValueError, KeyError) as exc:
                error = f"{type(exc).__name__}: {exc}"
        cases.append(_case(name, error is None, rc == 0, error, artifacts=[name]))
    return {"rss_kib": rss, "units": len(commands) * DENSE_ROWS,
            "rows": len(commands) * DENSE_ROWS, "bytes_written": size,
            "cases": cases, "digests": digests}


OPS = {
    "shoot_range": op_shoot_range,
    "sweep_cli": op_sweep_cli,
    "dense_grid": op_dense_grid,
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, outcome: dict) -> dict:
    """Per-module metrics of one traced op, from its spans and counts."""
    summary = tracer.summary()
    counts = tracer.counts
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0, "under": {}}

    def span(name):
        return summary.get(name, empty)

    integrate, evals = span("ode.integrate"), span("ode.eval")
    rho, second = span("analytic.eval_spike_rho"), span("analytic.second_derivative")
    comparison, residual = span("verify.compare"), span("verify.ode_residual")
    shooting, main = span("shooting.shoot"), span("cli.main")
    accepted, rejected = counts["ode.steps.accepted"], counts["ode.steps.rejected"]
    steps = accepted + rejected
    points = counts["verify.compare.points"]
    return {
        "ode.integrate.calls": counts["ode.integrate.calls"],
        "ode.steps.accepted": accepted,
        "ode.steps.rejected": rejected,
        "ode.step_accept_ratio": _ratio(accepted, steps),
        # Computed, not counted: one evaluation to start, six per attempted step.
        "ode.rhs_evals": counts["ode.integrate.calls"] + 6 * steps,
        "ode.us_per_step": _ratio(integrate["total_ns"] / 1e3, steps),
        "ode.dense_kept_ratio": _ratio(counts["ode.steps.kept"], accepted),
        "ode.eval.calls": evals["calls"],
        "ode.eval.us_per_call": _ratio(evals["total_ns"] / 1e3, evals["calls"]),
        "shooting.shoot.s": shooting["total_ns"] / 1e9,
        "shooting.self_s": shooting["self_ns"] / 1e9,
        "shooting.integrations.scan": counts["shooting.integrations.scan"],
        "shooting.integrations.bisect": counts["shooting.integrations.bisect"],
        "shooting.integrations.final": counts["shooting.integrations.final"],
        "analytic.eval_spike_rho.calls": rho["calls"],
        "analytic.eval_spike_rho.us_per_call": _ratio(rho["total_ns"] / 1e3, rho["calls"]),
        "analytic.second_derivative.us_per_call": _ratio(second["total_ns"] / 1e3, second["calls"]),
        "verify.compare.us_per_point": _ratio(comparison["total_ns"] / 1e3, points),
        "verify.compare.self_us_per_point": _ratio(comparison["self_ns"] / 1e3, points),
        "verify.ode_residual.us_per_point": _ratio(
            residual["total_ns"] / 1e3, counts["verify.ode_residual.points"]
        ),
        "verify.max_abs_err": counts["verify.max_abs_err"],
        "cli.main.s": main["total_ns"] / 1e9,
        "cli.self_s": main["self_ns"] / 1e9,
        "cli.us_per_row": _ratio(main["self_ns"] / 1e3, outcome["rows"]),
        "cli.bytes_written": outcome["bytes_written"],
        "cli.shoots_per_sweep": shooting["under"].get("cli.main", 0),
    }


def main(argv):
    spawn_ns, workload, seed, trace, workdir, spans_path = argv
    outcome = {"setup_ns": READY_NS - int(spawn_ns)}
    if not os.path.abspath(gmspike.__file__).startswith(_SRC + os.sep):
        raise SystemExit(f"gmspike imported from {gmspike.__file__}, not from {_SRC}")
    if workload != "none":
        tracer = install_tracer() if trace == "1" else None
        watch = Stopwatch()
        outcome.update(OPS[workload](random.Random(int(seed)), workdir, tracer, watch))
        outcome.update(watch.timings())
        if tracer is not None:
            outcome["layers"] = layer_metrics(tracer, outcome)
            tracer.write(spans_path)
    print(json.dumps(outcome))


if __name__ == "__main__":
    main(sys.argv[1:])
