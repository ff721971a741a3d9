"""gmspike benchmark: end-to-end metrics per workload, per-module metrics from a traced run.

    python3 bench/run.py --workload shoot_range --seed 1 --trace 0
    python3 bench/run.py                # every workload, untraced then traced

Each op runs in a fresh interpreter (``bench/child.py``), one process at a
time, in a closed loop with one caller: the next op starts when the last
has ended, until ``run_seconds`` of ``BENCHMARK.json`` have passed.  The run
length is fixed there, so that it is the same on every commit; ``--seconds``
is accepted only with that value.  The workloads, metric names and units are
those of ``BENCHMARK.json``; ``bench/README.md`` says what each metric should
move.  With ``--trace 0`` the ops are untraced and the
end-to-end metrics are reported; with ``--trace 1`` untraced and traced ops
alternate, and the per-module metrics come from the traced ones.  A run
record with the machine, the commit, every sample and every failed case is
written under ``bench/out/``.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``.

Exit status 0 means the run completed, whatever its checks found; 1 means
the harness could not run an op (for example, gmspike is not in ``src/``);
2 means bad arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Per-layer metrics in these units are timings and reported as medians over
# the traced ops; every other per-layer metric is an exact count that must
# repeat from op to op.
TIME_UNITS = ("s", "us")
MIN_OPS = 3
MIN_TRACED_OPS = 2
# The host's speed drifts by tens of percent within minutes (seen on a
# shared 2-vCPU VM), alike for gmspike and for any Python loop.  So each
# child times a fixed loop that runs no gmspike code before and after every
# call into gmspike, and each call's time is scaled by REF_NOMINAL_NS / (the
# mean of the two loop times beside it): seconds on a host where the loop
# takes REF_NOMINAL_NS.  The record keeps the wall times beside them.
REF_NOMINAL_NS = 12_500_000
# A run starts no op that would not end within this many seconds, so that it
# exits within 180 s; an op that alone runs past it leaves the run without a
# result.
RUN_LIMIT_S = 170.0


class HarnessError(RuntimeError):
    """An op could not be run at all; the benchmark has no result."""


def run_child(workload, seed, traced, workdir, spans_path, timeout=RUN_LIMIT_S):
    """Start one child, wait for it, and return its outcome."""
    argv = [sys.executable, "-s", str(BENCH / "child.py")]
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawn_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(
            argv + [str(spawn_ns), workload, str(seed), "1" if traced else "0",
                    str(workdir), str(spans_path)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{workload} op did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise HarnessError(
            f"{workload} op exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def exact_counters(outcome):
    """The per-layer values of a traced op that are counts, not timings."""
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    return {k: v for k, v in outcome["layers"].items() if units.get(k) not in TIME_UNITS}


def tail(samples):
    """The highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return {"value": sorted(samples)[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


def done(elapsed, longest_op, n_plain, n_traced, trace):
    """Whether the loop stops: ``run_seconds`` have passed with enough ops,
    or another op as long as the longest so far would end past RUN_LIMIT_S.
    A slow program is then reported from fewer ops, but from one at least
    (one of each kind when traced)."""
    if trace:
        enough = n_plain >= MIN_TRACED_OPS and n_traced >= MIN_TRACED_OPS
        some = n_plain >= 1 and n_traced >= 1
    else:
        enough, some = n_plain >= MIN_OPS, n_plain >= 1
    if elapsed >= SPEC["run_seconds"] and enough:
        return True
    return some and elapsed + longest_op > RUN_LIMIT_S


def measure(workload, seed, trace):
    """Run ops until the run is done; return (untraced, traced) outcomes."""
    workdir, spans_path = OUT / f"work-{workload}", OUT / f"spans-{workload}.bin"
    start = time.monotonic()
    # Compiles the bytecode cache and warms the file cache; not a sample.
    run_child("none", seed, False, workdir, spans_path)
    plain, traced = [], []
    longest = 0.0
    while not done(time.monotonic() - start, longest, len(plain), len(traced), trace):
        use_trace = trace and len(traced) < len(plain)
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        op_start = time.monotonic()
        outcome = run_child(workload, seed, use_trace, workdir, spans_path,
                            timeout=max(1.0, RUN_LIMIT_S - (op_start - start)))
        longest = max(longest, time.monotonic() - op_start)
        (traced if use_trace else plain).append(outcome)
    shutil.rmtree(workdir, ignore_errors=True)
    return plain, traced


def check(outcomes):
    """Count attempted and failed cases and list the wrong outputs.

    A case fails when it misses its check or its artifacts differ from the
    first op's.  It is a wrong output when it fails although the program
    reported success, or when counts that must repeat did not."""
    reference = outcomes[0]["digests"]
    attempted = failed = 0
    failures, wrong = [], []
    for i, outcome in enumerate(outcomes):
        for case in outcome["cases"]:
            changed = [a for a in case["artifacts"] if outcome["digests"].get(a) != reference.get(a)]
            ok = case["ok"] and not changed
            attempted += 1
            if not ok:
                failed += 1
                record = {"op": i, "case": case["case"], "error": case["error"], "changed": changed}
                failures.append(record)
                if case["reported_ok"] or changed:
                    wrong.append(record)
    traced = [o for o in outcomes if "layers" in o]
    for outcome in traced[1:]:
        if exact_counters(outcome) != exact_counters(traced[0]):
            wrong.append({"case": "work counters differ between traced ops"})
    return attempted, failed, failures, wrong


def scaled_op_s(outcome):
    refs = outcome["refs_ns"]
    return sum(
        ns * 2 * REF_NOMINAL_NS / (before + after)
        for ns, before, after in zip(outcome["calls_ns"], refs, refs[1:])
    ) / 1e9


def scaled_setup_s(outcome):
    return outcome["setup_ns"] * REF_NOMINAL_NS / outcome["refs_ns"][0] / 1e9


def speed(outcome):
    """The factor by which this op's time was scaled."""
    return scaled_op_s(outcome) * 1e9 / outcome["op_ns"]


def wall_op_s(outcome):
    return outcome["op_ns"] / 1e9


def wall_setup_s(outcome):
    return outcome["setup_ns"] / 1e9


def end_to_end(plain, everything, op_time=scaled_op_s, setup_time=scaled_setup_s):
    op_s = [op_time(o) for o in plain]
    return {
        "setup_s": statistics.median(setup_time(o) for o in everything),
        "op_s_p50": statistics.median(op_s),
        "work_per_s": sum(o["units"] for o in plain) / sum(op_s),
        "peak_rss_mib": statistics.median(o["rss_kib"] for o in plain) / 1024.0,
    }


def per_layer(plain, traced):
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    values = {}
    for name in traced[0]["layers"]:
        if units[name] in TIME_UNITS:
            values[name] = statistics.median(o["layers"][name] * speed(o) for o in traced)
        else:
            values[name] = traced[0]["layers"][name]
    values["trace.overhead_ratio"] = (
        statistics.median(scaled_op_s(o) for o in traced)
        / statistics.median(scaled_op_s(o) for o in plain)
    )
    return values


def _metrics(spec_key, values):
    missing = [m["name"] for m in SPEC[spec_key] if m["name"] not in values]
    if missing:
        raise HarnessError(f"no value for {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC[spec_key]}


def _machine():
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor() or None,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _commit():
    """The checked-out commit, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(workload, seed, trace):
    """Measure one workload, print its table, write its record, return its result line."""
    plain, traced = measure(workload, seed, trace)
    everything = plain + traced
    attempted, failed, failures, wrong = check(everything)
    e2e = end_to_end(plain, everything)
    layers = per_layer(plain, traced) if trace else None
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": _metrics("per_layer", layers) if trace else _metrics("end_to_end", e2e),
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": SPEC["run_seconds"],
        "trace": int(trace),
        "machine": _machine(),
        "commit": _commit(),
        "samples": {"ops": len(plain), "traced_ops": len(traced), "setups": len(everything)},
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": failures,
        "wrong": wrong,
        "end_to_end": e2e,
        "op_s_tail": tail([scaled_op_s(o) for o in plain]),
        "wall": end_to_end(plain, everything, wall_op_s, wall_setup_s),
        "ref_nominal_ms": REF_NOMINAL_NS / 1e6,
        "per_layer": layers,
        "ops": [
            {
                "traced": "layers" in o,
                "op_s": scaled_op_s(o),
                "op_wall_s": wall_op_s(o),
                "setup_wall_s": wall_setup_s(o),
                "ref_ms": [ns / 1e6 for ns in o["refs_ns"]],
                "speed": speed(o),
                "rss_mib": o["rss_kib"] / 1024.0,
                "cases": o["cases"],
            }
            for o in everything
        ],
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record_path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    _print_table(record, record_path)
    return result


def _print_table(record, record_path):
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    samples = record["samples"]
    print(f"== {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"ops {samples['ops']}  traced ops {samples['traced_ops']}")
    for name, value in record["end_to_end"].items():
        print(f"  {name:<40} {value:>14.6g} {units[name]:<6} (wall {record['wall'][name]:.6g})")
    tail_ = record["op_s_tail"]
    if tail_ is None:
        print(f"  {'op_s_tail':<40} {'-':>14} s  (needs 11 ops, have {samples['ops']})")
    else:
        print(f"  {'op_s_tail':<40} {tail_['value']:>14.6g} s  "
              f"(p{tail_['percentile']:.0f} of {tail_['samples']} ops)")
    print(f"  {'failed_frac':<40} {record['failed_frac']:>14.6g} ratio  "
          f"({record['failed']} of {record['attempted']} cases)")
    for failure in record["failures"][:3]:
        print(f"    failed: op {failure['op']} {failure['case']}: {failure['error']}")
    for name, value in (record["per_layer"] or {}).items():
        print(f"  {name:<40} {value:>14.6g} {units[name]}")
    print(f"  record: {record_path.relative_to(ROOT)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help=f"must be run_seconds of BENCHMARK.json ({SPEC['run_seconds']})")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None,
                        help="0: end-to-end metrics; 1: per-module metrics (default with all: both)")
    args = parser.parse_args(argv)
    if args.seconds != SPEC["run_seconds"]:
        parser.error(f"--seconds is fixed at run_seconds = {SPEC['run_seconds']}")
    if not (ROOT / "src" / "gmspike" / "__init__.py").is_file():
        print(f"error: no gmspike sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in ([0, 1] if args.trace is None else [args.trace])]
    else:
        runs = [(args.workload, args.trace or 0)]
    results = {}
    try:
        for workload, trace in runs:
            results[(workload, trace)] = run_workload(workload, args.seed, trace == 1)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for (w, _), r in results.items()
                        for name, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
