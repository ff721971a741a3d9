"""Checks of the benchmark harness itself.

    python3 -m pytest -q bench/test_bench.py

The counter tests start real child processes, two ops per workload, so the
file takes about twenty seconds.  They assert that counts repeat, not what
they are, so a change that lowers the work does not need to edit them.
"""

import time

import pytest

import run
import spans


def _traced_op(workload, tmp_path, tag):
    workdir = tmp_path / f"work-{tag}"
    workdir.mkdir()
    return run.run_child(workload, 1, True, workdir, tmp_path / f"spans-{tag}.bin")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_work_counters_and_artifacts_repeat_exactly(workload, tmp_path):
    first = _traced_op(workload, tmp_path, "a")
    second = _traced_op(workload, tmp_path, "b")
    assert run.exact_counters(first) == run.exact_counters(second)
    assert first["digests"] == second["digests"]
    assert [c["ok"] for c in first["cases"]] == [c["ok"] for c in second["cases"]]


def test_written_spans_nest_and_add_up_to_the_layer_times(tmp_path):
    outcome = _traced_op("sweep_cli", tmp_path, "s")
    records = spans.load(str(tmp_path / "spans-s.bin"))
    for name, parent, start, end in records:
        assert start <= end
        if parent >= 0:
            assert records[parent][2] <= start and end <= records[parent][3]
    roots = [i for i, r in enumerate(records) if r[1] < 0]
    assert [records[i][0] for i in roots] == ["cli.main"]
    root = records[roots[0]]
    children = sum(r[3] - r[2] for r in records if r[1] == roots[0])
    layers = outcome["layers"]
    assert layers["cli.main.s"] == (root[3] - root[2]) / 1e9
    assert layers["cli.self_s"] == pytest.approx((root[3] - root[2] - children) / 1e9)
    assert layers["cli.shoots_per_sweep"] == 6


def test_self_time_is_duration_minus_direct_children():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: time.sleep(0.002), "inner")
    outer = tracer.wrap(lambda: [inner(), inner()], "outer")
    outer()
    summary = tracer.summary()
    assert summary["inner"]["calls"] == 2
    assert summary["inner"]["under"] == {"outer": 2}
    assert summary["outer"]["self_ns"] == summary["outer"]["total_ns"] - summary["inner"]["total_ns"]
    assert summary["inner"]["self_ns"] == summary["inner"]["total_ns"]


def _outcome(cases, digests):
    return {"cases": cases, "digests": digests}


def _case(name, ok, reported_ok):
    return {"case": name, "ok": ok, "reported_ok": reported_ok, "error": None,
            "artifacts": [name]}


def test_failures_count_and_only_unreported_ones_are_wrong():
    first = _outcome([_case("a", True, True), _case("b", False, False)], {"a": "1", "b": "2"})
    same = _outcome([_case("a", True, True), _case("b", False, False)], {"a": "1", "b": "2"})
    attempted, failed, failures, wrong = run.check([first, same])
    assert (attempted, failed, wrong) == (4, 2, [])
    changed = _outcome([_case("a", True, True), _case("b", False, False)], {"a": "9", "b": "2"})
    attempted, failed, failures, wrong = run.check([first, changed])
    assert (attempted, failed) == (4, 3)
    assert [(w["op"], w["case"]) for w in wrong] == [(1, "a")]
    claimed = _outcome([_case("a", False, True), _case("b", False, False)], {"a": "1", "b": "2"})
    assert len(run.check([first, claimed])[3]) == 1


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([1.0] * 10) is None
    tail = run.tail([float(i) for i in range(20)])
    assert tail == {"value": 9.0, "percentile": 50.0, "samples": 20}


def test_a_run_stops_at_run_seconds_or_before_an_op_would_pass_the_limit():
    seconds = run.SPEC["run_seconds"]
    assert not run.done(seconds - 1, 1.0, 10, 0, False)
    assert not run.done(seconds, 1.0, run.MIN_OPS - 1, 0, False)
    assert run.done(seconds, 1.0, run.MIN_OPS, 0, False)
    # A slow program is reported from the ops that fit under the limit.
    assert run.done(run.RUN_LIMIT_S - 50, 60.0, 1, 0, False)
    assert not run.done(run.RUN_LIMIT_S - 50, 60.0, 0, 0, False)
    assert not run.done(run.RUN_LIMIT_S - 50, 60.0, 1, 0, True)
    assert run.done(run.RUN_LIMIT_S - 50, 60.0, 1, 1, True)


def test_seconds_other_than_run_seconds_is_refused():
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "shoot_range", "--seconds", str(run.SPEC["run_seconds"] + 1)])
    assert exc.value.code == 2


def _write_sweep(out, converged):
    import child

    columns = "p,kind,a_star,amplitude,amp_abs_err,bc_residual,signed_bc_residual," \
              "max_abs_err,l2_err,converged"
    lines = [columns]
    for name in child.SWEEP_CASES:
        _, p, kind = name.split("_")
        flag = "false" if name in converged else "true"
        lines.append(f"{p[1:]},{kind},1,1,0,1e-9,1e-9,1e-6,1e-6,{flag}")
        (out / f"{name}.csv").write_text(f"{child.CSV_HEADER}\n0,1,1,0,0\n")
    (out / "summary.csv").write_text("\n".join(lines) + "\n")
    return child._read_outputs(str(out))[0]


def test_sweep_cases_are_checked_one_by_one_whatever_the_exit_code(tmp_path):
    import child

    digests = _write_sweep(tmp_path, {"compare_p3_boundary"})
    cases, rows = child.sweep_cases(1, str(tmp_path), digests)
    assert [c["case"] for c in cases if not c["ok"]] == ["compare_p3_boundary"]
    assert rows == 2 * len(child.SWEEP_CASES)
    del digests["compare_p4_inner.csv"]
    cases, _ = child.sweep_cases(1, str(tmp_path), digests)
    failed = {c["case"]: c["error"] for c in cases if not c["ok"]}
    assert failed == {"compare_p3_boundary": "not converged: bc_residual 1e-09",
                      "compare_p4_inner": "exit 1, no row or artifact"}
    digests = _write_sweep(tmp_path, set())
    cases, _ = child.sweep_cases(1, str(tmp_path), digests)
    assert all(c["error"] == "exit 1" for c in cases)
    assert all(c["ok"] for c in child.sweep_cases(0, str(tmp_path), digests)[0])
