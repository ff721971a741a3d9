"""The grid commands compute and write their table a block of rows at a time.

``analytic``, ``residual`` and ``compare`` cut their grid into blocks of
``cli._BLOCK_ROWS`` points and evaluate each block with the library's
whole-grid calls, so the bytes they write must be those that the same calls
on the full point list render, whatever the count: counts on each side of a
block seam are checked here, and so are the totals ``compare`` carries from
block to block.  A grid the run does not reach is refused before the first
byte is written, and the traced memory of a command does not grow with its
grid, except for the columns JSON gathers at 8 B per value.
"""

import functools
import json
import math
import os
import re
import tempfile
import tracemalloc

import pytest

from gmspike import ProblemParams, SpikeKind, cli, shoot, shooting
from gmspike.analytic import eval_spike_rho
from gmspike.cli import CSV_HEADER
from gmspike.verify import compare, ode_residual

BLOCK = cli._BLOCK_ROWS
SEAM_COUNTS = (2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 3 * BLOCK + 1)

# Grids off the aligned nodes, as in the goldens: the inner one spans the
# peak, the boundary one ends at the wall rho = 10.
SPANS = {SpikeKind.INNER: (-9.99987, 10.00013), SpikeKind.BOUNDARY: (-0.00007, 9.99993)}
# Each case: the command, its exponent and its spike kind.
CASES = {
    "analytic": ("analytic", 2.0, SpikeKind.INNER),
    "residual": ("residual", 4.0, SpikeKind.INNER),
    "compare_inner": ("compare", 2.0, SpikeKind.INNER),
    "compare_boundary": ("compare", 3.0, SpikeKind.BOUNDARY),
}


def _points(start, end, count):
    """The full point list of a grid: start + i * step, and the last one exactly end."""
    step = (end - start) / (count - 1)
    return [start + i * step for i in range(count - 1)] + [end]


def _csv(columns):
    """The CSV text of whole columns, None for an empty one, a cell at a time."""
    rows = zip(*(column for column in columns if column is not None))
    template = ",".join("" if column is None else "%.17g" for column in columns) + "\n"
    return CSV_HEADER + "\n" + "".join(template % tuple(x + 0.0 for x in row) for row in rows)


def _reference(command, params, grid, fmt, echo):
    """The bytes the command must write, from whole-grid library calls on ``grid``."""
    if command == "analytic":
        us = eval_spike_rho(params, grid)
        csv = (grid, us, None, None, None)
        result = {"rho": grid, "u_analytic": us}
    elif command == "residual":
        us = []
        residuals = ode_residual(params, grid, profile=us)
        csv = (grid, us, None, None, [abs(r) for r in residuals])
        result = {"rho": grid, "residual": residuals,
                  "max_abs_residual": max(map(abs, residuals))}
    else:
        run = shoot(params)
        report = compare(run, grid)
        errors = [abs(a - n) for a, n in zip(report.analytic, report.numeric)]
        csv = (report.grid, report.analytic, report.numeric, report.numeric_v, errors)
        names = ("grid", "analytic", "numeric", "numeric_v", "max_abs_err", "l2_err")
        comparison = {name: getattr(report, name) for name in names}
        result = {**cli._shoot_result(run), "comparison": comparison}
    if fmt == "csv":
        return _csv(csv)
    return json.dumps({"config": echo, "result": result}, indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("count", SEAM_COUNTS)
def test_blocks_write_the_whole_grid_bytes(count, case, fmt, tmp_path, capsys):
    command, p, kind = CASES[case]
    start, end = SPANS[kind]
    argv = [command, "--p", repr(p), "--spike", kind.value, f"--grid={start!r}:{end!r}:{count}",
            "--format", fmt]
    config = cli._config_from_args(cli._build_parser().parse_args(argv))
    out = tmp_path / f"table.{fmt}"
    assert cli.main([*argv, "--out", str(out)]) == 0
    expected = _reference(command, config.params, _points(start, end, count), fmt,
                          config.to_dict())
    assert out.read_text() == expected
    # The status line reads the aggregates of the whole grid.
    err = capsys.readouterr().err
    if command == "compare" and fmt == "json":
        comparison = json.loads(expected)["result"]["comparison"]
        for name in ("max_abs_err", "l2_err"):
            assert f"{name} = {comparison[name]:.17g}" in err


@pytest.mark.parametrize("case", ["compare_inner", "compare_boundary"])
@pytest.mark.parametrize("count", SEAM_COUNTS)
def test_compare_carries_the_whole_grids_totals_across_blocks(count, case):
    # Each block's report is the next one's ``before``: the last one holds
    # the whole grid's max and l2 bits, and the error columns are its column.
    _, p, kind = CASES[case]
    run = shoot(ProblemParams(p, kind=kind))
    bounds = (*SPANS[kind], count)
    whole = compare(run, _points(*bounds))
    report, abs_err = None, []
    for block in cli._grid_blocks(bounds):
        report = compare(run, block, report)
        abs_err += report.abs_err
    assert report.points == whole.points == count
    assert report.max_abs_err == whole.max_abs_err
    assert report.l2_err == whole.l2_err
    assert abs_err == whole.abs_err


class TestReachBeforeTheFirstByte:
    """The grid's reach is checked before anything is written: both ends in
    one call, and on a miss the grid's blocks in order, so the error names
    the first point the run misses, as the whole-grid library call names it."""

    @staticmethod
    def _recorded(monkeypatch):
        """The point lists each ``cli.eval_profile_grid`` call receives."""
        calls = []

        def recorder(result, rhos):
            calls.append(list(rhos))
            return shooting.eval_profile_grid(result, rhos)

        monkeypatch.setattr(cli, "eval_profile_grid", recorder)
        return calls

    def test_a_reached_grid_is_read_at_its_ends_in_one_call(self, monkeypatch):
        result = shoot(ProblemParams.inner(2.0))
        bounds = (-10.0, 10.0, 2 * BLOCK + 1)
        calls = self._recorded(monkeypatch)
        cli._check_reach(result, bounds)
        assert calls == [[-10.0, 10.0]]

    def test_a_miss_reads_the_grid_a_block_at_a_time(self, monkeypatch):
        result = shoot(ProblemParams.inner(2.0))
        bounds = (-10.0, result.sigma_pk + 1.0, 2 * BLOCK + 1)
        with pytest.raises(ValueError) as excinfo:
            compare(result, _points(*bounds))
        calls = self._recorded(monkeypatch)
        with pytest.raises(ValueError) as reach_info:
            cli._check_reach(result, bounds)
        assert str(reach_info.value) == str(excinfo.value)
        assert max(map(len, calls)) <= BLOCK

    def test_a_miss_in_the_second_block_writes_nothing(self, tmp_path, capsys):
        params = ProblemParams.inner(2.0)
        result = shoot(params)
        end = result.sigma_pk + 1.0
        grid = _points(-10.0, end, 2 * BLOCK + 1)
        with pytest.raises(ValueError) as excinfo:
            compare(result, grid)
        message = str(excinfo.value)
        first = grid.index(float(message.split("rho=")[1].split(" ")[0]))
        assert BLOCK <= first < 2 * BLOCK
        out = tmp_path / "compare.csv"
        argv = ["compare", "--p", "2", f"--grid=-10:{end!r}:{2 * BLOCK + 1}"]
        for extra in (["--out", str(out)], []):
            with pytest.raises(SystemExit) as exit_info:
                cli.main(argv + extra)
            assert exit_info.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert message in captured.err
            assert "Traceback" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("p", [2.0, 100.0])
    def test_the_first_miss_is_the_whole_grids(self, p):
        result = shoot(ProblemParams.inner(p))
        reach = result.sigma_pk
        # Ends on either side of the reach, by less than a step, a few steps or far.
        offsets = (-3.0, -1e-3, -1e-10, 0.0, 1e-10, 1e-3, 0.02, 5.0)
        for count in (2, 3, 17, BLOCK + 5):
            for lo in offsets:
                for hi in offsets:
                    bounds = (-(reach + lo), reach + hi, count)
                    grid = _points(*bounds)
                    try:
                        shooting.eval_profile_grid(result, grid)
                    except ValueError as exc:
                        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                            cli._check_reach(result, bounds)
                    else:
                        cli._check_reach(result, bounds)


MIB = 2**20
MEMORY_POINTS = 50_001
# Each command and the float columns its JSON writes.
MEMORY_COMMANDS = {
    "analytic": (["analytic"], 2),
    "residual": (["residual"], 2),
    "compare": (["compare", "--p", "2"], 4),
}


@functools.lru_cache(maxsize=None)
def _traced_peak(command, fmt, count=MEMORY_POINTS):
    """Traced peak bytes of a grid command on ``count`` points of [-10, 10],
    its shoot included."""
    argv = [*MEMORY_COMMANDS[command][0], f"--grid=-10:10:{count}", "--format", fmt]
    shooting._inward_run.cache_clear()
    with tempfile.TemporaryDirectory() as tmp:
        tracemalloc.start()
        try:
            assert cli.main([*argv, "--out", os.path.join(tmp, "table")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("command", sorted(MEMORY_COMMANDS))
def test_csv_memory_does_not_hold_the_grid(command):
    assert _traced_peak(command, "csv") <= 1 * MIB


@pytest.mark.parametrize("command", sorted(MEMORY_COMMANDS))
def test_json_memory_is_its_columns(command):
    columns = MEMORY_COMMANDS[command][1]
    assert _traced_peak(command, "json") <= 8 * MEMORY_POINTS * columns + 1 * MIB


def test_csv_memory_is_flat_in_the_point_count():
    peaks = [_traced_peak("compare", "csv"), _traced_peak("compare", "csv", 200_001)]
    assert math.isclose(*peaks, abs_tol=0.25 * MIB), peaks
