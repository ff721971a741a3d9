"""Command-line interface checks: schemas, exit codes, and determinism."""

import filecmp
import json
import math
import os
import random
import subprocess
import sys
from array import array
from itertools import chain, repeat
from pathlib import Path

import numpy as np
import pytest

from gmspike import IntegratorConfig, ProblemParams, ShootingError, cli, shooting
from gmspike.cli import CSV_HEADER

SRC = Path(cli.__file__).resolve().parents[1]

SWEEP_FILES = (
    "compare_p2_inner.csv",
    "compare_p2_boundary.csv",
    "compare_p3_inner.csv",
    "compare_p3_boundary.csv",
    "compare_p4_inner.csv",
    "compare_p4_boundary.csv",
    "summary.csv",
)

SUMMARY_HEADER = "p,kind,a_star,amplitude,amp_abs_err,bc_residual,max_abs_err,l2_err,converged"

# The result keys of a shoot's JSON report; a compare's adds "comparison".
SHOOT_KEYS = [
    "a_star", "amplitude_closed_form", "integrations", "u0", "sigma_pk", "h_drift",
    "accepted_steps", "rejected_steps",
]


# Each subcommand takes the options of the groups its run reads, and no other.
SPIKE, DOMAIN, GRID = ("--p", "--spike"), ("--epsilon", "--L"), ("--grid",)
SOLVER = ("--rel-tol", "--abs-tol")
OUTPUT = ("--format", "--out")
OPTIONS_TAKEN = {
    "analytic": SPIKE + DOMAIN + GRID + OUTPUT,
    "residual": SPIKE + DOMAIN + GRID + OUTPUT,
    "shoot": SPIKE + DOMAIN + SOLVER + OUTPUT,
    "compare": SPIKE + DOMAIN + SOLVER + GRID + OUTPUT,
    "sweep": DOMAIN + SOLVER + OUTPUT,
}
# Each option with a valid value other than its default.  --eta, --delta
# and --rho-l set the amplitude search, which the inward run replaced; no
# subcommand takes them any more.
OPTION_ARGV = {
    "--p": ["--p", "3"],
    "--spike": ["--spike", "boundary"],
    "--epsilon": ["--epsilon", "0.2"],
    "--L": ["--L", "2"],
    "--eta": ["--eta", "0.02"],
    "--delta": ["--delta", "0.05"],
    "--rho-l": ["--rho-l", "11"],
    "--rel-tol": ["--rel-tol", "1e-9"],
    "--abs-tol": ["--abs-tol", "1e-11"],
    "--grid": ["--grid=-1:0:3"],
    "--format": ["--format", "json"],
    "--out": ["--out", "x"],
}
OPTION_CASES = [(command, option) for command in OPTIONS_TAKEN for option in OPTION_ARGV]


# Each way a shoot can end short of its peak: the options or the fixture
# that bring it about, and the words the diagnostic names it by.  No step
# meets tolerances of 1e-300, so step-size control underflows.  The start
# outside the homoclinic loop ends after its first step, where z < -1; the
# one inside it turns at sigma = artanh(1/2), at its minimum u = u0 *
# sqrt(3) / 2 (see tests/conftest.py).
FAILURES = {
    "step_failure": (("--rel-tol", "1e-300", "--abs-tol", "1e-300"), None, "step size underflow"),
    "reached_end": ((), "short_horizon", "ended reached_end at sigma=5.0,"),
    "left_loop": ((), "outside_loop_start", "ended left_loop at sigma=0.001,"),
    "turned_at_minimum": ((), "inside_loop_start", "turned at a minimum, u=8.6602"),
}


@pytest.fixture(params=FAILURES)
def failed_shoot(request):
    """Options that make the shoots of p = 2, 3 and 4 fail one way, and the
    words the diagnostic names that failure by."""
    argv, patch, words = FAILURES[request.param]
    if patch is not None:
        request.getfixturevalue(patch)
    return list(argv), words


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


class TestArgumentHandling:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate"],
            ["analytic", "--grid", "bogus"],
            ["analytic", "--grid", "0:1:1"],
            ["analytic", "--grid", "1:0:10"],
            # A non-finite bound, or a step that overflows, would write nan rows.
            ["analytic", "--grid=0:inf:3"],
            ["analytic", "--grid=-1e308:1e308:3"],
            # An infinite tolerance would turn error control off.
            ["shoot", "--rel-tol", "inf"],
            ["shoot", "--abs-tol", "inf"],
        ],
    )
    def test_bad_invocations_exit_2(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("grid", ["--grid=a:1:3", "--grid=0:1:2.5"])
    def test_grid_with_a_bad_number_exits_2(self, grid, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["analytic", grid])
        assert excinfo.value.code == 2
        assert f"bad grid {grid[len('--grid='):]!r}" in capsys.readouterr().err

    def test_run_rejects_an_unknown_command(self):
        with pytest.raises(ValueError, match="unknown command 'frobnicate'"):
            config = cli.RunConfig("frobnicate", ProblemParams.inner(2.0), IntegratorConfig())
            cli.run(config)

    @pytest.mark.parametrize(
        "fields, words",
        [
            ({"command": "frobnicate"}, "unknown command 'frobnicate'"),
            ({"fmt": "xml"}, "unknown format 'xml'"),
            ({"grid": (0.0, 1.0, 3.0)}, "grid point count must be an integer, got 3.0"),
            ({"grid": (0.0, 1.0, "3")}, "grid point count must be an integer, got '3'"),
            ({"params": None}, "params must be a ProblemParams"),
            ({"integrator": {"rel_tol": 1e-8}}, "integrator an IntegratorConfig"),
            ({"out": 5}, "out must be a str or None, got 5"),
            # A field of the wrong type is a bad field, not a TypeError.
            ({"grid": 5}, "bad RunConfig field: "),
            ({"grid": ("a", 1.0, 3)}, "bad RunConfig field: "),
            # A shoot reads no grid, but its table lies on the default one,
            # which rounds away next to a wall peak at 1e21.
            (
                {"command": "shoot", "grid": None,
                 "params": ProblemParams.boundary(3.0, 0.1, 1e20)},
                "default grid end must exceed start",
            ),
        ],
    )
    def test_run_config_checks_every_field_when_built(self, fields, words):
        grid = (0.0, 1.0, 3)
        good = cli.RunConfig("analytic", ProblemParams.inner(2.0), IntegratorConfig(), grid)
        with pytest.raises(ValueError, match=words):
            cli.RunConfig(**{**good._asdict(), **fields})
        with pytest.raises(ValueError, match=words):
            good._replace(**fields)

    def test_a_numpy_integer_count_is_a_count(self, tmp_path):
        out = tmp_path / "a.csv"
        grid = (0.0, 1.0, np.int64(3))
        config = cli.RunConfig("analytic", ProblemParams.inner(2.0), IntegratorConfig(), grid)
        assert cli.run(config._replace(out=str(out))) == 0
        assert len(out.read_text().splitlines()) == 1 + 3

    def test_a_reader_that_closes_early_exits_1_quietly(self):
        # 200,001 rows are megabytes, far more than a pipe holds, so the
        # command is still writing when its reader goes.
        argv = [sys.executable, "-m", "gmspike.cli", "analytic", "--grid=-10:10:200001"]
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        with subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        ) as proc:
            assert proc.stdout.readline().decode() == CSV_HEADER + "\n"
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=60) == 1
        assert err == ""

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["analytic", "--p", "2", "--grid=1e16:10000000000000010:401"], "grid"),
            (["compare", "--p", "2", "--spike", "boundary", "--L", "1e15"], "default grid"),
            (["shoot", "--p", "2", "--spike", "boundary", "--L", "1e15"], "default grid"),
            (["sweep", "--L", "1e15"], "default grid"),
        ],
    )
    def test_a_grid_whose_points_repeat_exits_2(self, argv, name, tmp_path, capsys):
        # Doubles near 1e16 lie 2 apart, so a step of 0.025 there gives a
        # handful of distinct rho values; the wall L/epsilon = 1e16 puts the
        # default grid of a boundary spike there.
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            cli.main([*argv, "--out", str(out)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert f"error: {name} points repeat at its magnitude" in err
        assert not out.exists()

    def test_a_wall_below_2_to_the_46_keeps_its_default_grid(self, tmp_path):
        # The default step, 0.025, exceeds 2 ulps of 7e13 (0.0156) but not
        # of 2**46 (0.03125).
        out = tmp_path / "compare.csv"
        argv = ["compare", "--spike", "boundary", "--L", "7e12", "--out", str(out)]
        assert cli.main(argv) == 0
        _, rows = read_rows(out)
        rhos = [float(row[0]) for row in rows]
        assert len(rhos) == cli._SWEEP_GRID_POINTS
        assert all(a < b for a, b in zip(rhos, rhos[1:]))
        with pytest.raises(ValueError, match="default grid points repeat"):
            cli._default_grid(ProblemParams.boundary(2.0, 0.5, 2.0**45))

    def test_a_grid_just_above_the_repeat_bound_strictly_increases(self):
        rng = random.Random(34)
        accepted = 0
        for _ in range(2000):
            magnitude = rng.uniform(1.0, 2.0) * 2.0 ** rng.randint(-60, 60)
            count = rng.randint(2, 2000)
            step = 2.0 * math.ulp(magnitude) * rng.uniform(1.0, 1.5)
            start = rng.choice((-1.0, 1.0)) * magnitude
            bounds = (start, start + (count - 1) * step, count)
            try:
                cli._check_grid(bounds)
            except ValueError:
                continue
            # Chained, so the pairs that straddle a block seam are checked too.
            grid = list(chain.from_iterable(cli._grid_blocks(bounds)))
            assert len(grid) == count and grid[-1] == bounds[1], bounds
            assert all(a < b for a, b in zip(grid, grid[1:])), bounds
            accepted += 1
        assert accepted > 1000

    def test_grid_count_is_capped(self):
        cli._check_grid((0.0, 1.0, cli._MAX_GRID_POINTS))
        for count in (cli._MAX_GRID_POINTS + 1, 10**20):
            with pytest.raises(ValueError, match="at most"):
                cli._check_grid((0.0, 1.0, count))

    @pytest.mark.parametrize(
        "count", ["9" * 400, str(cli._MAX_GRID_POINTS + 1)], ids=["400_nines", "cap+1"]
    )
    def test_huge_grid_count_exits_2_before_building_the_grid(self, count, monkeypatch, capsys):
        def explode(bounds):
            raise AssertionError("grid built past the cap")

        monkeypatch.setattr(cli, "_grid_blocks", explode)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["analytic", f"--grid=0:1:{count}"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert "Traceback" not in err
        assert f"grid takes at most {cli._MAX_GRID_POINTS} points" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--p", "100", "--grid=-17:17:5"],
            ["compare", "--p", "2", "--grid=-20:20:11"],
            ["compare", "--p", "2", "--spike", "boundary", "--grid=-20:10:5"],
        ],
    )
    def test_input_rejected_by_the_run_exits_2(self, argv, capsys):
        # The integrated span is known only once the run is over.
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--p", "2", "--grid=-20:5:5"],
            ["compare", "--p", "2", "--spike", "boundary", "--grid=-20:10:5"],
        ],
    )
    def test_grid_beyond_the_span_names_the_grid_point(self, argv, capsys):
        # -20 is 20 (inner) or 30 (boundary) from the peak; the grid point is named.
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "rho=-20.0 lies outside the integrated span" in err
        assert "rho=20.0" not in err and "rho=30.0" not in err

    def test_grid_past_the_reported_turn_exits_2(self, capsys):
        # At p = 100 the run turns at its peak 16.17 from its start, short of rho = 17.
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["compare", "--p", "100", "--grid=-17:17:5"])
        assert excinfo.value.code == 2
        assert "rho=-17.0 lies outside the integrated span" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compare", "sweep", "shoot"])
    @pytest.mark.parametrize(
        "domain",
        [
            # half_length / epsilon overflows to inf.
            ["--L", "1e308", "--epsilon", "0.001"],
            # The edge is finite, but the 10-wide default span rounds away at 1e21.
            ["--L", "1e20", "--epsilon", "0.1"],
        ],
    )
    def test_unrepresentable_boundary_domain_exits_2(self, command, domain, tmp_path, capsys):
        out = tmp_path / "out"
        # The sweep runs the boundary cases anyway, and takes no spike options.
        spike = ["--p", "3", "--spike", "boundary"] if command != "sweep" else []
        argv = [command, *spike, *domain, "--out", str(out)]
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert "Traceback" not in err
        assert "overflows" in err or "default grid" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analytic", "residual", "compare"])
    def test_boundary_grid_past_the_wall_exits_2_before_running(
        self, command, tmp_path, monkeypatch, capsys
    ):
        def explode(*args, **kwargs):
            raise AssertionError("computed before the grid was checked")

        for name in ("shoot", "eval_spike_rho", "ode_residual"):
            monkeypatch.setattr(cli, name, explode)
        out = tmp_path / "out"
        argv = [command, "--p", "2", "--spike", "boundary", "--grid=0:20:5", "--out", str(out)]
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert "Traceback" not in err
        assert "rho=20.0 lies outside the domain" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, option", [case for case in OPTION_CASES if case[1] in OPTIONS_TAKEN[case[0]]]
    )
    def test_an_option_taken_reaches_the_config(self, command, option):
        parse = cli._build_parser().parse_args
        default = cli._config_from_args(parse([command]))
        assert cli._config_from_args(parse([command, *OPTION_ARGV[option]])) != default

    @pytest.mark.parametrize(
        "command, option",
        [case for case in OPTION_CASES if case[1] not in OPTIONS_TAKEN[case[0]]],
    )
    def test_an_option_not_taken_exits_2(self, command, option, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([command, *OPTION_ARGV[option]])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: " + " ".join(OPTION_ARGV[option]) in err

    @pytest.mark.parametrize(
        "argv, existing",
        [
            (["analytic", "--grid=0:1:3"], "directory"),
            (["sweep"], "file"),
            # The diagnostic of a failed compare goes to --out as well.
            (["compare", "--rel-tol", "1e-300", "--abs-tol", "1e-300", "--format", "json"],
             "directory"),
        ],
    )
    def test_unwritable_out_exits_2(self, argv, existing, tmp_path, capsys):
        out = tmp_path / "taken"
        if existing == "directory":
            out.mkdir()
        else:
            out.write_text("")
        with pytest.raises(SystemExit) as excinfo:
            cli.main([*argv, "--out", str(out)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if argv[0] == "compare":
            # The solver failure is reported before its diagnostic fails to be written.
            first, err = err.split("\n", 1)
            assert first.startswith("solver failure: ")
        assert err.startswith("usage: ")
        assert "gmspike: error: " in err

    @pytest.mark.parametrize("command", ["analytic", "residual", "shoot", "compare", "sweep"])
    def test_cli_defaults_are_the_library_defaults(self, command):
        # analytic and residual take no solver options, and sweep no spike
        # options; each still echoes the library defaults for them.
        args = cli._build_parser().parse_args([command])
        config = cli._config_from_args(args)
        # The shoot has no settings of its own, so the echo has none to carry.
        assert list(config.to_dict()) == ["command", "params", "integrator", "grid", "format"]
        assert config.integrator == IntegratorConfig()
        # The tolerances, then the step sizes a run starts from and stops at.
        assert config.to_dict()["integrator"] == {
            "rel_tol": 1e-10, "abs_tol": 1e-12, "h_init": 1e-3, "h_min": 1e-12,
        }
        assert config.params.epsilon == ProblemParams.inner(2.0).epsilon
        assert config.params.half_length == ProblemParams.inner(2.0).half_length
        assert config.params == ProblemParams.inner(2.0)
        # Each option taken defaults to its record's field default: a field
        # read off a NamedTuple class is a descriptor, not its default.
        params, integrator = ProblemParams(2.0), IntegratorConfig()
        defaults = {
            "epsilon": params.epsilon, "L": params.half_length,
            "rel_tol": integrator.rel_tol, "abs_tol": integrator.abs_tol,
        }
        given = vars(args)
        taken = defaults.keys() & given.keys()
        assert {"epsilon", "L"} <= taken
        assert {name: given[name] for name in taken} == {name: defaults[name] for name in taken}

    @pytest.mark.parametrize("fmt", cli._FORMATS)
    @pytest.mark.parametrize("command", cli._COMMANDS)
    def test_a_default_config_runs_and_echoes_the_grid_it_read(self, command, fmt, tmp_path):
        config = cli._config_from_args(cli._build_parser().parse_args([command]))
        out = tmp_path / command
        assert cli.run(config._replace(out=str(out), fmt=fmt)) == 0
        if fmt == "json":
            report = out / "summary.json" if command == "sweep" else out
            echo = json.loads(report.read_text())["config"]
            # The shoot reads no grid, and the sweep builds one per case.
            read = [-10.0, 10.0, 401] if command in ("analytic", "residual", "compare") else None
            assert echo["grid"] == read
        # A grid where the command reads none, or none where it reads one, is refused.
        flipped = (-1.0, 1.0, 3) if config.grid is None else None
        with pytest.raises(ValueError, match=f"^{command} reads"):
            cli.RunConfig(**{**config._asdict(), "grid": flipped})
        with pytest.raises(ValueError, match=f"^{command} reads"):
            config._replace(grid=flipped)

    def test_the_docstring_lists_each_help_line(self):
        for name, (_, helptext, _) in cli._COMMANDS.items():
            assert f"\n{name:<10} {helptext}\n" in cli.__doc__

    def test_equals_form_accepts_negative_grid(self, capsys):
        assert cli.main(["analytic", "--grid=-2:2:5"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == CSV_HEADER


class TestAnalyticCommand:
    def test_stdout_schema(self, capsys):
        assert cli.main(["analytic", "--p", "2", "--grid=-2:2:5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 6
        cells = lines[3].split(",")
        assert cells[0] == "0"
        assert cells[1] == "1.5"
        assert cells[2] == cells[3] == cells[4] == ""

    def test_file_output_uses_unix_newlines(self, tmp_path):
        out = tmp_path / "profile.csv"
        assert cli.main(["analytic", "--grid=-1:1:3", "--out", str(out)]) == 0
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_no_negative_zero_cells(self, tmp_path):
        out = tmp_path / "spike.csv"
        assert cli.main(["shoot", "--p", "2", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert all(cell != "-0" for row in rows for cell in row)


def _csv_reference(rows, header):
    """The CSV text of ``rows``, spelled one cell at a time."""

    def cell(x):
        if x is None:
            return ""
        if isinstance(x, bool):
            return "true" if x else "false"
        return x if isinstance(x, str) else format(x + 0.0, ".17g")

    return header + "\n" + "".join(",".join(map(cell, row)) + "\n" for row in rows)


class TestCsvCells:
    """The grid writer, from float columns: every cell reads as
    format(x + 0.0, ".17g"), and every cell of an empty (None) column is
    empty.  The sweep summary, the one table with other cells, is written a
    cell at a time by a writer of its own.

    How the text is split into chunks is not the contract; that no chunk
    holds more than one block of rows is, so a large grid is never held as
    text."""

    FLOATS = (-0.0, 5e-324, 1e-300, 0.1, 1 / 3, 1e16, math.inf, math.nan, -math.inf, -2.5)
    BLOCK = cli._BLOCK_ROWS

    def check(self, columns):
        n = len(columns[0])
        rows = list(zip(*(repeat(None, n) if column is None else column for column in columns)))
        chunks = list(cli._csv_lines([columns]))
        assert chunks[0] == CSV_HEADER + "\n"
        assert "".join(chunks) == _csv_reference(rows, CSV_HEADER)
        assert max(chunk.count("\n") for chunk in chunks) <= self.BLOCK
        return chunks

    def check_summary(self, rows):
        """The summary of ``rows``, tuples of its cells, against the per-cell reference."""
        cases = [dict(zip(cli._SUMMARY_COLUMNS, row, strict=True)) for row in rows]
        text = "".join(cli._summary_lines(cases))
        assert text == _csv_reference(rows, SUMMARY_HEADER)
        return text

    def test_float_cells_match_the_17_digit_format(self):
        column = list(self.FLOATS)
        chunks = self.check((column, column, None, [-x for x in column], None))
        assert "-0" not in chunks[1].replace("\n", ",").split(",")
        # Every float in every column, and columns given as tuples, which the
        # writer slices as it slices compare's lists.
        self.check([self.FLOATS[i:] + self.FLOATS[:i] for i in range(len(self.FLOATS))])

    @pytest.mark.parametrize("special", [-0.0, 0.0, math.nan, math.inf, -math.inf])
    def test_specials_at_the_ends_of_blocks(self, special):
        n = 2 * self.BLOCK + 7
        columns = (
            [i / 7 - 100.0 for i in range(n)],
            [math.exp(-i / 50) for i in range(n)],
            None,
            [-1 / (i + 3) for i in range(n)],
            [1e-17 * i for i in range(n)],
        )
        for i in (0, self.BLOCK - 1, self.BLOCK, 2 * self.BLOCK - 1, 2 * self.BLOCK, n - 1):
            columns[0][i], columns[1][i], columns[3][i], columns[4][i] = (
                special, -special, special, 2.5
            )
        chunks = self.check(columns)
        assert len(chunks) == 1 + 3
        cells = "".join(chunks).replace("\n", ",").split(",")
        assert "-0" not in cells

    def test_exactly_one_block(self):
        column = [-0.0] + [i * 0.25 for i in range(1, self.BLOCK - 1)] + [math.nan]
        chunks = self.check((column, None, column[::-1], None, None))
        assert len(chunks) == 1 + 1

    def test_float_and_empty_columns(self):
        column = [i * 0.1 for i in range(self.BLOCK + 1)]
        self.check((column, None, [-x * 1e-2 for x in column], None, None))
        self.check((column, None, None, None, None))
        self.check((column, [-0.0] * len(column), None, None, column))
        self.check((column,))

    def test_no_rows_and_empty_rows(self):
        assert list(cli._csv_lines([([], None, [], None, ())])) == [CSV_HEADER + "\n"]
        # A summary of failed cases whose every cell is empty.
        assert self.check_summary([(None,) * 9] * 2).endswith("\n,,,,,,,,\n,,,,,,,,\n")

    def test_summary_cells_keep_their_spelling(self):
        rows = [
            (2.0, "inner", 1.5, 1.5, 1e-5, None, -0.0, 0.0, True),
            (3.0, "boundary", None, None, None, None, None, None, False),
        ]
        assert self.check_summary(rows) == (
            SUMMARY_HEADER + "\n"
            f"2,inner,1.5,1.5,{format(1e-5, '.17g')},,0,0,true\n"
            "3,boundary,,,,,,,false\n"
        )

    def test_bools_without_a_zero_are_spelled_out(self):
        self.check_summary([(2.0, "inner", 1.5, 1.5, 1e-9, 2e-7, 3e-6, 1e-6, True)] * 3)

    def test_shape_changes_in_mid_stream(self):
        # A failed case's row, which holds only p and kind, among converged rows.
        converged = (2.0, "inner", 1.5, 1.5, 1e-9, 2e-7, 3e-6, -0.0, True)
        failed = (3.0, "boundary", None, None, None, None, None, None, None)
        self.check_summary([converged, failed, converged, converged, failed])


class TestCsvMatchesJson:
    """A command's CSV and JSON reports carry the same numbers: each CSV
    column reads back, by repr, as the JSON column it was written from, up
    to the sign of zero, which the CSV drops."""

    CASES = [
        ("inner", []),
        ("inner", ["--grid=-3.3:7.1:57"]),
        ("boundary", []),
        ("boundary", ["--grid=2.5:9.75:30"]),
    ]

    @staticmethod
    def reports(argv, tmp_path):
        """The CSV columns by header name, and the JSON result, of one command."""
        csv_out, json_out = tmp_path / "report.csv", tmp_path / "report.json"
        assert cli.main([*argv, "--out", str(csv_out)]) == 0
        assert cli.main([*argv, "--format", "json", "--out", str(json_out)]) == 0
        header, rows = read_rows(csv_out)
        assert header == CSV_HEADER
        return dict(zip(header.split(","), zip(*rows))), json.loads(json_out.read_text())["result"]

    @staticmethod
    def assert_same(cells, values):
        assert [repr(float(cell)) for cell in cells] == [repr(x + 0.0) for x in values]

    @pytest.mark.parametrize("spike, grid", CASES)
    def test_analytic(self, spike, grid, tmp_path):
        csv, result = self.reports(["analytic", "--p", "3", "--spike", spike, *grid], tmp_path)
        self.assert_same(csv["rho"], result["rho"])
        self.assert_same(csv["u_analytic"], result["u_analytic"])
        assert set(csv["u_numeric"] + csv["v_numeric"] + csv["abs_error"]) == {""}

    @pytest.mark.parametrize("spike, grid", CASES)
    def test_residual(self, spike, grid, tmp_path):
        argv = ["--p", "3", "--spike", spike, *grid]
        csv, result = self.reports(["residual", *argv], tmp_path)
        self.assert_same(csv["rho"], result["rho"])
        self.assert_same(csv["abs_error"], map(abs, result["residual"]))
        assert result["max_abs_residual"] == max(map(float, csv["abs_error"]))
        # The u the residual was built from is the analytic command's u.
        _, analytic = self.reports(["analytic", *argv], tmp_path)
        self.assert_same(csv["u_analytic"], analytic["u_analytic"])
        assert set(csv["u_numeric"] + csv["v_numeric"]) == {""}

    @pytest.mark.parametrize("spike, grid", CASES)
    def test_compare(self, spike, grid, tmp_path):
        csv, result = self.reports(["compare", "--p", "3", "--spike", spike, *grid], tmp_path)
        comparison = result["comparison"]
        self.assert_same(csv["rho"], comparison["grid"])
        self.assert_same(csv["u_analytic"], comparison["analytic"])
        self.assert_same(csv["u_numeric"], comparison["numeric"])
        self.assert_same(csv["v_numeric"], comparison["numeric_v"])
        errors = [abs(a - n) for a, n in zip(comparison["analytic"], comparison["numeric"])]
        self.assert_same(csv["abs_error"], errors)
        assert comparison["max_abs_err"] == max(map(float, csv["abs_error"]))


class TestResidualCommand:
    def test_reports_maximum(self, capsys, tmp_path):
        out = tmp_path / "residual.csv"
        assert cli.main(["residual", "--p", "3", "--out", str(out)]) == 0
        message = capsys.readouterr().err
        assert "max |residual|" in message
        value = float(message.strip().rsplit("=", 1)[1])
        assert value < 1e-12
        header, rows = read_rows(out)
        assert header == CSV_HEADER
        assert all(float(row[4]) < 1e-12 for row in rows)

    @pytest.mark.parametrize(
        "argv",
        [["--p", "3"], ["--p", "100", "--grid=0:1e306:2"], ["--p", "2", "--grid=-1e308:0:3"]],
    )
    def test_reported_maximum_is_the_column_maximum(self, argv, capsys, tmp_path):
        # Far out, u'' was once NaN there, and max() kept whichever came first.
        out = tmp_path / "residual.csv"
        assert cli.main(["residual", *argv, "--out", str(out)]) == 0
        value = float(capsys.readouterr().err.strip().rsplit("=", 1)[1])
        _, rows = read_rows(out)
        assert value == max(float(row[4]) for row in rows)
        assert all(math.isfinite(float(row[4])) for row in rows)

    def test_finite_next_to_the_peak(self, tmp_path):
        # exp(-2t) rounds to 1 for 0 < t < ~5e-17, where log1p(-1) raises.
        out = tmp_path / "residual.csv"
        assert cli.main(["residual", "--p", "2", "--grid=-1e-17:1e-17:3", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert [float(row[0]) for row in rows] == [-1e-17, 0.0, 1e-17]
        assert all(math.isfinite(float(row[4])) and float(row[4]) < 1e-12 for row in rows)


class TestJsonDocument:
    """The streamed JSON writer: its chunks join to json.dumps(x, indent=2) + "\\n"."""

    def test_every_command_payload(self, tmp_path, monkeypatch):
        payloads = []
        document = cli._json_document

        def record(payload):
            payloads.append(payload)
            return document(payload)

        monkeypatch.setattr(cli, "_json_document", record)
        runs = [
            (["analytic", "--grid=-3:3:7"], 0),
            (["residual", "--grid=-1e-17:1e-17:3"], 0),
            (["shoot", "--p", "2.5"], 0),
            (["compare", "--p", "3", "--spike", "boundary", "--grid=-0.00007:9.99993:11"], 0),
            # The solver-failure diagnostic, {config, error}.
            (["compare", "--p", "2", "--rel-tol", "1e-300", "--abs-tol", "1e-300"], 1),
            # Failed cases leave null cells in the summary.
            (["sweep", "--rel-tol", "1e-300", "--abs-tol", "1e-300"], 1),
        ]
        for i, (argv, code) in enumerate(runs):
            out = tmp_path / str(i)
            assert cli.main([*argv, "--format", "json", "--out", str(out)]) == code
        assert [payload["config"]["command"] for payload in payloads[:5]] == [
            "analytic", "residual", "shoot", "compare", "compare",
        ]
        assert list(payloads[3]["result"]) == [*SHOOT_KEYS, "comparison"]
        assert set(payloads[4]) == {"config", "error"}
        assert any(None in row.values() for row in payloads[-1]["result"])
        for payload in payloads:
            # A grid column is an array of doubles, written as the list of its floats.
            reference = json.dumps(payload, indent=2, default=array.tolist)
            assert "".join(document(payload)) == reference + "\n"

    @pytest.mark.parametrize(
        "value",
        [
            [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1],
            (1.5, -0.0),
            [],
            {},
            [[], {}],
            {"a": {}, "b": []},
            [-3.0, 3.0, 4],
            [True, 1.0, None, "x"],
            {"ok": True, "no": False, "none": None, "n": 7, "x": 1e-300},
            {"error": "p=2 \u2014 \u00fc diverged at \u221e"},
            [{"a": [1.0, 2.0], "b": [1, 2]}, {"c": [[1.0], [2, 3.0]]}],
            3.5,
            "s",
            None,
            # Line breaks and separators inside strings, which json.dumps escapes.
            {"s": "a\nb\r\nc\td\u2028e"},
            {"outer": {"s": "\n", "t": ["\r\n", "\t\u2028"]}},
            # The sweep summary's shape, a list of dicts, one level down.
            {"result": [{"p": 2.0, "kind": "inner", "converged": True}, {"p": 3.0, "ok": None}]},
            # The config echo's grid: ints among floats, two levels down.
            {"config": {"grid": [-3.0, 3.0, 7]}},
            {"nan": math.nan, "inf": math.inf, "-inf": -math.inf},
        ],
    )
    def test_matches_json_dumps(self, value):
        assert "".join(cli._json_document(value)) == json.dumps(value, indent=2) + "\n"

    @pytest.mark.parametrize("extra", [0, 1, cli._BLOCK_ROWS + 3])
    def test_float_columns_longer_than_a_block(self, extra):
        count = cli._BLOCK_ROWS + extra
        column = [math.sin(i) * 10.0 ** (i % 40 - 20) for i in range(count)]
        column[0], column[cli._BLOCK_ROWS - 1], column[-1] = -0.0, math.nan, math.inf
        value = {"grid": array("d", column), "tail": tuple(column[:3])}
        chunks = list(cli._json_document(value))
        assert "".join(chunks) == json.dumps({**value, "grid": column}, indent=2) + "\n"
        assert max(chunk.count("\n") for chunk in chunks) <= cli._BLOCK_ROWS


class TestShootCommand:
    def test_json_payload(self, tmp_path):
        out = tmp_path / "shoot.json"
        assert cli.main(["shoot", "--p", "2", "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        result = payload["result"]
        assert list(result) == SHOOT_KEYS
        assert abs(result["a_star"] - result["amplitude_closed_form"]) < 1e-10
        assert result["integrations"] == 1
        # What the run did: where it started, how far it ran, how well it kept H.
        assert result["u0"] == 1e-7
        assert 17.9 < result["sigma_pk"] < 18.0
        assert 0.0 < result["h_drift"] < 1e-10
        assert result["accepted_steps"] > 0

    def test_json_bytes_deterministic(self, tmp_path):
        paths = [tmp_path / name for name in ("a.json", "b.json")]
        for path in paths:
            # Each command integrates its own run, not the one shoot kept.
            shooting._inward_run.cache_clear()
            assert (
                cli.main(["shoot", "--p", "4", "--format", "json", "--out", str(path)])
                == 0
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_tracks_the_trajectory(self, tmp_path):
        out = tmp_path / "shoot.csv"
        assert cli.main(["shoot", "--p", "2", "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert header == CSV_HEADER
        assert rows[0][0] == "0"
        assert rows[0][3] == "0"
        # The run reaches 17.9 from the peak; the table stops at the wall
        # L/epsilon = 10: its last row is the run's last sample inside it.
        result = cli.shoot(ProblemParams.inner(2.0))
        ds = [result.sigma_pk - sigma for sigma, _ in result.trajectory.samples]
        assert float(rows[-1][0]) <= 10.0 < max(d for d in ds if d > float(rows[-1][0]))
        assert len(rows) == sum(d <= 10.0 for d in ds)
        rhos = [float(row[0]) for row in rows]
        assert rhos == sorted(rhos)
        assert all(float(row[3]) <= 0.0 for row in rows)
        assert all(float(row[4]) < 1e-9 for row in rows)

    def test_boundary_rows_run_inward_from_the_wall(self, tmp_path):
        out = tmp_path / "shoot.csv"
        assert cli.main(["shoot", "--p", "3", "--spike", "boundary", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert float(rows[0][0]) == 10.0
        assert all(float(row[0]) <= 10.0 for row in rows)
        assert all(float(row[3]) >= 0.0 for row in rows)
        # u_analytic is read at the row's distance from the peak.
        assert all(float(row[4]) < 1e-9 for row in rows)

    def test_boundary_error_column_is_the_inner_one(self, tmp_path):
        # At epsilon = 1e-7 the wall is at rho = 1e7, where the label
        # rho = 1e7 - d keeps only d's top bits; the closed form is read at
        # d itself, so every column but rho and v is the inner table's.
        columns = {}
        for spike in ("inner", "boundary"):
            out = tmp_path / f"{spike}.csv"
            argv = ["shoot", "--p", "2", "--spike", spike, "--epsilon", "1e-7", "--out", str(out)]
            assert cli.main(argv) == 0
            _, rows = read_rows(out)
            columns[spike] = [(row[1], row[2], row[4]) for row in rows]
        assert columns["boundary"] == columns["inner"]
        assert max(float(error) for _, _, error in columns["inner"]) < 1e-10

    def test_rows_stay_inside_a_narrow_domain(self, tmp_path):
        # At epsilon = 0.2 the domain is [-5, 5]: the run reaches 17.2 from
        # the wall, past the far wall, and those samples are dropped.
        out = tmp_path / "shoot.csv"
        argv = ["shoot", "--p", "3", "--spike", "boundary", "--epsilon", "0.2", "--out", str(out)]
        assert cli.main(argv) == 0
        _, rows = read_rows(out)
        rhos = [float(row[0]) for row in rows]
        assert rhos[0] == 5.0
        assert all(-5.0 <= rho <= 5.0 for rho in rhos)
        result = cli.shoot(ProblemParams.boundary(3.0, 0.2))
        ds = [result.sigma_pk - sigma for sigma, _ in result.trajectory.samples]
        assert len(rows) == sum(d <= 10.0 for d in ds) < len(ds)

    def test_stdout_carries_only_the_csv(self, capsys):
        assert cli.main(["shoot", "--p", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(CSV_HEADER + "\n")
        assert captured.err.startswith("a_star = ")

    def test_unmet_tolerance_exits_1(self, tmp_path, capsys):
        # No step can meet these tolerances: step-size control underflows.
        out = tmp_path / "shoot.json"
        argv = ["shoot", "--rel-tol", "1e-300", "--abs-tol", "1e-300", "--out", str(out)]
        assert cli.main(argv) == 1
        assert "step size underflow" in capsys.readouterr().err
        diagnostic = json.loads(out.read_text())
        assert set(diagnostic) == {"config", "error"}
        assert diagnostic["error"].startswith("step size underflow")

    def test_run_short_of_its_peak_exits_1(self, tmp_path, capsys, short_horizon):
        out = tmp_path / "shoot.json"
        assert cli.main(["shoot", "--p", "2", "--format", "json", "--out", str(out)]) == 1
        assert "solver failure: shooting did not converge" in capsys.readouterr().err
        diagnostic = json.loads(out.read_text())
        assert set(diagnostic) == {"config", "error"}
        assert "ended reached_end at sigma=5.0," in diagnostic["error"]

    def test_solver_failure_writes_diagnostic(self, tmp_path, monkeypatch, capsys):
        def explode(*args, **kwargs):
            raise ShootingError("step size underflow")

        monkeypatch.setattr(cli, "shoot", explode)
        out = tmp_path / "diag.json"
        rc = cli.main(["shoot", "--p", "2", "--format", "json", "--out", str(out)])
        assert rc == 1
        assert "solver failure" in capsys.readouterr().err
        diagnostic = json.loads(out.read_text())
        assert diagnostic["error"] == "step size underflow"
        assert diagnostic["config"]["params"]["p"] == 2.0


class TestCompareCommand:
    def test_inner_default_grid(self, tmp_path):
        out = tmp_path / "cmp.csv"
        assert cli.main(["compare", "--p", "2", "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert header == CSV_HEADER
        assert len(rows) == 401
        assert float(rows[0][0]) == -10.0
        assert float(rows[-1][0]) == 10.0
        assert max(float(row[4]) for row in rows) < 1e-4

    @pytest.mark.parametrize(
        "spike, epsilon, wall", [("inner", "0.2", 5.0), ("boundary", "0.5", 2.0)]
    )
    def test_default_grid_is_clipped_to_the_domain(self, tmp_path, spike, epsilon, wall):
        out = tmp_path / "cmp.csv"
        argv = ["compare", "--p", "2", "--spike", spike, "--epsilon", epsilon, "--out", str(out)]
        assert cli.main(argv) == 0
        _, rows = read_rows(out)
        rhos = [float(row[0]) for row in rows]
        assert len(rhos) == 401
        assert (rhos[0], rhos[-1]) == (-wall, wall)
        assert all(-wall <= rho <= wall for rho in rhos)

    def test_boundary_grid_ends_at_the_peak(self, tmp_path):
        out = tmp_path / "cmp.csv"
        assert cli.main(
            ["compare", "--p", "3", "--spike", "boundary", "--out", str(out)]
        ) == 0
        _, rows = read_rows(out)
        assert len(rows) == 401
        assert float(rows[-1][0]) == 10.0
        assert float(rows[0][0]) == 0.0
        assert abs(float(rows[-1][3])) < 1e-12

    def test_unconverged_shoot_is_a_solver_failure(self, tmp_path, capsys, short_horizon):
        out = tmp_path / "x.json"
        argv = ["compare", "--p", "2", "--out", str(out)]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert "solver failure" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        diagnostic = json.loads(out.read_text())
        assert set(diagnostic) == {"config", "error"}
        assert diagnostic["config"]["command"] == "compare"
        assert "did not converge" in diagnostic["error"]


class TestSolverFailure:
    @pytest.mark.parametrize("command", ["shoot", "compare"])
    def test_exits_1_with_the_diagnostic(self, tmp_path, capsys, failed_shoot, command):
        argv, words = failed_shoot
        out = tmp_path / "x.csv"
        assert cli.main([command, "--p", "2", *argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("solver failure: ")
        assert words in captured.err
        assert "Traceback" not in captured.err
        diagnostic = json.loads(out.read_text())
        assert set(diagnostic) == {"config", "error"}
        assert diagnostic["config"]["command"] == command
        assert words in diagnostic["error"]


class TestSweepCommand:
    def test_produces_expected_files(self, sweep_dirs):
        for name in SWEEP_FILES:
            assert (sweep_dirs[0] / name).is_file()
        assert len(list(sweep_dirs[0].iterdir())) == len(SWEEP_FILES)

    def test_summary_contents(self, sweep_dirs):
        header, rows = read_rows(sweep_dirs[0] / "summary.csv")
        assert header == SUMMARY_HEADER
        assert len(rows) == 6
        assert [row[0] for row in rows] == ["2", "2", "3", "3", "4", "4"]
        assert {row[1] for row in rows} == {"inner", "boundary"}
        for row in rows:
            assert float(row[4]) < 1e-4
            assert float(row[6]) < 1e-4
            assert row[8] == "true"

    def test_per_file_errors_match_summary(self, sweep_dirs):
        _, summary = read_rows(sweep_dirs[0] / "summary.csv")
        for row in summary:
            name = f"compare_p{row[0]}_{row[1]}.csv"
            _, rows = read_rows(sweep_dirs[0] / name)
            assert len(rows) == 401
            recomputed = max(float(r[4]) for r in rows)
            assert recomputed == pytest.approx(float(row[6]), rel=1e-12)

    def test_failed_shoots_are_summary_rows(self, tmp_path, capsys, failed_shoot):
        argv, words = failed_shoot
        assert cli.main(["sweep", *argv, "--format", "json", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("solver failure") == 6
        assert words in err
        assert "Traceback" not in err
        assert [path.name for path in tmp_path.iterdir()] == ["summary.json"]
        rows = json.loads((tmp_path / "summary.json").read_text())["result"]
        assert [(row["p"], row["kind"]) for row in rows] == [
            (p, kind) for p in (2.0, 3.0, 4.0) for kind in ("inner", "boundary")
        ]
        for row in rows:
            # A failed case fills only p and kind; converged stays empty too.
            assert list(row) == SUMMARY_HEADER.split(",")
            assert {row[key] for key in list(row)[2:]} == {None}

    def test_reruns_are_byte_identical(self, sweep_dirs):
        match, mismatch, errors = filecmp.cmpfiles(
            sweep_dirs[0], sweep_dirs[1], SWEEP_FILES, shallow=False
        )
        assert sorted(match) == sorted(SWEEP_FILES)
        assert mismatch == []
        assert errors == []
