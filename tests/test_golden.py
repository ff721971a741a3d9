"""Byte-level golden check of the CLI artifacts and of the shooting solver's runs.

The CSV and JSON files the CLI writes are the project's contract: identical
inputs must give identical bytes, and a refactor must not move a single one.
``golden_sha256.json`` holds the sha256 of every artifact below under
``"digests"``, as written when the file was last regenerated, and under
``"platform"`` the Python, libc and OS they were computed on: the closed
form's bits follow the libm's rounding of exp, log1p and log.  The artifacts
embed no paths, so their digests do not depend on the output directory.
One test reruns the sweep on a correctly rounded ``exp``, ``log1p`` and
``log``, as another libm may round them, and bounds what moves: 2 ulps of
``u_analytic``, and no byte of any other column.

The ``shoot/`` keys pin the shooting solver and its integrator, below the
artifacts, one shoot per exponent of the benchmark's range: the digest of
the repr of the amplitude, the boundary residual, the run log and the
inward run itself (every accepted step's raw stages, the end point, the
rejected steps and the terminal event).  repr round-trips floats exactly,
so one changed bit in one stage of one step changes the digest.

A deliberate change of the numbers or of the configuration echo
regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

which prints every artifact whose digest changed, was added or was removed.
With ``--check`` it recomputes the digests and writes nothing: it prints
the same lines, then a count that names the platform they were computed on,
and exits 1 if there are any; on any difference it also prints the platform
the file was recorded on.  It needs no pytest, so it checks the artifacts
under any Python the package supports.

A digest says only that something moved.  To see what, write every
artifact, and each ``shoot/`` record as text (one item a line, one step a
line), from the parent's source with the parent's copy of this file, so
that a record kind the change stops writing is kept:

    PYTHONPATH=<parent>/src python <parent>/tests/test_golden.py --keep DIR

then compare the change's with them:

    PYTHONPATH=src python tests/test_golden.py --against DIR

It prints, per artifact that moved, how many float cells moved, the
largest move in ulps and relative terms, the rows and columns they sit in
and the first one; text that is not a float cell (headers, integers, the
configuration echo, added or removed lines) is shown as a line diff; a
file that only one side has is named "added" or "removed".  It exits 0
whatever moved: it reports, and ``--check`` is the gate.
"""

import argparse
import contextlib
import csv
import decimal
import difflib
import hashlib
import io
import json
import math
import platform
import re
import struct
import sys
import tempfile
import types
from pathlib import Path
from typing import NamedTuple

from gmspike import ProblemParams, analytic, cli, shoot

GOLDEN = Path(__file__).with_name("golden_sha256.json")

# Artifact name -> CLI arguments before ``--out``.
SINGLE_COMMANDS = {
    "shoot_p3.csv": ["shoot", "--p", "3"],
    "shoot_p2.5.json": ["shoot", "--p", "2.5", "--format", "json"],
    "compare_p3_boundary.json": ["compare", "--p", "3", "--spike", "boundary", "--format", "json"],
    "analytic_p2.json": ["analytic", "--p", "2", "--format", "json"],
    "residual_p4.csv": ["residual", "--p", "4"],
    # Grids shifted off the aligned nodes: points fall between steps, on
    # both sides of the reflection, and right up to the wall.
    "compare_p2_shifted.csv": ["compare", "--p", "2", "--grid=-9.99987:10.00013:2001"],
    "compare_p3_boundary_shifted.json": [
        "compare", "--p", "3", "--spike", "boundary", "--grid=-0.00007:9.99993:2001",
        "--format", "json",
    ],
    "residual_p2_shifted.json": [
        "residual", "--p", "2", "--grid=-9.99987:10.00013:2001", "--format", "json",
    ],
    "analytic_p1.2_shifted.csv": ["analytic", "--p", "1.2", "--grid=-9.99987:10.00013:2001"],
    # The solver-failure diagnostic: no step meets these tolerances, the
    # command exits 1, and the file holds config and error.
    "compare_p2_unconverged.json": [
        "compare", "--p", "2", "--rel-tol", "1e-300", "--abs-tol", "1e-300", "--format", "json",
    ],
}

# Exit status of each single command that does not exit 0.
EXIT_CODES = {"compare_p2_unconverged.json": 1}


def _platform() -> str:
    """Python, libc and OS of this process, e.g. "Python 3.11.7, glibc 2.36, linux"."""
    libc = " ".join(platform.libc_ver()).strip() or "unknown libc"
    return f"Python {platform.python_version()}, {libc}, {sys.platform}"


def _golden() -> dict:
    """The recorded digests, by key."""
    return json.loads(GOLDEN.read_text())["digests"]


# The items of a raw step, as ``Trajectory.steps`` holds them: a moved
# cell of a record's step is named by its stage.
STEP_FIELDS = (
    "rho", "h", "u", "v", "k1u", "k3u", "k4u", "k5u", "k6u", "k7u",
    "k1v", "k3v", "k4v", "k5v", "k6v", "k7v",
)


def _shoot_records() -> dict:
    """Digest key -> record of each ``shoot/`` run, its items by name."""
    records = {}
    for p in (1.01, 1.2, 2.0, 4.0, 10.0, 100.0):
        r = shoot(ProblemParams.inner(p))
        t = r.trajectory
        records[f"shoot/p{p:g}"] = {
            "a_star": r.a_star, "bc_residual": r.bc_residual,
            "classifications": r.classifications, "steps": t.steps, "end": t.end,
            "rejected_steps": t.rejected_steps, "terminal_event": t.terminal_event,
        }
    return records


def _record_digests(records: dict) -> dict:
    """The digest of the repr of each record's items, as one tuple."""
    return {
        key: hashlib.sha256(repr(tuple(record.values())).encode()).hexdigest()
        for key, record in records.items()
    }


def _record_text(record: dict) -> str:
    """A record's repr as "name = repr" lines, one step a line."""
    lines = []
    for name, value in record.items():
        if name == "steps":
            lines.extend(f"steps[{i}] = {step!r}" for i, step in enumerate(value))
        else:
            lines.append(f"{name} = {value!r}")
    return "\n".join(lines) + "\n"


def _shoot_digests() -> dict:
    return _record_digests(_shoot_records())


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _dir_digests(directory: Path, prefix: str) -> dict:
    return {f"{prefix}/{path.name}": _sha256(path) for path in sorted(directory.iterdir())}


def _json_sweep_digests(out: Path) -> dict:
    assert cli.main(["sweep", "--format", "json", "--out", str(out)]) == 0
    return _dir_digests(out, "sweep_json")


def _single_digests(out_dir: Path) -> dict:
    digests = {}
    for name, argv in SINGLE_COMMANDS.items():
        out = out_dir / name
        assert cli.main([*argv, "--out", str(out)]) == EXIT_CODES.get(name, 0)
        digests[name] = _sha256(out)
    return digests


def test_sweep_csv_matches_golden(sweep_dirs):
    golden = _golden()
    digests = _dir_digests(sweep_dirs[0], "sweep_csv")
    assert digests == {k: v for k, v in golden.items() if k.startswith("sweep_csv/")}


def test_sweep_json_matches_golden(tmp_path):
    golden = _golden()
    digests = _json_sweep_digests(tmp_path)
    assert digests == {k: v for k, v in golden.items() if k.startswith("sweep_json/")}


# Ulps by which a correctly rounded libm may move a u_analytic cell; no other column moves.
LIBM_ULPS = 2


def _correctly_rounded(function, calls):
    """``function`` of a Decimal, evaluated to 40 significant digits and
    rounded once to a float; each call is counted in ``calls``."""

    def rounded(x: float) -> float:
        calls.append(x)
        x = decimal.Decimal(x)
        with decimal.localcontext() as context:
            # 1 + x keeps 40 digits of x however small x is.
            context.prec = 40 + max(0, -x.adjusted())
            return float(function(x))

    return rounded


def _ordered_bits(x: float) -> int:
    """An integer that counts ulps: adjacent floats differ in it by 1."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _case_rows(directory: Path) -> dict:
    """The rows of each case file of a sweep, by file name."""
    return {
        path.name: list(csv.DictReader(path.read_text().splitlines()))
        for path in sorted(directory.iterdir()) if path.name != "summary.csv"
    }


def test_another_libm_moves_only_u_analytic_by_at_most_2_ulps(sweep_dirs, tmp_path, monkeypatch):
    # exp, log1p and log are the closed form's libm calls: here they round
    # correctly, as a libm other than this one may where this one does not.
    calls = []
    libm = {
        "exp": _correctly_rounded(decimal.Decimal.exp, calls),
        "log1p": _correctly_rounded(lambda x: (1 + x).ln(), calls),
        "log": _correctly_rounded(decimal.Decimal.ln, calls),
    }
    monkeypatch.setattr(analytic, "math", types.SimpleNamespace(**{**vars(math), **libm}))
    assert cli.main(["sweep", "--out", str(tmp_path)]) == 0
    assert calls
    native, swapped = _case_rows(sweep_dirs[0]), _case_rows(tmp_path)
    assert native.keys() == swapped.keys() and len(native) == 6
    for name, rows in native.items():
        assert len(swapped[name]) == len(rows), name
        for row, other in zip(rows, swapped[name]):
            for column in ("rho", "u_numeric", "v_numeric"):
                assert other[column] == row[column], (name, row["rho"], column)
            ulps = abs(_ordered_bits(float(other["u_analytic"]))
                       - _ordered_bits(float(row["u_analytic"])))
            assert ulps <= LIBM_ULPS, (name, row["rho"], ulps)


def test_single_commands_match_golden(tmp_path):
    golden = _golden()
    digests = _single_digests(tmp_path)
    assert digests == {k: golden[k] for k in SINGLE_COMMANDS}


def test_shoots_match_golden():
    golden = _golden()
    digests = _shoot_digests()
    assert digests == {k: v for k, v in golden.items() if k.startswith("shoot/")}


def test_golden_file_names_its_platform():
    recorded = json.loads(GOLDEN.read_text())
    assert set(recorded) == {"platform", "digests"}
    assert recorded["platform"].startswith("Python ")


def _write_artifacts(root: Path) -> dict:
    """Write every CLI artifact under ``root``, each at its digest key: the
    sweeps in ``sweep_csv/`` and ``sweep_json/``, the single commands at the
    top.  Returns their digests."""
    (root / "sweep_csv").mkdir(exist_ok=True)
    (root / "sweep_json").mkdir(exist_ok=True)
    assert cli.main(["sweep", "--out", str(root / "sweep_csv")]) == 0
    digests = _dir_digests(root / "sweep_csv", "sweep_csv")
    digests.update(_json_sweep_digests(root / "sweep_json"))
    digests.update(_single_digests(root))
    return digests


def _all_digests() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        digests = _write_artifacts(Path(tmp))
    digests.update(_shoot_digests())
    return digests


def _keep(root: Path) -> None:
    """Write every artifact and record under ``root``: an artifact at its
    digest key, a record at its key plus ".txt"."""
    _write_artifacts(root)
    for key, record in _shoot_records().items():
        path = root / f"{key}.txt"
        path.parent.mkdir(exist_ok=True)
        path.write_text(_record_text(record))


class _Line(NamedTuple):
    """One line of an artifact, split into its float cells and the rest."""

    text: str
    # The text with each float cell replaced by "#": lines are paired on it.
    skeleton: str
    cells: tuple
    # Where each cell sits, and the row and column it is counted under.
    wheres: tuple
    rows: tuple
    columns: tuple


# A float as repr or json writes it, not part of a name: "u0" holds none.  A
# preceding "name=" or "name = " names the cell.
_FLOAT = re.compile(
    r"(?:(\w+) ?= ?)?(?<![\w.])([-+]?(?:\d+\.\d*(?:e[-+]?\d+)?|\d+e[-+]?\d+|inf|nan))(?![\w.])"
)


def _text_line(text: str, row: str) -> _Line:
    """A line whose float cells are written with a point or an exponent: a
    step's cells are named by their stage, others by a preceding "name="
    or their place, and counted under their row and that name."""
    matches = list(_FLOAT.finditer(text))
    if row.startswith("steps[") and len(matches) == len(STEP_FIELDS):
        names, columns = STEP_FIELDS, STEP_FIELDS
    else:
        names = [m[1] or f"#{k}" for k, m in enumerate(matches)] if len(matches) > 1 else [""]
        columns = [f"{row} {name}".rstrip() for name in names]
    skeleton, end = [], 0
    for match in matches:
        skeleton += [text[end:match.start(2)], "#"]
        end = match.end(2)
    return _Line(
        text, "".join(skeleton) + text[end:], tuple(float(m[2]) for m in matches),
        tuple(f"{row}, {name}" if name else row for name in names), (row,) * len(matches),
        tuple(columns),
    )


def _float_or_none(field: str):
    try:
        return float(field)
    except ValueError:
        return None


def _csv_lines(text: str) -> list:
    """A CSV's lines: in a row with commas, each field that reads as a float
    is a cell, named by the header, the last row with none; a line without
    commas is text with its cells written out."""
    lines, header, row = [], (), 0
    for k, line in enumerate(text.splitlines(), 1):
        fields = line.split(",")
        values = list(map(_float_or_none, fields))
        if len(fields) == 1:
            lines.append(_text_line(line, f"line {k}"))
            continue
        if values.count(None) == len(values):
            header, row = tuple(fields), 0
            lines.append(_Line(line, line, (), (), (), ()))
            continue
        row += 1
        names = header if len(header) == len(fields) else [f"#{i}" for i in range(len(fields))]
        cells = [(x, name) for x, name in zip(values, names) if x is not None]
        skeleton = ",".join("#" if x is not None else field for x, field in zip(values, fields))
        lines.append(_Line(
            line, skeleton, tuple(x for x, _ in cells),
            tuple(f"row {row}, {name}" for _, name in cells), (f"row {row}",) * len(cells),
            tuple(name for _, name in cells),
        ))
    return lines


def _json_lines(text: str) -> list:
    """A JSON document as one "path = value" line per leaf; a float leaf is
    a cell, counted under its path's list indices as its row and the rest
    as its column."""
    lines = []

    def walk(path, value):
        if isinstance(value, dict) and value:
            for key, item in value.items():
                walk(f"{path}.{key}" if path else key, item)
        elif isinstance(value, list) and value:
            for i, item in enumerate(value):
                walk(f"{path}[{i}]", item)
        elif isinstance(value, float):
            row = "".join(re.findall(r"\[\d+\]", path))
            column = re.sub(r"\[\d+\]", "[]", path)
            lines.append(
                _Line(f"{path} = {value!r}", f"{path} = #", (value,), (path,), (row,), (column,))
            )
        else:
            line = f"{path} = {json.dumps(value)}"
            lines.append(_Line(line, line, (), (), (), ()))

    walk("", json.loads(text))
    return lines


def _record_lines(text: str) -> list:
    return [_text_line(line, line.partition(" = ")[0]) for line in text.splitlines()]


def _artifact_lines(name: str, text: str) -> list:
    parse = {".csv": _csv_lines, ".json": _json_lines, ".txt": _record_lines}
    return parse[Path(name).suffix](text)


def _cell_diff(name: str, old_text: str, new_text: str) -> list[str]:
    """Report lines for one artifact that moved: its float cells, then a
    line diff of the rest."""
    old, new = _artifact_lines(name, old_text), _artifact_lines(name, new_text)
    a, b = [line.skeleton for line in old], [line.skeleton for line in new]
    if a == b:
        pairs, removed, added = list(zip(old, new)), [], []
    else:
        pairs, removed, added = [], [], []
        matcher = difflib.SequenceMatcher(None, a, b, autojunk=False)
        for tag, i1, i2, j1, j2 in matcher.get_opcodes():
            if tag == "equal":
                pairs += zip(old[i1:i2], new[j1:j2])
            else:
                removed += old[i1:i2]
                added += new[j1:j2]
    cells, moves, rows, columns = 0, [], {}, {}
    for before, after in pairs:
        cells += len(before.cells)
        places = zip(before.cells, after.cells, after.wheres, after.rows, after.columns)
        for x, y, where, row, column in places:
            ulps = abs(_ordered_bits(y) - _ordered_bits(x))
            if ulps:
                scale = max(abs(x), abs(y))
                moves.append((ulps, abs(y - x) / scale if scale else 0.0, where, x, y))
                rows[row] = columns[column] = None
    lines = [f"{name}: {len(moves)} of {cells} float cells moved"]
    if moves:
        ulps, rel, where, x, y = moves[0]
        shown = ", ".join(list(columns)[:8]) + (", ..." if len(columns) > 8 else "")
        lines.append(
            f"  largest {max(m[0] for m in moves)} ulps, {max(m[1] for m in moves):.3g} "
            f"relative; {len(rows)} rows, columns {shown}"
        )
        lines.append(f"  first at {where}: {x!r} -> {y!r}")
    if removed or added:
        lines.append(f"  {len(removed)} lines removed, {len(added)} added:")
        diff = [f"  - {_clip(line.text)}" for line in removed]
        diff += [f"  + {_clip(line.text)}" for line in added]
        lines += diff[:_DIFF_LINES]
        if len(diff) > _DIFF_LINES:
            lines.append(f"  ... {len(diff) - _DIFF_LINES} more")
    return lines


# Lines of text diff shown per artifact, and characters per line.
_DIFF_LINES = 8
_DIFF_WIDTH = 100


def _clip(text: str) -> str:
    return text if len(text) <= _DIFF_WIDTH else text[:_DIFF_WIDTH - 3] + "..."


def _files(root: Path) -> dict:
    """Path relative to ``root`` -> bytes, of every file under it."""
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def _against(kept: Path) -> list[str]:
    """The cell report of this source's artifacts against those kept in ``kept``."""
    old = _files(kept)
    if not old:
        raise SystemExit(f"no kept artifacts in {kept}")
    with tempfile.TemporaryDirectory() as tmp:
        _keep(Path(tmp))
        new = _files(Path(tmp))
    lines, moved = [], 0
    for name in sorted(old.keys() | new.keys()):
        if name not in new or name not in old:
            lines.append(f"{name}: {'removed' if name in old else 'added'}")
        elif old[name] != new[name]:
            lines += _cell_diff(name, old[name].decode(), new[name].decode())
        else:
            continue
        moved += 1
    lines.append(f"{moved} of {len(old.keys() | new.keys())} artifacts and records moved")
    return lines


def test_against_its_own_kept_artifacts_nothing_moves(tmp_path, capsys):
    assert main(["--keep", str(tmp_path)]) == 0
    kept = {path.relative_to(tmp_path).as_posix() for path in tmp_path.rglob("*.*")}
    assert kept == {key + ".txt" if key.startswith("shoot/") else key for key in _golden()}
    capsys.readouterr()
    assert main(["--against", str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"0 of {len(_golden())} artifacts and records moved\n"


def test_against_names_a_record_only_the_kept_side_has_as_removed(tmp_path, capsys):
    # As a parent's integrate/ records are, once the run they recorded is gone.
    assert main(["--keep", str(tmp_path)]) == 0
    (tmp_path / "integrate").mkdir()
    (tmp_path / "integrate" / "p2_a1.txt").write_text("steps[0] = (0.0, 0.1)\n")
    capsys.readouterr()
    assert main(["--against", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "integrate/p2_a1.txt: removed",
        f"1 of {len(_golden()) + 1} artifacts and records moved",
    ]


def test_a_record_is_its_repr_one_step_a_line():
    record = _shoot_records()["shoot/p2"]
    text = _record_text(record)
    steps = record["steps"]
    lines = text.splitlines()
    assert len(lines) == len(record) - 1 + len(steps)
    assert lines[3] == f"steps[0] = {steps[0]!r}"
    assert lines[-1] == f"terminal_event = {record['terminal_event']!r}"


def _next_float(x: float, ulps: int = 1) -> float:
    for _ in range(ulps):
        x = math.nextafter(x, math.inf)
    return x


def test_cell_diff_names_the_moved_cells_of_a_csv():
    rows = [(0.0, 1.5, -0.25), (0.5, 1.25, -0.5), (1.0, 1.0, -0.75)]
    old = "rho,u,v\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)
    rows[1] = (0.5, _next_float(1.25, 3), -0.5)
    rows[2] = (1.0, 1.0, _next_float(-0.75))
    new = "rho,u,v\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)
    report = _cell_diff("a.csv", old, new)
    assert report[0] == "a.csv: 2 of 9 float cells moved"
    assert report[1].startswith("  largest 3 ulps, ")
    assert report[1].endswith("relative; 2 rows, columns u, v")
    assert report[2] == f"  first at row 2, u: 1.25 -> {_next_float(1.25, 3)!r}"
    assert len(report) == 3


def test_cell_diff_shows_text_as_a_line_diff():
    old = json.dumps({"config": {"grid": None}, "result": {"a": 1.5, "steps": 149}})
    new = json.dumps({"config": {"grid": [0.0, 1.0]}, "result": {"a": 1.5, "steps": 144}})
    assert _cell_diff("b.json", old, new) == [
        "b.json: 0 of 1 float cells moved",
        "  2 lines removed, 3 added:",
        "  - config.grid = null",
        "  - result.steps = 149",
        "  + config.grid[0] = 0.0",
        "  + config.grid[1] = 1.0",
        "  + result.steps = 144",
    ]


def test_cell_diff_names_a_step_cell_by_its_stage():
    step = tuple(float(k) for k in range(len(STEP_FIELDS)))
    moved = (*step[:12], _next_float(12.0), *step[13:])
    old = _record_text({"steps": [step, step], "rejected_steps": 0})
    new = _record_text({"steps": [step, moved], "rejected_steps": 0})
    report = _cell_diff("shoot/x.txt", old, new)
    assert report[0] == f"shoot/x.txt: 1 of {2 * len(STEP_FIELDS)} float cells moved"
    assert report[1].endswith("relative; 1 rows, columns k4v")
    assert report[2] == f"  first at steps[1], k4v: 12.0 -> {_next_float(12.0)!r}"


def _differences(old: dict, new: dict) -> list[str]:
    """One line per digest that was added, removed or changed, by key."""
    lines = []
    for key in sorted(new.keys() | old.keys()):
        if key not in old:
            lines.append(f"added: {key}")
        elif key not in new:
            lines.append(f"removed: {key}")
        elif new[key] != old[key]:
            lines.append(f"changed: {key}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate or check the golden digests.")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--check", action="store_true",
        help="recompute the digests, write nothing, and exit 1 if any differs",
    )
    mode.add_argument(
        "--keep", type=Path, metavar="DIR",
        help="write every artifact and shoot record into DIR, and no digest",
    )
    mode.add_argument(
        "--against", type=Path, metavar="DIR",
        help="print the cells that moved from the artifacts kept in DIR; exit 0",
    )
    args = parser.parse_args(argv)
    if args.keep or args.against:
        # The commands' status lines are not this report's.
        with contextlib.redirect_stderr(io.StringIO()):
            if args.keep:
                args.keep.mkdir(parents=True, exist_ok=True)
                _keep(args.keep)
                source = Path(cli.__file__).parent
                report = [f"kept the artifacts and records of {source} in {args.keep}"]
            else:
                report = _against(args.against)
        print("\n".join(report))
        return 0
    recorded = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"digests": {}}
    old = recorded["digests"]
    # The commands' status lines are not this report's.
    with contextlib.redirect_stderr(io.StringIO()):
        digests = _all_digests()
    differences = _differences(old, digests)
    for line in differences:
        print(line, file=sys.stderr)
    current = _platform()
    if args.check:
        print(
            f"{len(differences)} of {len(digests.keys() | old.keys())} digests differ "
            f"from {GOLDEN.name} (computed on {current})",
            file=sys.stderr,
        )
        if differences:
            print(
                f"{GOLDEN.name} was recorded on {recorded.get('platform')}; "
                f"this check ran on {current}",
                file=sys.stderr,
            )
        return 1 if differences else 0
    GOLDEN.write_text(json.dumps({"platform": current, "digests": digests}, indent=2) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
