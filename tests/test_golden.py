"""Byte-level golden check of the CLI artifacts and of raw integrations.

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

The ``integrate/`` keys pin the integrator itself, below the artifacts: the
digest of the repr of everything a run returns (every accepted step's raw
stages, the end point, the step counts and the terminal event).  repr round-trips floats exactly, so one changed bit in one stage of
one step changes the digest.  The ``shoot/`` keys pin the shooting solver
the same way, one shoot per exponent of the benchmark's range: the
amplitude, the boundary residual, the run log and the inward run itself.

A deliberate change of the numbers or of the configuration echo
regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

which prints every artifact whose digest changed, was added or was removed.
With ``--check`` it recomputes the digests and writes nothing: it prints
the same lines, then a count that names the platform they were computed on,
and exits 1 if there are any; on any difference it also prints the platform
the file was recorded on.  It needs no pytest, so it checks the artifacts
under any Python the package supports.
"""

import argparse
import contextlib
import csv
import decimal
import hashlib
import io
import json
import math
import platform
import struct
import sys
import tempfile
import types
from pathlib import Path

from gmspike import ProblemParams, State, analytic, cli, integrate, shoot, spike_amplitude

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


def _integrate_runs() -> dict:
    """Digest key -> integrate arguments (initial, rho_start, rho_end, p)."""
    runs = {}
    # Below, at and above the spike amplitude: undershoots that turn or
    # reach the end, the spike, and overshoots whose crossing step probes
    # u < 0, where every p uses the odd extension u * |u|**(p - 1).
    for p in (1.01, 1.2, 2.5, 3.0, 100.0):
        amp = spike_amplitude(p)
        for scale in (0.9, 1.0, 1.1):
            runs[f"integrate/p{p:g}_a{scale:g}"] = (State(scale * amp, 0.0), 0.0, 12.0, p)
    # u**100 overflows inside the stages of the first trial steps.
    runs["integrate/p100_overflow"] = (State(1.5, 0.0), 0.0, 2.0, 100.0)
    # A fractional-p overshoot: the crossing step's stages probe u < 0.
    runs["integrate/p2.5_overshoot"] = (
        State(spike_amplitude(2.5) + 0.1, 0.0), 0.0, 12.0, 2.5,
    )
    return runs


def _integrate_digests() -> dict:
    digests = {}
    for key, args in _integrate_runs().items():
        t = integrate(*args)
        record = (
            t.steps, t.end, t.accepted_steps, t.rejected_steps, t.terminal_event,
        )
        digests[key] = hashlib.sha256(repr(record).encode()).hexdigest()
    return digests


def _shoot_digests() -> dict:
    digests = {}
    for p in (1.01, 1.2, 2.0, 4.0, 10.0, 100.0):
        r = shoot(ProblemParams.inner(p))
        t = r.trajectory
        record = (
            r.a_star, r.bc_residual, r.classifications,
            t.steps, t.end, t.rejected_steps, t.terminal_event,
        )
        digests[f"shoot/p{p:g}"] = hashlib.sha256(repr(record).encode()).hexdigest()
    return digests


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


def test_integrate_runs_match_golden():
    golden = _golden()
    digests = _integrate_digests()
    assert digests == {k: v for k, v in golden.items() if k.startswith("integrate/")}


def test_shoots_match_golden():
    golden = _golden()
    digests = _shoot_digests()
    assert digests == {k: v for k, v in golden.items() if k.startswith("shoot/")}


def test_golden_file_names_its_platform():
    recorded = json.loads(GOLDEN.read_text())
    assert set(recorded) == {"platform", "digests"}
    assert recorded["platform"].startswith("Python ")


def _all_digests() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for sub in ("csv", "json", "single"):
            (root / sub).mkdir()
        assert cli.main(["sweep", "--out", str(root / "csv")]) == 0
        digests = _dir_digests(root / "csv", "sweep_csv")
        digests.update(_json_sweep_digests(root / "json"))
        digests.update(_single_digests(root / "single"))
    digests.update(_integrate_digests())
    digests.update(_shoot_digests())
    return digests


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
    parser.add_argument(
        "--check", action="store_true",
        help="recompute the digests, write nothing, and exit 1 if any differs",
    )
    args = parser.parse_args(argv)
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
