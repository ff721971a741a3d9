"""Command-line reporting for the spike profiles.

Subcommands
-----------
analytic   evaluate the closed-form profile on a grid
residual   closed-form residual u'' - u + u**p on a grid
shoot      run the shooting solver and report the amplitude it reaches
compare    shooting profile versus closed form on a grid
sweep      compare for p in {2,3,4} x {inner,boundary}; a file each and a summary

``_COMMANDS`` lists the option groups each subcommand's run reads; any other
option is a usage error, and a ``RunConfig`` holds a grid exactly when its run reads one.

Every command emits CSV with the fixed header
``rho,u_analytic,u_numeric,v_numeric,abs_error`` (one schema for all
commands; columns a command does not produce stay empty, and ``residual``
reports |residual| in the abs_error column) or a JSON document embedding
the full configuration echo.  Floats are written with 17 significant
digits, '.' decimal separator, and '\\n' line endings, so identical inputs
produce byte-identical files.  Status lines go to stderr, so stdout carries
only the data.  No environment variables are consulted.

Exit status: 0 on success, 1 when a shoot fails (every case of a sweep
is still tried) or stdout's reader closes early, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from array import array
from functools import partial
from itertools import chain
from operator import index, sub
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .analytic import (
    P_MAX,
    P_MIN,
    ProblemParams,
    SpikeKind,
    eval_spike_rho,
    spike_amplitude,
)
from .ode import IntegratorConfig, checked
from .shooting import ShootingError, ShootingResult, check_within_wall, eval_profile_grid
from .shooting import profile_samples, shoot
from .verify import ComparisonReport, check_first_integral, compare, ode_residual

__all__ = ["RunConfig", "run", "main"]

CSV_HEADER = "rho,u_analytic,u_numeric,v_numeric,abs_error"
_FORMATS = ("csv", "json")

_SWEEP_EXPONENTS = (2.0, 3.0, 4.0)
_SWEEP_GRID_POINTS = 401
_SWEEP_SPAN = 10.0
# Grids are made a block at a time, so this bounds output, not memory: at 10**7
# points a compare CSV is about 1.2 GB, and JSON holds 8 B per value per column.
_MAX_GRID_POINTS = 10_000_000
# Rows of a grid table computed, and held as text, at once.
_BLOCK_ROWS = 1024
# The tolerances, then the step sizes that IntegratorConfig keeps as class constants.
_INTEGRATOR_ECHO = ("rel_tol", "abs_tol", "h_init", "h_min")
_SUMMARY_COLUMNS = (
    "p", "kind", "a_star", "amplitude", "amp_abs_err", "bc_residual", "max_abs_err", "l2_err",
    "converged",
)


@checked
class RunConfig(NamedTuple):
    """One CLI invocation, fully determined and serializable."""

    command: str
    params: ProblemParams
    integrator: IntegratorConfig
    grid: tuple[float, float, int] | None = None
    out: str | None = None
    fmt: str = "csv"

    def _check(self) -> None:
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if (type(self.params), type(self.integrator)) != (ProblemParams, IntegratorConfig):
            raise ValueError("params must be a ProblemParams and integrator an IntegratorConfig")
        if self.fmt not in _FORMATS:
            raise ValueError(f"unknown format {self.fmt!r}; use one of {_FORMATS}")
        if not (self.out is None or isinstance(self.out, str)):
            raise ValueError(f"out must be a str or None, got {self.out!r}")
        if ("grid" in _COMMANDS[self.command][2]) == (self.grid is None):
            raise ValueError(f"{self.command} reads {'a' if self.grid is None else 'no'} grid")
        # A command that reads no grid is checked on its default grid, where a shoot's table lies.
        grid = _default_grid(self.params) if self.grid is None else self.grid
        _check_grid(grid)
        check_within_wall(self.params, (grid[1],))

    def to_dict(self) -> dict:
        """JSON echo; ``params`` lists the derived ``peak_rho`` before ``kind``."""
        params = self.params
        return {
            "command": self.command,
            "params": {
                "p": params.p,
                "epsilon": params.epsilon,
                "half_length": params.half_length,
                "peak_rho": params.peak_rho,
                "kind": params.kind.value,
            },
            "integrator": {name: getattr(self.integrator, name) for name in _INTEGRATOR_ECHO},
            "grid": list(self.grid) if self.grid is not None else None,
            "format": self.fmt,
        }


def _fmt(value: float) -> str:
    # +0.0 collapses negative zero so reruns cannot differ in sign of zero.
    return format(value + 0.0, ".17g")


def _status(text: str) -> None:
    # Status goes to stderr so stdout carries nothing but the artifact.
    print(text, file=sys.stderr)


def _check_grid(bounds: tuple[float, float, int], name: str = "grid") -> None:
    start, end, count = bounds
    try:
        index(count)
    except TypeError:
        raise ValueError(f"{name} point count must be an integer, got {count!r}") from None
    if count < 2:
        raise ValueError(f"{name} needs at least 2 points")
    if count > _MAX_GRID_POINTS:
        raise ValueError(f"{name} takes at most {_MAX_GRID_POINTS} points")
    if not (math.isfinite(start) and math.isfinite(end)):
        raise ValueError(f"{name} bounds must be finite")
    if not (end > start):
        raise ValueError(f"{name} end must exceed start")
    step = (end - start) / (count - 1)
    if not math.isfinite(step):
        raise ValueError(f"{name} step overflows; narrow the grid")
    if not step > 2 * math.ulp(max(abs(start), abs(end))):
        raise ValueError(f"{name} points repeat at its magnitude; widen it or take fewer points")


def _grid_blocks(bounds: tuple[float, float, int]) -> Iterator[list[float]]:
    """A grid's points in lists of ``_BLOCK_ROWS``: point i is start + i * step,
    and the last one exactly end."""
    start, end, count = bounds
    step = (end - start) / (count - 1)
    for first in range(0, count, _BLOCK_ROWS):
        block = [start + i * step for i in range(first, min(first + _BLOCK_ROWS, count))]
        yield block if first + _BLOCK_ROWS < count else [*block[:-1], end]


def _csv_lines(parts: Iterable[Sequence]) -> Iterator[str]:
    """CSV lines under ``CSV_HEADER`` of a table given in parts: each part
    holds its float columns, all of one length and rho first, with None for
    a column left empty.  Each float reads as :func:`_fmt` writes it: a
    chunk of up to ``_BLOCK_ROWS`` rows goes through one %-template per row.
    """
    yield CSV_HEADER + "\n"
    for columns in parts:
        template = ",".join("" if column is None else "%.17g" for column in columns) + "\n"
        for start in range(0, len(columns[0]), _BLOCK_ROWS):
            block = [column[start:start + _BLOCK_ROWS] for column in columns if column is not None]
            # +0.0 collapses negative zero, and only a zero can be negative zero.
            block = [[x + 0.0 for x in part] if 0.0 in part else part for part in block]
            yield (template * len(block[0])) % tuple(chain.from_iterable(zip(*block)))


def _summary_cell(value: float | str | bool | None) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else value if isinstance(value, str) else _fmt(value)


def _summary_lines(rows: list[dict]) -> Iterator[str]:
    """The sweep summary as CSV, a cell at a time: a float as :func:`_fmt`
    writes it, None as an empty cell, a bool as ``true`` or ``false`` and a
    string as it is."""
    yield ",".join(_SUMMARY_COLUMNS) + "\n"
    for row in rows:
        yield ",".join(map(_summary_cell, row.values())) + "\n"


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write ``chunks`` to ``out``, or to stdout, as they are produced."""
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            fh.writelines(chunks)


def _json_chunks(value, pad: str = "") -> Iterator[str]:
    """``value`` as ``json.dumps(value, indent=2)`` writes it at indent
    ``pad``, in chunks; dict keys are strings, as in every report.

    A non-empty dict goes a member at a time, so nested columns are reached.
    A non-empty ``array``, a grid column, is written as a list of its floats:
    ``.tolist()`` slices of ``_BLOCK_ROWS`` items go through the C encoder, a
    chunk each, its item separator carrying the line break and indent.
    Anything else is small and is one ``json.dumps`` chunk; that escapes every
    line break inside a string, so each one in its output is indentation.
    """
    if isinstance(value, dict) and value:
        inner = pad + "  "
        sep = "{\n" + inner
        for key, item in value.items():
            yield sep + json.dumps(key) + ": "
            yield from _json_chunks(item, inner)
            sep = ",\n" + inner
        yield "\n" + pad + "}"
    elif isinstance(value, array) and value:
        sep, lead = ",\n  " + pad, "[\n  " + pad
        for i in range(0, len(value), _BLOCK_ROWS):
            yield lead + json.dumps(value[i:i + _BLOCK_ROWS].tolist(), separators=(sep, ": "))[1:-1]
            lead = sep
        yield "\n" + pad + "]"
    else:
        yield json.dumps(value, indent=2).replace("\n", "\n" + pad)


def _json_document(payload: object) -> Iterator[str]:
    """``json.dumps(payload, indent=2) + "\\n"``, in the chunks of :func:`_json_chunks`."""
    yield from _json_chunks(payload)
    yield "\n"


def _emit_report(config: RunConfig, csv, result) -> None:
    """Write the CSV chunks ``csv()`` returns, or what ``result()`` returns
    under the config echo as JSON; each format builds only its own report."""
    if config.fmt == "csv":
        _emit(csv(), config.out)
    else:
        _emit(_json_document({"config": config.to_dict(), "result": result()}), config.out)


def _emit_table(config: RunConfig, rows, names: Sequence[str], result) -> None:
    """Write a grid table a block at a time: ``rows(block)`` gives its CSV
    columns and its JSON ones, named by ``names``, which JSON gathers as
    arrays of doubles for ``result``."""
    blocks = map(rows, _grid_blocks(config.grid))
    columns = {name: array("d") for name in names}

    def gathered() -> dict:
        for _, parts in blocks:
            for column, part in zip(columns.values(), parts):
                column.extend(part)
        return result(columns)

    _emit_report(config, lambda: _csv_lines(csv for csv, _ in blocks), gathered)


def _run_analytic(config: RunConfig) -> int:
    def rows(block: list[float]) -> tuple:
        values = eval_spike_rho(config.params, block)
        return (block, values, None, None, None), (block, values)

    _emit_table(config, rows, ("rho", "u_analytic"), dict)
    return 0


def _run_residual(config: RunConfig) -> int:
    maxima: list[float] = []

    def rows(block: list[float]) -> tuple:
        values: list[float] = []
        residuals = ode_residual(config.params, block, profile=values)
        abs_residuals = list(map(abs, residuals))
        maxima.append(max(abs_residuals))
        return (block, values, None, None, abs_residuals), (block, residuals)

    _emit_table(config, rows, ("rho", "residual"), lambda c: {**c, "max_abs_residual": max(maxima)})
    _status(f"max |residual| = {_fmt(max(maxima))}")
    return 0


def _shoot_result(result: ShootingResult) -> dict:
    return {
        "a_star": result.a_star,
        "amplitude_closed_form": spike_amplitude(result.params.p),
        "integrations": len(result.classifications),
        "u0": result.u0,
        "sigma_pk": result.sigma_pk,
        "h_drift": check_first_integral(result.trajectory, result.params.p),
        "accepted_steps": result.trajectory.accepted_steps,
        "rejected_steps": result.trajectory.rejected_steps,
    }


def _shoot_columns(result: ShootingResult) -> tuple[list[float], ...]:
    """The CSV columns of the inward run's samples inside the domain, as
    ``shooting.profile_samples`` places them.  u_analytic is the closed form
    at the row's distance d from the peak, the distance the run was read at,
    not at its rounded rho."""
    rhos, ds, us, vs = profile_samples(result)
    uas = eval_spike_rho(ProblemParams.inner(result.params.p), ds)
    return rhos, uas, us, vs, list(map(abs, map(sub, uas, us)))


def _run_shoot(config: RunConfig) -> int:
    result = shoot(config.params, config.integrator)
    _status(f"a_star = {_fmt(result.a_star)}  sigma_pk = {_fmt(result.sigma_pk)}")
    _emit_report(
        config, lambda: _csv_lines([_shoot_columns(result)]), lambda: _shoot_result(result)
    )
    return 0


def _default_grid(params: ProblemParams) -> tuple[float, float, int]:
    """The span within _SWEEP_SPAN of the peak, clipped to the domain [-L/epsilon, L/epsilon]."""
    peak, wall = params.peak_rho, params.half_length / params.epsilon
    grid = (max(peak - _SWEEP_SPAN, -wall), min(peak + _SWEEP_SPAN, wall), _SWEEP_GRID_POINTS)
    # Checked as a --grid is: far enough out, the span next to a wall peak rounds away.
    _check_grid(grid, "default grid")
    return grid


def _check_reach(result: ShootingResult, bounds: tuple[float, float, int]) -> None:
    """Raise what :func:`eval_profile_grid` raises on the whole grid.  The run
    reaches an interval about the peak, so a grid whose two ends it reaches is
    reached in full; on a miss, the grid's blocks are read in order."""
    try:
        eval_profile_grid(result, bounds[:2])
    except ValueError:
        for block in _grid_blocks(bounds):
            eval_profile_grid(result, block)


def _run_comparison(config: RunConfig) -> tuple[ShootingResult, ComparisonReport]:
    """Shoot, check the grid is reached, and write the comparison a block at a
    time; the report returned is the last block's, with the whole grid's totals."""
    result = shoot(config.params, config.integrator)
    _check_reach(result, config.grid)
    reports = [None]  # the report of the blocks so far

    def rows(block: list[float]) -> tuple:
        report = reports[0] = compare(result, block, reports[0])
        columns = (block, report.analytic, report.numeric, report.numeric_v)
        return (*columns, report.abs_err), columns

    def payload(columns: dict) -> dict:
        totals = {"max_abs_err": reports[0].max_abs_err, "l2_err": reports[0].l2_err}
        return {**_shoot_result(result), "comparison": {**columns, **totals}}

    _emit_table(config, rows, ComparisonReport._fields[:4], payload)
    return result, reports[0]


def _run_compare(config: RunConfig) -> int:
    result, report = _run_comparison(config)
    _status(
        f"a_star = {_fmt(result.a_star)}  max_abs_err = {_fmt(report.max_abs_err)}  "
        f"l2_err = {_fmt(report.l2_err)}"
    )
    return 0


def _summary_row(
    params: ProblemParams, outcome: tuple[ShootingResult, ComparisonReport] | None
) -> dict:
    """One case of the sweep summary; its keys are the CSV columns.  A failed
    shoot gives no outcome, and its row holds only ``p`` and ``kind``."""
    row = dict.fromkeys(_SUMMARY_COLUMNS)
    row.update(p=params.p, kind=params.kind.value)
    if outcome is not None:
        result, report = outcome
        amplitude = spike_amplitude(params.p)
        row.update(
            a_star=result.a_star,
            amplitude=amplitude,
            amp_abs_err=abs(result.a_star - amplitude),
            bc_residual=result.bc_residual,
            max_abs_err=report.max_abs_err,
            l2_err=report.l2_err,
            converged=result.converged,
        )
    return row


def _run_sweep(config: RunConfig) -> int:
    out_dir = Path(config.out if config.out is not None else "sweep_out")
    # Every case is built, and so checked, before anything is written.
    cases = []
    for p in _SWEEP_EXPONENTS:
        for kind in SpikeKind:
            params = config.params._replace(p=p, kind=kind)
            out = str(out_dir / f"compare_p{p:g}_{kind.value}.{config.fmt}")
            grid = _default_grid(params)
            cases.append(config._replace(command="compare", params=params, grid=grid, out=out))
    out_dir.mkdir(parents=True, exist_ok=True)
    summary_rows, failed = [], 0
    for case in cases:
        params = case.params
        try:
            outcome = _run_comparison(case)
        except ShootingError as exc:
            outcome, failed = None, failed + 1
            _status(f"solver failure: {params.kind.value} spike at p={params.p!r}: {exc}")
        else:
            result, report = outcome
            _status(
                f"p={params.p:g} {params.kind.value}: a_star={_fmt(result.a_star)} "
                f"max_abs_err={_fmt(report.max_abs_err)}"
            )
        summary_rows.append(_summary_row(params, outcome))

    summary = config._replace(out=str(out_dir / f"summary.{config.fmt}"))
    _emit_report(summary, lambda: _summary_lines(summary_rows), lambda: summary_rows)
    return 1 if failed else 0


# Each subcommand: its runner, its help line, and the option groups its run reads.
_COMMANDS = {
    "analytic": (_run_analytic, "evaluate the closed-form profile on a grid",
                 ("spike", "domain", "grid", "output")),
    "residual": (_run_residual, "closed-form residual u'' - u + u**p on a grid",
                 ("spike", "domain", "grid", "output")),
    "shoot": (_run_shoot, "run the shooting solver and report the amplitude it reaches",
              ("spike", "domain", "solver", "output")),
    "compare": (_run_compare, "shooting profile versus closed form on a grid",
                ("spike", "domain", "solver", "grid", "output")),
    "sweep": (_run_sweep, "compare for p in {2,3,4} x {inner,boundary}; a file each and a summary",
              ("domain", "solver", "output")),
}


def run(config: RunConfig) -> int:
    """Execute one configured command and return the process exit code."""
    try:
        return _COMMANDS[config.command][0](config)
    except ShootingError as exc:
        # Status first: an --out that cannot be written still exits 2 after it.
        _status(f"solver failure: {exc}")
        if config.out is not None:
            _emit(_json_document({"config": config.to_dict(), "error": str(exc)}), config.out)
        return 1


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must be start:end:count")
    try:
        start, end = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {exc}") from exc
    return (start, end, count)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmspike",
        description="Spike solutions of u'' - u + u**p = 0: closed form and shooting.",
    )
    # One parent parser per option group; a subcommand takes only the groups its run reads.
    group = partial(argparse.ArgumentParser, add_help=False)
    groups = {name: group() for name in ("spike", "domain", "solver", "grid", "output")}
    spike, domain, solver, grid, output = groups.values()
    spike.add_argument("--p", type=float, default=2.0, help=f"exponent in [{P_MIN}, {P_MAX}]")
    spike.add_argument(
        "--spike", choices=["inner", "boundary"], default="inner", help="spike location"
    )
    defaults = {**ProblemParams._field_defaults, **IntegratorConfig._field_defaults}
    number = partial(domain.add_argument, type=float)
    number("--epsilon", default=defaults["epsilon"], help="length-scale ratio in (0, 1)")
    number("--L", default=defaults["half_length"], help="half-domain length")
    number = partial(solver.add_argument, type=float)
    number("--rel-tol", default=defaults["rel_tol"], help="integrator relative tolerance")
    number("--abs-tol", default=defaults["abs_tol"], help="integrator absolute tolerance")
    grid_help = "evaluation grid start:end:count (use --grid=-10:10:401 for negative starts)"
    grid.add_argument("--grid", type=_parse_grid, help=grid_help)
    output.add_argument("--format", choices=_FORMATS, default="csv", dest="fmt")
    output.add_argument("--out", help="output file (sweep: output directory)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext, reads) in _COMMANDS.items():
        sub.add_parser(name, help=helptext, parents=[groups[read] for read in reads])
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    values = vars(args)
    # The sweep takes no spike options; its own echo reads as its first case.
    p = values.get("p", _SWEEP_EXPONENTS[0])
    params = ProblemParams(p, args.epsilon, args.L, SpikeKind(values.get("spike", "inner")))
    grid = values.get("grid")
    if grid is None and "grid" in values:
        grid = _default_grid(params)
    # A tolerance that no option of the subcommand sets keeps its class default.
    names = values.keys() & IntegratorConfig._fields
    integrator = IntegratorConfig(**{name: values[name] for name in names})
    return RunConfig(args.command, params, integrator, grid, args.out, args.fmt)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return run(_config_from_args(args))
    except BrokenPipeError:
        # The downstream reader went away (e.g. piping into head). Point
        # stdout at devnull so the interpreter's exit-time flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        # Input the config or the run rejects: a bad option value, a grid
        # beyond the integrated span, or an --out that cannot be written.
        parser.error(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
