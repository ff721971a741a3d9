"""Command-line reporting for the spike profiles.

Subcommands
-----------
analytic   evaluate the closed-form profile on a grid
residual   closed-form residual u'' - u + u**p on a grid
shoot      run the shooting solver and report the amplitude it reaches
compare    shooting profile versus closed form on a grid
sweep      compare for p in {2, 3, 4} x {inner, boundary}; one file per
           case plus a summary table

Each subcommand takes only the option groups its run reads (spike, domain,
solver, grid, output); any other option is a usage error.

Every command emits CSV with the fixed header
``rho,u_analytic,u_numeric,v_numeric,abs_error`` (one schema for all
commands; columns a command does not produce stay empty, and ``residual``
reports |residual| in the abs_error column) or a JSON document embedding
the full configuration echo.  Floats are written with 17 significant
digits, '.' decimal separator, and '\\n' line endings, so identical inputs
produce byte-identical files.  Status lines go to stderr, so stdout carries
only the data.  No environment variables are consulted.

Exit status: 0 on success, 1 when a shoot fails (every case of a sweep
is still tried), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .analytic import (
    P_MAX,
    P_MIN,
    ProblemParams,
    SpikeKind,
    eval_spike_rho,
    eval_spike_rho_grid,
    spike_amplitude,
)
from .ode import IntegratorConfig
from .shooting import ShootingError, ShootingResult, check_within_wall, shoot
from .verify import ComparisonReport, check_first_integral, compare, ode_residual

__all__ = ["RunConfig", "run", "main"]

CSV_HEADER = "rho,u_analytic,u_numeric,v_numeric,abs_error"

_SWEEP_EXPONENTS = (2.0, 3.0, 4.0)
_SWEEP_GRID_POINTS = 401
_SWEEP_SPAN = 10.0
_SUMMARY_COLUMNS = (
    "p", "kind", "a_star", "amplitude", "amp_abs_err", "bc_residual", "max_abs_err", "l2_err",
    "converged",
)


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation, fully determined and serializable."""

    command: str
    params: ProblemParams
    integrator: IntegratorConfig
    grid: tuple[float, float, int] | None = None
    out: str | None = None
    fmt: str = "csv"

    def __post_init__(self) -> None:
        if self.grid is not None:
            _check_grid(self.grid)
            check_within_wall(self.params, (self.grid[1],))

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
            "integrator": asdict(self.integrator),
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
    if count < 2:
        raise ValueError(f"{name} needs at least 2 points")
    if not (math.isfinite(start) and math.isfinite(end)):
        raise ValueError(f"{name} bounds must be finite")
    if not (end > start):
        raise ValueError(f"{name} end must exceed start")
    if not math.isfinite((end - start) / (count - 1)):
        raise ValueError(f"{name} step overflows; narrow the grid")


def _make_grid(bounds: tuple[float, float, int]) -> list[float]:
    start, end, count = bounds
    step = (end - start) / (count - 1)
    grid = [start + i * step for i in range(count)]
    grid[-1] = end
    return grid


# The %-conversion of a cell, by its type: floats as _fmt writes them, None
# as an empty cell (a zero-width %s), strings and spelled-out bools as they are.
_CONVERSIONS = {float: "%.17g", type(None): "%.0s", str: "%s", bool: "%s"}


def _plain(value: float | str | bool | None) -> float | str | None:
    if isinstance(value, bool):
        return str(value).lower()
    return value + 0.0 if isinstance(value, float) else value


def _csv_lines(rows, header: str) -> Iterator[str]:
    """CSV lines of ``rows``, tuples of cells, under ``header``; each cell
    reads as :func:`_fmt` writes it, None as an empty cell and a bool as
    ``true`` or ``false``.

    A row is formatted by one %-template, built once per row shape (the
    types of its cells), so a cell costs no Python call.  Only a row that
    holds a zero or a bool goes through :func:`_plain` first.
    """
    yield header + "\n"
    templates: dict[tuple[type, ...], str] = {}
    for row in rows:
        shape = tuple(map(type, row))
        if 0.0 in row or bool in shape:
            row = tuple(map(_plain, row))
        template = templates.get(shape)
        if template is None:
            template = ",".join(map(_CONVERSIONS.__getitem__, shape)) + "\n"
            templates[shape] = template
        yield template % row


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

    A non-empty list or tuple whose items are all floats, such as a grid
    column, goes through the C encoder in one call, its item separator
    carrying the line break and indent; only the bracket lines are added
    here.  Everything else takes the generic path, one chunk per scalar.
    """
    if isinstance(value, dict):
        if not value:
            yield "{}"
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for key, item in value.items():
            yield sep + json.dumps(key) + ": "
            yield from _json_chunks(item, inner)
            sep = ",\n" + inner
        yield "\n" + pad + "}"
    elif isinstance(value, (list, tuple)):
        if not value:
            yield "[]"
            return
        inner = pad + "  "
        if set(map(type, value)) == {float}:
            body = json.dumps(value, separators=(",\n" + inner, ": "))
            yield "[\n" + inner
            yield body[1:-1]
        else:
            sep = "[\n" + inner
            for item in value:
                yield sep
                yield from _json_chunks(item, inner)
                sep = ",\n" + inner
        yield "\n" + pad + "]"
    else:
        yield json.dumps(value)


def _json_document(payload: object) -> Iterator[str]:
    """``json.dumps(payload, indent=2) + "\\n"``, in the chunks of :func:`_json_chunks`."""
    yield from _json_chunks(payload)
    yield "\n"


def _emit_report(config: RunConfig, rows, result, header: str = CSV_HEADER) -> None:
    """Write ``rows`` as CSV, or what ``result()`` returns under the config
    echo as JSON; a CSV report never builds the JSON payload."""
    if config.fmt == "csv":
        _emit(_csv_lines(rows, header), config.out)
    else:
        _emit(_json_document({"config": config.to_dict(), "result": result()}), config.out)


def _run_analytic(config: RunConfig) -> int:
    grid = _make_grid(config.grid)
    values = eval_spike_rho_grid(config.params, grid)
    rows = ((rho, u, None, None, None) for rho, u in zip(grid, values))
    _emit_report(config, rows, lambda: {"rho": grid, "u_analytic": values})
    return 0


def _run_residual(config: RunConfig) -> int:
    grid = _make_grid(config.grid)
    values: list[float] = []
    residuals = ode_residual(config.params, grid, profile=values)
    max_residual = max(map(abs, residuals))
    rows = ((rho, u, None, None, abs(r)) for rho, u, r in zip(grid, values, residuals))
    result = {"rho": grid, "residual": residuals, "max_abs_residual": max_residual}
    _emit_report(config, rows, lambda: result)
    _status(f"max |residual| = {_fmt(max_residual)}")
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


def _shoot_rows(params: ProblemParams, result: ShootingResult):
    """One row per sample of the inward run inside the domain
    [-L/epsilon, L/epsilon], read backwards from the peak, in the domain
    coordinate as ``shooting.eval_profile_grid`` maps it: an inner spike's
    rows run out from the peak to the right, a boundary spike's inward from
    the wall, so rho falls and v keeps the run's sign."""
    boundary = params.kind is SpikeKind.BOUNDARY
    reach = params.peak_rho + params.half_length / params.epsilon
    sigma_pk = result.sigma_pk
    for sigma, state in reversed(result.trajectory.samples):
        d = sigma_pk - sigma
        if d > reach:
            break
        # d = 0 at the run's end, the peak, where the profile's slope is 0.
        v = state.v if d else 0.0
        rho, v = (params.peak_rho - d, v) if boundary else (d, -v)
        ua = eval_spike_rho(params, rho)
        yield rho, ua, state.u, v, abs(ua - state.u)


def _run_shoot(config: RunConfig) -> int:
    result = shoot(config.params, config.integrator)
    _status(f"a_star = {_fmt(result.a_star)}  sigma_pk = {_fmt(result.sigma_pk)}")
    _emit_report(config, _shoot_rows(config.params, result), lambda: _shoot_result(result))
    return 0


def _default_grid(params: ProblemParams) -> tuple[float, float, int]:
    """The span within _SWEEP_SPAN of the peak, clipped to the domain [-L/epsilon, L/epsilon]."""
    peak, wall = params.peak_rho, params.half_length / params.epsilon
    grid = (max(peak - _SWEEP_SPAN, -wall), min(peak + _SWEEP_SPAN, wall), _SWEEP_GRID_POINTS)
    # Checked as a --grid is: far enough out, the span next to a wall peak rounds away.
    _check_grid(grid, "default grid")
    return grid


def _run_comparison(config: RunConfig) -> tuple[ShootingResult, ComparisonReport]:
    """Shoot, compare on the configured grid, and write the report."""
    grid = config.grid if config.grid is not None else _default_grid(config.params)
    result = shoot(config.params, config.integrator)
    report = compare(result, _make_grid(grid))

    def payload() -> dict:
        # A shallow copy: asdict would deep-copy every float of a dense grid.
        comparison = {field.name: getattr(report, field.name) for field in fields(report)}
        return {**_shoot_result(result), "comparison": comparison}

    _emit_report(config, report.rows(), payload)
    return result, report


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
            params = ProblemParams(p, config.params.epsilon, config.params.half_length, kind)
            out = out_dir / f"compare_p{p:g}_{kind.value}.{config.fmt}"
            cases.append(replace(
                config, command="compare", params=params, grid=_default_grid(params), out=str(out)
            ))
    out_dir.mkdir(parents=True, exist_ok=True)
    summary_rows = []
    for case in cases:
        params = case.params
        try:
            outcome = _run_comparison(case)
        except ShootingError as exc:
            outcome = None
            _status(f"solver failure: {params.kind.value} spike at p={params.p!r}: {exc}")
        else:
            result, report = outcome
            _status(
                f"p={params.p:g} {params.kind.value}: a_star={_fmt(result.a_star)} "
                f"max_abs_err={_fmt(report.max_abs_err)}"
            )
        summary_rows.append(_summary_row(params, outcome))

    summary = replace(config, out=str(out_dir / f"summary.{config.fmt}"))
    rows = (tuple(row.values()) for row in summary_rows)
    _emit_report(summary, rows, lambda: summary_rows, header=",".join(summary_rows[0]))
    # A failed case's row leaves converged empty.
    return 0 if all(row["converged"] for row in summary_rows) else 1


_RUNNERS = {
    "analytic": _run_analytic,
    "residual": _run_residual,
    "shoot": _run_shoot,
    "compare": _run_compare,
    "sweep": _run_sweep,
}


def run(config: RunConfig) -> int:
    """Execute one configured command and return the process exit code."""
    runner = _RUNNERS.get(config.command)
    if runner is None:
        raise ValueError(f"unknown command {config.command!r}")
    try:
        return runner(config)
    except ShootingError as exc:
        diagnostic = {"config": config.to_dict(), "error": str(exc)}
        # Status first: an --out that cannot be written still exits 2 after it.
        _status(f"solver failure: {exc}")
        if config.out is not None:
            _emit(_json_document(diagnostic), config.out)
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
    spike, domain, solver, grid, output = (group() for _ in range(5))
    spike.add_argument("--p", type=float, default=2.0, help=f"exponent in [{P_MIN}, {P_MAX}]")
    spike.add_argument(
        "--spike", choices=["inner", "boundary"], default="inner", help="spike location"
    )
    number = partial(domain.add_argument, type=float)
    number("--epsilon", default=ProblemParams.epsilon, help="length-scale ratio in (0, 1)")
    number("--L", default=ProblemParams.half_length, help="half-domain length")
    number = partial(solver.add_argument, type=float)
    number("--rel-tol", default=IntegratorConfig.rel_tol, help="integrator relative tolerance")
    number("--abs-tol", default=IntegratorConfig.abs_tol, help="integrator absolute tolerance")
    grid_help = "evaluation grid start:end:count (use --grid=-10:10:401 for negative starts)"
    grid.add_argument("--grid", type=_parse_grid, help=grid_help)
    output.add_argument("--format", choices=["csv", "json"], default="csv", dest="fmt")
    output.add_argument("--out", help="output file (sweep: output directory)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext, groups in [
        ("analytic", "evaluate the closed-form profile on a grid", [spike, domain, grid, output]),
        ("residual", "closed-form residual on a grid", [spike, domain, grid, output]),
        ("shoot", "run the shooting solver", [spike, domain, solver, output]),
        ("compare", "shooting profile versus closed form", [spike, domain, solver, grid, output]),
        ("sweep", "compare for p in {2,3,4} x {inner,boundary}", [domain, solver, output]),
    ]:
        sub.add_parser(name, help=helptext, parents=groups)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    values = vars(args)
    # The sweep takes no spike options; its own echo reads as its first case.
    p = values.get("p", _SWEEP_EXPONENTS[0])
    params = ProblemParams(p, args.epsilon, args.L, SpikeKind(values.get("spike", "inner")))
    grid = values.get("grid")
    if grid is None and args.command in ("analytic", "residual"):
        grid = _default_grid(params)
    # A tolerance that no option of the subcommand sets keeps its class default.
    names = {field.name for field in fields(IntegratorConfig)} & values.keys()
    integrator = IntegratorConfig(**{name: values[name] for name in names})
    return RunConfig(args.command, params, integrator, grid, args.out, args.fmt)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        return run(config)
    except BrokenPipeError:
        # The downstream reader went away (e.g. piping into head). Point
        # stdout at devnull so the interpreter's exit-time flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        # Input only the run can reject: a grid beyond the integrated span, or
        # an --out that cannot be written.
        parser.error(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
