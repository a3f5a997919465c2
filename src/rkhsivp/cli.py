"""Command line front end.

Three subcommands cover the practical workflows:

``solve``
    Solve one problem (builtin or from a JSON file) and tabulate the
    solution on a report grid.  When the problem carries an exact solution
    the table lists exact value, approximate value, absolute and relative
    error; otherwise the approximation is compared against the adaptive
    reference integrator.

``converge``
    Re-solve the same problem for several collocation counts and report the
    max grid error and the residual sup-norm (samples at the pole ``x = 0``
    left out); the solve wall time per n goes to stderr.

``kernel-dump``
    Tabulate one kernel section R_x(y) with its first two y-derivatives and
    a symmetry check column, for eyeballing or plotting downstream.

Exit codes: 0 success, 2 configuration/usage, 3 expression syntax,
4 numerical failure, 5 domain violation.  All tables are CSV by default
(floats printed with 16 significant digits, so identical runs are
byte-identical) and JSON mirrors the same rows for programmatic use.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from typing import Callable, Optional, Sequence, TextIO, Union

import numpy as np

from .collocation import uniform_points
from .errors import (
    ConfigError,
    DomainError,
    ExpressionSyntaxError,
    NumericError,
)
from .kernel_space import Interval, build_w23_kernel, eval_kernel
from .problem_model import AffineRhs, ExactSolution, ProblemSpec, builtin, verify_exact
from .reference_oracle import integrate
from .rhs_expr import affine_in, derivative
from .rhs_expr import evaluate as eval_expr
from .rhs_expr import parse as parse_expr
from .rkhs_solver import RkhsSolution, error_report, residual_sup_norm, solve_problem

REPORT_GRID = (0.16, 0.32, 0.48, 0.64, 0.80, 0.96)

EXACT_COLUMNS = (
    "x_i",
    "Exact solution",
    "Approximate solution",
    "Absolute Error",
    "Relative error",
)
ORACLE_COLUMNS = ("x_i", "Approximate solution", "Oracle solution", "Deviation")
CONVERGE_COLUMNS = ("n", "max_absolute_error", "residual_sup_norm")
KERNEL_COLUMNS = ("y", "R", "dR", "d2R", "symmetry_gap")

_CONFIG_KEYS = ("name", "k", "a", "T", "alpha", "beta", "rhs")

Cell = Union[int, float, None]


# ---------------------------------------------------------------------------
# problem loading


def _config_number(raw: dict, key: str) -> float:
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {key!r} must be a number, got {value!r}")
    # Exact comparisons, so an integer beyond the float range fails too.
    if not -sys.float_info.max <= value <= sys.float_info.max:
        raise ConfigError(f"config key {key!r} must be finite, got {value!r}")
    return float(value)


def _parse_config_expr(raw: dict, key: str):
    value = raw[key]
    if not isinstance(value, str):
        raise ConfigError(f"config key {key!r} must be an expression string")
    try:
        return parse_expr(value)
    except ExpressionSyntaxError as exc:
        raise ExpressionSyntaxError(f"config key {key!r}: {exc.message}", exc.offset) from exc


def load_problem_config(path: str, strict: bool = False) -> ProblemSpec:
    """Read a JSON problem definition.

    Required keys: name, k, a, T, alpha, beta, rhs.  Optional: exact, an
    expression in x whose derivatives are taken exactly (``derivative``).
    When an exact solution is given it is substituted into the equation; a
    residual above 1e-6 (or an initial-condition mismatch above 1e-7) is
    reported as a warning, or as an error under strict mode.  A right-hand
    side affine in u gets the affine form g = F(x, 0), q = dF/du.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    for key in _CONFIG_KEYS:
        if key not in raw:
            raise ConfigError(f"config is missing required key {key!r}")
    unknown = sorted(set(raw) - set(_CONFIG_KEYS) - {"exact"})
    if unknown:
        raise ConfigError(f"config has unknown keys: {', '.join(unknown)}")

    name = raw["name"]
    if not isinstance(name, str) or not name:
        raise ConfigError("config key 'name' must be a non-empty string")
    k = _config_number(raw, "k")
    if k < 0:
        raise ConfigError(f"config key 'k' must be nonnegative, got {k:g}")
    try:
        interval = Interval(_config_number(raw, "a"), _config_number(raw, "T"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    alpha = _config_number(raw, "alpha")
    beta = _config_number(raw, "beta")

    rhs_ast = _parse_config_expr(raw, "rhs")
    affine = None
    if affine_in(rhs_ast, "u"):
        q_ast = derivative(rhs_ast, "u")
        affine = AffineRhs(g=lambda x: eval_expr(rhs_ast, x, 0.0),
                           q=lambda x: eval_expr(q_ast, x, 0.0))
    exact = None
    if raw.get("exact") is not None:
        exact = ExactSolution.from_expression(_parse_config_expr(raw, "exact"))

    problem = ProblemSpec(name=name, k=k, interval=interval, alpha=alpha, beta=beta,
                          rhs=lambda x, u: eval_expr(rhs_ast, x, u), affine=affine, exact=exact)
    if exact is not None:
        report = verify_exact(problem)
        if not report.ok:
            msg = (
                f"exact solution check failed: max ODE residual {report.max_residual:.3e}, "
                f"initial value error {report.ic_value_error:.3e}, "
                f"initial slope error {report.ic_slope_error:.3e}"
            )
            if strict:
                raise ConfigError(msg)
            print(f"warning: {msg}", file=sys.stderr)
    return problem


def _load_problem(args: argparse.Namespace) -> ProblemSpec:
    if args.problem is not None:
        return builtin(args.problem)
    return load_problem_config(args.config, strict=args.strict)


# ---------------------------------------------------------------------------
# shared solve plumbing


def _timed_solve(
    problem: ProblemSpec, n: int, args: argparse.Namespace
) -> tuple[RkhsSolution, float]:
    """Solve with the command's solver options.

    The clock covers the whole solve, kernel and basis set-up included.  Sweeps
    that stop at ``--sweeps`` above ``--tol`` warn, or fail under ``--strict``.
    """
    start = time.perf_counter()
    sol = solve_problem(problem, n=n, method=args.method, sweeps=args.sweeps, tol=args.tol)
    seconds = time.perf_counter() - start
    if sol.final_change is not None and sol.final_change > args.tol:
        msg = (
            f"{problem.name}: n={n}: stopped after {sol.sweeps_used} sweeps, "
            f"last change {sol.final_change:.3e} above --tol {args.tol:.3e}"
        )
        if args.strict:
            raise NumericError(msg)
        print(f"warning: {msg}", file=sys.stderr)
    return sol, seconds


def _reference(problem: ProblemSpec, args: argparse.Namespace) -> Callable[[float], float]:
    """The exact solution when the problem has one, else the RK oracle's."""
    if problem.exact is not None:
        return problem.exact.u
    return integrate(problem, tol=args.oracle_tol).u


def _comma_list(text: str, convert: Callable[[str], Cell], what: str) -> list:
    """The non-empty comma-separated tokens of ``text``, each converted."""
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            values.append(convert(token))
        except ValueError as exc:
            raise ConfigError(f"bad {what} value {token!r}") from exc
    return values


def _parse_grid(text: str, interval: Interval) -> list[float]:
    if text.strip() == "paper":
        points = [float(x) for x in REPORT_GRID]
    else:
        points = _comma_list(text, float, "grid")
        if not points:
            raise ConfigError("grid must contain at least one point")
    for x in points:
        if not interval.a < x <= interval.T:
            raise ConfigError(
                f"grid point {x:g} lies outside ({interval.a:g}, {interval.T:g}]"
            )
    return points


def _parse_n_list(text: str) -> list[int]:
    values = _comma_list(text, int, "n")
    if not values:
        raise ConfigError("n list must not be empty")
    for n in values:
        if n < 1:
            raise ConfigError("n must be >= 1")
    return values


# ---------------------------------------------------------------------------
# output plumbing


def _format_cell(value: Cell) -> str:
    if value is None:
        return ""
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    return format(float(value), ".16g")


def _write_table(
    fh: TextIO,
    fmt: str,
    columns: Sequence[str],
    rows: Sequence[Sequence[Cell]],
    meta: Optional[dict] = None,
) -> None:
    if fmt == "csv":
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(cell) for cell in row])
    else:
        payload = dict(meta or {})
        payload["columns"] = list(columns)
        payload["rows"] = [list(row) for row in rows]
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _emit(
    args: argparse.Namespace,
    columns: Sequence[str],
    rows: Sequence[Sequence[Cell]],
    meta: Optional[dict] = None,
) -> None:
    if args.output in (None, "-"):
        _write_table(sys.stdout, args.format, columns, rows, meta)
        return
    try:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            _write_table(fh, args.format, columns, rows, meta)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {args.output!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(args: argparse.Namespace) -> int:
    problem = _load_problem(args)
    grid = _parse_grid(args.grid, problem.interval)
    sol, seconds = _timed_solve(problem, args.n, args)
    method = sol.method
    report = error_report(sol, grid, _reference(problem, args))

    meta: dict = {"problem": problem.name, "n": args.n, "method": method}
    if problem.exact is not None:
        rows = [
            (r.x, r.exact, r.approximate, r.absolute, r.relative) for r in report.rows
        ]
        columns = EXACT_COLUMNS
        meta["max_absolute_error"] = report.max_absolute
        meta["max_relative_error"] = report.max_relative
        summary = f"max absolute error {report.max_absolute:.3e}"
    else:
        rows = [(r.x, r.approximate, r.exact, r.absolute) for r in report.rows]
        columns = ORACLE_COLUMNS
        meta["max_deviation"] = report.max_absolute
        summary = f"max oracle deviation {report.max_absolute:.3e}"
    _emit(args, columns, rows, meta)
    print(
        f"{problem.name}: n={args.n} ({method}) solved in {seconds:.3f} s; {summary}",
        file=sys.stderr,
    )
    return 0


def cmd_converge(args: argparse.Namespace) -> int:
    problem = _load_problem(args)
    ns = _parse_n_list(args.n_list)
    grid = uniform_points(problem.interval, 200).values
    reference = _reference(problem, args)
    ref = np.array([reference(float(x)) for x in grid])
    rows = []
    for n in ns:
        sol, seconds = _timed_solve(problem, n, args)
        err = float(np.max(np.abs(sol(grid) - ref)))
        rows.append((n, err, residual_sup_norm(sol)))
        print(f"{problem.name}: n={n} ({sol.method}) solved in {seconds:.3f} s", file=sys.stderr)

    for prev, cur in zip(rows, rows[1:]):
        for col, label in ((1, "max absolute error"), (2, "residual sup-norm")):
            if cur[0] > prev[0] and cur[col] >= prev[col]:
                print(
                    f"warning: {label} did not decrease from n={prev[0]} to n={cur[0]}",
                    file=sys.stderr,
                )
    meta = {"problem": problem.name, "method": sol.method}
    _emit(args, CONVERGE_COLUMNS, rows, meta)
    return 0


def cmd_kernel_dump(args: argparse.Namespace) -> int:
    interval = Interval(args.a, args.T)
    if not interval.contains(args.x):
        raise ConfigError(
            f"x={args.x:g} lies outside [{interval.a:g}, {interval.T:g}]"
        )
    if args.resolution < 2:
        raise ConfigError("resolution must be >= 2")
    kernel = build_w23_kernel(interval)
    x = float(args.x)
    ys = np.linspace(interval.a, interval.T, args.resolution)
    columns = [ys] + [eval_kernel(kernel, x, ys, m) for m in range(3)]
    columns.append(np.abs(columns[1] - eval_kernel(kernel, ys, x)))
    rows = list(zip(*(col.tolist() for col in columns)))
    meta = {"a": interval.a, "T": interval.T, "x": x}
    _emit(args, KERNEL_COLUMNS, rows, meta)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_problem_source(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--problem", help="builtin problem name (ex1, ex2, ex3)")
    source.add_argument("--config", help="path to a JSON problem definition")
    parser.add_argument(
        "--strict",
        action="store_true",
        help="escalate warnings to errors: a failed exact-solution check "
        "(exit 2) and sweeps stopped at --sweeps above --tol (exit 4)",
    )


def _add_solver_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--method",
        choices=("auto", "linear", "nonlinear"),
        default="auto",
        help="solution path; auto picks linear when the right-hand side is affine",
    )
    parser.add_argument(
        "--sweeps", type=int, default=1, help="forward sweeps for the nonlinear path"
    )
    parser.add_argument(
        "--tol",
        type=float,
        default=1e-10,
        help="stopping tolerance between successive sweeps",
    )
    parser.add_argument(
        "--oracle-tol",
        type=float,
        default=1e-10,
        help="reference integrator tolerance, used when no exact solution is known",
    )


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument(
        "--output", default="-", metavar="PATH", help="output file, - for stdout"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rkhsivp",
        description=(
            "Reproducing kernel collocation for the singular initial value "
            "problem u'' + (k/x) u' = F(x, u), u(a) = alpha, u'(a) = beta."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one problem and tabulate errors")
    _add_problem_source(solve)
    solve.add_argument(
        "--n", type=int, default=100, help="number of collocation points"
    )
    _add_solver_options(solve)
    solve.add_argument(
        "--grid",
        default="paper",
        help='report grid: "paper" (0.16,0.32,...,0.96) or comma-separated x values',
    )
    _add_output_options(solve)
    solve.set_defaults(func=cmd_solve)

    converge = sub.add_parser(
        "converge", help="tabulate error and residual trends over several n"
    )
    _add_problem_source(converge)
    converge.add_argument(
        "--n-list",
        required=True,
        help="comma-separated collocation counts, e.g. 25,50,100",
    )
    _add_solver_options(converge)
    _add_output_options(converge)
    converge.set_defaults(func=cmd_converge)

    dump = sub.add_parser(
        "kernel-dump", help="tabulate one kernel section on a uniform y grid"
    )
    dump.add_argument("--a", type=float, required=True, help="left endpoint")
    dump.add_argument("--T", type=float, required=True, help="right endpoint")
    dump.add_argument("--x", type=float, required=True, help="section point")
    dump.add_argument(
        "--resolution", type=int, default=201, help="number of y samples"
    )
    _add_output_options(dump)
    dump.set_defaults(func=cmd_kernel_dump)
    return parser


# Exit code per exception class; the first class that matches wins.
_EXIT_CODES = {ExpressionSyntaxError: 3, ConfigError: 2, ValueError: 2,
               NumericError: 4, DomainError: 5}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    raise SystemExit(main())
