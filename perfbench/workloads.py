"""The three workloads: seeded set-up and one op each, with its correctness gate.

Load is one process, one op at a time, in a closed loop with one client.
An op returns an ``OpResult``; it fails on a non-zero exit, an exception or
an error above the workload's bound from ``problems.error_bound``.

``cli_cold``
    One fresh ``python -m rkhsivp.cli solve --n 100`` process per op, cycling
    ex1, ex2, ex3 and a seeded manufactured ``--config`` problem whose exact
    solution the program is not told, so the parser and the reference
    integrator run.  Import is most of each process.
``big_linear``
    ``solve_problem(ex1, n=1600)`` in process, then ``error_report``: Gram
    assembly, orthonormalization and the dense nodal solve.
``dense_eval``
    A convergence study per op on a seeded manufactured nonlinear config
    problem: n = 50, 100, 200 with sweeps run to ``tol``, each solution
    evaluated for u, u' and u'' at a few hundred seeded off-node points and
    passed to ``residual_sup_norm``.  The evaluation side of the kernel and
    collocation layers.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass

import problems

CLI_TIMEOUT_S = 60


@dataclass
class OpResult:
    ok: bool
    error: float  # worst |u - u_exact| of the op; inf when none was measured
    detail: str = ""


def _worst(values) -> float:
    return max(values, default=math.inf)


def _rng(seed: int, workload: str, part: str) -> random.Random:
    return random.Random(f"{seed}:{workload}:{part}")


# ---------------------------------------------------------------------------
# cli_cold

# The CLI's table headers, with and without an exact solution.
EXACT_COLUMNS = ("x_i", "Exact solution", "Approximate solution", "Absolute Error",
                 "Relative error")
ORACLE_COLUMNS = ("x_i", "Approximate solution", "Oracle solution", "Deviation")


def check_cli_table(stdout: str, columns: tuple, exact: problems.Exact, n: int,
                    oracle: bool) -> OpResult:
    """Check a ``solve`` CSV table against the benchmark's exact solution."""
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or tuple(rows[0]) != columns:
        return OpResult(False, math.inf, f"unexpected header {rows[:1]}")
    body = rows[1:]
    xs = [float(r[0]) for r in body]
    if len(body) != len(problems.REPORT_GRID) or any(
        abs(x - g) > 1e-15 for x, g in zip(xs, problems.REPORT_GRID)
    ):
        return OpResult(False, math.inf, f"unexpected grid {xs}")
    bound = problems.error_bound("cli_cold", n)
    errors = []
    for r in body:
        x = float(r[0])
        want = exact.u(x)
        if oracle:
            approx, ref, deviation = float(r[1]), float(r[2]), float(r[3])
            if abs(ref - want) > problems.ORACLE_BOUND:
                return OpResult(False, math.inf, f"oracle off by {abs(ref - want):.3e} at {x}")
            if abs(deviation - abs(approx - ref)) > 1e-12:
                return OpResult(False, math.inf, f"inconsistent deviation at {x}")
        else:
            shown, approx, absolute = float(r[1]), float(r[2]), float(r[3])
            if abs(shown - want) > 1e-12 * max(1.0, abs(want)):
                return OpResult(False, math.inf, f"exact column off at {x}")
            if abs(absolute - abs(approx - shown)) > 1e-12:
                return OpResult(False, math.inf, f"inconsistent absolute error at {x}")
        errors.append(abs(approx - want))
    worst = _worst(errors)
    if not worst <= bound:
        return OpResult(False, worst, f"error {worst:.3e} above bound {bound:.3e}")
    return OpResult(True, worst)


class CliCold:
    name = "cli_cold"
    peak_rss_children = True

    def __init__(self, root: str, seed: int, toy: bool, workdir: str, env: dict):
        self.root = root
        self.env = env
        self.n = 40 if toy else 100
        rng = _rng(seed, self.name, "configs")
        os.makedirs(workdir, exist_ok=True)
        self.configs = []
        for i, m in enumerate(problems.family_pool(rng, "cfg", problems.CLI_FAMILY)):
            path = os.path.join(workdir, f"cfg{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(m.config, fh)
            self.configs.append((path, m.exact))
        self.traced_cmd = None  # set by the worker for the traced phase

    def _case(self, i: int):
        kind = i % 4
        if kind < 3:
            name = f"ex{kind + 1}"
            return ["--problem", name], problems.BUILTIN_EXACT[name], False
        path, exact = self.configs[(i // 4) % len(self.configs)]
        return ["--config", path], exact, True

    def command(self, i: int) -> list[str]:
        args, _, _ = self._case(i)
        head = self.traced_cmd or [sys.executable, "-m", "rkhsivp.cli"]
        return head + ["solve", *args, "--n", str(self.n)]

    def op(self, i: int, on_done=None) -> OpResult:
        _, exact, oracle = self._case(i)
        proc = subprocess.run(
            self.command(i), cwd=self.root, env=self.env, capture_output=True,
            text=True, timeout=CLI_TIMEOUT_S,
        )
        if on_done is not None:
            on_done(proc)
        if proc.returncode != 0:
            detail = f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
            return OpResult(False, math.inf, detail)
        columns = ORACLE_COLUMNS if oracle else EXACT_COLUMNS
        return check_cli_table(proc.stdout, columns, exact, self.n, oracle)


# ---------------------------------------------------------------------------
# in-process workloads


class BigLinear:
    name = "big_linear"
    peak_rss_children = False

    def __init__(self, root: str, seed: int, toy: bool, workdir: str, env: dict):
        from rkhsivp import problem_model, rkhs_solver

        # Calls go through the module at call time, so the trace wrappers apply.
        self.solver = rkhs_solver
        self.n = 200 if toy else 1600
        self.problem = problem_model.builtin("ex1")
        self.exact = problems.BUILTIN_EXACT["ex1"]
        # The report grid, the end of the interval (where the ex1 error
        # peaks, which keeps the worst error steady) and ten seeded points.
        rng = _rng(seed, self.name, "points")
        extra = [rng.uniform(0.01, 1.0) for _ in range(10)]
        self.points = sorted(problems.REPORT_GRID + (1.0,) + tuple(extra))

    def wrap_problems(self, wrap) -> None:
        self.problem = wrap(self.problem)

    def op(self, i: int) -> OpResult:
        sol = self.solver.solve_problem(self.problem, n=self.n)
        report = self.solver.error_report(sol, self.points)
        if [row.x for row in report.rows] != self.points:
            return OpResult(False, math.inf, "error report rows do not match the points")
        worst = _worst(abs(row.approximate - self.exact.u(row.x)) for row in report.rows)
        bound = problems.error_bound(self.name, self.n)
        if not worst <= bound:
            return OpResult(False, worst, f"error {worst:.3e} above bound {bound:.3e}")
        return OpResult(True, worst)


class DenseEval:
    name = "dense_eval"
    peak_rss_children = False
    sweeps = 50
    tol = 1e-10

    def __init__(self, root: str, seed: int, toy: bool, workdir: str, env: dict):
        from rkhsivp import cli, rkhs_solver

        self.solver = rkhs_solver
        self.ns = (25, 50) if toy else (50, 100, 200)
        npoints = 32 if toy else 256
        rng = _rng(seed, self.name, "problems")
        os.makedirs(workdir, exist_ok=True)
        self.cases = []
        for i, m in enumerate(problems.family_pool(rng, "dense")):
            path = os.path.join(workdir, f"dense{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(m.config, fh)
            problem = cli.load_problem_config(path, strict=True)
            points = problems.stratified_points(rng, npoints)
            self.cases.append([problem, m.exact, points])

    def wrap_problems(self, wrap) -> None:
        for case in self.cases:
            case[0] = wrap(case[0])

    def op(self, i: int) -> OpResult:
        problem, exact, points = self.cases[i % len(self.cases)]
        worst = 0.0
        for n in self.ns:
            sol = self.solver.solve_problem(problem, n=n, sweeps=self.sweeps, tol=self.tol)
            for order in (0, 1, 2):
                ref = exact.deriv(order)
                err = _worst(abs(self.solver.evaluate(sol, x, order) - ref(x)) for x in points)
                if order == 0:
                    worst = max(worst, err)
                bound = problems.error_bound(self.name, n, order)
                if not err <= bound:
                    return OpResult(False, worst,
                                    f"n={n} order {order}: error {err:.3e} above {bound:.3e}")
            residual = self.solver.residual_sup_norm(sol)
            if not math.isfinite(residual):
                return OpResult(False, worst, f"n={n}: residual {residual}")
        return OpResult(True, worst)


WORKLOADS = {cls.name: cls for cls in (CliCold, BigLinear, DenseEval)}


def timed(fn):
    """Run ``fn`` and return ``(seconds, result)``; exceptions become failed ops."""
    start = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # the op's failure is counted, never raised
        result = OpResult(False, math.inf, f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - start, result
