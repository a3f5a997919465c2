"""The names and result fields the traced benchmark run reads from rkhsivp.

``perfbench/tracing.py`` wraps each ``TRACED`` (module, qualified name) and
reads ``accepted_steps`` from an oracle trajectory and ``sweeps_used`` from a
nonlinear solution.  The module is imported here read-only, so a change that
removes one of these fails the tests, not the benchmark run.
"""

import functools
import importlib
import importlib.util
import json
import os

import pytest

from walk_reference import walk
from rkhsivp import cli, integrate, problem_model, rkhs_solver, solve_problem
from rkhsivp.cli import load_problem_config
from rkhsivp.rhs_expr import parse

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py")
)
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)


@pytest.mark.parametrize("module,qualname", tracing.TRACED)
def test_traced_name_resolves(module, qualname):
    owner = importlib.import_module(f"rkhsivp.{module}")
    assert callable(functools.reduce(getattr, qualname.split("."), owner))


def test_counted_result_fields(ex1, ex2):
    assert integrate(ex1).accepted_steps > 0
    assert solve_problem(ex2, n=10, sweeps=3, tol=0.0).sweeps_used == 3


def test_expression_closures_are_traced(tmp_path):
    # The exact solution's and the affine split's closures look up
    # ``evaluate`` when called, so the rebinding counts each of their walks.
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"name": "p", "k": 2, "a": 0, "T": 1, "alpha": 0, "beta": 0,
                                "rhs": "6 + u - x^2", "exact": "x^2"}))
    problem = load_problem_config(str(path))
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        exact = problem_model.builtin("ex1").exact
        for f in (exact.u, exact.du, exact.d2u, problem.affine.g, problem.affine.q):
            f(0.5)
    finally:
        uninstall()
    assert tracer.self_times()[1]["rhs_expr.evaluate"] == 5


def test_compiled_rhs_is_traced(tmp_path):
    # A loaded config compiles its F once; each call of the problem's rhs
    # still passes through ``evaluate`` once, which ``dense_eval`` counts.
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"name": "p", "k": 2, "a": 0, "T": 1, "alpha": 1, "beta": 0,
                                "rhs": "-u^3 + sin(x)"}))
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        problem = cli.load_problem_config(str(path))
        assert problem.affine is None
        value = problem.rhs(0.5, 0.25)
    finally:
        uninstall()
    assert value == walk(parse("-u^3 + sin(x)"), 0.5, 0.25)
    assert tracer.self_times()[1]["rhs_expr.evaluate"] == 1
    assert tracer.counts["problem_model.rhs.calls"] == 1


def test_counted_rhs_sees_one_call_per_node_and_sweep(tmp_path):
    # The loops over the nodes call F once per node in each sweep, so the
    # counted rhs reads n times the sweeps, as ``problem_model.rhs.calls`` does.
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"name": "p", "k": 2, "a": 0, "T": 1, "alpha": 1, "beta": 0,
                                "rhs": "-u^3 + sin(x)"}))
    tracer = tracing.Tracer()
    problem = tracer.count_rhs(load_problem_config(str(path)))
    uninstall = tracing.install(tracer)
    try:
        sol = rkhs_solver.solve_problem(problem, n=40, sweeps=50, tol=1e-12)
        for x in (0.0, 0.25, 1.0):
            rkhs_solver.evaluate(sol, x, 2)
            sol(x)
    finally:
        uninstall()
    assert sol.sweeps_used > 1 and sol.final_change <= 1e-12
    assert tracer.counts["problem_model.rhs.calls"] == 40 * sol.sweeps_used
    # The per-point path runs inside ``evaluate``, so each call is counted.
    assert tracer.self_times()[1]["rkhs_solver.evaluate"] == 6
