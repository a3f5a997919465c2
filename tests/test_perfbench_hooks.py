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

from rkhsivp import integrate, problem_model, solve_problem
from rkhsivp.cli import load_problem_config

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
