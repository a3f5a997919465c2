"""The names and result fields the traced benchmark run reads from rkhsivp.

``perfbench/tracing.py`` wraps each ``TRACED`` (module, qualified name) and
reads ``accepted_steps`` from an oracle trajectory and ``sweeps_used`` from a
nonlinear solution.  The module is imported here read-only, so a change that
removes one of these fails the tests, not the benchmark run.
"""

import functools
import importlib
import importlib.util
import os

import pytest

from rkhsivp import integrate, solve_problem

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
