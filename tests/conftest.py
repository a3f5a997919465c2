"""Shared fixtures: one kernel and a few bases, built once per session."""

import numpy as np
import pytest

from rkhsivp import Interval, build_basis, build_w23_kernel, builtin, uniform_points


@pytest.fixture(scope="session")
def unit_interval():
    return Interval(0.0, 1.0)


@pytest.fixture(scope="session")
def kernel01(unit_interval):
    return build_w23_kernel(unit_interval)


@pytest.fixture(scope="session")
def ex1():
    return builtin("ex1")


@pytest.fixture(scope="session")
def ex2():
    return builtin("ex2")


@pytest.fixture(scope="session")
def ex3():
    return builtin("ex3")


@pytest.fixture(scope="session")
def basis100(kernel01, ex1):
    """A 100-point basis on the first example's setup (k=2, [0,1])."""
    return build_basis(kernel01, ex1.k, uniform_points(ex1.interval, 100))


@pytest.fixture()
def rng():
    return np.random.default_rng(20260817)
