"""Command line behavior: tables, formats, config files, exit codes."""

import argparse
import csv
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import pytest

import rkhsivp
from rkhsivp import ExpressionSyntaxError, integrate
from rkhsivp.cli import (
    CONVERGE_COLUMNS,
    EXACT_COLUMNS,
    KERNEL_COLUMNS,
    ORACLE_COLUMNS,
    REPORT_GRID,
    _EXIT_CODES,
    build_parser,
    load_problem_config,
    main,
)

EX1_CONFIG = {
    "name": "ex1",
    "k": 2.0,
    "a": 0.0,
    "T": 1.0,
    "alpha": 0.0,
    "beta": 0.0,
    "rhs": "x^3 + x^2 + 12*x + 6 - u",
    "exact": "x^3 + x^2",
}

EX1_EXACT_6DP = (0.029696, 0.135168, 0.340992, 0.671744, 1.152, 1.806336)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return tuple(rows[0]), rows[1:]


def write_config(tmp_path, filename="problem.json", **overrides):
    raw = dict(EX1_CONFIG)
    for key, value in overrides.items():
        if value is None:
            raw.pop(key, None)
        else:
            raw[key] = value
    path = tmp_path / filename
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


class TestSolveBuiltin:
    def test_table_shape(self, capsys):
        code, out, err = run(capsys, "solve", "--problem", "ex1", "--n", "30")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == EXACT_COLUMNS
        assert [float(r[0]) for r in rows] == list(REPORT_GRID)
        assert "max absolute error" in err

    def test_exact_column_rounds_to_benchmark_digits(self, capsys):
        code, out, _ = run(capsys, "solve", "--problem", "ex1", "--n", "10")
        assert code == 0
        _, rows = parse_csv(out)
        for row, expected in zip(rows, EX1_EXACT_6DP):
            assert round(float(row[1]), 6) == expected

    @pytest.mark.parametrize("name", ["ex1", "ex2", "ex3"])
    def test_error_band_on_report_grid(self, capsys, name):
        code, out, _ = run(capsys, "solve", "--problem", name, "--n", "50")
        assert code == 0
        _, rows = parse_csv(out)
        assert max(float(r[3]) for r in rows) <= 1e-4

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "solve", "--problem", "ex1", "--n", "40")
        _, second, _ = run(capsys, "solve", "--problem", "ex1", "--n", "40")
        assert first == second

    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--problem", "ex1", "--n", "40", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["problem"] == "ex1"
        assert payload["n"] == 40
        assert payload["method"] == "linear"
        assert payload["columns"] == list(EXACT_COLUMNS)
        assert len(payload["rows"]) == len(REPORT_GRID)
        assert payload["max_absolute_error"] <= 1e-4

    def test_custom_grid(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--problem", "ex1", "--n", "30", "--grid", "0.5, 1.0"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert [float(r[0]) for r in rows] == [0.5, 1.0]

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, err = run(
            capsys, "solve", "--problem", "ex1", "--n", "40",
            "--output", str(target),
        )
        assert code == 0
        assert out == ""
        assert "solved in" in err
        _, direct, _ = run(capsys, "solve", "--problem", "ex1", "--n", "40")
        assert target.read_text(encoding="utf-8") == direct


class TestSolveConfig:
    def test_matches_builtin_byte_for_byte(self, capsys, tmp_path):
        path = write_config(tmp_path)
        _, from_file, _ = run(capsys, "solve", "--config", path, "--n", "60")
        _, from_builtin, _ = run(capsys, "solve", "--problem", "ex1", "--n", "60")
        assert from_file == from_builtin

    def test_affine_rhs_recovered(self, tmp_path):
        problem = load_problem_config(write_config(tmp_path))
        assert problem.is_linear
        assert problem.affine.q(0.3) == -1.0
        assert problem.affine.g(0.5) == 0.5**3 + 0.5**2 + 12 * 0.5 + 6

    def test_affine_split_is_exact(self, tmp_path):
        # q = dF/du, not F(x, 1) - F(x, 0): x - 1/3 to the last bit.
        path = write_config(tmp_path, rhs="x*u - u/3 + sin(x)", exact=None)
        problem = load_problem_config(path)
        for x in (0.1, 0.37, 1.0):
            assert problem.affine.q(x) == x - 1 / 3
            assert problem.affine.g(x) == math.sin(x)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"k": 2, "T": 1, "rhs": "8.75*x^0.5", "exact": "x^2.5"},
            {"k": 2, "T": 1000, "rhs": "6", "exact": "x^2"},
            {"k": 0, "T": 1e6, "rhs": "1", "exact": "x^2/2"},
        ],
        ids=["fractional-power", "long-interval", "k0-very-long"],
    )
    def test_exact_checks_pass_strict(self, capsys, tmp_path, overrides):
        # A difference stencil stepped below a = 0 or lost digits on these.
        path = write_config(tmp_path, **overrides)
        code, out, err = run(capsys, "solve", "--config", path, "--n", "20",
                             "--grid", str(overrides["T"]), "--strict")
        assert code == 0, err
        assert "warning" not in err

    def test_derivative_dividing_by_zero_names_it(self, capsys, tmp_path):
        # u = |x|^3 is a solution, but its derivative tree divides by |x| at a = 0.
        path = write_config(tmp_path, rhs="12*abs(x)", exact="abs(x)^3")
        code, out, err = run(capsys, "solve", "--config", path)
        assert code == 5
        assert out == ""
        assert err == "error: exact solution u' at x=0.0: division by zero in 'x/abs(x)'\n"

    def test_nonaffine_rhs_not_linear(self, tmp_path):
        path = write_config(tmp_path, rhs="u^2 - x", exact=None)
        assert not load_problem_config(path).is_linear

    def test_oracle_table_without_exact(self, capsys, tmp_path):
        path = write_config(tmp_path, exact=None)
        code, out, err = run(capsys, "solve", "--config", path, "--n", "50")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ORACLE_COLUMNS
        assert max(float(r[3]) for r in rows) <= 1e-4
        assert "max oracle deviation" in err

    def test_oracle_table_columns_agree_csv(self, capsys, tmp_path):
        path = write_config(tmp_path, exact=None)
        oracle = integrate(load_problem_config(path))
        code, out, _ = run(capsys, "solve", "--config", path, "--n", "50")
        assert code == 0
        # CSV cells carry 16 significant digits, so the columns agree to
        # the rounding of two values of size about 2.
        for x, approx, ref, deviation in (map(float, r) for r in parse_csv(out)[1]):
            assert ref == pytest.approx(oracle.u(x), rel=1e-15)
            assert deviation == pytest.approx(abs(approx - ref), rel=0, abs=1e-15)

    def test_oracle_table_columns_agree_json(self, capsys, tmp_path):
        path = write_config(tmp_path, exact=None)
        oracle = integrate(load_problem_config(path))
        code, out, _ = run(capsys, "solve", "--config", path, "--n", "50", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"] == list(ORACLE_COLUMNS)
        for x, approx, ref, deviation in payload["rows"]:
            assert ref == oracle.u(x)
            assert deviation == abs(approx - ref)
        assert payload["max_deviation"] == max(r[3] for r in payload["rows"])

    def test_nan_residual_fails_strict(self, capsys, tmp_path):
        # exp(1000 x) overflows for x > 0.71, where inf - inf makes F NaN.
        path = write_config(
            tmp_path, rhs="6 + (exp(1000*x) - exp(1000*x))", exact="x^2"
        )
        code, out, err = run(capsys, "solve", "--config", path, "--strict")
        assert code == 2
        assert out == ""
        assert "max ODE residual nan" in err

    def test_missing_key(self, capsys, tmp_path):
        path = write_config(tmp_path, k=None)
        code, _, err = run(capsys, "solve", "--config", path)
        assert code == 2
        assert "missing required key 'k'" in err

    def test_unknown_key(self, capsys, tmp_path):
        path = write_config(tmp_path, gamma=1.0)
        code, _, err = run(capsys, "solve", "--config", path)
        assert code == 2
        assert "unknown keys: gamma" in err

    def test_nonnumeric_parameter(self, capsys, tmp_path):
        path = write_config(tmp_path, k="two")
        code, _, err = run(capsys, "solve", "--config", path)
        assert code == 2
        assert "'k' must be a number" in err

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
    @pytest.mark.parametrize("key", ["k", "alpha", "beta"])
    def test_nonfinite_parameter(self, capsys, tmp_path, key, value):
        path = write_config(tmp_path, **{key: value})
        code, out, err = run(capsys, "solve", "--config", path)
        assert code == 2
        assert out == ""
        assert f"config key {key!r} must be finite" in err

    def test_rhs_syntax_error(self, capsys, tmp_path):
        path = write_config(tmp_path, rhs="x +")
        code, _, err = run(capsys, "solve", "--config", path)
        assert code == 3
        assert "config key 'rhs'" in err
        assert "(at offset 3)" in err

    @pytest.mark.parametrize(
        "key, text",
        [("rhs", "+".join(["x"] * 1000)), ("exact", "*".join(["x"] * 400))],
        ids=["rhs-sum", "exact-product"],
    )
    def test_too_deep_expression(self, capsys, tmp_path, key, text):
        # The parser bounds the height of the tree it builds, chains included.
        code, out, err = run(capsys, "solve", "--config", write_config(tmp_path, **{key: text}))
        assert code == 3
        assert out == ""
        assert err == f"error: config key {key!r}: expression too deeply nested (at offset 399)\n"

    def test_syntax_offset_preserved(self, tmp_path):
        path = write_config(tmp_path, rhs="x +")
        with pytest.raises(ExpressionSyntaxError) as info:
            load_problem_config(path)
        assert info.value.offset == 3

    def test_wrong_exact_warns_by_default(self, capsys, tmp_path):
        path = write_config(tmp_path, exact="x^2")
        code, out, err = run(capsys, "solve", "--config", path, "--n", "30")
        assert code == 0
        assert "warning: exact solution check failed" in err
        assert out.startswith(",".join(EXACT_COLUMNS))

    def test_wrong_exact_fails_under_strict(self, capsys, tmp_path):
        path = write_config(tmp_path, exact="x^2")
        code, _, err = run(capsys, "solve", "--config", path, "--strict")
        assert code == 2
        assert "exact solution check failed" in err

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "solve", "--config", str(path))
        assert code == 2
        assert "not valid JSON" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve", "--config", str(tmp_path / "nope.json"))
        assert code == 2
        assert "cannot read config file" in err

    def test_bad_interval(self, capsys, tmp_path):
        path = write_config(tmp_path, a=1.0, T=1.0)
        code, out, err = run(capsys, "solve", "--config", path)
        assert code == 2
        assert out == ""
        assert err == "error: interval requires a < T, got [1.0, 1.0]\n"

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"rhs": 6}, "config key 'rhs' must be an expression string"),
            ({"name": ""}, "config key 'name' must be a non-empty string"),
            ({"k": -1}, "config key 'k' must be nonnegative, got -1"),
        ],
        ids=["rhs-not-string", "empty-name", "negative-k"],
    )
    def test_invalid_field(self, capsys, tmp_path, overrides, message):
        code, out, err = run(capsys, "solve", "--config", write_config(tmp_path, **overrides))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_root_not_an_object(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        code, out, err = run(capsys, "solve", "--config", str(path))
        assert (code, out, err) == (2, "", "error: config root must be a JSON object\n")

    def test_exact_too_high_to_evaluate(self, capsys, tmp_path):
        # A 200-level power tower parses; its u'' is 997 levels high, and
        # evaluating it would overflow the interpreter's stack.
        path = write_config(tmp_path, rhs="6", exact="x" + "^x" * 199)
        code, out, err = run(capsys, "solve", "--config", path, "--n", "10")
        assert (code, out) == (3, "")
        assert err == (
            "error: exact solution's u'' is 997 levels high, "
            "more than the 601 that evaluation allows\n"
        )

    def test_exact_check_names_rhs_domain_error(self, capsys, tmp_path):
        path = write_config(tmp_path, rhs="ln(u)", exact="x-0.5", alpha=-0.5, beta=1)
        code, out, err = run(capsys, "solve", "--config", path)
        assert (code, out) == (5, "")
        assert err == (
            "error: exact solution check: right-hand side domain error at x=0.04, "
            "u=-0.46: logarithm of non-positive value -0.46 in 'ln(u)'\n"
        )

    def test_relative_error_blank_where_exact_is_zero(self, capsys, tmp_path):
        path = write_config(tmp_path, k=0, rhs="0", exact="x - 0.5", alpha=-0.5, beta=1)
        argv = ("solve", "--config", path, "--n", "10", "--grid", "0.25,0.5")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.splitlines()[1:] == ["0.25,-0.25,-0.25,0,0", "0.5,0,0,0,"]
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert json.loads(out)["rows"][1] == [0.5, 0.0, 0.0, 0.0, None]


class TestSweepCap:
    """Sweeps that stop at ``--sweeps`` above ``--tol`` warn, or fail under ``--strict``."""

    EX2 = ("--problem", "ex2", "--n", "100")

    def test_cap_reached_warns(self, capsys):
        code, out, err = run(capsys, "solve", *self.EX2, "--sweeps", "3", "--tol", "1e-14")
        assert code == 0
        warnings_ = [line for line in err.splitlines() if line.startswith("warning:")]
        assert len(warnings_) == 1
        assert "stopped after 3 sweeps" in warnings_[0]
        assert "above --tol 1.000e-14" in warnings_[0]
        # The table is the one a looser tolerance at the same cap gives.
        assert run(capsys, "solve", *self.EX2, "--sweeps", "3", "--tol", "1e-13")[1] == out

    @pytest.mark.parametrize(
        "options", [("--sweeps", "50", "--tol", "1e-10"), ()], ids=["converged", "default"]
    )
    def test_no_warning_otherwise(self, capsys, options):
        code, _, err = run(capsys, "solve", *self.EX2, *options)
        assert code == 0
        assert "warning" not in err

    def test_cap_reached_fails_strict(self, capsys):
        options = ("--sweeps", "3", "--tol", "1e-14")
        _, _, warned = run(capsys, "solve", *self.EX2, *options)
        code, out, err = run(capsys, "solve", *self.EX2, *options, "--strict")
        assert code == 4
        assert out == ""
        assert err == warned.splitlines()[0].replace("warning:", "error:", 1) + "\n"

    def test_strict_converged_unchanged(self, capsys):
        options = ("--sweeps", "50", "--tol", "1e-10")
        plain = run(capsys, "solve", *self.EX2, *options)
        strict = run(capsys, "solve", *self.EX2, *options, "--strict")
        assert strict[:2] == plain[:2] == (0, plain[1])
        assert "warning" not in strict[2]

    def test_converge_fails_strict_at_first_capped_n(self, capsys):
        code, out, err = run(
            capsys, "converge", "--problem", "ex2", "--n-list", "25,50",
            "--sweeps", "2", "--tol", "1e-14", "--strict",
        )
        assert code == 4
        assert out == ""
        assert err.startswith("error: ex2: n=25: stopped after 2 sweeps")
        assert "n=50" not in err

    def test_converge_warns_per_n(self, capsys):
        code, _, err = run(
            capsys, "converge", "--problem", "ex2", "--n-list", "25,50",
            "--sweeps", "2", "--tol", "1e-14",
        )
        assert code == 0
        assert "n=25: stopped after 2 sweeps" in err
        assert "n=50: stopped after 2 sweeps" in err


class TestSolveErrors:
    def test_unknown_builtin(self, capsys):
        code, _, err = run(capsys, "solve", "--problem", "ex9")
        assert code == 2
        assert "ex1, ex2, ex3" in err

    def test_n_zero(self, capsys):
        code, _, err = run(capsys, "solve", "--problem", "ex1", "--n", "0")
        assert code == 2
        assert "n must be >= 1" in err

    def test_bad_grid_token(self, capsys):
        code, _, err = run(
            capsys, "solve", "--problem", "ex1", "--grid", "0.5,apple"
        )
        assert code == 2
        assert "bad grid value 'apple'" in err

    def test_grid_without_points(self, capsys):
        code, out, err = run(capsys, "solve", "--problem", "ex1", "--grid", ",")
        assert (code, out, err) == (2, "", "error: grid must contain at least one point\n")

    def test_oracle_domain_error_names_x(self, capsys, tmp_path):
        # The nodes lie past 0.05; the oracle's first step starts at x = 0.
        path = write_config(tmp_path, rhs="sqrt(x - 0.05)", exact=None)
        code, out, err = run(capsys, "solve", "--config", path, "--n", "10")
        assert (code, out) == (5, "")
        assert err == (
            "error: right-hand side domain error at x=0.0: square root of negative "
            "value -0.05 in 'sqrt(x-0.050000000000000003)'\n"
        )

    def test_sweep_overflow_is_a_numeric_error(self, capsys, tmp_path):
        # F is finite at every node, +-1.7e308 in turn, so the partial sums
        # overflow; that is reported once, with no floating-point warning.
        path = write_config(tmp_path, rhs="1.7e308*cos(pi*10*x)", exact=None)
        code, out, err = run(
            capsys, "solve", "--config", path, "--n", "10", "--method", "nonlinear"
        )
        assert (code, out, err) == (
            4, "", "error: forward sweep produced non-finite coefficients\n"
        )

    @pytest.mark.parametrize("T,args,failure", [
        (1, ["--n", "200", "--method", "linear"], "cell table of u is not finite (max "
         "|gamma| 1.45e+307)"),
        (1, ["--n", "200", "--method", "nonlinear"], "cell table of u is not finite (max "
         "|gamma| 1.45e+307)"),
        (10, ["--n", "5", "--method", "nonlinear", "--sweeps", "2"], "nodal values after "
         "sweep 1 are not finite (max |gamma| 1.33e+306)"),
    ])
    def test_overflowing_solution_is_a_numeric_error(self, tmp_path, T, args, failure):
        # gamma stays finite, but its cell table (on [0, 1]) or the nodal
        # values a second sweep starts from (on [0, 10]) overflow; a fresh
        # process shows any floating-point warning on stderr.
        path = write_config(tmp_path, rhs="1e308", exact=None, T=T)
        src = os.path.dirname(os.path.dirname(rkhsivp.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "rkhsivp.cli", "solve", "--config", path, *args],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert "RuntimeWarning" not in done.stderr
        assert (done.returncode, done.stdout, done.stderr) == (
            4, "", f"error: {failure}: the solution overflows\n"
        )

    def test_grid_point_outside(self, capsys):
        code, _, err = run(capsys, "solve", "--problem", "ex1", "--grid", "1.5")
        assert code == 2
        assert "outside" in err

    def test_left_endpoint_excluded_from_grid(self, capsys):
        code, _, err = run(capsys, "solve", "--problem", "ex1", "--grid", "0.0")
        assert code == 2
        assert "outside" in err

    def test_forced_linear_needs_affine_form(self, capsys):
        code, _, err = run(
            capsys, "solve", "--problem", "ex3", "--method", "linear", "--n", "5"
        )
        assert code == 2
        assert "no affine right-hand side" in err

    def test_domain_error_exit_code(self, capsys, tmp_path):
        path = write_config(tmp_path, rhs="ln(u)", exact=None)
        code, _, err = run(capsys, "solve", "--config", path, "--n", "5")
        assert code == 5
        assert "node 1" in err

    def test_numeric_error_exit_code(self, capsys, tmp_path):
        path = write_config(tmp_path, rhs="exp(1000) - exp(1000)", exact=None)
        code, _, err = run(capsys, "solve", "--config", path, "--n", "5")
        assert code == 4
        assert err == "error: right-hand side returned NaN at node 1, x=0.2\n"

    def test_linear_path_domain_error_names_node(self, capsys, tmp_path):
        path = write_config(tmp_path, rhs="ln(x - 0.5) + u", exact=None)
        code, out, err = run(capsys, "solve", "--config", path, "--n", "10")
        assert code == 5
        assert out == ""
        assert err == (
            "error: right-hand side domain error at node 1, x=0.1: "
            "logarithm of non-positive value -0.4 in 'ln(x-0.5)'\n"
        )

    @pytest.mark.parametrize("method", ["linear", "nonlinear"])
    def test_nan_rhs_names_node_on_both_paths(self, capsys, tmp_path, method):
        # exp(1000 x) overflows to inf from x = 0.8 on, and 0 * inf is NaN.
        # An inf must be named at its own node, not multiplied into a NaN
        # that blames a later one.
        for rhs, shown in [("u + 0*exp(1000*x)", "NaN"), ("exp(1000*x) - u", "inf")]:
            path = write_config(tmp_path, rhs=rhs, exact=None)
            code, out, err = run(
                capsys, "solve", "--config", path, "--n", "10", "--method", method
            )
            assert code == 4
            assert out == ""
            assert err == f"error: right-hand side returned {shown} at node 8, x=0.8\n"

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_nonfinite_oracle_tol(self, tmp_path, tol):
        # In a subprocess with a timeout: a tolerance that reached the step
        # loop would never return.
        path = write_config(tmp_path, exact=None)
        src = os.path.dirname(os.path.dirname(rkhsivp.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "rkhsivp.cli", "solve", "--config", path,
             "--n", "50", "--oracle-tol", tol],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == f"error: tol must be positive and finite, got {tol}\n"

    @pytest.mark.parametrize("tol", ["nan", "-1e-10"])
    def test_nan_or_negative_sweep_tol(self, capsys, tol):
        code, out, err = run(
            capsys, "solve", "--problem", "ex2", "--n", "50", "--sweeps", "5", f"--tol={tol}"
        )
        assert code == 2
        assert out == ""
        assert err == f"error: tol must be >= 0, got {float(tol)}\n"

    def test_unwritable_output(self, capsys, tmp_path):
        target = str(tmp_path / "missing" / "x.csv")
        code, out, err = run(capsys, "solve", "--problem", "ex1", "--n", "10", "--output", target)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write output file {target!r}: ")

    def test_no_arguments(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()


class TestNodeAtOrigin:
    """a < 0 < T: k/x has its pole inside the interval, at x = 0."""

    def solve(self, capsys, tmp_path, k, rhs, n):
        path = write_config(
            tmp_path, name="parabola", k=k, a=-2, T=0.7, alpha=4, beta=-4,
            rhs=rhs, exact="x^2",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return run(capsys, "solve", "--config", path, "--n", str(n),
                       "--grid", "0.1,0.5")

    @pytest.mark.parametrize("n, node", [(27, 20), (54, 40)])
    def test_node_on_pole_is_a_domain_error(self, capsys, tmp_path, n, node):
        code, out, err = self.solve(capsys, tmp_path, 2, "6", n)
        assert code == 5
        assert out == ""
        assert err == f"error: collocation node {node} is x = 0, where k/x is singular\n"

    def test_nodes_beside_pole_solve(self, capsys, tmp_path):
        code, out, err = self.solve(capsys, tmp_path, 2, "6", 26)
        assert code == 0, err
        _, rows = parse_csv(out)
        assert max(float(r[3]) for r in rows) < 1e-2

    def test_node_on_origin_without_pole_solves(self, capsys, tmp_path):
        code, out, err = self.solve(capsys, tmp_path, 0, "2", 27)
        assert code == 0, err
        _, rows = parse_csv(out)
        assert max(float(r[3]) for r in rows) < 1e-1


class TestPoleInsideInterval:
    """a < 0 < T with samples, not nodes, at x = 0: residuals leave them out."""

    def run_config(self, capsys, tmp_path, *argv, **config):
        path = write_config(tmp_path, name="parabola", **config)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return run(capsys, argv[0], "--config", path, *argv[1:])

    def test_exact_check_skips_pole(self, capsys, tmp_path):
        # The check's sample a + 5 (T - a) / 25 is x = 0 on [-1, 4].
        code, out, err = self.run_config(
            capsys, tmp_path, "solve", "--n", "49", "--grid", "0.5,1",
            k=2, a=-1, T=4, alpha=2, beta=-2, rhs="6", exact="x^2 + 1",
        )
        assert code == 0, err
        assert "warning" not in err
        _, rows = parse_csv(out)
        assert max(float(r[3]) for r in rows) < 1e-2

    @pytest.mark.parametrize(
        "k, rhs, exact, alpha",
        [(2, "6 + 2*u - 2*x^2 - 2", "x^2 + 1", 2), (0, "2", "x^2", 1)],
        ids=["k2", "k0"],
    )
    def test_converge_residual_finite(self, capsys, tmp_path, k, rhs, exact, alpha):
        # Grid point 100 of 200 is x = 0 on [-1, 1], and at n = 51 a node
        # midpoint rounds to 5.6e-17.
        code, out, err = self.run_config(
            capsys, tmp_path, "converge", "--n-list", "25,51,99",
            k=k, a=-1, T=1, alpha=alpha, beta=-2, rhs=rhs, exact=exact,
        )
        assert code == 0, err
        assert [line.split(" solved in ")[0] for line in err.splitlines()] == [
            f"parabola: n={n} (linear)" for n in (25, 51, 99)
        ]
        residuals = [float(r[2]) for r in parse_csv(out)[1]]
        assert all(math.isfinite(r) for r in residuals)
        assert residuals[0] > residuals[1] > residuals[2]

    @pytest.mark.parametrize(
        "argv, T",
        [(("solve", "--n", "25", "--grid", "0.5,1"), 1), (("converge", "--n-list", "25,51"), 1),
         (("converge", "--n-list", "25"), 0)],
        ids=["solve", "converge", "converge-T0"],
    )
    def test_oracle_refuses_pole(self, capsys, tmp_path, argv, T):
        # Without exact the RK oracle is the reference, and it cannot cross x = 0.
        code, out, err = self.run_config(
            capsys, tmp_path, *argv,
            k=2, a=-1, T=T, alpha=2, beta=-2, rhs="6 + 2*u - 2*x^2 - 2", exact=None,
        )
        assert code == 5
        assert out == ""
        assert err == (
            f"error: the reference oracle cannot integrate through x = 0 on [-1, {T}], "
            "where k/x is singular; give the config an exact solution ('exact')\n"
        )

    def test_oracle_without_pole_crosses_origin(self, capsys, tmp_path):
        code, out, err = self.run_config(
            capsys, tmp_path, "solve", "--n", "25", "--grid=-0.5,0,0.5",
            k=0, a=-1, T=1, alpha=1, beta=-2, rhs="2", exact=None,
        )
        assert code == 0, err
        header, rows = parse_csv(out)
        assert header == ORACLE_COLUMNS
        assert [float(r[2]) for r in rows] == pytest.approx([0.25, 0.0, 0.25], abs=1e-9)


class TestConverge:
    def test_error_and_residual_decrease(self, capsys):
        code, out, err = run(
            capsys, "converge", "--problem", "ex1", "--n-list", "25,50"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == CONVERGE_COLUMNS
        assert [int(r[0]) for r in rows] == [25, 50]
        assert float(rows[1][1]) < float(rows[0][1])
        assert float(rows[1][2]) < float(rows[0][2])
        assert "warning" not in err

    @pytest.mark.parametrize("k, rhs", [(0, "2"), (2, "6")])
    def test_interval_whose_grid_rounds_past_T(self, capsys, tmp_path, k, rhs):
        # On [-2, 0.7], a + n (T - a) / n exceeds T for most n; nodes and
        # measurement grid must still end at T.
        path = write_config(
            tmp_path, name="parabola", k=k, a=-2, T=0.7, alpha=4, beta=-4,
            rhs=rhs, exact="x^2",
        )
        code, out, err = run(capsys, "converge", "--config", path, "--n-list", "5,100,400")
        assert code == 0, err
        _, rows = parse_csv(out)
        errors = [float(r[1]) for r in rows]
        assert errors[0] > errors[1] > errors[2]

    def test_stdout_is_byte_identical(self, capsys):
        argv = ("converge", "--problem", "ex1", "--n-list", "25,50,100")
        first, second = run(capsys, *argv), run(capsys, *argv)
        assert first[:2] == second[:2] == (0, first[1])
        assert parse_csv(first[1])[0] == ("n", "max_absolute_error", "residual_sup_norm")
        # The timings go to stderr, one line per n.
        assert [line.split(" solved in ")[0] for line in first[2].splitlines()] == [
            f"ex1: n={n} (linear)" for n in (25, 50, 100)
        ]

    def test_json_meta(self, capsys):
        code, out, _ = run(
            capsys, "converge", "--problem", "ex1", "--n-list", "10",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["problem"] == "ex1"
        assert payload["method"] == "linear"
        assert len(payload["rows"]) == 1

    def test_error_that_grows_with_n_warns(self, capsys, tmp_path):
        # Against a wrong exact u = x^2 - 0.1 the error tends to 0.1 from below.
        path = write_config(tmp_path, rhs="6", exact="x^2 - 0.1")
        code, out, err = run(capsys, "converge", "--config", path, "--n-list", "10,20,40")
        assert code == 0
        assert len(parse_csv(out)[1]) == 3
        assert [line for line in err.splitlines() if "did not decrease" in line] == [
            "warning: max absolute error did not decrease from n=10 to n=20",
            "warning: max absolute error did not decrease from n=20 to n=40",
        ]

    def test_residual_names_rhs_domain_error(self, capsys, tmp_path):
        # 1/(x - 0.005) is defined at the nodes and in the exact check, but
        # the residual samples x = 0.005.
        path = write_config(tmp_path, rhs="1/(x-0.005)", exact="x^2")
        code, out, err = run(capsys, "converge", "--config", path, "--n-list", "25")
        assert (code, out) == (5, "")
        assert err.splitlines()[-1].startswith(
            "error: residual sup-norm: right-hand side domain error at x=0.005, u="
        )
        assert err.endswith(": division by zero in '1/(x-0.0050000000000000001)'\n")

    def test_empty_n_list(self, capsys):
        code, _, err = run(capsys, "converge", "--problem", "ex1", "--n-list", ",")
        assert code == 2
        assert "n list must not be empty" in err

    def test_zero_in_n_list(self, capsys):
        code, _, err = run(
            capsys, "converge", "--problem", "ex1", "--n-list", "10,0"
        )
        assert code == 2
        assert "n must be >= 1" in err

    def test_bad_token_in_n_list(self, capsys):
        code, _, err = run(
            capsys, "converge", "--problem", "ex1", "--n-list", "10,x"
        )
        assert code == 2
        assert "bad n value 'x'" in err


class TestSlopeAtOrigin:
    """a = 0 with beta != 0: regular when k = 0, refused by the oracle otherwise."""

    def config(self, tmp_path, k, rhs):
        return write_config(tmp_path, name="tilted", k=k, alpha=0, beta=1, rhs=rhs,
                            exact=None)

    def test_line_without_pole(self, capsys, tmp_path):
        # u = x solves u'' = 0 with u(0) = 0, u'(0) = 1.
        code, out, err = run(capsys, "solve", "--config", self.config(tmp_path, 0, "0"))
        assert code == 0, err
        header, rows = parse_csv(out)
        assert header == ORACLE_COLUMNS
        for x, approx, ref, deviation in (map(float, r) for r in rows):
            assert abs(approx - x) <= 1e-15 and abs(ref - x) <= 1e-15
            assert deviation <= 1e-15

    def test_sinh_without_pole_converges_at_second_order(self, capsys, tmp_path):
        # u = sinh x solves u'' = u with u(0) = 0, u'(0) = 1.
        code, out, err = run(capsys, "converge", "--config", self.config(tmp_path, 0, "u"),
                             "--n-list", "25,50,100")
        assert code == 0, err
        assert "warning" not in err
        errors = [float(r[1]) for r in parse_csv(out)[1]]
        assert all(3.5 < coarse / fine < 4.5 for coarse, fine in zip(errors, errors[1:]))

    def test_pole_refused(self, capsys, tmp_path):
        code, out, err = run(capsys, "solve", "--config", self.config(tmp_path, 2, "0"))
        assert code == 5
        assert out == ""
        assert err == "error: a = 0 requires u'(a) = 0 for a regular solution; got beta = 1.0\n"


class TestKernelDump:
    def test_pinned_section_values(self, capsys):
        code, out, _ = run(
            capsys, "kernel-dump", "--a", "0", "--T", "1", "--x", "0.5",
            "--resolution", "5",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == KERNEL_COLUMNS
        assert [float(r[0]) for r in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert float(rows[0][1]) == 0.0
        assert float(rows[1][1]) == pytest.approx(0.0041585286458333, abs=1e-13)
        assert max(float(r[4]) for r in rows) <= 1e-10

    def test_json_meta(self, capsys):
        code, out, _ = run(
            capsys, "kernel-dump", "--a", "0", "--T", "1", "--x", "0.5",
            "--resolution", "3", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["a"], payload["T"], payload["x"]) == (0.0, 1.0, 0.5)

    def test_section_point_outside(self, capsys):
        code, _, err = run(
            capsys, "kernel-dump", "--a", "0", "--T", "1", "--x", "1.5"
        )
        assert code == 2
        assert "outside" in err

    def test_resolution_floor(self, capsys):
        code, _, err = run(
            capsys, "kernel-dump", "--a", "0", "--T", "1", "--x", "0.5",
            "--resolution", "1",
        )
        assert code == 2
        assert "resolution" in err

    def test_degenerate_interval(self, capsys):
        code, out, err = run(capsys, "kernel-dump", "--a", "1", "--T", "1", "--x", "1")
        assert code == 2
        assert out == ""
        assert err == "error: interval requires a < T, got [1.0, 1.0]\n"

    @pytest.mark.parametrize(
        "a, message",
        [("2", "interval requires a < T, got [2.0, 1.0]"),
         ("nan", "interval endpoints must be finite")],
        ids=["reversed", "nan"],
    )
    def test_invalid_interval(self, capsys, a, message):
        code, out, err = run(capsys, "kernel-dump", "--a", a, "--T", "1", "--x", "1")
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_section(title):
    """The text under ``### title`` up to the next heading."""
    match = re.search(rf"^### {title}\n(.*?)(?=^#)", README.read_text(encoding="utf-8"),
                      re.S | re.M)
    assert match is not None, title
    return match.group(1)


def test_readme_lists_exactly_the_exit_codes():
    rows = re.findall(r"^\| (\d+) \|", readme_section("Exit codes"), re.M)
    assert sorted(map(int, rows)) == sorted({0, *_EXIT_CODES.values()})


def test_readme_documents_every_option():
    commands = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    assert sorted(commands) == ["converge", "kernel-dump", "solve"]
    for name, parser in commands.items():
        section = readme_section(name)
        for action in parser._actions:
            for option in action.option_strings:
                if option.startswith("--") and option != "--help":
                    assert re.search(rf"{re.escape(option)}(?![\w-])", section), (name, option)
