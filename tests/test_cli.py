"""Command line behavior: tables, formats, config files, exit codes."""

import csv
import io
import json
import math
import warnings

import pytest

from rkhsivp import ExpressionSyntaxError, integrate
from rkhsivp.cli import (
    CONVERGE_COLUMNS,
    EXACT_COLUMNS,
    KERNEL_COLUMNS,
    ORACLE_COLUMNS,
    REPORT_GRID,
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
        code, _, err = run(capsys, "solve", "--config", path)
        assert code == 2


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
        # exp(1000 x) overflows from x = 0.8 on, and 0 * inf is NaN.
        path = write_config(tmp_path, rhs="u + 0*exp(1000*x)", exact=None)
        code, out, err = run(
            capsys, "solve", "--config", path, "--n", "10", "--method", method
        )
        assert code == 4
        assert out == ""
        assert err == "error: right-hand side returned NaN at node 8, x=0.8\n"

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
        assert err == ""
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
        code, _, _ = run(capsys, "kernel-dump", "--a", "1", "--T", "1", "--x", "1")
        assert code == 2
