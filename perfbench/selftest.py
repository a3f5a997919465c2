"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at toy size, traced and untraced, and checks that the
emitted metric names and units equal those declared in ``BENCHMARK.json``,
that traced self times add up to the traced op time, that the correctness
gate trips when given a deliberately wrong reference, and that the runner
refuses to report from a directory without the program's sources.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import problems  # noqa: E402
import workloads  # noqa: E402
from run import child_env  # noqa: E402

FAILURES: list[str] = []


def check(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        FAILURES.append(message)


def run_bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "2", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names(spec: dict) -> None:
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = run_bench(w["name"], trace)
            label = f"{w['name']} --trace {trace}"
            check(proc.returncode == 0, f"{label}: exit code 0 ({proc.stderr.strip()[-300:]})")
            if proc.returncode != 0:
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result keys")
            check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{label}: correct, {result['failed']} of {result['attempted']} failed")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == expected[trace], f"{label}: metric names and units match BENCHMARK.json")
            values = [m["value"] for m in result["metrics"].values()]
            check(all(isinstance(v, (int, float)) and math.isfinite(v) for v in values),
                  f"{label}: every value a finite number")
            if trace:
                m = {name: v["value"] for name, v in result["metrics"].items()}
                selfs = sum(v for name, v in m.items() if name.endswith(".self_s"))
                total = selfs + m["trace.unattributed_s"]
                check(math.isclose(total, m["trace.op_s.mean"], rel_tol=1e-6),
                      f"{label}: self times sum to the traced op time "
                      f"({total:.6f} vs {m['trace.op_s.mean']:.6f} s)")


def shifted(exact: problems.Exact, by: float) -> problems.Exact:
    return problems.Exact(u=lambda x: exact.u(x) + by, du=lambda x: exact.du(x) + by,
                          d2u=lambda x: exact.d2u(x) + by)


def test_gate_trips() -> None:
    env = child_env()
    workdir = os.path.join(HERE, "out", "selftest")
    cli = workloads.CliCold(ROOT, 7, True, workdir, env)
    for i in range(4):
        check(cli.op(i).ok, f"cli_cold op {i} passes with the true reference")
    good = cli.configs[0]
    cli.configs[0] = (good[0], shifted(good[1], 1e-3))
    check(not cli.op(3).ok, "cli_cold gate trips on a wrong reference (config problem)")
    cli.configs[0] = (os.path.join(workdir, "missing.json"), good[1])
    result = cli.op(3)
    check(not result.ok and "exit 2" in result.detail, "cli_cold gate trips on a non-zero exit")
    table = "x_i,Exact solution\n0.16,0.03\n"
    check(not workloads.check_cli_table(table, workloads.EXACT_COLUMNS,
                                         problems.BUILTIN_EXACT["ex1"], 40, False).ok,
          "cli_cold gate trips on a wrong table header")

    big = workloads.BigLinear(ROOT, 7, True, workdir, env)
    check(big.op(0).ok, "big_linear op passes with the true reference")
    big.exact = shifted(big.exact, 1e-3)
    check(not big.op(0).ok, "big_linear gate trips on a wrong reference")

    dense = workloads.DenseEval(ROOT, 7, True, workdir, env)
    check(dense.op(0).ok, "dense_eval op passes with the true reference")
    dense.cases[0][1] = shifted(dense.cases[0][1], 1e-2)
    check(not dense.op(0).ok, "dense_eval gate trips on a wrong reference")


def test_refuses_without_sources(spec: dict) -> None:
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(spec["workloads"][0]["name"], 0, cwd=bare)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    check(proc.returncode != 0 and '"correct"' not in last[0],
          f"without src/ the runner exits {proc.returncode} and prints no result")
    shutil.rmtree(bare)


def main() -> int:
    spec = declared()
    test_metric_names(spec)
    test_gate_trips()
    test_refuses_without_sources(spec)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
