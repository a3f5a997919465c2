"""rkhsivp benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {cli_cold,big_linear,dense_eval} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The program is used from ``src/``
directly; nothing is built or installed.  BLAS and OpenMP threads are
pinned to one.  With ``--trace 0`` the last line of stdout is a JSON object
with the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced run instead.  The lines before it are a readable
summary.  The full record (environment, every op time, failures) is
written to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

WORKLOADS = ("cli_cold", "big_linear", "dense_eval")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Set-up is repeated in fresh processes and its median reported.
SETUP_RUNS = 3
# Every process of a run must have ended within 180 s of its start.
DEADLINE_S = 170

END_TO_END = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "ops_per_s": "1/s",
    "max_abs_error": "1",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "import.wall_s": "s",
    "import.rkhsivp_s": "s",
    "import.scipy_s": "s",
    "import.numpy_s": "s",
    "cli.main.self_s": "s",
    "cli.load_problem_config.self_s": "s",
    "problem_model.builtin.self_s": "s",
    "problem_model.verify_exact.self_s": "s",
    "problem_model.rhs.calls": "count",
    "rhs_expr.parse.calls": "count",
    "rhs_expr.parse.self_s": "s",
    "rhs_expr.evaluate.calls": "count",
    "rhs_expr.evaluate.self_s": "s",
    "reference_oracle.integrate.calls": "count",
    "reference_oracle.integrate.self_s": "s",
    "reference_oracle.accepted_steps": "count",
    "kernel_space.build_w23_kernel.self_s": "s",
    "kernel_space.coefficient_derivatives.calls": "count",
    "kernel_space.coefficient_derivatives.self_s": "s",
    "collocation.gram_matrix.self_s": "s",
    "collocation.orthonormalize.self_s": "s",
    "collocation.build_basis.self_s": "s",
    "collocation.basis_bytes": "B",
    "collocation.psi_values.calls": "count",
    "collocation.psi_values.self_s": "s",
    "rkhs_solver.solve_problem.self_s": "s",
    "rkhs_solver.solve_linear.self_s": "s",
    "rkhs_solver.solve_nonlinear.self_s": "s",
    "rkhs_solver.sweeps": "count",
    "rkhs_solver.evaluate.calls": "count",
    "rkhs_solver.evaluate.self_s": "s",
    "rkhs_solver.residual_sup_norm.self_s": "s",
    "rkhs_solver.error_report.self_s": "s",
    "trace.unattributed_s": "s",
    "trace.op_s.mean": "s",
    "trace.overhead_ratio": "1",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``; with fewer than eleven samples there is
    no such percentile and the maximum (100) is reported.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, env: dict, workdir: str, setup_only: bool,
               deadline: float) -> tuple[dict, str]:
    cmd = [sys.executable]
    if args.trace and not setup_only:
        cmd += ["-X", "importtime"]
    cmd += [
        os.path.join(HERE, "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(0 if setup_only else args.trace), "--root", ROOT,
        "--workdir", workdir,
    ]
    if args.toy:
        cmd.append("--toy")
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(time.perf_counter())]
    # A session of its own, so a timeout also ends the CLI processes it runs.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("worker ran past the run's deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{stderr[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1]), stderr


def git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def end_to_end(phase: dict, setups: list[float], peak_rss_mb: float) -> tuple[dict, dict]:
    samples = phase["op_s"]
    tail_value, tail_pct = tail(samples)
    values = {
        "setup_s": statistics.median(setups),
        "op_s.p50": statistics.median(samples),
        "op_s.tail": tail_value,
        "ops_per_s": len(samples) / phase["elapsed_s"],
        "max_abs_error": phase["max_abs_error"] if phase["max_abs_error"] is not None
        else sys.float_info.max,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "op_s.tail": f"p{tail_pct:.1f} of {len(samples)} samples",
        "setup_s": f"median of {len(setups)} set-ups",
    }
    return values, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--toy", action="store_true",
                    help="small problem sizes, for the self-test")
    args = ap.parse_args()
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "rkhsivp", "__init__.py")):
        return fail(f"no rkhsivp sources under {os.path.join(ROOT, 'src')}")

    deadline = time.perf_counter() + DEADLINE_S
    env = child_env()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-toy' if args.toy else ''}"
    workdir = os.path.join(OUT, tag)
    os.makedirs(workdir, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setups.append(run_worker(args, env, workdir, True, deadline)[0]["setup_s"])
        result, stderr = run_worker(args, env, workdir, False, deadline)
    except (RuntimeError, ValueError) as exc:
        return fail(str(exc))
    setups.append(result["setup_s"])

    phase = result["traced"] if args.trace else result["untraced"]
    if args.trace:
        layers = dict(result["per_layer"])
        if args.workload != "cli_cold":
            layers.update(tracing.import_times(stderr))
        metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                   for name, unit in PER_LAYER.items()}
        notes = {}
    else:
        values, notes = end_to_end(phase, setups, result["peak_rss_mb"])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    attempted, failed = phase["attempted"], phase["failed"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "toy": args.toy, "git_commit": git_commit(),
        "src_lines": src_lines(),
        "threads_env_inherited": {v: os.environ.get(v) for v in THREAD_VARS},
        "threads_env_used": {v: env[v] for v in THREAD_VARS},
        "setup_s_runs": setups, "worker": result, "metrics": metrics, "notes": notes,
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} commit={record['git_commit']} src_lines={record['src_lines']}")
    print(f"  env: python {result['env']['python'].split()[0]}, numpy {result['env']['numpy']}, "
          f"scipy {result['env']['scipy']}, cpus {result['env']['cpus_usable']}, "
          f"threads pinned to 1 ({', '.join(THREAD_VARS)})")
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:46s} {m['value']:.6g} {m['unit']}{note}")
    print(f"  {'failed_ratio':46s} {failed / attempted:.6g}  ({failed} of {attempted} ops)")
    for line in phase["failures"]:
        print(f"  failed {line}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
