"""Bit-identity fingerprint of a checkout: solutions, evaluations and CLI runs.

    python3 tools/fingerprint.py                  # this tree's fingerprint, as JSON
    python3 tools/fingerprint.py --against REV    # the cases that differ from commit REV
    python3 tools/fingerprint.py --quick ...      # a small corpus (n = 7 and 65, fewer runs)

The corpus is fixed here: ex1-ex3, the twelve manufactured problems of
``perfbench/problems.family_pool`` for seed 1, and a few configs that reach
an interval with a < 0, a long interval, k = 0 and failures.  Each is solved
at every n of the corpus, once with one sweep and once with sweeps to
``tol`` 1e-10.  A case records a hash of gamma, of each cell table, of
``evaluate`` at a, T, the nodes and three points in each cell (the array
path and the per-point path, for u, u' and u''), of ``sweeps_used``,
``final_change`` and the residual, or the error the solve raised.  Each CLI
run records its exit code and a hash of stdout and of stderr, with the solve
times and the temporary directory masked and warnings appended.

The corpus is built by this checkout's tool and run, in a child process,
against the ``src/`` of the tree being measured.  ``--against REV`` extracts
REV with ``git archive`` into a temporary directory, fingerprints both trees
and prints each case that differs with the parts that differ; it exits 1
when any case differs.  Hashes depend on the machine's libm, so compare two
trees on one machine, not against a stored file.  Standard library only in
this process; the child imports numpy and ``rkhsivp``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

NS, QUICK_NS = (1, 2, 7, 50, 64, 65, 100, 200, 1600), (7, 65)
SWEEPS = ((1, 1e-10), (50, 1e-10))
FAMILY_SEED = 1
CONFIGS = {
    "lane-emden-3": {"k": 2, "a": 0, "T": 7.5, "alpha": 1, "beta": 0, "rhs": "-(u^3)"},
    "long-cfg": {"k": 1, "a": 1, "T": 11, "alpha": 1, "beta": 0.5,
                 "rhs": "cos(x) - 0.1*x*sin(u)"},
    "negative-a": {"k": 0, "a": -2, "T": 1, "alpha": 1, "beta": 0, "rhs": "-u",
                   "exact": "cos(x+2)"},
    "guards": {"k": 2, "a": 0, "T": 1, "alpha": 1, "beta": 0,
               "rhs": "ln(u)*sqrt(x+1) - exp(0-x)/(1+x^2) + sinh(u)/cosh(u) + abs(x-0.5)"
                      " + u^1.5 - (1+x)^3"},
    "ln-of-negative": {"k": 2, "a": 0, "T": 1, "alpha": -1, "beta": 0, "rhs": "ln(u)"},
    "overflow": {"k": 2, "a": 0, "T": 1, "alpha": 0, "beta": 0, "rhs": "1e308"},
}
# Each CLI run as (argv, quick); "{name}" is the path of that config.
CLI_RUNS = (
    (["solve", "--problem", "ex1", "--n", "100"], True),
    (["solve", "--problem", "ex2", "--n", "100", "--format", "json"], False),
    (["solve", "--problem", "ex3", "--n", "64", "--sweeps", "50"], False),
    (["converge", "--problem", "ex3", "--n-list", "25,50,100"], False),
    (["solve", "--config", "{fp0}", "--n", "50"], True),
    (["solve", "--config", "{negative-a}", "--n", "20", "--grid=-1.5,0.5"], False),
    (["solve", "--config", "{guards}", "--n", "30", "--sweeps", "20"], False),
    (["kernel-dump", "--a", "0", "--T", "1", "--x", "0.5", "--resolution", "11"], False),
    # Failures: exit 5, 3, 4, 4, 4 and 2.
    (["solve", "--config", "{ln-of-negative}", "--n", "10"], True),
    (["solve", "--config", "{syntax}"], False),
    (["solve", "--problem", "ex2", "--n", "100", "--sweeps", "3", "--tol", "1e-14",
      "--strict"], True),
    (["solve", "--config", "{overflow}", "--n", "200"], False),
    (["solve", "--config", "{sweep-overflow}", "--n", "10", "--method", "nonlinear"], False),
    (["solve", "--problem", "ex1", "--n", "0"], False),
)
EXTRA_CLI_CONFIGS = {
    "syntax": {"k": 2, "a": 0, "T": 1, "alpha": 0, "beta": 0, "rhs": "x + * u"},
    "sweep-overflow": {"k": 2, "a": 0, "T": 1, "alpha": 0, "beta": 0,
                       "rhs": "1.7e308*cos(pi*10*x)"},
}


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def _write_configs(directory: str) -> dict[str, str]:
    """Every config of the corpus as a JSON file in ``directory``, by name."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import random

    import problems

    configs = {f"fp{i}": m.config
               for i, m in enumerate(problems.family_pool(random.Random(FAMILY_SEED), "fp"))}
    configs.update(CONFIGS)
    configs.update(EXTRA_CLI_CONFIGS)
    paths = {}
    for name, config in configs.items():
        paths[name] = os.path.join(directory, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump({"name": name, **config}, fh)
    return paths


def _solution_case(sol) -> dict:
    import numpy as np

    from rkhsivp import evaluate, residual_sup_norm

    a, T = sol.problem.interval.a, sol.problem.interval.T
    nodes = sol.basis.points.values
    ends = np.concatenate([[a], nodes])
    xs = np.concatenate([[a, T], nodes, *(ends[:-1] + f * np.diff(ends)
                                          for f in (0.25, 0.5, 0.875))])
    case = {"method": sol.method, "gamma": _digest(sol.gamma.tobytes())}
    for d in range(3):
        case[f"cells{d}"] = _digest(sol.cells[d].shape, sol.cells[d].tobytes())
        case[f"array{d}"] = _digest(evaluate(sol, xs, d).tobytes())
        case[f"float{d}"] = _digest([evaluate(sol, x, d).hex() for x in xs.tolist()])
    case["sweeps"] = (sol.sweeps_used, None if sol.final_change is None
                      else sol.final_change.hex())
    try:
        case["residual"] = residual_sup_norm(sol).hex()
    except Exception as exc:  # recorded, not swallowed
        case["residual"] = f"{type(exc).__name__}: {exc}"
    return case


def _cli_run(argv: list[str], directory: str) -> dict:
    import contextlib
    import warnings

    from rkhsivp.cli import main

    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    stderr = err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    stderr = re.sub(r"\d+\.\d+ s\b", "<t> s", stderr.replace(directory, "<dir>"))
    return {"exit": code, "stdout": _digest(out.getvalue()), "stderr": _digest(stderr)}


def emit(quick: bool) -> dict:
    """The fingerprint of the ``rkhsivp`` on ``sys.path``, one entry per case."""
    import warnings

    from rkhsivp import builtin, solve_problem
    from rkhsivp.cli import load_problem_config

    cases = {}
    with tempfile.TemporaryDirectory() as directory:
        paths = _write_configs(directory)
        names = ["ex1", "ex2", "ex3", *(n for n in paths if n not in EXTRA_CLI_CONFIGS)]
        for name in names:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                problem = (builtin(name) if name.startswith("ex")
                           else load_problem_config(paths[name]))
            for n in QUICK_NS if quick else NS:
                for sweeps, tol in SWEEPS:
                    key = f"{name} n={n} sweeps={sweeps}"
                    try:
                        with warnings.catch_warnings(record=True) as caught_solve:
                            warnings.simplefilter("always")
                            case = _solution_case(solve_problem(problem, n=n, sweeps=sweeps,
                                                                tol=tol))
                    except Exception as exc:  # recorded, not swallowed
                        case = {"error": f"{type(exc).__name__}: {exc}"}
                    case["warnings"] = [str(w.message) for w in caught + caught_solve]
                    cases[key] = case
        for argv, in_quick in CLI_RUNS:
            if in_quick or not quick:
                argv = [arg.format(**paths) if arg.startswith("{") else arg for arg in argv]
                cases["cli " + " ".join(argv).replace(directory, "<dir>")] = _cli_run(
                    argv, directory)
    return cases


def fingerprint(src: str, quick: bool = False) -> dict:
    """The fingerprint of the ``rkhsivp`` package under ``src``, from a child process."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [sys.executable, os.path.abspath(__file__), "--emit"] + (["--quick"] if quick else [])
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"fingerprint: the run against {src} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def differences(base: dict, other: dict) -> dict[str, list[str]]:
    """Each case whose records differ, with the parts that differ.

    A case that only ``other`` has is "added", one that only ``base`` has
    is "removed".
    """
    out = {}
    for key in sorted(set(base) | set(other)):
        a, b = base.get(key), other.get(key)
        if a != b:
            if a is None or b is None:
                out[key] = ["added" if a is None else "removed"]
            else:
                out[key] = sorted(p for p in set(a) | set(b) if a.get(p) != b.get(p))
    return out


def extract(rev: str, directory: str) -> str:
    """The committed tree of ``rev`` under ``directory``; its ``src/``."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(directory, filter="data")
    return os.path.join(directory, "src")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--against", metavar="REV", help="compare with this commit")
    ap.add_argument("--quick", action="store_true", help="the small corpus")
    ap.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.emit:
        json.dump(emit(args.quick), sys.stdout, indent=1, sort_keys=True)
        return 0
    here = fingerprint(os.path.join(ROOT, "src"), args.quick)
    if args.against is None:
        json.dump(here, sys.stdout, indent=1, sort_keys=True)
        print()
        return 0
    with tempfile.TemporaryDirectory() as directory:
        there = fingerprint(extract(args.against, directory), args.quick)
    diff = differences(there, here)
    for key, parts in diff.items():
        print(f"differs: {key}: {', '.join(parts)}")
    solves = sum(not key.startswith("cli ") for key in here)
    print(f"fingerprint against {args.against}: {len(here)} cases ({solves} solves, "
          f"{len(here) - solves} CLI runs), {len(diff)} differ")
    return 1 if diff else 0


if __name__ == "__main__":
    raise SystemExit(main())
