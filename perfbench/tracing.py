"""Spans around calls into the ``rkhsivp`` layers, recorded from outside.

Wrappers are installed on the public functions and methods listed in
``TRACED``.  A function is rebound in every loaded ``rkhsivp`` module
namespace that holds it, so a call through an alias (``cli.eval_expr``, or
``rkhs_solver``'s own binding of ``build_basis``) is recorded under the
defining name (``rhs_expr.evaluate``, ``collocation.build_basis``).
Nothing under ``src/`` changes.

Spans carry name, start, end, parent and op id.  They are kept in memory in
flat arrays, written out when the run ends, and self time is derived from
them: a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import array
import dataclasses
import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict

# (defining module, qualified name) of each recorded layer boundary.  The
# span name drops the class: ``W23Kernel.coefficient_derivatives`` records
# as ``kernel_space.coefficient_derivatives``.
TRACED = (
    ("cli", "main"),
    ("cli", "load_problem_config"),
    ("problem_model", "builtin"),
    ("problem_model", "verify_exact"),
    ("rhs_expr", "parse"),
    ("rhs_expr", "evaluate"),
    ("reference_oracle", "integrate"),
    ("kernel_space", "build_w23_kernel"),
    ("kernel_space", "W23Kernel.coefficient_derivatives"),
    ("collocation", "gram_matrix"),
    ("collocation", "orthonormalize"),
    ("collocation", "build_basis"),
    ("collocation", "CollocationBasis.psi_values"),
    ("rkhs_solver", "solve_problem"),
    ("rkhs_solver", "solve_linear"),
    ("rkhs_solver", "solve_nonlinear"),
    ("rkhs_solver", "evaluate"),
    ("rkhs_solver", "residual_sup_norm"),
    ("rkhs_solver", "error_report"),
)
OP_SPAN = "op"
# Prefix of the stderr line on which a traced CLI process reports its spans.
MARKER = "perfbench-trace "


def span_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname.rsplit('.', 1)[-1]}"


class Tracer:
    """Span and counter store for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.op = array.array("i")
        self._stack = [-1]
        self.op_id = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.bases: list = []

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def begin(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int) -> int:
        """Append a finished span recorded elsewhere (a child process)."""
        idx = len(self.name)
        self.name.append(self._name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(self.op_id)
        return idx

    def take_bases(self) -> int:
        """Bytes of the basis arrays built since the last call.

        Reads the instance dictionary, so ``cached_property`` matrices count
        only once something has materialized them.
        """
        total = 0
        for basis in self.bases:
            for value in vars(basis).values():
                total += int(getattr(value, "nbytes", 0))
        self.bases.clear()
        return total

    def count_rhs(self, problem):
        """``problem`` with its right-hand side F counted per evaluation."""
        rhs = problem.rhs
        counts = self.counts

        def counted(x, u):
            counts["problem_model.rhs.calls"] += 1
            return rhs(x, u)

        return dataclasses.replace(problem, rhs=counted)

    def spans(self) -> list[tuple[str, float, float, int, int]]:
        return [
            (self.names[n], s, e, p, o)
            for n, s, e, p, o in zip(self.name, self.start, self.end, self.parent, self.op)
        ]

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Total self seconds and call count per span name."""
        count = len(self.name)
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        selfs: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i in range(count):
            name = self.names[self.name[i]]
            selfs[name] += self.end[i] - self.start[i] - child[i]
            calls[name] += 1
        return selfs, calls

    def write(self, path: str) -> None:
        payload = {
            "fields": ["name", "start", "end", "parent", "op"],
            "names": self.names,
            "name": list(self.name),
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
            "op": list(self.op),
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(payload, fh)


def _wrap(tracer: Tracer, name: str, fn, on_result=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(idx)
        if on_result is not None:
            result = on_result(result)
        return result

    return traced


def _result_hooks(tracer: Tracer) -> dict:
    counts = tracer.counts

    def sweeps(sol):
        counts["rkhs_solver.sweeps"] += sol.sweeps_used
        return sol

    def steps(traj):
        counts["reference_oracle.accepted_steps"] += traj.accepted_steps
        return traj

    def basis(b):
        tracer.bases.append(b)
        return b

    return {
        "rkhs_solver.solve_nonlinear": sweeps,
        "reference_oracle.integrate": steps,
        "collocation.build_basis": basis,
        # Problems the CLI loads get their F counted like the in-process ones.
        "cli.load_problem_config": tracer.count_rhs,
        "problem_model.builtin": tracer.count_rhs,
    }


def install(tracer: Tracer):
    """Wrap every ``TRACED`` name; returns a function that undoes it."""
    modules = {mod: importlib.import_module(f"rkhsivp.{mod}") for mod, _ in TRACED}
    namespaces = [
        m for key, m in list(sys.modules.items())
        if m is not None and (key == "rkhsivp" or key.startswith("rkhsivp."))
    ]
    hooks = _result_hooks(tracer)
    undo = []
    for mod, qualname in TRACED:
        name = span_name(mod, qualname)
        owner = modules[mod]
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, _wrap(tracer, name, original, hooks.get(name)))
            undo.append((cls, attr, original))
            continue
        original = getattr(owner, qualname)
        wrapper = _wrap(tracer, name, original, hooks.get(name))
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, wrapper)
                    undo.append((ns, attr, original))

    def uninstall():
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)

    return uninstall


def import_times(stderr: str) -> dict[str, float]:
    """Import seconds by package from ``python -X importtime`` output.

    ``rkhsivp_s``, ``scipy_s`` and ``numpy_s`` sum the self times of the
    modules of each package; ``wall_s`` sums the cumulative times of the
    outermost ``rkhsivp`` imports, everything they pulled in included.
    """
    out = {"import.wall_s": 0.0, "import.rkhsivp_s": 0.0, "import.scipy_s": 0.0,
           "import.numpy_s": 0.0}
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue  # the header line
        module = parts[2].rstrip()
        depth = (len(module) - len(module.lstrip()) - 1) // 2
        rows.append((depth, module.strip().split(".")[0], int(parts[0]), int(parts[1])))
    # importtime prints a module after its children; walking backwards
    # meets each parent before its children.
    ancestors: list[tuple[int, str]] = []
    for depth, top, self_us, cumulative_us in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        key = f"import.{top}_s"
        if key in out:
            out[key] += self_us * 1e-6
        if top == "rkhsivp" and all(t != "rkhsivp" for _, t in ancestors):
            out["import.wall_s"] += cumulative_us * 1e-6
        ancestors.append((depth, top))
    return out
