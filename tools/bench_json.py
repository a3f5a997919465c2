"""Condense perfbench run records into one committed ``BENCH_<label>.json``.

    python3 tools/bench_json.py --label LABEL parent=PATH/perfbench/out change=perfbench/out

Each ``ROLE=DIR`` names a directory of records that ``perfbench/run.py``
wrote (``<workload>-seed<N>-trace0.json``); traced and ``--toy`` records are
skipped.  Per role the output holds the measured commit, the environment,
the ``src/`` line count, and per workload the seeds, the failed and attempted
op counts, and for each end-to-end metric its per-seed values, median,
quartiles and IQR.  Every role after the first is also compared with the
first on the seeds both ran: the pairs it won (by the metric's direction in
``BENCHMARK.json``) and the ratio of the medians.  Standard library only.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def load_records(directory: str) -> list[dict]:
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        if record.get("trace") == 0 and not record.get("toy"):
            records.append(record)
    if not records:
        raise SystemExit(f"bench_json: no untraced records in {directory}")
    return records


def only(values: set, what: str, directory: str):
    if len(values) != 1:
        raise SystemExit(f"bench_json: {directory} mixes {what}: {sorted(map(str, values))}")
    return values.pop()


def condense(directory: str) -> dict:
    records = load_records(directory)
    env = records[0]["worker"]["env"]
    workloads: dict = {}
    for record in sorted(records, key=lambda r: (r["workload"], r["seed"])):
        entry = workloads.setdefault(record["workload"], {
            "seeds": [], "attempted": 0, "failed": 0, "metrics": {},
        })
        entry["seeds"].append(record["seed"])
        phase = record["worker"]["untraced"]
        entry["attempted"] += phase["attempted"]
        entry["failed"] += phase["failed"]
        for name, metric in record["metrics"].items():
            entry["metrics"].setdefault(name, {"unit": metric["unit"], "values": []})
            entry["metrics"][name]["values"].append(metric["value"])
    for entry in workloads.values():
        for metric in entry["metrics"].values():
            q1, median, q3 = quartiles(metric["values"])
            metric.update(median=median, q1=q1, q3=q3, iqr=q3 - q1)
    return {
        "commit": only({r["git_commit"] for r in records}, "commits", directory),
        "src_lines": only({r["src_lines"] for r in records}, "src line counts", directory),
        "seconds": only({r["seconds"] for r in records}, "run lengths", directory),
        "env": {
            "python": env["python"].split()[0],
            "platform": env["platform"],
            "numpy": env["numpy"],
            "scipy": env["scipy"],
            "blas": f"{env['blas'].get('name')} {env['blas'].get('version')}",
            "cpu_count": env["cpu_count"],
            "cpus_usable": env["cpus_usable"],
            "threads_env_used": records[0]["threads_env_used"],
        },
        "workloads": workloads,
    }


def compare(base: dict, other: dict, better: dict[str, str]) -> dict:
    """Pairs won by ``other`` on the seeds both ran, and the median ratios."""
    out = {}
    for workload, entry in other["workloads"].items():
        ref = base["workloads"].get(workload)
        if ref is None:
            continue
        shared = sorted(set(entry["seeds"]) & set(ref["seeds"]))
        rows = {}
        for name, metric in entry["metrics"].items():
            by_seed = dict(zip(entry["seeds"], metric["values"]))
            ref_metric = ref["metrics"][name]
            ref_by_seed = dict(zip(ref["seeds"], ref_metric["values"]))
            sign = 1 if better[name] == "lower" else -1
            wins = sum(sign * (by_seed[s] - ref_by_seed[s]) < 0 for s in shared)
            rows[name] = {
                "pairs": len(shared),
                "won": wins,
                "median_ratio": metric["median"] / ref_metric["median"],
            }
        out[workload] = rows
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    ap.add_argument("--output", help="output path (default: BENCH_<label>.json at the root)")
    ap.add_argument("runs", nargs="+", metavar="ROLE=DIR",
                    help="a role name and a perfbench/out directory; the first is the base")
    args = ap.parse_args()
    roles = {}
    for item in args.runs:
        role, sep, directory = item.partition("=")
        if not sep or not role or role in roles:
            ap.error(f"expected distinct ROLE=DIR, got {item!r}")
        roles[role] = condense(directory)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    base_role, *others = roles
    result = {"label": args.label, "base": base_role, "roles": roles}
    result["comparisons"] = {
        f"{role} vs {base_role}": compare(roles[base_role], roles[role], better) for role in others
    }
    path = args.output or os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
