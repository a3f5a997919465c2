"""tools/bench_json.py: condensing perfbench records into a trajectory file."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "bench_json.py")

spec = importlib.util.spec_from_file_location("bench_json", TOOL)
bench_json = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_json)


def write_record(directory, workload, seed, op_p50, rss, commit, trace=0, toy=False):
    metrics = {
        "op_s.p50": {"value": op_p50, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": 35, "trace": trace, "toy": toy,
        "git_commit": commit, "src_lines": 2300,
        "threads_env_used": {"OPENBLAS_NUM_THREADS": "1"},
        "worker": {
            "untraced": {"attempted": 10, "failed": 0},
            "env": {"python": "3.11.7 (main)", "platform": "Linux", "numpy": "2.4.6",
                    "scipy": "1.17.1", "blas": {"name": "openblas", "version": "0.3"},
                    "cpu_count": 2, "cpus_usable": 2},
        },
        "metrics": metrics,
    }
    suffix = f"-trace{trace}{'-toy' if toy else ''}"
    path = directory / f"{workload}-seed{seed}{suffix}.json"
    path.write_text(json.dumps(record), encoding="utf-8")


def test_quartiles():
    assert bench_json.quartiles([2.0]) == (2.0, 2.0, 2.0)
    assert bench_json.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_condense_and_compare(tmp_path):
    base, new = tmp_path / "base", tmp_path / "new"
    base.mkdir()
    new.mkdir()
    for seed, p50 in zip((1, 2, 3), (0.10, 0.12, 0.11)):
        write_record(base, "big_linear", seed, p50, 80.0, "aaa")
    for seed, p50 in zip((1, 2, 3), (0.01, 0.13, 0.02)):
        write_record(new, "big_linear", seed, p50, 30.0, "bbb")
    # Traced and toy records are not end-to-end runs and are skipped.
    write_record(new, "big_linear", 4, 9.0, 9.0, "bbb", trace=1)
    write_record(new, "big_linear", 5, 9.0, 9.0, "bbb", toy=True)
    out = tmp_path / "BENCH_t.json"
    subprocess.run(
        [sys.executable, TOOL, "--label", "t", "--output", str(out),
         f"parent={base}", f"change={new}"],
        check=True, capture_output=True,
    )
    result = json.loads(out.read_text(encoding="utf-8"))
    change = result["roles"]["change"]
    assert change["commit"] == "bbb"
    assert change["src_lines"] == 2300
    assert change["env"]["numpy"] == "2.4.6"
    entry = change["workloads"]["big_linear"]
    assert entry["seeds"] == [1, 2, 3]
    assert (entry["attempted"], entry["failed"]) == (30, 0)
    p50 = entry["metrics"]["op_s.p50"]
    assert p50["values"] == [0.01, 0.13, 0.02]
    assert p50["median"] == 0.02
    assert p50["iqr"] == pytest.approx(p50["q3"] - p50["q1"])
    rows = result["comparisons"]["change vs parent"]["big_linear"]
    assert rows["op_s.p50"]["pairs"] == 3
    assert rows["op_s.p50"]["won"] == 2
    assert rows["op_s.p50"]["median_ratio"] == pytest.approx(0.02 / 0.11)
    assert rows["peak_rss_mb"]["won"] == 3


def test_mixed_commits_refused(tmp_path):
    write_record(tmp_path, "big_linear", 1, 0.1, 80.0, "aaa")
    write_record(tmp_path, "big_linear", 2, 0.1, 80.0, "bbb")
    with pytest.raises(SystemExit, match="mixes commits"):
        bench_json.condense(str(tmp_path))
