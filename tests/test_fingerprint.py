"""tools/fingerprint.py: the bit-identity fingerprint of a checkout."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "fingerprint.py")

spec = importlib.util.spec_from_file_location("fingerprint", TOOL)
fingerprint = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fingerprint)


def test_same_tree_twice_has_no_difference():
    # Two child processes over the small corpus, one tree: every bit repeats.
    src = os.path.join(ROOT, "src")
    first = fingerprint.fingerprint(src, quick=True)
    second = fingerprint.fingerprint(src, quick=True)
    assert fingerprint.differences(first, second) == {}
    solves = [key for key in first if not key.startswith("cli ")]
    assert len(solves) == 2 * len(fingerprint.QUICK_NS) * (3 + 12 + len(fingerprint.CONFIGS))
    assert first["ex1 n=7 sweeps=1"]["method"] == "linear"
    assert first["ex2 n=65 sweeps=50"]["sweeps"][0] > 1
    assert first["ln-of-negative n=7 sweeps=1"]["error"].startswith(
        "DomainError: right-hand side domain error at node 1")
    runs = {key: case["exit"] for key, case in first.items() if key.startswith("cli ")}
    assert sorted(runs.values()) == [0, 0, 4, 5]


def test_differences_name_the_parts():
    base = {"a": {"gamma": "1", "cells0": "2"}, "b": {"exit": 0}, "c": {"exit": 0}}
    other = {"a": {"gamma": "1", "cells0": "3"}, "b": {"exit": 0}, "d": {"exit": 0}}
    assert fingerprint.differences(base, other) == {
        "a": ["cells0"], "c": ["removed"], "d": ["added"],
    }
