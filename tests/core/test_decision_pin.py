"""Merge decisions pinned against a committed record.

Every input below is compiled and its ``decision_keys()`` compared with
``tests/core/data/decisions.json``.  A change that is meant to keep merge
decisions identical (a refactor, a speed-up, a deletion) must pass this
test untouched.  Only a change that is allowed to move decisions may
regenerate the record, and it must say so in CHANGES.md::

    PYTHONPATH=src python -m tests.core.test_decision_pin --write
"""

import json
import os
import sys

from repro.core import MergeEngine
from repro.evaluation import compile_module
from repro.workloads.mibench import build_mibench_benchmark
from repro.workloads.spec2006 import build_spec_benchmark

from tests.helpers import build_module

RECORD = os.path.join(os.path.dirname(__file__), "data", "decisions.json")

#: ``tests.helpers.build_module`` inputs: (seed, families, threshold).
ENGINE_CASES = [(seed, families, threshold)
                for seed in range(6)
                for families, threshold in ((3, 1), (4, 2), (5, 1))]

#: Small-scale suite models run through the whole ``compile_module`` path
#: (Identical pre-merge, FMSA, post cleanup).
SUITE_CASES = {
    "462.libquantum": lambda: build_spec_benchmark(
        "462.libquantum", scale=0.05, cap=40).module,
    "445.gobmk": lambda: build_spec_benchmark(
        "445.gobmk", scale=0.02, cap=40).module,
    "400.perlbench": lambda: build_spec_benchmark(
        "400.perlbench", scale=0.01, cap=24).module,
    "stringsearch": lambda: build_mibench_benchmark("stringsearch").module,
    "bitcount": lambda: build_mibench_benchmark("bitcount").module,
    "sha": lambda: build_mibench_benchmark("sha").module,
    "susan": lambda: build_mibench_benchmark("susan").module,
    "gsm": lambda: build_mibench_benchmark("gsm", scale=0.5).module,
    "ispell": lambda: build_mibench_benchmark("ispell", scale=0.5).module,
}


def current_decisions() -> dict:
    record = {}
    for seed, families, threshold in ENGINE_CASES:
        report = MergeEngine(exploration_threshold=threshold).run(
            build_module(seed, families))
        record[f"build_module/{seed}/{families}/t{threshold}"] = \
            report.decision_keys()
    for name, build in SUITE_CASES.items():
        result = compile_module(build(), "fmsa")
        record[f"compile_module/{name}"] = {
            "decisions": result.merge_report.decision_keys(),
            "size_after": result.size_after,
        }
    return record


def test_decisions_match_the_committed_record():
    with open(RECORD) as handle:
        expected = json.load(handle)
    # round-trip through JSON so tuples and lists compare alike
    current = json.loads(json.dumps(current_decisions()))
    assert sorted(current) == sorted(expected)
    for case in expected:
        assert current[case] == expected[case], case


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.core.test_decision_pin --write")
    os.makedirs(os.path.dirname(RECORD), exist_ok=True)
    with open(RECORD, "w") as handle:
        json.dump(current_decisions(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {RECORD}")
