"""Worklist counters pinned against a committed record.

The merge engine's report counts what its worklist loop did besides
committing merges: entries popped after their function was consumed
(``stale_entries``), candidates costed (``candidates_evaluated``),
candidates whose code generation failed (``codegen_failures``) and oracle
candidates skipped by the profit bound (``candidates_pruned``).  The
``tests/core/test_decision_pin.py`` engine runs, plus the same modules
under the oracle, must reproduce ``tests/core/data/counters.json``.  A
change that keeps decisions identical keeps these counts too; regenerate
the record only alongside a decision re-baseline, and say so in
CHANGES.md::

    PYTHONPATH=src python -m tests.core.test_counter_pin --write
"""

import json
import os
import sys

from repro.core import MergeEngine

from tests.core.test_decision_pin import ENGINE_CASES
from tests.helpers import build_module

RECORD = os.path.join(os.path.dirname(__file__), "data", "counters.json")

COUNTERS = ("stale_entries", "candidates_evaluated", "codegen_failures",
            "candidates_pruned")

#: Oracle runs over the decision-pin modules, so ``candidates_pruned`` is
#: pinned at non-zero values too: (seed, families).
ORACLE_CASES = sorted({(seed, families)
                       for seed, families, _ in ENGINE_CASES})


def current_counters() -> dict:
    runs = {f"build_module/{seed}/{families}/t{threshold}":
            dict(exploration_threshold=threshold)
            for seed, families, threshold in ENGINE_CASES}
    runs.update({f"build_module/{seed}/{families}/oracle": dict(oracle=True)
                 for seed, families in ORACLE_CASES})
    record = {}
    for case, kwargs in runs.items():
        _, seed, families, _ = case.split("/")
        report = MergeEngine(**kwargs).run(build_module(int(seed),
                                                        int(families)))
        record[case] = {name: getattr(report, name) for name in COUNTERS}
    return record


def test_counters_match_the_committed_record():
    with open(RECORD) as handle:
        expected = json.load(handle)
    current = current_counters()
    assert sorted(current) == sorted(expected)
    for case in expected:
        assert current[case] == expected[case], case


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.core.test_counter_pin --write")
    os.makedirs(os.path.dirname(RECORD), exist_ok=True)
    with open(RECORD, "w") as handle:
        json.dump(current_counters(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {RECORD}")
