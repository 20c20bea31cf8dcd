"""Resilience benchmark + chaos-leg gate (``BENCH_resilience.json``).

One number guards the resilience layer: its **disabled overhead**.  The
fault-point registry must be free when no plan is armed.  The benchmark
times the same merge run three ways (no plan at all; an armed-but-inert
plan whose only trigger has probability 0.0; and a raw ``fault_point()``
microbenchmark), alternating plain and inert-plan runs, and trips when
the inert-plan run costs more than **1.05x** the plan-free run, or when
the inert plan changes any merge decision.

Run directly (the CI resilience job does)::

    PYTHONPATH=src python benchmarks/ci_resilience.py

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/ci_resilience.py -q

Knobs: ``REPRO_BENCH_REPEATS`` (default 5) run repetitions,
``REPRO_BENCH_RESILIENCE_OUT`` the output path (default
``BENCH_resilience.json``).
"""

import json
import os
import random
import sys
import time

_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.core import FunctionMergingPass  # noqa: E402
from repro.ir import Module  # noqa: E402
from repro.resilience import (FaultPlan, SiteTrigger,  # noqa: E402
                              active_faults, fault_point)
from repro.workloads import FamilySpec, FunctionSpec, make_family  # noqa: E402

REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "5"))
OUT = os.environ.get("REPRO_BENCH_RESILIENCE_OUT", "BENCH_resilience.json")

OVERHEAD_TRIPWIRE = 1.05

#: The inert plan: armed (every fault point now consults it) but its only
#: trigger can never fire - the honest worst case for disabled overhead.
INERT = FaultPlan(seed=0,
                  sites={"scheduler.plan_fail": SiteTrigger(probability=0.0)})


def build_module(seed=3, families=10, clones=3):
    module = Module(f"resilience_{seed}")
    rng = random.Random(seed)
    for index in range(families):
        spec = FunctionSpec(
            f"fam{index}",
            num_blocks=2 + (index + seed) % 3,
            instructions_per_block=4 + ((index + seed) % 4) * 2,
            call_ratio=0.3, memory_ratio=0.2,
            seed=100 + 13 * seed + index)
        make_family(module, spec,
                    FamilySpec(identical=1, structural=clones, partial=1), rng)
    return module


def decisions(report):
    return [(m.function1, m.function2, m.merged_name, m.rank_position, m.delta)
            for m in report.merges]


def timed_run(fault_plan=None):
    module = build_module()
    with active_faults(fault_plan):
        pass_ = FunctionMergingPass(exploration_threshold=2)
        start = time.perf_counter()
        report = pass_.run(module)
        return time.perf_counter() - start, decisions(report)


def measure_disabled_overhead():
    # interleaved (plain, inert, plain, ...) so that host drift over the
    # run lands on both sides instead of reading as overhead
    plain, inert = [], []
    for _ in range(REPEATS):
        plain.append(timed_run())
        inert.append(timed_run(fault_plan=INERT))
    reference = plain[0][1]
    assert all(d == reference for _, d in plain + inert), \
        "an armed-but-inert fault plan changed merge decisions"
    plain_best = min(w for w, _ in plain)
    inert_best = min(w for w, _ in inert)
    # raw fault-point cost with no active plan (the common case: every
    # instrumented site in every ordinary run)
    calls = 200_000
    start = time.perf_counter()
    for _ in range(calls):
        fault_point("scheduler.plan_fail")
    ns_per_call = (time.perf_counter() - start) / calls * 1e9
    return {
        "plain_seconds": round(plain_best, 6),
        "inert_plan_seconds": round(inert_best, 6),
        "overhead_ratio": round(inert_best / plain_best, 4),
        "fault_point_ns_inactive": round(ns_per_call, 1),
    }, reference


def run():
    overhead, reference = measure_disabled_overhead()
    payload = {
        "bench": "resilience",
        "repeats": REPEATS,
        "merges": len(reference),
        "disabled_overhead": overhead,
    }
    with open(OUT, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return payload


def check(payload):
    assert payload["merges"] >= 1
    ratio = payload["disabled_overhead"]["overhead_ratio"]
    assert ratio <= OVERHEAD_TRIPWIRE, \
        f"armed-but-inert fault plan costs {ratio}x (tripwire " \
        f"{OVERHEAD_TRIPWIRE}x): the disabled path is no longer free"


def test_ci_resilience():
    """Pytest entry point: parity plus the overhead tripwire."""
    check(run())


if __name__ == "__main__":
    check(run())
    print("resilience benchmark tripwires passed")
