"""Resilience benchmark + chaos-leg gate (``BENCH_resilience.json``).

One property guards the resilience layer: fault points stay off the hot
path, so the disabled registry is free.  A wall-time ratio cannot show
that - an inactive ``fault_point`` costs tens of nanoseconds and a run
consults the registry about a hundred times, far below the run-to-run
noise of a shared host.  The gate is deterministic instead:

* arm a plan that names every ``FAULT_SITES`` entry at probability 0.0,
  so it never fires but ``FaultPlan.hits`` counts every consultation;
* bound each site's hits by the run's own work counters (the worklist
  entries it planned, the pairs it aligned, the session entries it
  replayed - none, in a plain run), so a fault point moved into a
  per-cell or per-instruction loop trips the gate;
* require the consultations, priced at the measured cost of an inactive
  ``fault_point``, to stay within 1% of the plan-free run's wall time;
* require the armed plan to change no merge decision.

The plan-free and armed-plan wall times are still recorded, alternating,
with their ratio - as information only.

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
from repro.resilience import (FAULT_SITES, FaultPlan,  # noqa: E402
                              SiteTrigger, active_faults, fault_point)
from repro.workloads import FamilySpec, FunctionSpec, make_family  # noqa: E402

REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "5"))
OUT = os.environ.get("REPRO_BENCH_RESILIENCE_OUT", "BENCH_resilience.json")

#: Priced consultations may cost at most this share of the plan-free run.
COST_SHARE_BOUND = 0.01


def inert_plan():
    """Armed on every site (so every consultation is counted) with
    triggers that can never fire - a fresh one per run, since a plan's
    hit counters accumulate."""
    return FaultPlan(seed=0, sites={site: SiteTrigger(probability=0.0)
                                    for site in FAULT_SITES})


def site_budgets(report):
    """The most consultations each site may see in a run that produced
    ``report``: one per unit of the work that site guards."""
    planned = (report.stage_stats["fingerprint"]["functions"]
               - report.scheduler_stats["stale_entries"])
    return {
        "scheduler.plan_fail": int(planned),  # one per worklist entry planned
        "align.kernel_crash": int(report.stage_stats["align"]["calls"]),
        "session.replay_fail": 0,  # a plain run replays no session
    }


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
        return time.perf_counter() - start, report


def fault_point_ns_inactive(calls=200_000):
    """Raw cost of one fault point with no plan installed (the common case:
    every instrumented site in every ordinary run)."""
    start = time.perf_counter()
    for _ in range(calls):
        fault_point("scheduler.plan_fail")
    return (time.perf_counter() - start) / calls * 1e9


def run():
    # interleaved (plain, armed, plain, ...) so that host drift over the
    # run lands on both sides of the informational ratio
    plain, armed = [], []
    for _ in range(REPEATS):
        plain.append(timed_run())
        plan = inert_plan()
        armed.append(timed_run(fault_plan=plan))
    reference = decisions(plain[0][1])
    plain_best = min(s for s, _ in plain)
    armed_best = min(s for s, _ in armed)
    # the gate compares one armed run's hits with that run's own counters
    hits, report = plan.hits, armed[-1][1]
    ns_per_call = fault_point_ns_inactive()
    consultations = sum(hits.values())
    payload = {
        "bench": "resilience",
        "repeats": REPEATS,
        "merges": len(reference),
        "decisions_identical": all(decisions(r) == reference
                                   for _, r in plain + armed),
        "site_hits": {site: hits.get(site, 0) for site in FAULT_SITES},
        "site_budgets": site_budgets(report),
        "disabled_overhead": {
            "fault_point_ns_inactive": round(ns_per_call, 1),
            "consultations": consultations,
            "priced_share": round(consultations * ns_per_call * 1e-9
                                  / plain_best, 8),
            # information only: this ratio moves with host noise
            "plain_seconds": round(plain_best, 6),
            "armed_plan_seconds": round(armed_best, 6),
            "wall_ratio": round(armed_best / plain_best, 4),
        },
    }
    with open(OUT, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return payload


def check(payload):
    assert payload["merges"] >= 1
    assert payload["decisions_identical"], \
        "an armed-but-inert fault plan changed merge decisions"
    hits, budgets = payload["site_hits"], payload["site_budgets"]
    over = {site: (hits[site], budgets[site]) for site in FAULT_SITES
            if hits[site] > budgets[site]}
    assert not over, \
        f"fault sites consulted more often than the work they guard " \
        f"(hits, budget): {over} - a fault point sits on a hot path"
    share = payload["disabled_overhead"]["priced_share"]
    assert share <= COST_SHARE_BOUND, \
        f"inactive fault points cost {share:.2%} of the run (bound " \
        f"{COST_SHARE_BOUND:.0%}): the disabled path is no longer free"


def test_ci_resilience():
    """Pytest entry point: parity plus the consultation bounds."""
    check(run())


if __name__ == "__main__":
    check(run())
    print("resilience benchmark gates passed")
