"""The chaos harness: the resilience layer's whole contract, property-
tested over random seeded fault schedules.

Each schedule draws 1-3 fault sites with random triggers (always / nth /
budgeted / probabilistic) from a seeded RNG and runs a full merge under a
rotating engine configuration (serial / process executor, auto /
pure kernel, cold / warm alignment cache).  The invariant, for EVERY
schedule:

* a run that **completes** produces merge decisions bit-identical to the
  fault-free reference, and its module verifies;
* a run that **aborts** raises the typed :class:`ResilienceError` naming
  the exhausted fault site - never a bare crash, never a hang (deadlines
  bound every injected stall), never a half-committed module;
* the schedule is reproducible: the plan is rebuilt from its seed alone.

``REPRO_CHAOS_SCHEDULES`` scales the sweep (the CI chaos leg exports 200,
the local default keeps the tier-1 suite fast).  Failures name the
schedule index, which - via the seeded generator - pins the exact plan.
"""

import os
import random
import time

import pytest

from repro.core.engine import AlignmentCache
from repro.core.pass_ import FunctionMergingPass
from repro.core.reference import ReferenceMergingPass
from repro.ir import verify_or_raise
from repro.resilience import (FAULT_SITES, FaultPlan, ResilienceError,
                              RetryPolicy, SiteTrigger)
from tests.core.test_offload import build_module, decisions

SCHEDULES = int(os.environ.get("REPRO_CHAOS_SCHEDULES", "12"))

MODULE_SEED = 5

#: (executor, jobs, alignment_kernel) rotations; the process rung is the
#: expensive one (real worker pools) and therefore appears once.
CONFIGS = (
    ("serial", 1, None),
    ("serial", 1, "nw"),
    ("process", 2, None),
)

_REFERENCE = None


def reference_decisions():
    global _REFERENCE
    if _REFERENCE is None:
        _REFERENCE = decisions(ReferenceMergingPass(
            exploration_threshold=2).run(build_module(MODULE_SEED)))
    return _REFERENCE


def random_plan(index: int) -> FaultPlan:
    """The schedule for one index - pure function of the index, so a
    failing case reproduces from its parametrize id alone."""
    rng = random.Random(0xC4A05 + index)
    sites = {}
    for site in rng.sample(FAULT_SITES, rng.randint(1, 3)):
        shape = rng.choice(("always", "nth", "budget", "prob"))
        if shape == "always":
            sites[site] = SiteTrigger(probability=1.0)
        elif shape == "nth":
            sites[site] = SiteTrigger(nth=rng.randint(1, 4))
        elif shape == "budget":
            sites[site] = SiteTrigger(probability=1.0,
                                      count=rng.randint(1, 2))
        else:
            sites[site] = SiteTrigger(probability=rng.choice((0.25, 0.75)))
        if site == "offload.worker_hang":
            # every injected hang costs a full task deadline plus a pool
            # respawn; an unbudgeted trigger could fire on every batch of
            # every retry, making one schedule take minutes while still
            # technically bounded.  Budget it - exhaustion coverage comes
            # from the cheap crash/corrupt sites.
            trigger = sites[site]
            sites[site] = SiteTrigger(probability=trigger.probability,
                                      nth=trigger.nth,
                                      count=min(trigger.count or 3, 3))
    return FaultPlan(seed=index, sites=sites)


def random_policy(index: int) -> RetryPolicy:
    rng = random.Random(0x9E71 + index)
    return RetryPolicy(max_attempts=rng.randint(2, 3),
                       task_deadline=0.75,
                       backoff_base=0.01, backoff_max=0.05,
                       fallback_inprocess=rng.choice((True, False)))


def warm_cache() -> AlignmentCache:
    """A cache warmed by one clean run, built per schedule (runs add to it,
    so schedules must not share one)."""
    cache = AlignmentCache()
    FunctionMergingPass(exploration_threshold=2, executor="serial",
                        alignment_cache=cache).run(build_module(MODULE_SEED))
    return cache


@pytest.mark.parametrize("index", range(SCHEDULES))
def test_chaos_schedule(index, recwarn, assert_no_leaked_workers):
    executor, jobs, kernel = CONFIGS[index % len(CONFIGS)]
    cache = warm_cache() if index % 2 == 1 else None  # warm-cache leg
    plan = random_plan(index)
    rebuilt = random_plan(index)
    assert rebuilt.seed == plan.seed and rebuilt.sites == plan.sites

    module = build_module(MODULE_SEED)
    start = time.monotonic()
    try:
        report = FunctionMergingPass(
            exploration_threshold=2, executor=executor, jobs=jobs,
            alignment_kernel=kernel, alignment_cache=cache,
            fault_plan=plan, retry_policy=random_policy(index)).run(module)
    except ResilienceError as error:
        # typed abort: the error names a real site of this schedule ...
        assert error.site in plan.sites
        # ... and the module was never left half-committed
        verify_or_raise(module)
    else:
        # completed: bit-identical to the fault-free reference
        assert decisions(report) == reference_decisions()
        verify_or_raise(module)
    # bounded: deadlines turned every injected hang into a detected
    # timeout (the injected sleep itself is an hour)
    assert time.monotonic() - start < 120.0
