"""The chaos harness: the resilience layer's whole contract, property-
tested over random seeded fault schedules.

Each schedule draws 1-3 fault sites with random triggers (always / nth /
budgeted / probabilistic) from a seeded RNG and runs a full merge under a
rotating engine configuration (auto / pure kernel, cold / warm alignment
cache).  The invariant, for EVERY schedule:

* a run that **completes** produces merge decisions bit-identical to the
  fault-free reference, and its module verifies;
* a run that **aborts** raises the typed :class:`ResilienceError` naming
  the fault site - never a bare crash, never a hang, never a
  half-committed module;
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
                              SiteTrigger)
from tests.helpers import build_module, decisions

SCHEDULES = int(os.environ.get("REPRO_CHAOS_SCHEDULES", "12"))

MODULE_SEED = 5

#: Alignment-kernel rotation: the engine default (whose kernel ladder can
#: degrade) and the pure-Python tier (which has no rung below it).
KERNELS = (None, "nw")

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
    return FaultPlan(seed=index, sites=sites)


def warm_cache() -> AlignmentCache:
    """A cache warmed by one clean run, built per schedule (runs add to it,
    so schedules must not share one)."""
    cache = AlignmentCache()
    FunctionMergingPass(exploration_threshold=2,
                        alignment_cache=cache).run(build_module(MODULE_SEED))
    return cache


@pytest.mark.parametrize("index", range(SCHEDULES))
def test_chaos_schedule(index, recwarn):
    kernel = KERNELS[index % len(KERNELS)]
    cache = warm_cache() if index % 2 == 1 else None  # warm-cache leg
    plan = random_plan(index)
    rebuilt = random_plan(index)
    assert rebuilt.seed == plan.seed and rebuilt.sites == plan.sites

    module = build_module(MODULE_SEED)
    start = time.monotonic()
    try:
        report = FunctionMergingPass(
            exploration_threshold=2, alignment_kernel=kernel,
            alignment_cache=cache, fault_plan=plan).run(module)
    except ResilienceError as error:
        # typed abort: the error names a real site of this schedule ...
        assert error.site in plan.sites
        # ... and the module was never left half-committed
        verify_or_raise(module)
    else:
        # completed: bit-identical to the fault-free reference
        assert decisions(report) == reference_decisions()
        verify_or_raise(module)
    # bounded: no schedule may stall the run
    assert time.monotonic() - start < 120.0
