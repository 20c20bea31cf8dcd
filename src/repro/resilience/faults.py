"""Deterministic, seeded fault injection behind named sites.

Every failure-prone seam of the engine declares a **fault site** - a
stable name like ``align.kernel_crash`` - and consults this module at
runtime.  A :class:`FaultPlan` decides, deterministically, which
consultations *fire*: each site gets its own seeded RNG (derived from the
plan seed and the site name, so adding a site never perturbs another
site's stream) plus optional nth-hit and budget triggers.  The same plan
over the same execution therefore injects the same faults - which is what
lets the chaos harness shrink failures to a seed.

Zero overhead when disabled: :func:`fault_point` and
:func:`fault_triggered` first test a module-level ``_ACTIVE is None`` guard
and return immediately - one attribute load and one ``is`` test on every
production call, nothing else (``benchmarks/ci_resilience.py`` bounds
how often a run consults each site by the work that site guards).

Plans are **picklable** (the per-site RNGs and counters cross a pickle
boundary intact; the installation lock is rebuilt on unpickle).

Selection: scope a plan around a run with the :func:`active_faults`
context manager, or export ``REPRO_FAULTS`` with the grammar::

    REPRO_FAULTS="seed=42,align.kernel_crash:p=0.2:count=1,scheduler.plan_fail:nth=2"

i.e. comma-separated clauses; ``seed=N`` sets the plan seed, every other
clause is ``<site>[:p=<float>][:nth=<int>][:count=<int>]`` - fire with
probability ``p`` per hit, fire on exactly the ``nth`` hit, and never fire
more than ``count`` times.
"""

from __future__ import annotations

import os
import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from .errors import InjectedFault

#: Environment knob: a fault-plan spec installed process-wide on first
#: engine construction (see module docstring for the grammar).
FAULTS_ENV = "REPRO_FAULTS"

#: The registry of named injection sites.  A plan naming a site outside
#: this tuple is rejected at construction - a typo'd site that never fires
#: would silently void a chaos schedule.
FAULT_SITES = (
    # engine.py - the worklist drain loop (site name kept from the
    # scheduler it replaced, so existing REPRO_FAULTS specs still parse)
    "scheduler.plan_fail",      # a planner callback blows up
    # stages.py - the alignment kernel itself
    "align.kernel_crash",       # the DP kernel raises mid-pair
    # session.py - incremental replay
    "session.replay_fail",      # a replay plan callback blows up
)


@dataclass(frozen=True)
class SiteTrigger:
    """When one site fires: per-hit ``probability``, an exact ``nth`` hit
    (1-based), and a total fire budget ``count`` (None: unlimited)."""

    probability: float = 0.0
    nth: Optional[int] = None
    count: Optional[int] = None


class FaultPlan:
    """A deterministic schedule of fault injections (see module docstring).

    Thread-safe and picklable.  ``sites`` maps site names to
    :class:`SiteTrigger`\\ s; hit/fire counters and the per-site RNG state
    evolve as sites are consulted, so a plan is a *consumable* schedule -
    build a fresh one (same seed) to replay it.
    """

    def __init__(self, seed: int = 0,
                 sites: Optional[Dict[str, SiteTrigger]] = None):
        self.seed = int(seed)
        self.sites: Dict[str, SiteTrigger] = dict(sites or {})
        for site in self.sites:
            if site not in FAULT_SITES:
                raise ValueError(
                    f"unknown fault site {site!r}; known sites: "
                    f"{', '.join(FAULT_SITES)}")
        self.hits: Dict[str, int] = {}
        self.fires: Dict[str, int] = {}
        # independent deterministic stream per site: one site's consumption
        # never perturbs another's
        self._rngs: Dict[str, random.Random] = {
            site: random.Random(f"{self.seed}:{site}")
            for site in self.sites}
        self._lock = threading.Lock()

    # -- pickling (the lock is not picklable; rebuild it) --------------------
    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # -- the trigger decision ------------------------------------------------
    def should_fire(self, site: str) -> bool:
        """Consult one site: count the hit, decide deterministically."""
        trigger = self.sites.get(site)
        if trigger is None:
            return False
        with self._lock:
            hits = self.hits.get(site, 0) + 1
            self.hits[site] = hits
            fires = self.fires.get(site, 0)
            if trigger.count is not None and fires >= trigger.count:
                return False
            fire = trigger.nth is not None and hits == trigger.nth
            if not fire and trigger.probability > 0.0:
                fire = self._rngs[site].random() < trigger.probability
            if fire:
                self.fires[site] = fires + 1
            return fire

    def fired(self, site: Optional[str] = None) -> int:
        """How many times ``site`` (or, with None, any site) has fired."""
        with self._lock:
            if site is not None:
                return self.fires.get(site, 0)
            return sum(self.fires.values())

    # -- the REPRO_FAULTS grammar -------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` grammar (see module docstring)."""
        seed = 0
        sites: Dict[str, SiteTrigger] = {}
        for clause in filter(None, (c.strip() for c in spec.split(","))):
            if clause.startswith("seed="):
                try:
                    seed = int(clause[len("seed="):])
                except ValueError:
                    raise ValueError(f"bad fault-plan seed in {clause!r}")
                continue
            parts = clause.split(":")
            site = parts[0]
            probability, nth, count = 0.0, None, None
            for part in parts[1:]:
                key, _, value = part.partition("=")
                try:
                    if key == "p":
                        probability = float(value)
                    elif key == "nth":
                        nth = int(value)
                    elif key == "count":
                        count = int(value)
                    else:
                        raise ValueError
                except ValueError:
                    raise ValueError(
                        f"bad fault clause {clause!r}: expected "
                        f"<site>[:p=<float>][:nth=<int>][:count=<int>]")
            if probability <= 0.0 and nth is None:
                # a site named with no trigger fires on every hit
                probability = 1.0
            sites[site] = SiteTrigger(probability=probability, nth=nth,
                                      count=count)
        return cls(seed=seed, sites=sites)

    def __repr__(self) -> str:
        return f"FaultPlan(seed={self.seed}, sites={sorted(self.sites)})"


# -- the process-wide active plan ---------------------------------------------

_ACTIVE: Optional[FaultPlan] = None
_ENV_CHECKED = False


def fault_point(site: str) -> None:
    """Raise :class:`InjectedFault` when the active plan fires ``site``.

    The production fast path is the first line: with no plan installed this
    is one global load and an ``is`` test.
    """
    if _ACTIVE is None:
        return
    if _ACTIVE.should_fire(site):
        raise InjectedFault(site)


def fault_triggered(site: str) -> bool:
    """Non-raising consultation for sites whose fault behaviour the caller
    implements itself (dropping a response socket, stalling a read).
    Same zero-overhead guard as :func:`fault_point`."""
    if _ACTIVE is None:
        return False
    return _ACTIVE.should_fire(site)


def install_fault_plan(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install ``plan`` process-wide (None uninstalls); returns the plan it
    replaced so callers can restore it."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = plan
    return previous


def active_fault_plan() -> Optional[FaultPlan]:
    return _ACTIVE


@contextmanager
def active_faults(plan: Optional[FaultPlan]) -> Iterator[Optional[FaultPlan]]:
    """Scope an installed plan: the previous plan is restored on exit (the
    chaos harness's per-schedule isolation)."""
    previous = install_fault_plan(plan)
    try:
        yield plan
    finally:
        install_fault_plan(previous)


def maybe_install_env_plan() -> Optional[FaultPlan]:
    """Install the ``REPRO_FAULTS`` plan once per process (no-op when unset
    or when a plan is already active).  Engine construction calls this so an
    exported knob reaches scripts and test runs without code changes."""
    global _ENV_CHECKED
    if _ACTIVE is not None or _ENV_CHECKED:
        return _ACTIVE
    _ENV_CHECKED = True
    spec = os.environ.get(FAULTS_ENV, "").strip()
    if spec:
        install_fault_plan(FaultPlan.parse(spec))
    return _ACTIVE
