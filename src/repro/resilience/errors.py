"""Typed errors of the resilience layer.

The reliability contract every chaos test asserts is two-sided: a run that
*completes* under injected faults produces bit-identical merge decisions to
the fault-free run, and a run that *aborts* raises a
:class:`ResilienceError` naming the fault site whose recovery budget was
exhausted - never a hang, never an anonymous exception from deep inside
the engine.  These types are deliberately dependency-free (no engine
imports) so every layer - engine, session, stages - can raise and catch
them without import cycles.
"""

from __future__ import annotations

from typing import Optional


class ResilienceError(RuntimeError):
    """A failure the resilience layer could not recover from.

    ``site`` names the fault site (see :data:`~repro.resilience.FAULT_SITES`)
    that fired or whose recovery was exhausted - the one piece of context a
    bare ``TimeoutError`` never carries.  Unlike
    :class:`~repro.core.engine.engine.PlanningError` (which wraps), a
    ResilienceError passes through the engine's error attribution
    untouched, so chaos harnesses can assert the *typed* abort contract.
    """

    def __init__(self, site: str, message: str):
        super().__init__(message)
        self.site = site


class InjectedFault(ResilienceError):
    """A fault fired by an active :class:`~repro.resilience.FaultPlan`.

    Raised by :func:`~repro.resilience.fault_point` at sites whose fault
    behaviour *is* an exception.  A subclass of :class:`ResilienceError` so
    an unrecovered injection always satisfies the typed-abort contract by
    construction.
    """

    def __init__(self, site: str, message: Optional[str] = None):
        super().__init__(site, message or f"injected fault at {site!r}")


def degradation_event(component: str, from_tier: str, to_tier: str,
                      reason: str) -> dict:
    """One graceful-degradation transition, as the plain dict every stats
    surface (``scheduler_stats["degradations"]``) records and JSON can
    carry."""
    return {"component": component, "from": from_tier, "to": to_tier,
            "reason": reason}
