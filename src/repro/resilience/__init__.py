"""Unified resilience layer: deterministic fault injection and
graceful-degradation bookkeeping.

The contract the whole package exists to enforce (and the chaos suite in
``tests/resilience/`` property-tests): under any injected fault schedule,
a run that completes produces **bit-identical merge decisions** to the
fault-free run, and a run that aborts raises a typed
:class:`ResilienceError` naming the exhausted fault site - never a hang,
never a half-committed module.
"""

from .errors import InjectedFault, ResilienceError, degradation_event
from .faults import (
    FAULT_SITES,
    FAULTS_ENV,
    FaultPlan,
    SiteTrigger,
    active_fault_plan,
    active_faults,
    fault_point,
    fault_triggered,
    install_fault_plan,
    maybe_install_env_plan,
)

__all__ = [
    "FAULT_SITES",
    "FAULTS_ENV",
    "FaultPlan",
    "InjectedFault",
    "ResilienceError",
    "SiteTrigger",
    "active_fault_plan",
    "active_faults",
    "degradation_event",
    "fault_point",
    "fault_triggered",
    "install_fault_plan",
    "maybe_install_env_plan",
]
