"""Tests for the resilience CI gate (``benchmarks/ci_resilience.py``): an
armed-but-inert plan counts every fault-point consultation without firing,
a plain run stays within each site's work budget, and the gate trips on a
fault point moved into a per-instruction loop, on a priced cost above its
bound and on changed merge decisions."""

import pytest

from benchmarks import ci_resilience as gate
from repro.core import FunctionMergingPass
from repro.core.engine.stages import FingerprintStage
from repro.resilience import FAULT_SITES, active_faults, fault_point


def armed_run(families=4):
    plan = gate.inert_plan()
    with active_faults(plan):
        report = FunctionMergingPass(exploration_threshold=2).run(
            gate.build_module(families=families))
    return plan, report


def payload(hits, budgets, share=0.0, identical=True, merges=1):
    """The fields of a ``run()`` payload that ``check`` reads."""
    return {
        "merges": merges,
        "decisions_identical": identical,
        "site_hits": {site: hits.get(site, 0) for site in FAULT_SITES},
        "site_budgets": budgets,
        "disabled_overhead": {"priced_share": share},
    }


def test_inert_plan_arms_every_site_and_never_fires():
    plan, report = armed_run()
    assert set(plan.sites) == set(FAULT_SITES)
    assert plan.fired() == 0
    assert plan.hits.get("scheduler.plan_fail", 0) >= 1
    plain = FunctionMergingPass(exploration_threshold=2).run(
        gate.build_module(families=4))
    assert gate.decisions(report) == gate.decisions(plain)


def test_plain_run_passes_the_gate():
    plan, report = armed_run()
    budgets = gate.site_budgets(report)
    assert set(budgets) == set(FAULT_SITES)
    assert budgets["session.replay_fail"] == 0
    gate.check(payload(plan.hits, budgets, merges=report.merge_count))


def test_gate_trips_on_a_fault_point_in_a_per_instruction_loop(monkeypatch):
    add = FingerprintStage._add

    def consulting(stage, functions):
        for function in functions:
            for _ in function.instructions():
                fault_point("scheduler.plan_fail")
        return add(stage, functions)

    monkeypatch.setattr(FingerprintStage, "_add", consulting)
    plan, report = armed_run()
    budgets = gate.site_budgets(report)
    assert plan.hits["scheduler.plan_fail"] > budgets["scheduler.plan_fail"]
    with pytest.raises(AssertionError, match="hot path"):
        gate.check(payload(plan.hits, budgets, merges=report.merge_count))


def test_gate_trips_when_priced_share_exceeds_the_bound():
    budgets = {site: 10 for site in FAULT_SITES}
    gate.check(payload({}, budgets, share=gate.COST_SHARE_BOUND))
    with pytest.raises(AssertionError, match="no longer free"):
        gate.check(payload({}, budgets, share=2 * gate.COST_SHARE_BOUND))


def test_gate_trips_when_decisions_differ():
    budgets = {site: 10 for site in FAULT_SITES}
    with pytest.raises(AssertionError, match="changed merge decisions"):
        gate.check(payload({}, budgets, identical=False))
