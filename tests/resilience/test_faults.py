"""Unit tests for the fault-injection core: the trigger grammar, the
deterministic per-site streams, pickling, and the process-wide install
machinery (env knob included)."""

import pickle

import pytest

from repro.resilience import (FAULT_SITES, FaultPlan, InjectedFault,
                              ResilienceError, SiteTrigger, active_fault_plan,
                              active_faults, fault_point, fault_triggered,
                              install_fault_plan)
from repro.resilience import faults as faults_module


class TestFaultPlan:
    def test_unknown_site_is_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan(sites={"align.kernel_crsh": SiteTrigger()})

    def test_registry_covers_every_instrumented_layer(self):
        prefixes = {site.split(".", 1)[0] for site in FAULT_SITES}
        assert prefixes == {"scheduler", "align", "session"}

    def test_nth_trigger_fires_exactly_once_on_the_nth_hit(self):
        plan = FaultPlan(sites={"scheduler.plan_fail": SiteTrigger(nth=3)})
        fires = [plan.should_fire("scheduler.plan_fail") for _ in range(6)]
        assert fires == [False, False, True, False, False, False]
        assert plan.hits["scheduler.plan_fail"] == 6
        assert plan.fired("scheduler.plan_fail") == 1

    def test_count_budget_caps_an_always_trigger(self):
        plan = FaultPlan(sites={
            "align.kernel_crash": SiteTrigger(probability=1.0, count=2)})
        fires = [plan.should_fire("align.kernel_crash") for _ in range(5)]
        assert fires == [True, True, False, False, False]
        assert plan.fired() == 2

    def test_unlisted_site_never_fires_but_listed_streams_are_seeded(self):
        plan = FaultPlan(seed=3, sites={
            "session.replay_fail": SiteTrigger(probability=0.5)})
        assert not any(plan.should_fire("align.kernel_crash")
                       for _ in range(50))
        # same seed, same stream: a rebuilt plan fires identically
        pattern = [plan.should_fire("session.replay_fail") for _ in range(50)]
        replay = FaultPlan(seed=3, sites={
            "session.replay_fail": SiteTrigger(probability=0.5)})
        assert [replay.should_fire("session.replay_fail")
                for _ in range(50)] == pattern
        assert any(pattern) and not all(pattern)

    def test_per_site_streams_are_independent(self):
        # consuming one site's stream must not perturb another's
        solo = FaultPlan(seed=9, sites={
            "session.replay_fail": SiteTrigger(probability=0.5)})
        pattern = [solo.should_fire("session.replay_fail") for _ in range(30)]
        mixed = FaultPlan(seed=9, sites={
            "session.replay_fail": SiteTrigger(probability=0.5),
            "align.kernel_crash": SiteTrigger(probability=0.5)})
        interleaved = []
        for _ in range(30):
            mixed.should_fire("align.kernel_crash")
            interleaved.append(mixed.should_fire("session.replay_fail"))
        assert interleaved == pattern

    def test_different_seeds_give_different_streams(self):
        def pattern(seed):
            plan = FaultPlan(seed=seed, sites={
                "session.replay_fail": SiteTrigger(probability=0.5)})
            return [plan.should_fire("session.replay_fail") for _ in range(64)]
        assert pattern(1) != pattern(2)

    def test_pickle_round_trip_preserves_schedule_state(self):
        plan = FaultPlan(seed=7, sites={
            "session.replay_fail": SiteTrigger(probability=0.5),
            "align.kernel_crash": SiteTrigger(nth=4)})
        head = [plan.should_fire("session.replay_fail") for _ in range(10)]
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.seed == plan.seed and clone.sites == plan.sites
        assert clone.hits == plan.hits and clone.fires == plan.fires
        # the RNG state crossed the boundary: both continue the same stream
        tail = [plan.should_fire("session.replay_fail") for _ in range(10)]
        assert [clone.should_fire("session.replay_fail")
                for _ in range(10)] == tail
        assert head is not tail  # silence the obvious


class TestParseGrammar:
    def test_full_grammar_round_trip(self):
        plan = FaultPlan.parse(
            "seed=42,align.kernel_crash:p=0.2:count=1,session.replay_fail:nth=2")
        assert plan.seed == 42
        assert plan.sites["align.kernel_crash"] \
            == SiteTrigger(probability=0.2, nth=None, count=1)
        assert plan.sites["session.replay_fail"] \
            == SiteTrigger(probability=0.0, nth=2, count=None)

    def test_bare_site_fires_on_every_hit(self):
        plan = FaultPlan.parse("scheduler.plan_fail")
        assert plan.sites["scheduler.plan_fail"].probability == 1.0
        assert all(plan.should_fire("scheduler.plan_fail") for _ in range(5))

    @pytest.mark.parametrize("spec", [
        "seed=x",                       # unparseable seed
        "align.kernel_crash:boom=1",  # unknown trigger key
        "align.kernel_crash:nth=x",   # unparseable value
        "no.such.site",                 # unknown site
    ])
    def test_bad_specs_are_rejected(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)


class TestActivePlan:
    def test_fault_point_is_inert_without_a_plan(self):
        assert active_fault_plan() is None
        fault_point("scheduler.plan_fail")  # no raise
        assert fault_triggered("session.replay_fail") is False

    def test_fault_point_raises_typed_injected_fault(self):
        with active_faults(FaultPlan.parse("scheduler.plan_fail")):
            with pytest.raises(InjectedFault) as excinfo:
                fault_point("scheduler.plan_fail")
        assert excinfo.value.site == "scheduler.plan_fail"
        assert isinstance(excinfo.value, ResilienceError)

    def test_active_faults_restores_the_previous_plan(self):
        outer = FaultPlan.parse("session.replay_fail:p=0.5")
        install_fault_plan(outer)
        with active_faults(FaultPlan.parse("scheduler.plan_fail")) as inner:
            assert active_fault_plan() is inner
        assert active_fault_plan() is outer

    def test_env_plan_installs_once(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "seed=5,session.replay_fail:nth=1")
        monkeypatch.setattr(faults_module, "_ENV_CHECKED", False)
        plan = faults_module.maybe_install_env_plan()
        assert plan is not None and plan.seed == 5
        assert active_fault_plan() is plan
        # second call is a no-op even with a different spec exported
        monkeypatch.setenv("REPRO_FAULTS", "seed=9,scheduler.plan_fail")
        assert faults_module.maybe_install_env_plan() is plan

    def test_env_check_is_one_shot_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        monkeypatch.setattr(faults_module, "_ENV_CHECKED", False)
        assert faults_module.maybe_install_env_plan() is None
        # the flag flipped: later exports are deliberately not re-read
        monkeypatch.setenv("REPRO_FAULTS", "scheduler.plan_fail")
        assert faults_module.maybe_install_env_plan() is None
