"""Retry-policy unit tests plus the offload integration story: injected
worker crashes / hangs / corrupted results are detected, retried on a
recycled pool, degraded to in-process solving, or surfaced as the typed
``ResilienceError`` - and every recovered run is bit-identical to the
fault-free one."""

import time

import pytest

from repro.core.engine import PlanningError, TaskFailure
from repro.core.pass_ import FunctionMergingPass
from repro.core.reference import ReferenceMergingPass
from repro.ir import verify_or_raise
from repro.resilience import FaultPlan, ResilienceError, RetryPolicy
from repro.resilience.retry import (RETRY_ATTEMPTS_ENV, RETRY_BACKOFF_ENV,
                                    RETRY_FALLBACK_ENV, TASK_DEADLINE_ENV)
from tests.core.test_offload import build_module, decisions

#: A forgiving policy for the recovery tests: quick backoff, short-but-fair
#: deadline, no fallback (recovery must come from the retry itself).
RECOVERING = RetryPolicy(max_attempts=3, task_deadline=60.0,
                         backoff_base=0.01, backoff_max=0.05)


def reference_decisions(seed=5):
    return decisions(ReferenceMergingPass(
        exploration_threshold=2).run(build_module(seed)))


class TestRetryPolicy:
    def test_default_policy_is_legacy_shaped(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 1
        assert not policy.fallback_inprocess
        assert not policy.resilient

    def test_resilient_when_retrying_or_falling_back(self):
        assert RetryPolicy(max_attempts=2).resilient
        assert RetryPolicy(fallback_inprocess=True).resilient

    def test_backoff_is_exponential_capped_and_deterministic(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                             backoff_max=0.5)
        delays = [policy.backoff_delay(n) for n in range(1, 8)]
        assert delays == [policy.backoff_delay(n) for n in range(1, 8)]
        for attempt, delay in enumerate(delays, start=1):
            raw = min(0.5, 0.1 * 2.0 ** (attempt - 1))
            assert 0.5 * raw <= delay < raw  # jitter in [0.5, 1.0)
        assert policy.backoff_delay(0) == 0.0

    def test_from_env_overrides_and_ignores_garbage(self, monkeypatch):
        monkeypatch.setenv(RETRY_ATTEMPTS_ENV, "4")
        monkeypatch.setenv(TASK_DEADLINE_ENV, "2.5")
        monkeypatch.setenv(RETRY_BACKOFF_ENV, "0.2")
        monkeypatch.setenv(RETRY_FALLBACK_ENV, "yes")
        policy = RetryPolicy.from_env()
        assert policy == RetryPolicy(max_attempts=4, task_deadline=2.5,
                                     backoff_base=0.2, fallback_inprocess=True)
        monkeypatch.setenv(RETRY_ATTEMPTS_ENV, "banana")
        monkeypatch.setenv(TASK_DEADLINE_ENV, "0")  # non-positive: no deadline
        policy = RetryPolicy.from_env()
        assert policy.max_attempts == 1
        assert policy.task_deadline is None

    def test_engine_reads_policy_from_env(self, monkeypatch):
        from repro.core.engine import MergeEngine
        monkeypatch.setenv(RETRY_ATTEMPTS_ENV, "3")
        engine = MergeEngine(exploration_threshold=2)
        assert engine.retry_policy.max_attempts == 3
        explicit = MergeEngine(exploration_threshold=2,
                               retry_policy=RetryPolicy(max_attempts=7))
        assert explicit.retry_policy.max_attempts == 7


class TestOffloadRecovery:
    def test_default_policy_keeps_legacy_failure_shape(
            self, assert_no_leaked_workers):
        plan = FaultPlan.parse("seed=1,offload.worker_crash:nth=1:count=1")
        with pytest.raises(PlanningError) as excinfo:
            FunctionMergingPass(
                exploration_threshold=2, executor="process", jobs=2,
                fault_plan=plan).run(build_module(5))
        assert isinstance(excinfo.value.__cause__, TaskFailure)

    def test_worker_crash_is_retried_bit_identically(
            self, assert_no_leaked_workers):
        plan = FaultPlan.parse("seed=1,offload.worker_crash:nth=1:count=1")
        module = build_module(5)
        report = FunctionMergingPass(
            exploration_threshold=2, executor="process", jobs=2,
            fault_plan=plan, retry_policy=RECOVERING).run(module)
        assert decisions(report) == reference_decisions()
        verify_or_raise(module)
        stats = report.scheduler_stats
        assert stats["offload_retries"] >= 1
        assert stats["offload_pool_recycles"] >= 1
        assert plan.fired("offload.worker_crash") == 1

    def test_hung_worker_hits_the_deadline_and_recovers(
            self, assert_no_leaked_workers):
        plan = FaultPlan.parse("seed=2,offload.worker_hang:nth=1:count=1")
        policy = RetryPolicy(max_attempts=3, task_deadline=1.0,
                             backoff_base=0.01, backoff_max=0.05)
        start = time.monotonic()
        report = FunctionMergingPass(
            exploration_threshold=2, executor="process", jobs=2,
            fault_plan=plan, retry_policy=policy).run(build_module(5))
        elapsed = time.monotonic() - start
        assert decisions(report) == reference_decisions()
        # the hang was detected by the deadline, not waited out (the
        # injected sleep is an hour)
        assert elapsed < 30.0
        assert report.scheduler_stats["offload_deadline_timeouts"] >= 1
        assert report.scheduler_stats["offload_pool_recycles"] >= 1

    def test_corrupt_result_is_caught_before_the_cache(
            self, assert_no_leaked_workers):
        plan = FaultPlan.parse("seed=3,offload.result_corrupt:nth=1:count=1")
        report = FunctionMergingPass(
            exploration_threshold=2, executor="process", jobs=2,
            fault_plan=plan, retry_policy=RECOVERING).run(build_module(5))
        assert decisions(report) == reference_decisions()
        stats = report.scheduler_stats
        assert stats["offload_retries"] >= 1
        # the workers were healthy; validation failure must not recycle
        assert stats["offload_pool_recycles"] == 0

    def test_exhausted_attempts_raise_typed_resilience_error(
            self, assert_no_leaked_workers):
        plan = FaultPlan.parse("seed=1,offload.worker_crash")  # every attempt
        with pytest.raises(ResilienceError) as excinfo:
            FunctionMergingPass(
                exploration_threshold=2, executor="process", jobs=2,
                fault_plan=plan, retry_policy=RECOVERING).run(build_module(5))
        assert excinfo.value.site == "offload.worker_crash"
        assert not isinstance(excinfo.value, PlanningError)

    def test_inprocess_fallback_completes_a_doomed_pool(
            self, assert_no_leaked_workers):
        plan = FaultPlan.parse("seed=1,offload.worker_crash")  # every attempt
        policy = RetryPolicy(max_attempts=2, task_deadline=60.0,
                             backoff_base=0.01, fallback_inprocess=True)
        module = build_module(5)
        report = FunctionMergingPass(
            exploration_threshold=2, executor="process", jobs=2,
            fault_plan=plan, retry_policy=policy).run(module)
        assert decisions(report) == reference_decisions()
        verify_or_raise(module)
        stats = report.scheduler_stats
        assert stats["offload_inprocess_fallbacks"] >= 1
        events = stats["degradations"]
        assert any(e["component"] == "offload" and e["to"] == "in-process"
                   for e in events)
