"""The graceful-degradation ladder: alignment kernels step down
numpy -> pure (and abort typed from the bottom tier), and every transition
surfaces as a structured event in ``scheduler_stats["degradations"]``."""

import warnings

import pytest

from repro.core import numpy_available
from repro.core.engine import MergeEngine
from repro.core.pass_ import FunctionMergingPass
from repro.core.reference import ReferenceMergingPass
from repro.resilience import FaultPlan, ResilienceError
from tests.helpers import build_module, decisions


def reference_decisions(seed=5):
    return decisions(ReferenceMergingPass(
        exploration_threshold=2).run(build_module(seed)))


class TestKernelLadder:
    @pytest.mark.skipif(not numpy_available(), reason="requires numpy")
    def test_numpy_kernel_crash_degrades_to_pure_bit_identically(self):
        plan = FaultPlan.parse("seed=4,align.kernel_crash:nth=1:count=1")
        pass_ = FunctionMergingPass(
            exploration_threshold=2, alignment_kernel="nw-numpy",
            fault_plan=plan)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = pass_.run(build_module(5))
        assert decisions(report) == reference_decisions()
        # the downgrade is sticky: the stage now runs the pure kernel
        from repro.core.align_np import PURE_PYTHON_FALLBACKS
        pure = PURE_PYTHON_FALLBACKS["nw-numpy"]
        assert pass_.engine.alignment.algorithm == pure
        events = report.scheduler_stats["degradations"]
        assert any(e["component"] == "align-kernel"
                   and e["from"] == "nw-numpy" and e["to"] == pure
                   for e in events)
        assert report.stage_stats["align"]["kernel_degradations"] >= 1

    def test_pure_tier_crash_aborts_typed(self):
        # the bottom rung has nowhere to fall: the injected fault surfaces
        # as the typed ResilienceError, not a silent wrong answer
        plan = FaultPlan.parse("seed=4,align.kernel_crash:nth=1:count=1")
        with pytest.raises(ResilienceError) as excinfo:
            FunctionMergingPass(
                exploration_threshold=2, alignment_kernel="nw",
                fault_plan=plan).run(build_module(5))
        assert excinfo.value.site == "align.kernel_crash"

    def test_no_faults_means_no_degradations(self):
        report = FunctionMergingPass(
            exploration_threshold=2).run(build_module(5))
        assert report.scheduler_stats["degradations"] == []


@pytest.mark.skipif(not numpy_available(), reason="requires numpy")
class TestDegradationAccounting:
    def test_degradations_are_cumulative_across_runs(self):
        # engine-lifetime semantics (like a caller-owned cache's counters):
        # the downgrade is sticky, and a second run still reports the
        # first run's event
        plan = FaultPlan.parse("seed=1,align.kernel_crash:nth=1:count=1")
        engine = MergeEngine(exploration_threshold=2,
                             alignment_kernel="nw-numpy", fault_plan=plan)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            first = engine.run(build_module(5))
            second = engine.run(build_module(5))
        events_first = first.scheduler_stats["degradations"]
        assert any(e["component"] == "align-kernel" for e in events_first)
        assert second.scheduler_stats["degradations"] == events_first
        assert decisions(first) == decisions(second) == reference_decisions()

    def test_events_carry_the_structured_shape(self):
        plan = FaultPlan.parse("seed=1,align.kernel_crash:nth=1:count=1")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = FunctionMergingPass(
                exploration_threshold=2, alignment_kernel="nw-numpy",
                fault_plan=plan).run(build_module(5))
        events = report.scheduler_stats["degradations"]
        assert events
        for event in events:
            assert set(event) == {"component", "from", "to", "reason"}
