"""The graceful-degradation ladder: alignment kernels step down
native -> pure (and abort typed from the bottom tier), and every transition
surfaces as a structured event in ``scheduler_stats["degradations"]``."""

import warnings

import pytest

from repro.core import native_available
from repro.core.engine import MergeEngine
from repro.core.pass_ import FunctionMergingPass
from repro.core.reference import ReferenceMergingPass
from repro.ir.printer import module_to_str
from repro.resilience import FaultPlan, ResilienceError, active_faults
from repro.workloads.case_studies import case_study_module
from repro.workloads.mibench import build_mibench_benchmark
from repro.workloads.spec2006 import build_spec_benchmark
from tests.helpers import build_module, decisions

#: Benchmark models that merge at threshold 2 (so a crash changes tiers
#: mid-compile, not on an idle run).
WORKLOADS = {
    "case-libquantum": lambda: case_study_module("libquantum"),
    "case-rijndael": lambda: case_study_module("rijndael"),
    "case-sphinx": lambda: case_study_module("sphinx"),
    "mibench-bitcount": lambda: build_mibench_benchmark("bitcount").module,
    "mibench-gsm": lambda: build_mibench_benchmark("gsm").module,
    "spec-403.gcc": lambda: build_spec_benchmark("403.gcc").module,
    "spec-447.dealII": lambda: build_spec_benchmark("447.dealII").module,
    "spec-483.xalancbmk": lambda: build_spec_benchmark(
        "483.xalancbmk").module,
}


def reference_decisions(seed=5):
    return decisions(ReferenceMergingPass(
        exploration_threshold=2).run(build_module(seed)))


requires_native = pytest.mark.skipif(
    not native_available(), reason="requires the native extension")


class TestKernelLadder:
    @requires_native
    def test_native_kernel_crash_degrades_to_pure_bit_identically(self):
        plan = FaultPlan.parse("seed=4,align.kernel_crash:nth=1:count=1")
        pass_ = FunctionMergingPass(
            exploration_threshold=2, alignment_kernel="nw-native")
        with warnings.catch_warnings(), active_faults(plan):
            warnings.simplefilter("ignore", RuntimeWarning)
            report = pass_.run(build_module(5))
        assert decisions(report) == reference_decisions()
        # the downgrade is sticky: the stage now runs the pure kernel
        assert pass_.alignment.algorithm == "needleman-wunsch"
        events = report.scheduler_stats["degradations"]
        assert [(e["component"], e["from"], e["to"]) for e in events] == [
            ("align-kernel", "nw-native", "needleman-wunsch")]
        assert report.stage_stats["align"]["kernel_degradations"] >= 1

    @requires_native
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_native_crash_on_workload_degrades_bit_identically(
            self, workload):
        # a native crash on a benchmark model's first alignment: the rest of
        # the compile runs pure and ends exactly where a pure compile ends
        clean = WORKLOADS[workload]()
        want = FunctionMergingPass(exploration_threshold=2).run(clean)
        assert want.merges
        plan = FaultPlan.parse("seed=4,align.kernel_crash:nth=1:count=1")
        module = WORKLOADS[workload]()
        with warnings.catch_warnings(), active_faults(plan):
            warnings.simplefilter("ignore", RuntimeWarning)
            report = FunctionMergingPass(
                exploration_threshold=2,
                alignment_kernel="nw-native").run(module)
        assert report.decision_keys() == want.decision_keys()
        assert module_to_str(module) == module_to_str(clean)
        assert [(e["from"], e["to"]) for e in
                report.scheduler_stats["degradations"]] == [
            ("nw-native", "needleman-wunsch")]

    def test_pure_tier_crash_aborts_typed(self):
        # the bottom rung has nowhere to fall: the injected fault surfaces
        # as the typed ResilienceError, not a silent wrong answer
        plan = FaultPlan.parse("seed=4,align.kernel_crash:nth=1:count=1")
        with pytest.raises(ResilienceError) as excinfo, active_faults(plan):
            FunctionMergingPass(
                exploration_threshold=2,
                alignment_kernel="nw").run(build_module(5))
        assert excinfo.value.site == "align.kernel_crash"

    def test_no_faults_means_no_degradations(self):
        report = FunctionMergingPass(
            exploration_threshold=2).run(build_module(5))
        assert report.scheduler_stats["degradations"] == []


@requires_native
class TestDegradationAccounting:
    def test_degradations_are_cumulative_across_runs(self):
        # engine-lifetime semantics (like a caller-owned cache's counters):
        # the downgrade is sticky, and a second run still reports the
        # first run's event
        plan = FaultPlan.parse("seed=1,align.kernel_crash:nth=1:count=1")
        engine = MergeEngine(exploration_threshold=2,
                             alignment_kernel="nw-native")
        with warnings.catch_warnings(), active_faults(plan):
            warnings.simplefilter("ignore", RuntimeWarning)
            first = engine.run(build_module(5))
            second = engine.run(build_module(5))
        events_first = first.scheduler_stats["degradations"]
        assert any(e["component"] == "align-kernel" for e in events_first)
        assert second.scheduler_stats["degradations"] == events_first
        assert decisions(first) == decisions(second) == reference_decisions()

    def test_events_carry_the_structured_shape(self):
        plan = FaultPlan.parse("seed=1,align.kernel_crash:nth=1:count=1")
        with warnings.catch_warnings(), active_faults(plan):
            warnings.simplefilter("ignore", RuntimeWarning)
            report = FunctionMergingPass(
                exploration_threshold=2,
                alignment_kernel="nw-native").run(build_module(5))
        events = report.scheduler_stats["degradations"]
        assert events
        for event in events:
            assert set(event) == {"component", "from", "to", "reason"}
