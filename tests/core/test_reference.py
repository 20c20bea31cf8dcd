"""Tests for the reference pass: the paper's plain exploration loop that the
optimized engine is checked against and the figure harness times."""

from types import SimpleNamespace

import pytest

from repro.core import (FunctionMergingPass, ReferenceMergingPass,
                        make_hotness_filter)
from repro.core.engine import STAGES
from repro.evaluation import compile_module, evaluate_suite
from repro.ir import verify_or_raise
from repro.workloads.mibench import build_mibench_benchmark
from repro.workloads.spec2006 import build_spec_benchmark

from tests.helpers import build_module, decisions

#: Workload modules that merge under every threshold below.
WORKLOADS = {
    "462.libquantum": lambda: build_spec_benchmark(
        "462.libquantum", scale=0.05, cap=40).module,
    "445.gobmk": lambda: build_spec_benchmark(
        "445.gobmk", scale=0.02, cap=40).module,
    "stringsearch": lambda: build_mibench_benchmark("stringsearch").module,
    "bitcount": lambda: build_mibench_benchmark("bitcount").module,
}


def outcome(report):
    """Everything a run decides and counts, except timings."""
    return (report.decision_keys(),
            report.candidates_evaluated + report.candidates_pruned,
            report.codegen_failures, report.stale_entries,
            report.functions_considered, report.excluded_hot_functions)


@pytest.mark.parametrize("threshold", [1, 2])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_engine_matches_reference_on_workload_modules(workload, threshold):
    build = WORKLOADS[workload]
    reference = compile_module(
        build(), "fmsa", threshold=threshold,
        merge_pass=ReferenceMergingPass(exploration_threshold=threshold))
    engine = compile_module(build(), "fmsa", threshold=threshold)
    assert reference.merge_count >= 1
    assert outcome(engine.merge_report) == outcome(reference.merge_report)
    assert engine.size_after == reference.size_after


def test_oracle_evaluates_what_the_engine_evaluates_or_prunes():
    reference = ReferenceMergingPass(oracle=True).run(build_module(3, 5))
    engine = FunctionMergingPass(oracle=True).run(build_module(3, 5))
    assert engine.candidates_pruned > 0
    assert outcome(engine) == outcome(reference)


def test_hot_functions_are_excluded_like_the_engine():
    def build():
        module = build_module(5)
        for index, function in enumerate(module.defined_functions()):
            function.profile = SimpleNamespace(
                relative_weight=0.5 if index % 3 == 0 else 0.0)
        return module

    hot = make_hotness_filter()
    reference = ReferenceMergingPass(exploration_threshold=2,
                                     hot_function_filter=hot).run(build())
    engine = FunctionMergingPass(exploration_threshold=2,
                                 hot_function_filter=hot).run(build())
    assert reference.excluded_hot_functions > 0
    assert outcome(engine) == outcome(reference)


def test_report_times_the_figure13_stages():
    module = build_module(7)
    report = ReferenceMergingPass(exploration_threshold=2).run(module)
    verify_or_raise(module)
    assert report.merge_count >= 1
    assert set(report.stage_times) == set(STAGES)
    assert report.stage_times["alignment"] > 0.0
    assert report.stage_times["updating_calls"] > 0.0
    assert decisions(report) == decisions(
        FunctionMergingPass(exploration_threshold=2).run(build_module(7)))


def test_evaluate_suite_times_the_reference_pass(monkeypatch):
    runs = []
    original = ReferenceMergingPass.run

    def counting(self, module):
        runs.append((self.exploration_threshold, self.oracle,
                     self.hot_function_filter is not None))
        return original(self, module)

    monkeypatch.setattr(ReferenceMergingPass, "run", counting)
    monkeypatch.setattr(FunctionMergingPass, "run", None)  # never the engine
    evaluate_suite(suite="spec", benchmarks=["462.libquantum"], scale=0.05,
                   cap=12, thresholds=(1, 5), include_oracle=True,
                   include_hot_exclusion=True, targets=("x86-64",))
    assert runs == [(1, False, False), (5, False, False), (1, True, False),
                    (1, False, True)]
