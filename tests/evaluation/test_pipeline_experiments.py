"""Tests for the compilation pipeline and the experiment harness.

These run the real experiment code on a small subset of benchmarks at a
reduced scale so they stay fast while exercising every code path the
benchmark harness uses.
"""

import hashlib
import json

import pytest

from repro.evaluation import (EvaluationSettings, compile_module, evaluate_suite,
                              figure8, figure10, figure11, figure12, figure13,
                              figure14, reduction_bar_chart, table1, table2)
from repro.ir import verify_or_raise
from repro.ir.callgraph import CallGraph
from repro.workloads import build_mibench_benchmark, build_spec_benchmark

#: Models compiled with ``compile_module(..., "fmsa")`` whose outcome is
#: pinned below.  445.gobmk is the one with Identical folds.
PINNED_MODELS = {
    "CRC32": lambda: build_mibench_benchmark("CRC32").module,
    "bitcount": lambda: build_mibench_benchmark("bitcount").module,
    "rijndael": lambda: build_mibench_benchmark("rijndael").module,
    "stringsearch": lambda: build_mibench_benchmark("stringsearch").module,
    "462.libquantum": lambda: build_spec_benchmark(
        "462.libquantum", scale=0.05, cap=40).module,
    "445.gobmk": lambda: build_spec_benchmark("445.gobmk", scale=0.02, cap=40).module,
}

#: (size_baseline, size_after, merge_count, decision digest) per pinned
#: model; the digest is :func:`decision_digest` of the FMSA report.
PINNED_RESULTS = {
    "CRC32": (923, 923, 0, "4f53cda18c2baa0c"),
    "bitcount": (2985, 2687, 3, "6d38dad3259083f9"),
    "rijndael": (2179, 1631, 1, "9c18c77040beb9ae"),
    "stringsearch": (2470, 2322, 1, "1f8c57c80825f7e7"),
    "462.libquantum": (1987, 1693, 1, "f74b998631a5e51c"),
    "445.gobmk": (9473, 8002, 9, "c70fc2b56b2a5cfe"),
}


def decision_digest(result):
    """A short digest of the FMSA decision keys of a compile result."""
    keys = json.dumps(result.merge_report.decision_keys())
    return hashlib.sha256(keys.encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def small_spec_evaluation():
    """One shared evaluation over a representative subset of SPEC."""
    settings = EvaluationSettings(
        suite="spec",
        benchmarks=["462.libquantum", "447.dealII", "470.lbm", "433.milc"],
        scale=0.05, cap=18, thresholds=(1, 10), targets=("x86-64",),
        include_hot_exclusion=True)
    return evaluate_suite(settings)


class TestCompileModule:
    def test_baseline_pipeline(self):
        generated = build_spec_benchmark("462.libquantum", scale=0.1, cap=12)
        result = compile_module(generated.module, "baseline", benchmark="libq")
        assert result.technique == "baseline"
        assert result.size_after > 0 and result.size_baseline > 0
        assert result.merge_count == 0
        assert result.function_count > 0
        verify_or_raise(generated.module)

    def test_fmsa_pipeline_reduces_size(self):
        generated = build_spec_benchmark("462.libquantum", scale=0.1, cap=12)
        baseline = compile_module(build_spec_benchmark("462.libquantum", scale=0.1,
                                                       cap=12).module, "baseline")
        result = compile_module(generated.module, "fmsa", threshold=1)
        assert result.technique == "fmsa[t=1]"
        assert result.merge_count >= 1
        assert result.size_after < baseline.size_after
        assert set(result.stage_times) >= {"alignment", "codegen"}
        verify_or_raise(generated.module)

    def test_arm_target_supported(self):
        generated = build_spec_benchmark("482.sphinx3", scale=0.05, cap=10)
        result = compile_module(generated.module, "fmsa", target="arm-thumb")
        assert result.target == "arm-thumb"

    def test_normalized_compile_time_at_least_one(self):
        generated = build_mibench_benchmark("bitcount")
        result = compile_module(generated.module, "fmsa")
        assert result.normalized_compile_time >= 1.0
        assert result.measured_normalized_compile_time >= 1.0

    def test_runtime_model_reports_no_overhead_without_merges(self):
        generated = build_spec_benchmark("470.lbm", scale=1.0, cap=10)
        result = compile_module(generated.module, "fmsa")
        assert result.normalized_runtime == pytest.approx(1.0)

    @pytest.mark.parametrize("model", sorted(PINNED_MODELS))
    def test_results_match_the_pinned_run(self, model):
        result = compile_module(PINNED_MODELS[model](), "fmsa")
        assert (result.size_baseline, result.size_after, result.merge_count,
                decision_digest(result)) == PINNED_RESULTS[model]

    @pytest.mark.parametrize("model, folds, graphs",
                             [("bitcount", 0, 1), ("445.gobmk", 2, 2)])
    def test_call_graph_builds(self, model, folds, graphs, monkeypatch):
        # the engine builds one graph; the Identical pre-merge builds one
        # only when it folds, and the post cleanup builds none
        builds = []
        rebuild = CallGraph.rebuild
        monkeypatch.setattr(CallGraph, "rebuild",
                            lambda graph: builds.append(graph) or rebuild(graph))
        result = compile_module(PINNED_MODELS[model](), "fmsa", sanitize=False)
        assert result.merge_count - result.merge_report.merge_count == folds
        assert len(builds) == graphs


class TestSuiteEvaluation:
    def test_all_configurations_present(self, small_spec_evaluation):
        ev = small_spec_evaluation
        assert "baseline" in ev.configurations
        assert "identical" in ev.configurations
        assert "soa" in ev.configurations
        assert "fmsa[t=1]" in ev.configurations
        assert "fmsa[t=10]" in ev.configurations
        assert any(c.endswith("nohot") for c in ev.configurations)
        assert len(ev.results) == len(ev.benchmarks) * len(ev.configurations)

    def test_fmsa_beats_baselines_on_average(self, small_spec_evaluation):
        ev = small_spec_evaluation
        identical = ev.mean_reduction("x86-64", "identical")
        soa = ev.mean_reduction("x86-64", "soa")
        fmsa = ev.mean_reduction("x86-64", "fmsa[t=1]")
        assert fmsa > soa >= identical >= 0.0
        # headline claim: FMSA is at least ~2x better than the SOA here
        assert fmsa >= 2 * soa or soa == 0.0

    def test_fmsa_only_benchmark_shape(self, small_spec_evaluation):
        ev = small_spec_evaluation
        # libquantum: baselines achieve ~nothing, FMSA achieves something
        assert ev.reduction("462.libquantum", "x86-64", "identical") <= 1.0
        assert ev.reduction("462.libquantum", "x86-64", "soa") <= 1.0
        assert ev.reduction("462.libquantum", "x86-64", "fmsa[t=1]") > 3.0
        # lbm: nobody achieves anything
        assert ev.reduction("470.lbm", "x86-64", "fmsa[t=10]") == pytest.approx(0.0, abs=0.5)
        # dealII: everyone achieves something, FMSA the most
        assert ev.reduction("447.dealII", "x86-64", "identical") > 0.0
        assert (ev.reduction("447.dealII", "x86-64", "fmsa[t=10]")
                >= ev.reduction("447.dealII", "x86-64", "soa"))

    def test_threshold_10_not_worse_than_1(self, small_spec_evaluation):
        ev = small_spec_evaluation
        assert (ev.mean_reduction("x86-64", "fmsa[t=10]")
                >= ev.mean_reduction("x86-64", "fmsa[t=1]") - 0.01)

    def test_hot_exclusion_removes_runtime_overhead(self, small_spec_evaluation):
        ev = small_spec_evaluation
        with_hot = ev.result("433.milc", "x86-64", "fmsa[t=1]")
        without_hot = ev.result("433.milc", "x86-64", "fmsa[t=1],nohot")
        assert with_hot.normalized_runtime > 1.0
        assert without_hot.normalized_runtime == pytest.approx(1.0)
        # and it still reduces code size, just less
        assert (ev.reduction("433.milc", "x86-64", "fmsa[t=1],nohot")
                <= ev.reduction("433.milc", "x86-64", "fmsa[t=1]"))


class TestReports:
    def test_figure10_report_structure(self, small_spec_evaluation):
        report = figure10(small_spec_evaluation, "x86-64")
        assert report.rows[-1][0] == "MEAN"
        assert len(report.rows) == len(small_spec_evaluation.benchmarks) + 1
        rendered = report.render()
        assert "462.libquantum" in rendered
        assert report.csv().startswith("benchmark")

    def test_table1_report(self, small_spec_evaluation):
        report = table1(small_spec_evaluation)
        assert "#Fns" in report.headers
        assert all(len(row) == len(report.headers) for row in report.rows)

    def test_figure12_and_13_reports(self, small_spec_evaluation):
        f12 = figure12(small_spec_evaluation)
        assert f12.rows[-1][0] == "MEAN"
        f13 = figure13(small_spec_evaluation)
        assert "alignment" in f13.headers
        # alignment should dominate the FMSA compile time (paper, Figure 13)
        overall = f13.rows[-1]
        alignment_share = float(overall[f13.headers.index("alignment")])
        assert alignment_share > 25.0

    def test_figure8_report(self, small_spec_evaluation):
        report = figure8(small_spec_evaluation)
        coverages = [float(row[1]) for row in report.rows]
        assert coverages == sorted(coverages)
        assert coverages[-1] == pytest.approx(100.0)
        # most merges should come from the top of the ranking (the paper
        # reports 89% at position 1 on the full suite; this is a small subset)
        assert coverages[0] >= 50.0

    def test_figure14_report(self, small_spec_evaluation):
        report = figure14(small_spec_evaluation)
        assert report.rows[-1][0] == "MEAN"
        values = [float(v) for v in report.rows[-1][1:]]
        assert all(v >= 1.0 for v in values)
        assert all(v < 1.3 for v in values)

    def test_bar_chart_helper(self, small_spec_evaluation):
        chart = reduction_bar_chart(small_spec_evaluation, "fmsa[t=1]")
        assert "462.libquantum" in chart


class TestMiBenchEvaluation:
    @pytest.fixture(scope="class")
    def mibench_evaluation(self):
        settings = EvaluationSettings(
            suite="mibench",
            benchmarks=["rijndael", "CRC32", "bitcount"],
            scale=1.0, cap=16, thresholds=(1,), targets=("x86-64",))
        return evaluate_suite(settings)

    def test_rijndael_dominates_like_the_paper(self, mibench_evaluation):
        ev = mibench_evaluation
        assert ev.reduction("rijndael", "x86-64", "fmsa[t=1]") > 10.0
        assert ev.reduction("rijndael", "x86-64", "identical") == pytest.approx(0.0, abs=0.5)
        assert ev.reduction("rijndael", "x86-64", "soa") == pytest.approx(0.0, abs=0.5)
        assert ev.reduction("CRC32", "x86-64", "fmsa[t=1]") == pytest.approx(0.0, abs=1.0)

    def test_figure11_report(self, mibench_evaluation):
        report = figure11(mibench_evaluation)
        assert "rijndael" in report.render()
        table = table2(mibench_evaluation)
        assert any(row[0] == "rijndael" for row in table.rows)


class TestOpenCompileSession:
    """The edit-recompile seam: pipeline pre-passes + a warm MergeSession."""

    def test_session_updates_match_cold_engine_runs(self):
        from repro.core import MergeEngine, ModuleEdit, apply_edit
        from repro.evaluation import open_compile_session
        from repro.ir.clone import clone_function_detached
        from repro.passes.dce import DeadCodeElimination
        from repro.passes.simplify_cfg import SimplifyCFG

        def prepped_module():
            generated = build_spec_benchmark("462.libquantum", scale=0.1,
                                             cap=12)
            DeadCodeElimination().run(generated.module)
            SimplifyCFG().run(generated.module)
            return generated.module

        donor = build_spec_benchmark("433.milc", scale=0.05,
                                     cap=8).module.functions[0]
        edit = ModuleEdit.add(clone_function_detached(donor,
                                                      name="edited_fn"))
        module = build_spec_benchmark("462.libquantum", scale=0.1, cap=12).module
        with open_compile_session(module, threshold=1) as session:
            assert session.report.merge_count >= 1
            delta = session.update([edit])
            assert delta.edits == 1
            cold_module = prepped_module()
            apply_edit(cold_module, edit)
            cold = MergeEngine(exploration_threshold=1).run(cold_module)
            assert session.report.decision_keys() == cold.decision_keys()
            verify_or_raise(session.module)


class TestEnvironmentReachesFrontDoors:
    """Neither front door takes a sanitizer or fault-plan argument for the
    session; the environment and a scoped plan reach the engines both
    build."""

    def test_sanitize_variable_reaches_both_engines(self, monkeypatch):
        from repro.evaluation import open_compile_session
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        with open_compile_session(
                build_mibench_benchmark("gsm").module) as session:
            assert session.engine.sanitizer is not None
        result = compile_module(build_mibench_benchmark("gsm").module, "fmsa")
        assert result.merge_count >= 1
        assert result.merge_report.scheduler_stats["sanitize_runs"] > 0

    def test_scoped_fault_plan_reaches_compile_module(self):
        import warnings

        from repro.core import native_available
        from repro.resilience import FaultPlan, active_faults
        from tests.helpers import build_module
        if not native_available():
            pytest.skip("requires the native extension")
        plan = FaultPlan.parse("seed=4,align.kernel_crash:nth=1:count=1")
        with warnings.catch_warnings(), active_faults(plan):
            warnings.simplefilter("ignore", RuntimeWarning)
            result = compile_module(build_module(5), "fmsa",
                                    alignment_kernel="nw-native")
        events = result.merge_report.scheduler_stats["degradations"]
        assert [(e["from"], e["to"]) for e in events] == [
            ("nw-native", "needleman-wunsch")]
