"""Sanitizer tests: violations raise with their diagnostics, rollback
divergence detection, stats counters, and the headline guarantee — sanitize on/off makes
bit-identical merge decisions."""

import pytest

from repro.analysis import AnalysisError, Sanitizer
from repro.core import apply_merge, merge_functions
from repro.core.engine import MergeEngine
from repro.evaluation import compile_module
from repro.ir import IRBuilder, Module
from repro.ir import types as ty
from repro.ir import values as vals
from repro.ir.callgraph import CallGraph
from repro.workloads.mibench import build_mibench_benchmark
from tests.helpers import make_binary_chain_function


def _simple_module(constant=1, name="f"):
    module = Module()
    function = module.create_function(
        name, ty.function_type(ty.I32, [ty.I32]), arg_names=["x"])
    entry = function.append_block("entry")
    builder = IRBuilder(entry)
    builder.ret(builder.add(function.arguments[0],
                            vals.const_int(constant)))
    return module


def _broken_module():
    """Module with a cross-block use-before-def."""
    module = Module()
    function = module.create_function(
        "bad", ty.function_type(ty.I32, [ty.I32]), arg_names=["x"])
    entry = function.append_block("entry")
    left = function.append_block("left")
    right = function.append_block("right")
    join = function.append_block("join")
    eb = IRBuilder(entry)
    cond = eb.icmp("sgt", function.arguments[0], vals.const_int(0))
    eb.cond_br(cond, left, right)
    lb = IRBuilder(left)
    lv = lb.add(function.arguments[0], vals.const_int(1), "lv")
    lb.br(join)
    IRBuilder(right).br(join)
    IRBuilder(join).ret(lv)  # lv does not dominate join
    return module


class TestModes:
    def test_raise_mode_raises_on_violation(self):
        sanitizer = Sanitizer()
        with pytest.raises(AnalysisError) as excinfo:
            sanitizer.after_run(_broken_module())
        assert "use-before-def" in str(excinfo.value)
        assert sanitizer.runs == 1
        assert sanitizer.violations >= 1

    def test_counters_accumulate_across_a_raising_run(self):
        sanitizer = Sanitizer()
        with pytest.raises(AnalysisError) as excinfo:
            sanitizer.after_run(_broken_module())
        sanitizer.after_run(_simple_module())
        assert sanitizer.runs == 2
        assert sanitizer.violations >= 1
        errors = [d for d in excinfo.value.diagnostics
                  if d.severity == "error"]
        assert len(errors) == sanitizer.violations  # the error carries them

    def test_clean_module_counts_a_run(self):
        sanitizer = Sanitizer()
        sanitizer.after_run(_simple_module())
        assert (sanitizer.runs, sanitizer.violations) == (1, 0)
        assert sanitizer.wall_seconds >= 0.0

    def test_stats_keys(self):
        sanitizer = Sanitizer()
        sanitizer.after_run(_simple_module())
        stats = sanitizer.stats()
        assert stats["sanitize_runs"] == 1
        assert stats["sanitize_violations"] == 0
        assert stats["sanitize_wall_seconds"] >= 0.0
        assert "analysis_cache_hits" in stats


class TestAfterCommit:
    def test_clean_commit_passes(self):
        module = Module()
        f1 = make_binary_chain_function(module, "f1", ["add", "mul", "sub"])
        f2 = make_binary_chain_function(module, "f2", ["add", "xor", "sub"])
        graph = CallGraph(module)
        result = merge_functions(f1, f2)
        applied = apply_merge(module, result, call_graph=graph)
        sanitizer = Sanitizer()
        sanitizer.after_commit(module, result, applied, graph)
        assert (sanitizer.runs, sanitizer.violations) == (1, 0)

    def test_tampered_commit_raises(self):
        module = Module()
        f1 = make_binary_chain_function(module, "f1", ["add", "mul", "sub"],
                                        linkage="external")
        f2 = make_binary_chain_function(module, "f2", ["add", "xor", "sub"],
                                        linkage="external")
        graph = CallGraph(module)
        result = merge_functions(f1, f2)
        applied = apply_merge(module, result, call_graph=graph)
        thunk = module.get_function(applied.function1)
        thunk.append_block("extra")  # empty block: verifier + lint violation
        sanitizer = Sanitizer()
        with pytest.raises(AnalysisError):
            sanitizer.after_commit(module, result, applied, graph)
        assert sanitizer.violations >= 1


class TestAfterRollback:
    def test_identical_modules_pass(self):
        module = _simple_module(constant=7)
        shadow = _simple_module(constant=7)
        sanitizer = Sanitizer()
        sanitizer.after_rollback(module, shadow, ["f"])
        assert (sanitizer.runs, sanitizer.violations) == (1, 0)

    def test_divergent_body_is_flagged(self):
        module = _simple_module(constant=7)
        shadow = _simple_module(constant=8)
        sanitizer = Sanitizer()
        with pytest.raises(AnalysisError) as excinfo:
            sanitizer.after_rollback(module, shadow, ["f"])
        assert sanitizer.violations >= 1
        assert any(d.rule == "sanitizer.rollback-divergence"
                   for d in excinfo.value.diagnostics)

    def test_missing_function_is_flagged(self):
        module = _simple_module(name="f")
        shadow = _simple_module(name="f")
        shadow.create_function("ghost", ty.function_type(ty.I32, []))
        sanitizer = Sanitizer()
        with pytest.raises(AnalysisError) as excinfo:
            sanitizer.after_rollback(module, shadow, ["f", "ghost"])
        assert any(d.rule == "sanitizer.rollback-divergence"
                   for d in excinfo.value.diagnostics)


class TestEngineIntegration:
    def test_env_flag_enables_sanitizer(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert MergeEngine().sanitizer is not None
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert MergeEngine().sanitizer is None
        monkeypatch.delenv("REPRO_SANITIZE")
        assert MergeEngine().sanitizer is None
        # explicit argument wins over the environment
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert MergeEngine(sanitize=False).sanitizer is None

    def test_decisions_are_bit_identical_with_sanitize_on(self):
        def run(sanitize):
            module = build_mibench_benchmark("gsm").module
            return compile_module(module, "fmsa", threshold=1,
                                  sanitize=sanitize)

        plain = run(False)
        checked = run(True)
        assert plain.merge_count >= 1  # parity must be non-trivial
        assert plain.merge_report.decision_keys() \
            == checked.merge_report.decision_keys()
        assert plain.size_after == checked.size_after
        assert plain.merge_count == checked.merge_count

        stats = checked.merge_report.scheduler_stats
        assert stats["sanitize_runs"] > 0
        assert stats["sanitize_violations"] == 0
        assert "sanitize_runs" not in (plain.merge_report.scheduler_stats
                                       or {})
