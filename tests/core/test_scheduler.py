"""Tests for the merge engine's serial worklist loop (``MergeEngine.drain``):
bit-identical parity with the reference pass across kernels, incremental
call-graph maintenance verified against from-scratch rebuilds after every
commit, oracle profit-bound pruning, stale-entry accounting, error
attribution, and the serial-only ``jobs``/``executor`` parameters."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (FunctionMergingPass, MergeEngine,
                        ReferenceMergingPass, native_available)
from repro.core.engine import PlanningError
from repro.core.engine.report import MergeReport
from repro.evaluation import compile_module
from repro.evaluation.pipeline import open_compile_session
from repro.ir import Module, verify_or_raise
from repro.ir.callgraph import CallGraph

from tests.helpers import build_module, decisions


class TestSchedulerParity:
    """The drain loop reproduces the reference pass bit for bit."""

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 5))
    def test_drain_parity_on_randomized_modules(self, seed, families):
        reference = ReferenceMergingPass(
            exploration_threshold=2).run(build_module(seed, families))
        module = build_module(seed, families)
        report = FunctionMergingPass(exploration_threshold=2).run(module)
        assert decisions(report) == decisions(reference)
        assert report.candidates_evaluated == reference.candidates_evaluated
        assert report.codegen_failures == reference.codegen_failures
        assert report.stale_entries == reference.stale_entries
        verify_or_raise(module)

    def test_stale_entries_match_seed_silent_skips(self):
        # the loop must count exactly the consumed worklist names the
        # reference pass skips
        module = build_module(5)
        report = FunctionMergingPass(exploration_threshold=2).run(module)
        assert report.stale_entries > 0
        assert report.stale_entries == ReferenceMergingPass(
            exploration_threshold=2).run(build_module(5)).stale_entries
        # every committed merge consumes its candidate, whose own worklist
        # entry then pops stale (unless it was already popped earlier)
        assert report.stale_entries <= report.functions_considered
        assert report.scheduler_stats["stale_entries"] == report.stale_entries


#: Every selectable alignment kernel (None = the engine default); the
#: native kernel joins in when the C extension is available.
KERNELS = [None] + (["nw-native"] if native_available() else [])


class TestKernelParity:
    """Merge decisions are bit-identical to the reference pass for every
    alignment kernel."""

    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 10_000))
    def test_kernel_parity(self, seed):
        reference = ReferenceMergingPass(
            exploration_threshold=2).run(build_module(seed))
        for kernel in KERNELS:
            module = build_module(seed)
            report = FunctionMergingPass(
                exploration_threshold=2,
                alignment_kernel=kernel).run(module)
            assert decisions(report) == decisions(reference), kernel
            verify_or_raise(module)

    @pytest.mark.parametrize("kernel", [k for k in KERNELS if k])
    def test_kernel_parity_without_cache_and_under_oracle(self, kernel):
        reference = ReferenceMergingPass(oracle=True).run(
            build_module(3, families=5))
        report = FunctionMergingPass(
            oracle=True, alignment_kernel=kernel).run(
                build_module(3, families=5))
        assert decisions(report) == decisions(reference)


class TestIncrementalCallGraph:
    """Incremental graph maintenance equals from-scratch rebuilds."""

    @staticmethod
    def assert_graph_matches_rebuild(graph, module):
        fresh = CallGraph(module)
        assert graph.callees == fresh.callees
        assert graph.callers == fresh.callers
        assert graph.address_taken == fresh.address_taken
        for name in set(graph.call_sites) | set(fresh.call_sites):
            live = {id(s) for s in graph.call_sites.get(name, ())
                    if s.parent is not None}
            expected = {id(s) for s in fresh.call_sites.get(name, ())}
            assert live == expected, f"call sites of {name} diverged"

    def test_graph_matches_rebuild_after_every_commit(self):
        engine = MergeEngine(exploration_threshold=2)
        checked = []

        def check(plan, events):
            self.assert_graph_matches_rebuild(engine._call_graph, engine._module)
            checked.append(events)

        report = engine.run(build_module(9, families=5), on_commit=check)
        assert report.merge_count >= 2
        assert len(checked) == report.merge_count

    def test_events_name_what_the_commit_touched(self):
        engine = MergeEngine(exploration_threshold=2)
        events = []
        report = engine.run(build_module(11, families=4),
                            on_commit=lambda plan, ev: events.append(ev))
        assert events
        for record, ev in zip(report.merges, events):
            assert ev.consumed == (record.function1, record.function2)
            assert ev.merged_name == record.merged_name
            assert record.function1 not in ev.rewritten_callers
            assert record.function2 not in ev.rewritten_callers

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_incremental_and_rebuild_engines_agree(self, seed):
        # the reference pass rebuilds the call graph after every commit
        incremental = FunctionMergingPass(exploration_threshold=2).run(
            build_module(seed))
        rebuild = ReferenceMergingPass(exploration_threshold=2).run(
            build_module(seed))
        assert decisions(incremental) == decisions(rebuild)


class TestOraclePruning:
    """Profit-bound pruning never changes oracle decisions."""

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 4))
    def test_prune_parity_on_randomized_modules(self, seed, families):
        pruned = FunctionMergingPass(oracle=True).run(build_module(seed, families))
        # the reference pass evaluates every candidate
        unpruned = ReferenceMergingPass(oracle=True).run(
            build_module(seed, families))
        assert decisions(pruned) == decisions(unpruned)
        # pruned candidates were skipped, not evaluated
        assert (pruned.candidates_evaluated + pruned.candidates_pruned
                == unpruned.candidates_evaluated)

    def test_pruning_actually_skips_work(self):
        report = FunctionMergingPass(oracle=True).run(build_module(3, families=6))
        assert report.candidates_pruned > 0

    def test_non_oracle_mode_never_prunes(self):
        report = FunctionMergingPass(exploration_threshold=3).run(build_module(3))
        assert report.candidates_pruned == 0

    def test_bounds_track_live_bodies_after_call_site_rewrites(self):
        # soundness invariant: a commit that rewrites a caller's call sites
        # makes its body *more* expensive (the merged callee takes the
        # func_id parameter, pushing the argument list past the register
        # budget); the profit-bound index must be refreshed from the live
        # body or a stale, cheaper vector could prune a candidate the
        # unpruned oracle would have committed
        from repro.core.engine import ProfitBoundIndex
        from repro.ir import IRBuilder
        from repro.ir import types as ty
        from repro.ir import values as vals

        module = Module("stale_bounds")

        def chain(name, opcodes, params=1, callee=None):
            fn = module.create_function(
                name, ty.function_type(ty.I32, [ty.I32] * params))
            builder = IRBuilder(fn.append_block("entry"))
            value = fn.arguments[0]
            for op in opcodes:
                value = builder.binary(op, value, vals.const_int(3))
            if callee is not None:
                args = [value] + list(fn.arguments[1:])
                value = builder.call(callee, args[:len(callee.arguments)])
            builder.ret(value)
            return fn

        # near-identical (one mismatched opcode keeps the func_id parameter)
        # and taking exactly the x86-64 register budget (6 args): the merged
        # function's extra func_id parameter spills the rewritten calls
        budget = MergeEngine().target.free_argument_registers
        e1 = chain("e1", ["add", "mul", "add", "xor", "sub", "add", "mul", "xor"],
                   params=budget)
        chain("e2", ["add", "mul", "add", "xor", "add", "add", "mul", "xor"],
              params=budget)
        caller = chain("m", ["add", "sub", "mul", "xor"], params=budget, callee=e1)

        engine = MergeEngine(oracle=True)
        report = engine.run(module)
        merged = {(m.function1, m.function2): m for m in report.merges}
        assert ("e1", "e2") in merged
        assert "deleted" in merged[("e1", "e2")].dispositions
        assert module.get_function("m") is caller  # still live and indexed

        cached = engine.profit_bounds._entries["m"]
        fresh = ProfitBoundIndex(engine.target)
        fresh.add_function(caller)
        live = fresh._entries["m"]
        assert cached.body_total == live.body_total, \
            "profit bound not refreshed after m's call site was rewritten"
        id_to_op = {fid: op for op, fid in engine.profit_bounds._op_ids.items()}
        reverse = {fid: op for op, fid in fresh._op_ids.items()}
        cached_costs = {id_to_op[fid]: cost
                        for fid, cost in zip(cached.op_ids, cached.op_costs)}
        live_costs = {reverse[fid]: cost
                      for fid, cost in zip(live.op_ids, live.op_costs)}
        assert cached_costs == live_costs


class TestExecutors:
    """``jobs`` and ``executor`` accept only the serial configuration, on
    every entry point that still takes them."""

    @staticmethod
    def entry_points(**kwargs):
        """Call all three entry points with ``kwargs``; returns their
        decision keys."""
        engine = MergeEngine(exploration_threshold=2, **kwargs).run(
            build_module(3))
        compiled = compile_module(build_module(3), "fmsa", threshold=2,
                                  **kwargs).merge_report
        with open_compile_session(build_module(3), threshold=2,
                                  **kwargs) as session:
            opened = session.report
        return [r.decision_keys() for r in (engine, compiled, opened)]

    @pytest.mark.parametrize("kwargs", [
        {}, {"jobs": None}, {"jobs": 1}, {"executor": "auto"},
        {"executor": "serial"}, {"jobs": 1, "executor": "serial"}])
    def test_serial_values_accepted_on_every_entry_point(self, kwargs):
        assert self.entry_points(**kwargs) == self.entry_points()

    @pytest.mark.parametrize("kwargs", [
        {"jobs": 0}, {"jobs": 2}, {"jobs": 8}, {"executor": "process"},
        {"executor": "thread"}, {"executor": "gpu"},
        {"jobs": 2, "executor": "serial"}, {"jobs": 1, "executor": "process"}])
    def test_other_values_rejected_on_every_entry_point(self, kwargs):
        with pytest.raises(ValueError, match="serial"):
            MergeEngine(**kwargs)
        with pytest.raises(ValueError, match="serial"):
            compile_module(build_module(3), "fmsa", **kwargs)
        with pytest.raises(ValueError, match="serial"):
            # rejected before the merge pass is even consulted
            compile_module(build_module(3), "baseline", **kwargs)
        with pytest.raises(ValueError, match="serial"):
            open_compile_session(build_module(3), **kwargs)

    def test_unknown_executor_rejected(self):
        # "thread" and "process" name the removed executors
        for kind in ("gpu", "thread", "process"):
            with pytest.raises(ValueError, match="'auto' or 'serial'"):
                MergeEngine(executor=kind)
            with pytest.raises(ValueError, match="'auto' or 'serial'"):
                FunctionMergingPass(executor=kind)


class TestPlanningErrors:
    """A plan callback exception names the worklist entry it came from."""

    def _poisoned_engine(self, poison, **kwargs):
        """An engine whose searcher raises when ranking one specific name."""
        engine = MergeEngine(exploration_threshold=2, **kwargs)
        rank_candidates = engine.searcher.rank_candidates

        def exploding(name, limit=None):
            if name == poison:
                raise KeyError("boom")
            return rank_candidates(name, limit)

        engine.searcher.rank_candidates = exploding
        return engine

    def test_error_names_the_entry_serially_too(self):
        module = build_module(5)
        poison = sorted(f.name for f in module.defined_functions())[3]
        engine = self._poisoned_engine(poison)
        with pytest.raises(PlanningError, match=repr(poison)) as excinfo:
            engine.run(module)
        assert isinstance(excinfo.value.__cause__, KeyError)
        assert excinfo.value.entry == poison
        # the run state is detached on the failure path too
        assert engine._module is None and engine._report is None

    def test_planning_error_is_not_double_wrapped(self):
        def plan(name):
            raise PlanningError(name, ValueError("inner"))

        engine = MergeEngine()
        engine.attach_run_state(Module("empty"), None, {"only"},
                                deque(["only"]), MergeReport())
        try:
            with pytest.raises(PlanningError, match="'only'") as excinfo:
                engine.drain(plan=plan)
        finally:
            engine.detach_run_state()
        assert excinfo.value.entry == "only"
        assert str(excinfo.value).count("planning worklist entry") == 1
