"""Tests for the plan/commit scheduler: bit-identical parity with the
reference pass across executors / job counts / batch sizes, incremental
call-graph maintenance verified against from-scratch rebuilds after every
commit, oracle profit-bound pruning, and the stale/conflict accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (FunctionMergingPass, MergeEngine,
                        ReferenceMergingPass, numpy_available)
from repro.core.engine import AlignmentCache, make_executor
from repro.ir import Module, verify_or_raise
from repro.ir.callgraph import CallGraph

from tests.helpers import build_module


def decisions(report):
    return [(m.function1, m.function2, m.merged_name, m.rank_position, m.delta)
            for m in report.merges]


class TestSchedulerParity:
    """The parallel scheduler reproduces the reference pass bit for bit."""

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 5))
    def test_jobs_parity_on_randomized_modules(self, seed, families):
        reference = ReferenceMergingPass(
            exploration_threshold=2).run(build_module(seed, families))
        for jobs in (1, 2, 8):
            module = build_module(seed, families)
            report = FunctionMergingPass(exploration_threshold=2,
                                         jobs=jobs).run(module)
            assert decisions(report) == decisions(reference)
            assert report.candidates_evaluated == reference.candidates_evaluated
            assert report.codegen_failures == reference.codegen_failures
            verify_or_raise(module)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 32))
    def test_batch_size_never_changes_decisions(self, seed, batch_size):
        reference = ReferenceMergingPass(
            exploration_threshold=2).run(build_module(seed))
        report = FunctionMergingPass(exploration_threshold=2, jobs=2,
                                     batch_size=batch_size).run(build_module(seed))
        assert decisions(report) == decisions(reference)

    def test_stale_entries_match_seed_silent_skips(self):
        # the scheduler must count exactly the consumed worklist names the
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

    def test_conflicts_are_detected_and_requeued(self):
        # batch the whole worklist: every commit invalidates later plans in
        # the same batch, so conflicts must surface (and be replanned)
        serial = FunctionMergingPass(exploration_threshold=2,
                                     batch_size=1).run(build_module(7, families=6))
        batched_module = build_module(7, families=6)
        batched = FunctionMergingPass(exploration_threshold=2, jobs=1,
                                      executor="serial",
                                      batch_size=64).run(batched_module)
        assert decisions(batched) == decisions(serial)
        stats = batched.scheduler_stats
        assert stats["batch_size"] == 64
        assert stats["conflicts"] > 0
        assert stats["replans"] == stats["conflicts"]
        assert stats["committed"] == batched.merge_count
        # serial single-entry batches can never conflict
        assert serial.scheduler_stats["conflicts"] == 0
        verify_or_raise(batched_module)


#: Every selectable alignment kernel (None = the engine default); the NumPy
#: backend joins in when the ``fast`` extra is installed.
KERNELS = [None] + (["nw-numpy"] if numpy_available() else [])


class TestKernelParity:
    """Merge decisions are bit-identical to the reference pass for every
    alignment kernel x jobs x batch-size combination."""

    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 10_000))
    def test_kernel_jobs_batch_parity(self, seed):
        reference = ReferenceMergingPass(
            exploration_threshold=2).run(build_module(seed))
        for kernel in KERNELS:
            for jobs, batch_size in ((1, 1), (2, 8), (8, 32)):
                module = build_module(seed)
                report = FunctionMergingPass(
                    exploration_threshold=2, jobs=jobs, batch_size=batch_size,
                    alignment_kernel=kernel).run(module)
                assert decisions(report) == decisions(reference), \
                    (kernel, jobs, batch_size)
                verify_or_raise(module)

    @pytest.mark.parametrize("kernel", [k for k in KERNELS if k])
    def test_kernel_parity_without_cache_and_under_oracle(self, kernel):
        reference = ReferenceMergingPass(oracle=True).run(
            build_module(3, families=5))
        report = FunctionMergingPass(
            oracle=True, alignment_kernel=kernel,
            executor="serial").run(build_module(3, families=5))
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
        scheduler = engine.make_scheduler()
        checked = []

        def check(plan, events):
            self.assert_graph_matches_rebuild(engine._call_graph, engine._module)
            checked.append(events)

        scheduler.on_commit = check
        report = engine.run(build_module(9, families=5), scheduler=scheduler)
        assert report.merge_count >= 2
        assert len(checked) == report.merge_count

    def test_events_name_what_the_commit_touched(self):
        engine = MergeEngine(exploration_threshold=2)
        scheduler = engine.make_scheduler()
        events = []
        scheduler.on_commit = lambda plan, ev: events.append(ev)
        report = engine.run(build_module(11, families=4), scheduler=scheduler)
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
    def test_auto_picks_serial_for_one_job(self):
        executor = make_executor("auto", 1)
        assert executor.jobs == 1
        assert executor.map(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]

    def test_process_executor_offloads_and_maps_in_process(self):
        # planning (map) stays in the calling process - plans hold live IR -
        # while run_tasks is the offload seam
        executor = make_executor("process", 2)
        try:
            assert executor.offloads_alignment
            assert executor.jobs == 2
            local = object()
            assert executor.map(lambda name: (name, local),
                                ["a", "b"]) == [("a", local), ("b", local)]
        finally:
            executor.close()

    def test_auto_picks_process_for_several_jobs(self):
        executor = make_executor("auto", 2)
        try:
            assert executor.offloads_alignment
            assert executor.jobs == 2
        finally:
            executor.close()

    def test_unknown_executor_rejected(self, monkeypatch):
        # "thread" names the removed thread-pool executor
        for kind in ("gpu", "thread"):
            with pytest.raises(ValueError, match=r"\['process', 'serial'\]"):
                make_executor(kind, 2)
            with pytest.raises(ValueError):
                MergeEngine(executor=kind, jobs=2).run(Module("empty"))
            monkeypatch.setenv("REPRO_ENGINE_EXECUTOR", kind)
            with pytest.raises(ValueError, match=r"\['process', 'serial'\]"):
                MergeEngine(jobs=2).run(Module("empty"))


class TestPlanningErrors:
    """A planner exception names the worklist entry it came from, and the
    worker pool is still shut down through the engine's finally path."""

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

    def test_error_names_the_entry_under_process_executor(self):
        from repro.core.engine import PlanningError
        module = build_module(5)
        poison = sorted(f.name for f in module.defined_functions())[3]
        engine = self._poisoned_engine(poison, jobs=2, batch_size=8,
                                       executor="process")
        schedulers = []
        original = engine.make_scheduler
        engine.make_scheduler = lambda: schedulers.append(original()) or schedulers[-1]
        with pytest.raises(PlanningError, match=repr(poison)) as excinfo:
            engine.run(module)
        assert isinstance(excinfo.value.__cause__, KeyError)
        assert excinfo.value.entry == poison
        # the engine's finally path closed the pool despite the error
        [scheduler] = schedulers
        assert scheduler.executor.closed
        assert scheduler.executor._pool._shutdown_thread

    def test_error_names_the_entry_serially_too(self):
        from repro.core.engine import PlanningError
        module = build_module(5)
        poison = sorted(f.name for f in module.defined_functions())[0]
        engine = self._poisoned_engine(poison, jobs=1)
        with pytest.raises(PlanningError, match=repr(poison)):
            engine.run(module)

    def test_planning_error_is_not_double_wrapped(self):
        from collections import deque
        from repro.core.engine import MergeScheduler, PlanningError
        from repro.core.engine.scheduler import SerialExecutor

        def plan(name):
            raise PlanningError(name, ValueError("inner"))

        scheduler = MergeScheduler(
            plan=plan, commit=None, query_key=None, absorb=None,
            executor=SerialExecutor())
        with pytest.raises(PlanningError, match="'only'") as excinfo:
            scheduler.run(deque(["only"]), {"only"})
        assert excinfo.value.entry == "only"


class TestCacheAwarePlanning:
    """Content-duplicate batch entries are planned in a second wave, so the
    duplicate pairs' DPs run once and the followers hit the cache."""

    @staticmethod
    def clone_heavy_module(seed=7, families=6):
        return build_module(seed, families=families, clones=3)

    def test_duplicates_deferred_and_never_recomputed(self):
        # executor pinned to serial: under the process offload, worker
        # results are stored without a counted miss, so the miss==entries
        # invariant below is specific to in-process planning
        report = FunctionMergingPass(
            exploration_threshold=2, executor="serial", batch_size=64,
            alignment_cache=AlignmentCache()).run(self.clone_heavy_module())
        stats = report.scheduler_stats
        assert stats["content_dup_deferred"] > 0
        # the guarantee (not luck): every miss is a distinct content key,
        # i.e. no alignment DP ever ran twice within the run
        assert stats["align_cache_misses"] == (stats["align_cache_entries"]
                                               + stats["align_cache_evictions"])

    def test_wave_planning_keeps_decisions_identical(self):
        reference = ReferenceMergingPass(
            exploration_threshold=2).run(self.clone_heavy_module())
        for jobs, batch_size in ((2, 16), (4, 64)):
            report = FunctionMergingPass(
                exploration_threshold=2, jobs=jobs,
                batch_size=batch_size).run(self.clone_heavy_module())
            assert decisions(report) == decisions(reference)

    def test_no_cache_disables_content_grouping(self):
        engine = MergeEngine(exploration_threshold=2, jobs=2, batch_size=16,
                             executor="serial")
        scheduler = engine.make_scheduler()
        try:
            assert scheduler.content_key is None
        finally:
            scheduler.close()
        report = engine.run(self.clone_heavy_module())
        assert report.scheduler_stats["content_dup_deferred"] == 0
