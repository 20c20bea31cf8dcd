"""Tests for the out-of-process alignment offload and adaptive batching.

Covers the pure-data task codec (canonical key bytes -> local interner ids,
property-tested against live-interner alignments, pickle round trip), the
process executor (parity with the serial engine across executors x jobs x
cache states, including a pinned pure-Python worker leg), executor
lifecycle on failure (a killed worker surfaces as ``PlanningError`` naming
the entry and the pool is shut down on every branch), and the adaptive
batch sizer's determinism (same stats stream -> same trace -> same
decisions).
"""

import os
import pickle
import random
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (FunctionMergingPass, MergeEngine,
                        ReferenceMergingPass, decode_canonical_keys,
                        needleman_wunsch_keyed, numpy_available, ops_string)
from repro.core.engine import (AdaptiveBatchSizer, AlignmentTask,
                               MergeScheduler, PlanningError,
                               ProcessExecutor, SerialExecutor, TaskFailure,
                               make_executor)
from repro.core.engine.offload import solve_alignment_task
from repro.core.engine.plan import PendingAlignment
from repro.core.engine.scheduler import ENGINE_EXECUTOR_ENV
from repro.core.engine.stages import LinearizeStage
from repro.ir import Module, verify_or_raise
from repro.workloads import FamilySpec, FunctionSpec, make_family


def build_module(seed=7, families=4, clones=2):
    module = Module(f"offload_{seed}")
    rng = random.Random(seed)
    for index in range(families):
        spec = FunctionSpec(
            f"fam{index}",
            num_blocks=2 + (index + seed) % 3,
            instructions_per_block=4 + ((index + seed) % 4) * 2,
            call_ratio=0.3, memory_ratio=0.2,
            returns_float=bool((index + seed) % 5 == 1),
            seed=100 + 13 * seed + index)
        make_family(module, spec,
                    FamilySpec(identical=1, structural=clones, partial=1), rng)
    return module


def decisions(report):
    return [(m.function1, m.function2, m.merged_name, m.rank_position, m.delta)
            for m in report.merges]


# -- task codec ---------------------------------------------------------------

class TestTaskCodec:
    """Canonical key bytes round-trip to live-interner alignment results."""

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_decoded_keys_reproduce_interner_equality_pattern(self, seed):
        module = build_module(seed)
        stage = LinearizeStage()
        functions = list(module.defined_functions())[:6]
        lins = [stage.get(f) for f in functions]
        for lin1 in lins:
            for lin2 in lins:
                k1, k2 = decode_canonical_keys(lin1.canonical_key_bytes(),
                                               lin2.canonical_key_bytes())
                # the cross-sequence equality pattern is all a keyed kernel
                # reads; it must match the live interner's exactly
                live = [[a == b for b in lin2.keys] for a in lin1.keys]
                local = [[a == b for b in k2] for a in k1]
                assert local == live

    def test_never_equivalent_marker_matches_nothing_not_even_itself(self):
        k1, k2 = decode_canonical_keys([b"!", b"(i1;)"], [b"!", b"(i1;)"])
        assert k1[0] != k2[0]  # two markers are not equivalent
        assert k1[0] != k1[1] and k1[0] != k2[1]
        assert k1[1] == k2[1]  # real classes still unify

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000))
    def test_task_round_trip_matches_live_interner_alignment(self, seed):
        module = build_module(seed, families=3)
        stage = LinearizeStage()
        functions = list(module.defined_functions())[:5]
        lins = [stage.get(f) for f in functions]
        for i, lin1 in enumerate(lins):
            for lin2 in lins[i + 1:]:
                want = needleman_wunsch_keyed(lin1.entries, lin2.entries,
                                              lin1.keys, lin2.keys)
                task = AlignmentTask(
                    keys1=tuple(lin1.canonical_key_bytes()),
                    keys2=tuple(lin2.canonical_key_bytes()),
                    scoring=(1, -1, -1))
                # across a (simulated) process boundary
                task = pickle.loads(pickle.dumps(task))
                result = solve_alignment_task(task)
                assert result.ops == ops_string(want.entries)
                assert result.score == want.score

    @pytest.mark.skipif(not numpy_available(), reason="requires numpy")
    def test_numpy_and_pure_solvers_agree(self):
        from repro.core.engine.offload import _resolve_solver
        module = build_module(3)
        stage = LinearizeStage()
        functions = list(module.defined_functions())[:4]
        lins = [stage.get(f) for f in functions]
        pure = _resolve_solver("pure")
        fast = _resolve_solver("auto")
        for lin1 in lins:
            for lin2 in lins:
                k1, k2 = decode_canonical_keys(lin1.canonical_key_bytes(),
                                               lin2.canonical_key_bytes())
                from repro.core import ScoringScheme
                assert pure(k1, k2, ScoringScheme()) \
                    == fast(k1, k2, ScoringScheme())

    def test_canonical_key_bytes_cached_and_consistent_with_digest(self):
        import hashlib
        module = build_module(5)
        stage = LinearizeStage()
        lin = stage.get(next(iter(module.defined_functions())))
        encoded = lin.canonical_key_bytes()
        assert lin.canonical_key_bytes() is encoded  # cached
        h = hashlib.blake2b(digest_size=16)
        for raw in encoded:
            h.update(raw)
        assert h.digest() == lin.canonical_digest()


# -- executor parity ----------------------------------------------------------

class TestProcessExecutorParity:
    """The offloaded engine reproduces the reference pass bit for bit."""

    @settings(max_examples=3, deadline=None)
    @given(st.integers(0, 10_000))
    def test_executor_jobs_parity_on_randomized_modules(self, seed):
        reference = ReferenceMergingPass(
            exploration_threshold=2).run(build_module(seed))
        for executor, jobs in (("serial", 1), ("process", 1), ("process", 2),
                               ("process", 8)):
            module = build_module(seed)
            report = FunctionMergingPass(
                exploration_threshold=2, executor=executor,
                jobs=jobs).run(module)
            assert decisions(report) == decisions(reference), (executor, jobs)
            verify_or_raise(module)

    def test_cache_state_parity_cold_warm_persisted(self, tmp_path):
        path = str(tmp_path / "cache.json")
        reference = ReferenceMergingPass(exploration_threshold=2).run(build_module(11))
        # cold in-memory cache
        cold = FunctionMergingPass(
            exploration_threshold=2, executor="process",
            jobs=2).run(build_module(11))
        assert decisions(cold) == decisions(reference)
        # persisted: an offloaded run populates the snapshot with every
        # shape its prefetch speculated on (a superset of what a serial
        # run's early exit computes), so an identical second run has
        # nothing left to dispatch - hits skip the offload entirely
        first = FunctionMergingPass(
            exploration_threshold=2, executor="process", jobs=2,
            alignment_cache_path=path).run(build_module(11))
        assert decisions(first) == decisions(reference)
        assert first.scheduler_stats["offload_tasks"] > 0
        warm = FunctionMergingPass(
            exploration_threshold=2, executor="process", jobs=2,
            alignment_cache_path=path).run(build_module(11))
        assert decisions(warm) == decisions(reference)
        assert warm.scheduler_stats["offload_tasks"] == 0
        assert warm.scheduler_stats["align_cache_cross_run_hits"] > 0

    def test_oracle_parity_under_process_executor(self):
        reference = ReferenceMergingPass(oracle=True).run(build_module(3))
        report = FunctionMergingPass(oracle=True, executor="process", jobs=2,
                                     batch_size=8).run(build_module(3))
        assert decisions(report) == decisions(reference)

    def test_pure_python_worker_leg(self):
        # the no-NumPy process-executor leg, pinned rather than hoping the
        # environment lacks numpy: workers solve with the pure kernel
        reference = ReferenceMergingPass(exploration_threshold=2).run(build_module(9))
        engine = MergeEngine(exploration_threshold=2, batch_size=8)
        executor = ProcessExecutor(2, kernel="pure")
        scheduler = engine.make_scheduler(executor=executor)
        module = build_module(9)
        try:
            report = engine.run(module, scheduler=scheduler)
        finally:
            scheduler.close()
        assert decisions(report) == decisions(reference)
        assert report.scheduler_stats["offload_tasks"] > 0

    def test_offload_disabled_without_cache_but_still_correct(self):
        reference = ReferenceMergingPass(exploration_threshold=2).run(build_module(7))
        report = FunctionMergingPass(
            exploration_threshold=2, executor="process", jobs=2,
            alignment_cache=False).run(build_module(7))
        assert decisions(report) == decisions(reference)
        # nowhere for worker results to land -> no dispatch, plain planning
        assert report.scheduler_stats["offload_tasks"] == 0

    def test_offload_stats_and_alignment_accounting(self):
        report = FunctionMergingPass(
            exploration_threshold=2, executor="process",
            jobs=2).run(build_module(5, families=5))
        stats = report.scheduler_stats
        assert stats["offload_rounds"] > 0
        assert stats["offload_tasks"] > 0
        assert stats["offload_wall_seconds"] > 0.0
        # offload wall clock is alignment time (Figure-13 bucket stays true)
        assert report.stage_stats["align"]["offloaded"] == stats["offload_tasks"]
        assert report.stage_times["alignment"] >= stats["offload_wall_seconds"]

    def test_env_knob_selects_the_executor(self, monkeypatch):
        monkeypatch.setenv(ENGINE_EXECUTOR_ENV, "process")
        engine = MergeEngine(exploration_threshold=2, jobs=2)
        assert engine.executor_kind == "process"
        # explicit executor beats the environment
        explicit = MergeEngine(exploration_threshold=2, jobs=2,
                               executor="serial")
        assert explicit.executor_kind == "serial"
        report = engine.run(build_module(3))
        assert report.scheduler_stats["offload_rounds"] > 0


# -- task-group packing -------------------------------------------------------

class TestTaskPacking:
    """Tasks sharing one left sequence ship as one packed group; results
    come back in the original task order regardless of grouping."""

    def _lins(self, seed=3, count=5):
        # content-distinct linearizations only: clones share canonical key
        # bytes and would collapse into one packing family
        module = build_module(seed, families=4)
        stage = LinearizeStage()
        lins, digests = [], set()
        for function in module.defined_functions():
            lin = stage.get(function)
            if lin.canonical_digest() not in digests:
                digests.add(lin.canonical_digest())
                lins.append(lin)
            if len(lins) == count:
                break
        assert len(lins) == count
        return lins

    def _task(self, lin1, lin2, scoring=(1, -1, -1)):
        return AlignmentTask(keys1=tuple(lin1.canonical_key_bytes()),
                             keys2=tuple(lin2.canonical_key_bytes()),
                             scoring=scoring)

    def test_packed_results_match_per_task_solve_in_order(self):
        lins = self._lins()
        # interleave two left sequences and two scorings so grouping must
        # reorder internally but not externally
        tasks = [self._task(lins[0], lins[1]),
                 self._task(lins[1], lins[2]),
                 self._task(lins[0], lins[2]),
                 self._task(lins[0], lins[1], scoring=(2, -1, -2)),
                 self._task(lins[1], lins[3]),
                 self._task(lins[0], lins[4])]
        want = [solve_alignment_task(task) for task in tasks]
        executor = ProcessExecutor(2, kernel="pure")
        try:
            results, seconds = executor.run_tasks(tasks)
        finally:
            executor.close()
        assert results == want
        assert seconds >= 0.0
        # three tasks share lins[0]+default scoring (the different-scoring
        # one forms its own group) and two share lins[1]: a group of k
        # pairs saves k-1 keys1 encodings
        saved = (2 * sum(len(raw) for raw in lins[0].canonical_key_bytes())
                 + sum(len(raw) for raw in lins[1].canonical_key_bytes()))
        assert executor.offload_bytes_saved == saved

    def test_group_solver_equivalent_to_task_list(self):
        from repro.core.engine.offload import (AlignmentTaskGroup,
                                               solve_alignment_group)
        lins = self._lins()
        tasks = [self._task(lins[0], lin2) for lin2 in lins[1:]]
        group = AlignmentTaskGroup(
            keys1=tasks[0].keys1,
            keys2_list=tuple(task.keys2 for task in tasks),
            scoring=tasks[0].scoring)
        group = pickle.loads(pickle.dumps(group))  # across the boundary
        assert solve_alignment_group(group) \
            == [solve_alignment_task(task) for task in tasks]

    def test_bytes_saved_stat_surfaces_in_scheduler_stats(self):
        report = FunctionMergingPass(
            exploration_threshold=2, executor="process",
            jobs=2).run(build_module(5, families=5))
        stats = report.scheduler_stats
        # candidates of one entry share its left sequence, so clone-family
        # modules always pack something
        assert stats["offload_bytes_saved"] > 0

    def test_serial_runs_report_zero_bytes_saved(self):
        report = FunctionMergingPass(
            exploration_threshold=2, executor="serial").run(build_module(3))
        assert report.scheduler_stats["offload_bytes_saved"] == 0


# -- hydrate-to-plan rank reuse -----------------------------------------------

class TestRankReuse:
    """The hydrate step's candidate rankings are handed to the finish-plan
    step (same fingerprint-index generation), skipping the re-query."""

    def test_offloaded_runs_reuse_rankings(self):
        reference = ReferenceMergingPass(
            exploration_threshold=2).run(build_module(5, families=5))
        report = FunctionMergingPass(
            exploration_threshold=2, executor="process",
            jobs=2).run(build_module(5, families=5))
        assert decisions(report) == decisions(reference)
        assert report.scheduler_stats["rank_reuse_hits"] > 0
        assert report.stage_stats["candidate-search"]["rank_reuse_hits"] \
            == report.scheduler_stats["rank_reuse_hits"]

    def test_serial_runs_never_reuse(self):
        report = FunctionMergingPass(
            exploration_threshold=2, executor="serial").run(build_module(3))
        assert report.scheduler_stats["rank_reuse_hits"] == 0

    def test_stale_rankings_are_not_reused_across_commits(self):
        # a commit bumps the fingerprint-index generation, so rankings
        # hydrated before it must be dropped, not reused: decisions stay
        # bit-identical even with batches large enough to straddle commits
        reference = ReferenceMergingPass(exploration_threshold=2).run(
                build_module(7, families=6, clones=3))
        report = FunctionMergingPass(
            exploration_threshold=2, executor="process", jobs=2,
            batch_size=64).run(build_module(7, families=6, clones=3))
        assert decisions(report) == decisions(reference)


# -- executor lifecycle on failure --------------------------------------------

def _simple_task():
    return AlignmentTask(keys1=(b"(i1;)", b"(i2;)") * 8,
                         keys2=(b"(i1;)", b"(i3;)") * 8,
                         scoring=(1, -1, -1))


class _ClosableFakeExecutor(SerialExecutor):
    """Offload-capable executor whose run_tasks fails on command."""

    offloads_alignment = True

    def __init__(self, failure_index):
        self.failure_index = failure_index
        self.closed = False

    def run_tasks(self, tasks):
        raise TaskFailure(self.failure_index, RuntimeError("boom"))

    def close(self):
        self.closed = True


class TestExecutorLifecycle:
    def test_task_failure_attributes_to_requesting_entry_and_closes(self):
        from collections import deque
        executor = _ClosableFakeExecutor(failure_index=2)
        pending = [PendingAlignment(entry=f"e{i}", key=(i,), task=_simple_task())
                   for i in range(4)]
        scheduler = MergeScheduler(
            plan=lambda name: None, commit=None, query_key=None,
            absorb=None, executor=executor,
            prefetch=lambda names: pending,
            store=lambda key, ops, score: None)
        with pytest.raises(PlanningError, match="'e2'") as excinfo:
            scheduler.run(deque(["e0", "e1", "e2", "e3"]),
                          {"e0", "e1", "e2", "e3"})
        assert excinfo.value.entry == "e2"
        assert isinstance(excinfo.value.__cause__, TaskFailure)
        # scheduler.run shut the pool down even though nobody owns it
        assert executor.closed

    def test_killed_worker_surfaces_task_failure(self):
        executor = ProcessExecutor(2, kernel="pure")
        try:
            # warm the pool so worker pids exist
            results, _ = executor.run_tasks([_simple_task()] * 4)
            assert len(results) == 4
            victim = next(iter(executor._pool._processes))
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 30
            with pytest.raises(TaskFailure):
                # the dying worker may need a dispatch or two to surface
                while time.monotonic() < deadline:
                    executor.run_tasks([_simple_task()] * 64)
        finally:
            executor.close()

    def test_killed_worker_mid_run_raises_planning_error_and_tears_down(self):
        module = build_module(5, families=5)
        engine = MergeEngine(exploration_threshold=2, batch_size=8)
        executor = ProcessExecutor(2, kernel="pure")
        scheduler = engine.make_scheduler(executor=executor)
        original_run_tasks = executor.run_tasks

        def kill_then_run(tasks):
            # make sure workers exist, then kill one mid-batch
            original_run_tasks([_simple_task()])
            for victim in list(executor._pool._processes):
                os.kill(victim, signal.SIGKILL)
            return original_run_tasks(tasks)

        executor.run_tasks = kill_then_run
        with pytest.raises(PlanningError) as excinfo:
            engine.run(module, scheduler=scheduler)
        # the failure names a real worklist entry of this module
        assert excinfo.value.entry in {f.name for f in
                                       build_module(5, families=5).defined_functions()}
        # ... and the pool was shut down by the scheduler's failure path,
        # even though the engine does not own this scheduler
        assert executor._pool._shutdown_thread or executor._pool._broken

    def test_serial_engines_unaffected_by_offload_plumbing(self):
        # the prefetch/store callbacks are wired for every executor, but
        # non-offloading executors never call them (executor pinned: the CI
        # matrix leg exports REPRO_ENGINE_EXECUTOR=process)
        report = FunctionMergingPass(exploration_threshold=2,
                                     executor="serial").run(build_module(3))
        assert report.scheduler_stats["offload_rounds"] == 0
        assert report.scheduler_stats["offload_tasks"] == 0


class TestKeepAliveExecutors:
    def test_keep_alive_pool_is_reused_across_runs(self):
        # two consecutive engine runs through a keep-alive executor must be
        # served by the SAME worker processes - the daemon's warm-pool
        # contract (no per-request pool spawn)
        executor = ProcessExecutor(1, kernel="pure", keep_alive=True)
        try:
            pids_first = executor.worker_pids()
            assert pids_first
            for seed in (3, 3):
                engine = MergeEngine(exploration_threshold=2, jobs=1,
                                     executor=executor)
                report = engine.run(build_module(seed))
                assert report.merge_count >= 1
                assert not executor.closed
            assert executor.worker_pids() == pids_first
        finally:
            executor.close()
        assert executor.closed

    def test_release_respects_keep_alive_and_close_is_final(self):
        keep = ProcessExecutor(1, kernel="pure", keep_alive=True)
        keep.release()
        assert not keep.closed  # release is a no-op while kept alive
        keep.close()
        assert keep.closed      # explicit close always wins
        plain = ProcessExecutor(1, kernel="pure")
        plain.release()
        assert plain.closed     # non-keep-alive: release tears down

    def test_borrowed_transient_executor_is_released_by_the_run(self):
        # a caller-provided executor without keep_alive is closed by the
        # engine's release path at the end of a successful run
        executor = make_executor("process", 2)
        assert not executor.keep_alive
        report = MergeEngine(exploration_threshold=2, jobs=2,
                             executor=executor).run(build_module(3))
        assert report.merge_count >= 1
        assert executor.closed

    def test_decisions_identical_between_fresh_and_warm_pools(self):
        reference = ReferenceMergingPass(exploration_threshold=2).run(build_module(11))
        executor = ProcessExecutor(2, kernel="pure", keep_alive=True)
        try:
            warm_runs = []
            for _ in range(2):
                report = MergeEngine(exploration_threshold=2, jobs=2,
                                     executor=executor).run(build_module(11))
                warm_runs.append(decisions(report))
        finally:
            executor.close()
        assert warm_runs[0] == warm_runs[1] == decisions(reference)


# -- adaptive batching --------------------------------------------------------

class TestAdaptiveBatching:
    def test_sizer_is_deterministic_in_the_stats_stream(self):
        stream = [(64, 30), (32, 10), (16, 0), (16, 1), (16, 0), (32, 0),
                  (64, 40), (32, 0), (64, 2), (128, 7)]
        traces = []
        for _ in range(2):
            sizer = AdaptiveBatchSizer(64, jobs=4)
            traces.append([sizer.after_batch(p, c) for p, c in stream])
        assert traces[0] == traces[1]

    def test_sizer_multiplicative_moves_and_bounds(self):
        sizer = AdaptiveBatchSizer(64, jobs=4)
        assert sizer.after_batch(64, 32) == 32   # rate 0.5 > HIGH: halve
        assert sizer.after_batch(32, 16) == 16
        assert sizer.after_batch(16, 8) == 8
        assert sizer.after_batch(8, 8) == 4      # floor = jobs
        assert sizer.after_batch(4, 4) == 4      # never below jobs
        for _ in range(12):
            size = sizer.after_batch(sizer.size, 0)  # full, conflict-free
        assert size == 64 * 8                    # ceiling = 8x initial
        # a partial (non-full) batch is not an occupancy signal: hold
        sizer2 = AdaptiveBatchSizer(16, jobs=2)
        assert sizer2.after_batch(7, 0) == 16
        # mid-band conflict rates hold too
        assert sizer2.after_batch(16, 2) == 16

    def test_engine_trace_is_reproducible_and_decisions_unchanged(self):
        reference = ReferenceMergingPass(
            exploration_threshold=2).run(build_module(7, families=6))
        runs = []
        for _ in range(2):
            report = FunctionMergingPass(
                exploration_threshold=2, jobs=2, batch_size=64,
                adaptive_batch=True).run(build_module(7, families=6))
            runs.append(report)
        assert decisions(runs[0]) == decisions(runs[1]) == decisions(reference)
        trace0 = runs[0].scheduler_stats["batch_size_trace"]
        assert trace0 == runs[1].scheduler_stats["batch_size_trace"]
        assert trace0  # adaptive runs record every round

    def test_fixed_batching_records_no_trace(self):
        report = FunctionMergingPass(exploration_threshold=2,
                                     jobs=2).run(build_module(7))
        assert report.scheduler_stats["batch_size_trace"] == []

    def test_adaptive_shrinks_batches_under_conflict_pressure(self):
        # batching the whole worklist of a clone-heavy module conflicts
        # heavily; the controller must react by shrinking, and so throw
        # away no more planning than fixed batching does
        runs = {adaptive: FunctionMergingPass(
            exploration_threshold=2, jobs=2, batch_size=64,
            adaptive_batch=adaptive).run(build_module(7, families=6, clones=3))
            for adaptive in (False, True)}
        trace = runs[True].scheduler_stats["batch_size_trace"]
        assert min(trace) < 64
        assert decisions(runs[True]) == decisions(runs[False])
        assert (runs[True].scheduler_stats["replans"]
                <= runs[False].scheduler_stats["replans"])

    def test_adaptive_process_executor_parity(self):
        reference = ReferenceMergingPass(
            exploration_threshold=2).run(build_module(13, families=5))
        report = FunctionMergingPass(
            exploration_threshold=2, executor="process", jobs=2,
            batch_size=32, adaptive_batch=True).run(build_module(13, families=5))
        assert decisions(report) == decisions(reference)
