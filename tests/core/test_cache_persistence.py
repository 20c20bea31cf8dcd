"""Tests for a caller-owned alignment cache that persists across engine runs.

A cache handed to the engine (the merge daemon's resident cache) is never
cleared, so a second run over the same content aligns nothing afresh.  The
cache key has no kernel component, so entries computed by one keyed kernel
serve every other; and decisions are bit-identical with the cache absent,
cold, warm or filled by the process offload, for every kernel x jobs x
batch-size combination.

The on-disk snapshot layer is gone.  The classes named after it keep their
test names and check what took each behaviour's place: LRU capacity and
recency instead of snapshot aging, the ``m``/``l``/``r`` shape codec the
cache stores instead of packed ops, a shared in-memory cache instead of a
shared file, and that no run writes a file at all.
"""

import random
import threading
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FunctionMergingPass, MergeEngine, numpy_available
from repro.core.engine.align_cache import (_ENTRY_OVERHEAD, AlignmentCache,
                                           ops_of, rehydrate)
from repro.core.engine.stages import AlignmentStage, LinearizeStage
from repro.core.native import native_available
from repro.evaluation.pipeline import compile_module
from repro.ir import Module
from repro.workloads import FamilySpec, FunctionSpec, make_family
from tests.helpers import make_binary_chain_function


def build_module(seed=7, families=5):
    module = Module(f"persist_{seed}")
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
                    FamilySpec(identical=2, structural=2, partial=1), rng)
    return module


def decisions(report):
    return [(m.function1, m.function2, m.merged_name, m.rank_position, m.delta)
            for m in report.merges]


def run_pass(cache, seed=7, **knobs):
    """One fresh pass over a family module, sharing ``cache``."""
    return FunctionMergingPass(exploration_threshold=2, alignment_cache=cache,
                               **knobs).run(build_module(seed))


def _digest_key(byte1, byte2, scoring=(1, -1, -1)):
    return (bytes([byte1] * 16), bytes([byte2] * 16), scoring)


def chain_pair(cache, opcodes1, opcodes2):
    """A keyed alignment stage over ``cache`` plus two linearized chains."""
    module = Module("pair")
    linearize = LinearizeStage()
    lf = linearize.get(make_binary_chain_function(module, "f", opcodes1))
    lg = linearize.get(make_binary_chain_function(module, "g", opcodes2))
    return AlignmentStage(kernel="needleman-wunsch", cache=cache), lf, lg


# -- what the snapshot round trip became: in-memory cache bookkeeping ---------

class TestSnapshotRoundTrip:
    """Without a snapshot, a caller-owned cache is the only carrier of
    alignments between runs; an engine-owned one lives for one run."""

    def test_entries_computed_this_run_are_not_cross_run_hits(self):
        # the offload's engine-owned cache is cleared per run: the second
        # run ships every alignment to the workers again
        engine = MergeEngine(exploration_threshold=2, executor="process",
                             jobs=2)
        first = engine.run(build_module())
        second = engine.run(build_module())
        assert not engine.alignment_cache_resident
        assert (second.scheduler_stats["offload_tasks"]
                == first.scheduler_stats["offload_tasks"] > 0)
        assert decisions(second) == decisions(first)

    def test_save_load_preserves_entries_and_marks_persisted(self):
        # a cache handed to a second engine (the daemon rebuilds engines
        # per request) keeps every entry, and the engine marks it resident
        cache = AlignmentCache()
        first = MergeEngine(exploration_threshold=2, executor="serial",
                            alignment_cache=cache).run(build_module())
        entries, misses = len(cache), cache.misses
        engine = MergeEngine(exploration_threshold=2, executor="serial",
                             alignment_cache=cache)
        assert engine.alignment_cache_resident
        second = engine.run(build_module())
        assert len(cache) == entries > 0 and cache.misses == misses
        assert decisions(second) == decisions(first)

    def test_unserializable_keys_are_skipped_not_fatal(self):
        # nothing is serialized any more, so nothing is skipped: any
        # hashable key is stored next to the digest keys
        cache = AlignmentCache()
        cache.put(("custom-test-key",), "m", 1)
        cache.put(_digest_key(5, 6), "ml", 0)
        assert cache.get(("custom-test-key",)) == ("m", 1)
        assert cache.get(_digest_key(5, 6)) == ("ml", 0)
        assert cache.stats_dict()["align_cache_entries"] == 2

    def test_load_respects_capacity_keeping_newest(self):
        small = AlignmentCache(capacity=3)
        for index in range(10):
            small.put(_digest_key(index, index), "m" * (index + 1), index)
        assert len(small) == 3 and small.evictions == 7
        assert small.get(_digest_key(9, 9)) == ("m" * 10, 9)
        assert small.get(_digest_key(0, 0)) is None
        assert (small.stats_dict()["align_cache_bytes"]
                == 8 + 9 + 10 + 3 * _ENTRY_OVERHEAD)

    def test_save_overwrites_duplicate_keys_with_this_runs_value(self):
        cache = AlignmentCache()
        cache.put(_digest_key(1, 1), "m", 1)
        cache.put(_digest_key(1, 1), "mr", 0)
        assert len(cache) == 1
        assert cache.get(_digest_key(1, 1)) == ("mr", 0)
        assert (cache.stats_dict()["align_cache_bytes"]
                == len("mr") + _ENTRY_OVERHEAD)

    def test_missing_file_is_silent_cold_start(self, tmp_path, monkeypatch):
        # a fresh caller-owned cache starts cold without a warning or a
        # file, and every distinct shape is a miss before it is a hit
        monkeypatch.chdir(tmp_path)
        cache = AlignmentCache()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_pass(cache, executor="serial")
        assert report.merge_count >= 1
        assert cache.misses == len(cache) > 0
        assert list(tmp_path.iterdir()) == []


class TestSnapshotRejection:
    def test_engine_survives_corrupt_snapshot(self):
        # the offload is the one thing that still fills a cache from
        # outside the process: a corrupt worker shape is caught before the
        # cache, the run completes with the serial decisions, and every
        # stored shape is well-formed
        from repro.resilience import FaultPlan, RetryPolicy
        reference = FunctionMergingPass(
            exploration_threshold=2, executor="serial").run(build_module(5))
        plan = FaultPlan.parse("seed=3,offload.result_corrupt:nth=1:count=1")
        engine = MergeEngine(
            exploration_threshold=2, executor="process", jobs=2,
            fault_plan=plan,
            retry_policy=RetryPolicy(max_attempts=3, task_deadline=60.0,
                                     backoff_base=0.01, backoff_max=0.05))
        report = engine.run(build_module(5))
        assert plan.fired("offload.result_corrupt") == 1
        assert report.scheduler_stats["offload_retries"] >= 1
        assert decisions(report) == decisions(reference)
        stored = list(engine.align_cache._data.values())
        assert stored and all(set(ops) <= set("mlr") for ops, _ in stored)

    def test_malformed_entry(self):
        # a stored shape that does not fit the requesting pair is rejected
        # on rehydration, never turned into a wrong alignment
        cache = AlignmentCache()
        stage, lf, lg = chain_pair(cache, ["add", "mul"], ["add", "xor"])
        key = (lf.canonical_digest(), lg.canonical_digest(),
               stage.scoring_key)
        cache.put(key, "m", 1)
        with pytest.raises(ValueError, match="does not cover"):
            stage.align_pair(lf, lg)
        cache.put(key, "x" * len(lf.entries), 1)
        with pytest.raises(ValueError, match="unknown alignment op"):
            stage.align_pair(lf, lg)


class TestEnginePersistence:
    def test_second_run_hits_at_least_90_percent(self):
        cache = AlignmentCache()
        cold = run_pass(cache)
        hits, misses = cache.hits, cache.misses
        warm = run_pass(cache)
        assert decisions(warm) == decisions(cold)
        # counters accumulate on a caller-owned cache: the difference is
        # the second run's own traffic
        run_hits, run_misses = cache.hits - hits, cache.misses - misses
        assert run_hits / (run_hits + run_misses) >= 0.9
        assert run_misses == 0

    def test_snapshot_accumulates_across_different_modules(self):
        cache = AlignmentCache()
        run_pass(cache, seed=3, executor="serial")
        after_first, misses = len(cache), cache.misses
        run_pass(cache, seed=11, executor="serial")
        assert len(cache) > after_first
        # the second module's entries did not push out the first's
        run_pass(cache, seed=3, executor="serial")
        assert cache.misses == misses + (len(cache) - after_first)

    def test_no_path_means_no_snapshot(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        engine = MergeEngine(exploration_threshold=2, executor="serial")
        assert not hasattr(engine, "alignment_cache_path")
        engine.run(build_module())
        assert engine.align_cache is None
        MergeEngine(exploration_threshold=2,
                    alignment_cache=AlignmentCache()).run(build_module())
        assert list(tmp_path.iterdir()) == []

    def test_disabled_cache_ignores_path(self, tmp_path, monkeypatch):
        # a REPRO_ALIGN_CACHE left over in the environment selects nothing:
        # no cache is attached and nothing is written at its path
        path = tmp_path / "cache.json"
        monkeypatch.setenv("REPRO_ALIGN_CACHE", str(path))
        report = FunctionMergingPass(exploration_threshold=2,
                                     executor="serial").run(build_module())
        assert report.merge_count >= 1
        assert "align_cache_hits" not in report.scheduler_stats
        assert not path.exists()

    def test_unkeyed_alignment_skips_snapshot_and_wave_planning(
            self, tmp_path, monkeypatch):
        # the generic predicate path (hirschberg has no keyed kernel) never
        # consults a cache, so even an offloading run attaches none and
        # pays for no content grouping
        monkeypatch.chdir(tmp_path)
        engine = MergeEngine(exploration_threshold=2,
                             alignment_kernel="hirschberg",
                             executor="process", jobs=2)
        scheduler = engine.make_scheduler()
        try:
            assert not engine.alignment.uses_cache
            assert engine.align_cache is None
            assert scheduler.content_key is None
        finally:
            scheduler.close()
        report = engine.run(build_module())
        assert "align_cache_hits" not in report.scheduler_stats
        assert list(tmp_path.iterdir()) == []
        # a keyed kernel on the offload does both
        keyed = MergeEngine(exploration_threshold=2, executor="process",
                            jobs=2)
        scheduler = keyed.make_scheduler()
        try:
            assert keyed.alignment.uses_cache
            assert scheduler.content_key is not None
        finally:
            scheduler.close()

    def test_pipeline_threads_the_path_through(self):
        # compile_module threads an injected merge pass, and with it the
        # pass's caller-owned cache, through to the engine
        cache = AlignmentCache()
        merge_pass = FunctionMergingPass(exploration_threshold=2,
                                         executor="serial",
                                         alignment_cache=cache)
        compile_module(build_module(5), "fmsa", threshold=2,
                       merge_pass=merge_pass)
        misses = cache.misses
        assert misses > 0
        result = compile_module(build_module(5), "fmsa", threshold=2,
                                merge_pass=merge_pass)
        assert cache.misses == misses
        assert result.merge_report.scheduler_stats["align_cache_hits"] > 0


# -- a shared cache instead of a shared snapshot file ------------------------

class TestConcurrentSnapshotWriters:
    def test_racing_writers_lose_no_entries(self):
        # the merge daemon shares one cache between concurrent requests:
        # racing writers and readers lose no entry and no count
        cache = AlignmentCache()
        writers, per_writer = 4, 300
        barrier = threading.Barrier(writers)
        failures = []

        def writer(base):
            barrier.wait()
            for index in range(per_writer):
                cache.put(("w", base, index), "m" * (index % 7 + 1), index)
                if cache.get(("w", base, index)) != ("m" * (index % 7 + 1),
                                                     index):
                    failures.append((base, index))

        threads = [threading.Thread(target=writer, args=(base,))
                   for base in range(writers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []
        assert len(cache) == writers * per_writer
        assert cache.hits == writers * per_writer and cache.misses == 0
        assert cache.stats_dict()["align_cache_bytes"] == writers * sum(
            index % 7 + 1 + _ENTRY_OVERHEAD for index in range(per_writer))


# -- LRU capacity and recency instead of generational aging -------------------

class TestSnapshotCompaction:
    def test_unreferenced_entries_age_out_after_horizon(self):
        # the capacity is the horizon: an entry nothing references is
        # evicted once ``capacity`` newer entries arrive
        cache = AlignmentCache(capacity=2)
        cache.put(_digest_key(1, 1), "m", 1)
        cache.put(_digest_key(2, 2), "m", 1)
        assert cache.contains(_digest_key(1, 1))
        cache.put(_digest_key(3, 3), "m", 1)
        assert not cache.contains(_digest_key(1, 1))
        assert cache.contains(_digest_key(2, 2))
        assert cache.evictions == 1

    def test_hits_refresh_an_entrys_generation(self):
        cache = AlignmentCache(capacity=2)
        cache.put(_digest_key(1, 1), "m", 1)
        for byte in range(2, 8):
            assert cache.get(_digest_key(1, 1)) == ("m", 1)  # referenced
            cache.put(_digest_key(byte, byte), "m", 1)
        assert cache.contains(_digest_key(1, 1))
        assert not cache.contains(_digest_key(6, 6))
        # ``contains`` is not a reference: the next put evicts the entry
        cache.put(_digest_key(8, 8), "m", 1)
        assert not cache.contains(_digest_key(1, 1))


# -- the shape codec the cache stores (packing went with the snapshot) --------

class TestPackedOps:
    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="mlr", max_size=60))
    def test_pack_round_trips_and_never_grows(self, ops):
        seq1 = list(range(ops.count("m") + ops.count("l")))
        seq2 = list(range(ops.count("m") + ops.count("r")))
        result = rehydrate(ops, 0, seq1, seq2)
        assert ops_of(result.entries) == ops
        assert len(result.entries) == len(ops)  # one column per op

    def test_pack_examples(self):
        assert ops_of([]) == ""
        result = rehydrate("mmllr", 2, "abcd", "xyz")
        assert [(e.left, e.right) for e in result.entries] == [
            ("a", "x"), ("b", "y"), ("c", None), ("d", None), (None, "z")]
        assert result.score == 2
        assert ops_of(result.entries) == "mmllr"

    @pytest.mark.parametrize("bad", ["3", "x", "0m", "3x", "m0l"])
    def test_malformed_packed_ops_rejected(self, bad):
        # size the pair as if every unknown op were a right gap, so only
        # the alphabet check can reject the shape
        seq1 = list(range(bad.count("m") + bad.count("l")))
        seq2 = list(range(len(bad) - bad.count("l")))
        with pytest.raises(ValueError, match="unknown alignment op"):
            rehydrate(bad, 0, seq1, seq2)

    def test_snapshot_stores_each_distinct_shape_once(self):
        # content addressing: six clones aligned against one function share
        # one content key, so the shape is computed and stored once
        cache = AlignmentCache()
        module = Module("family")
        linearize = LinearizeStage()
        stage = AlignmentStage(kernel="needleman-wunsch", cache=cache)
        other = linearize.get(make_binary_chain_function(
            module, "g", ["add", "shl", "xor"]))
        for index in range(6):
            clone = linearize.get(make_binary_chain_function(
                module, f"clone{index}", ["add", "mul", "xor"]))
            stage.align_pair(clone, other)
        assert len(cache) == 1
        assert cache.misses == 1 and cache.hits == 5


# -- decision parity: cache modes x kernels x jobs ----------------------------

#: Alignment kernels exercised by the parity matrix (None = engine default).
KERNELS = [None] + (["nw-numpy"] if numpy_available() else []) + (
    ["nw-native"] if native_available() else [])


class TestCacheModeParity:
    """Merge decisions are bit-identical with the cache off, cold, warm and
    filled by the offload, for every kernel x jobs x batch-size
    combination."""

    @settings(max_examples=4, deadline=None)
    @given(st.integers(0, 10_000))
    def test_cache_modes_never_change_decisions(self, seed):
        reference = FunctionMergingPass(
            exploration_threshold=2,
            executor="serial").run(build_module(seed))
        shared = AlignmentCache()
        for kernel in KERNELS:
            for jobs, batch_size in ((1, 1), (2, 8), (8, 32)):
                # no caller cache: serial runs align directly, offloaded
                # runs fill a per-run cache of their own
                cold = FunctionMergingPass(
                    exploration_threshold=2, alignment_kernel=kernel,
                    jobs=jobs, batch_size=batch_size).run(build_module(seed))
                assert decisions(cold) == decisions(reference), \
                    ("cold", kernel, jobs, batch_size)
                # shared: the first run of this matrix fills the cache,
                # later runs of *every* config read it warm
                warm = FunctionMergingPass(
                    exploration_threshold=2, alignment_kernel=kernel,
                    jobs=jobs, batch_size=batch_size,
                    alignment_cache=shared).run(build_module(seed))
                assert decisions(warm) == decisions(reference), \
                    ("warm", kernel, jobs, batch_size)

    def test_warm_runs_still_verify(self):
        from repro.ir import verify_or_raise
        cache = AlignmentCache()
        FunctionMergingPass(exploration_threshold=2,
                            alignment_cache=cache).run(build_module(9))
        module = build_module(9)
        report = FunctionMergingPass(exploration_threshold=2,
                                     alignment_cache=cache).run(module)
        assert report.merge_count > 0
        verify_or_raise(module)


class TestCrossKernelTransfer:
    """The cache key has no kernel component: entries computed by one keyed
    kernel satisfy lookups from every other (they are bit-identical by
    construction)."""

    @staticmethod
    def assert_second_kernel_only_hits(kernel):
        cache = AlignmentCache()
        first = run_pass(cache, alignment_kernel="needleman-wunsch")
        misses = cache.misses
        second = run_pass(cache, alignment_kernel=kernel)
        assert decisions(second) == decisions(first)
        assert cache.misses == misses
        assert (second.scheduler_stats["align_cache_hits"]
                > first.scheduler_stats["align_cache_hits"])

    @pytest.mark.skipif(not numpy_available(), reason="requires numpy")
    def test_numpy_run_hits_entries_from_sequential_run(self):
        self.assert_second_kernel_only_hits("nw-numpy")

    @pytest.mark.skipif(not native_available(),
                        reason="requires the native extension")
    def test_native_run_hits_entries_from_sequential_run(self):
        self.assert_second_kernel_only_hits("nw-native")

    def test_in_memory_transfer_between_kernel_stages(self):
        # stage-level variant: two AlignmentStage instances with different
        # kernels sharing one cache - the second never runs its DP
        from repro.core.engine.stages import AlignmentStage, LinearizeStage
        from tests.helpers import make_binary_chain_function

        module = Module("xkernel")
        linearize = LinearizeStage()
        cache = AlignmentCache()
        f = make_binary_chain_function(module, "f", ["add", "mul", "xor"])
        g = make_binary_chain_function(module, "g", ["add", "shl", "xor"])
        lf, lg = linearize.get(f), linearize.get(g)

        sequential = AlignmentStage(kernel="needleman-wunsch", cache=cache)
        other = AlignmentStage(kernel="nw-numpy" if numpy_available()
                               else "nw", cache=cache)
        want = sequential.align_pair(lf, lg)
        assert cache.misses == 1 and cache.hits == 0
        got = other.align_pair(lf, lg)
        assert cache.hits == 1 and cache.misses == 1
        assert got.score == want.score
        assert [(e.left, e.right) for e in got.entries] \
            == [(e.left, e.right) for e in want.entries]
