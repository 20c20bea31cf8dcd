"""Tests for a caller-owned alignment cache that persists across engine runs.

A cache handed to the engine by its caller is never cleared, so a second run over the same content aligns nothing afresh.  The
cache key has no kernel component, so entries computed by one keyed kernel
serve every other; and decisions are bit-identical with the cache absent,
cold or warm, for every kernel.

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
from repro.core.alignment import ops_string, result_from_ops
from repro.core.engine.align_cache import _ENTRY_OVERHEAD, AlignmentCache
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


def held(cache, key):
    """Whether ``cache`` holds ``key``, without counting a lookup or
    touching the LRU order."""
    return key in cache._data


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
    alignments between runs."""

    def test_entries_computed_this_run_are_not_cross_run_hits(self):
        # a default engine has no cache: the second run aligns every pair
        # afresh, exactly as many as the first
        engine = MergeEngine(exploration_threshold=2)
        first = engine.run(build_module())
        second = engine.run(build_module())
        assert not engine.alignment_cache_resident
        assert (second.stage_stats["align"]["keyed"]
                == first.stage_stats["align"]["keyed"] > 0)
        assert "cache_hits" not in second.stage_stats["align"]
        assert decisions(second) == decisions(first)

    def test_save_load_preserves_entries_and_marks_persisted(self):
        # a cache handed to a second engine keeps every entry, and the
        # engine marks it resident
        cache = AlignmentCache()
        first = MergeEngine(exploration_threshold=2,
                            alignment_cache=cache).run(build_module())
        entries, misses = len(cache), cache.misses
        engine = MergeEngine(exploration_threshold=2, alignment_cache=cache)
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
            report = run_pass(cache)
        assert report.merge_count >= 1
        assert cache.misses == len(cache) > 0
        assert list(tmp_path.iterdir()) == []


class TestSnapshotRejection:
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
        run_pass(cache, seed=3)
        after_first, misses = len(cache), cache.misses
        run_pass(cache, seed=11)
        assert len(cache) > after_first
        # the second module's entries did not push out the first's
        run_pass(cache, seed=3)
        assert cache.misses == misses + (len(cache) - after_first)

    def test_no_path_means_no_snapshot(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        engine = MergeEngine(exploration_threshold=2)
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
        report = FunctionMergingPass(
            exploration_threshold=2).run(build_module())
        assert report.merge_count >= 1
        assert "align_cache_hits" not in report.scheduler_stats
        assert not path.exists()

    def test_unkeyed_alignment_skips_snapshot_and_wave_planning(
            self, tmp_path, monkeypatch):
        # the generic predicate path (hirschberg has no keyed kernel) never
        # consults a cache, even one handed in, and computes no digest
        monkeypatch.chdir(tmp_path)
        cache = AlignmentCache()
        engine = MergeEngine(exploration_threshold=2,
                             alignment_kernel="hirschberg",
                             alignment_cache=cache)
        assert not engine.alignment.uses_cache
        report = engine.run(build_module())
        assert report.merge_count >= 1
        assert len(cache) == 0 and cache.hits == cache.misses == 0
        assert list(tmp_path.iterdir()) == []
        # a keyed kernel with the same cache does consult it
        keyed = MergeEngine(exploration_threshold=2, alignment_cache=cache)
        assert keyed.alignment.uses_cache

    def test_pipeline_threads_the_path_through(self):
        # compile_module threads an injected merge pass, and with it the
        # pass's caller-owned cache, through to the engine
        cache = AlignmentCache()
        merge_pass = FunctionMergingPass(exploration_threshold=2,
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
        # engines on several threads may share one cache: racing writers
        # and readers lose no entry and no count
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
        assert held(cache, _digest_key(1, 1))
        cache.put(_digest_key(3, 3), "m", 1)
        assert not held(cache, _digest_key(1, 1))
        assert held(cache, _digest_key(2, 2))
        assert cache.evictions == 1

    def test_hits_refresh_an_entrys_generation(self):
        cache = AlignmentCache(capacity=2)
        cache.put(_digest_key(1, 1), "m", 1)
        for byte in range(2, 8):
            assert cache.get(_digest_key(1, 1)) == ("m", 1)  # referenced
            cache.put(_digest_key(byte, byte), "m", 1)
        assert held(cache, _digest_key(1, 1))
        assert not held(cache, _digest_key(6, 6))
        # ``held`` is not a reference: the next put evicts the entry
        cache.put(_digest_key(8, 8), "m", 1)
        assert not held(cache, _digest_key(1, 1))


# -- the shape codec the cache stores (packing went with the snapshot) --------

class TestPackedOps:
    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="mlr", max_size=60))
    def test_pack_round_trips_and_never_grows(self, ops):
        seq1 = list(range(ops.count("m") + ops.count("l")))
        seq2 = list(range(ops.count("m") + ops.count("r")))
        result = result_from_ops(ops, 0, seq1, seq2)
        assert ops_string(result.entries) == ops
        assert len(result.entries) == len(ops)  # one column per op

    def test_pack_examples(self):
        assert ops_string([]) == ""
        result = result_from_ops("mmllr", 2, "abcd", "xyz")
        assert [(e.left, e.right) for e in result.entries] == [
            ("a", "x"), ("b", "y"), ("c", None), ("d", None), (None, "z")]
        assert result.score == 2
        assert ops_string(result.entries) == "mmllr"

    @pytest.mark.parametrize("bad", ["3", "x", "0m", "3x", "m0l"])
    def test_malformed_packed_ops_rejected(self, bad):
        # size the pair as if every unknown op were a right gap, so only
        # the alphabet check can reject the shape
        seq1 = list(range(bad.count("m") + bad.count("l")))
        seq2 = list(range(len(bad) - bad.count("l")))
        with pytest.raises(ValueError, match="unknown alignment op"):
            result_from_ops(bad, 0, seq1, seq2)

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


# -- decision parity: cache modes x kernels -----------------------------------

#: Alignment kernels exercised by the parity matrix (None = engine default).
KERNELS = [None] + (["nw-numpy"] if numpy_available() else []) + (
    ["nw-native"] if native_available() else [])


class TestCacheModeParity:
    """Merge decisions are bit-identical with the cache off, cold and warm,
    for every kernel."""

    @settings(max_examples=4, deadline=None)
    @given(st.integers(0, 10_000))
    def test_cache_modes_never_change_decisions(self, seed):
        reference = FunctionMergingPass(
            exploration_threshold=2).run(build_module(seed))
        shared = AlignmentCache()
        for kernel in KERNELS:
            # no caller cache: the run aligns every pair directly
            cold = FunctionMergingPass(
                exploration_threshold=2,
                alignment_kernel=kernel).run(build_module(seed))
            assert decisions(cold) == decisions(reference), ("cold", kernel)
            # shared: the first run of this matrix fills the cache, later
            # runs of *every* kernel read it warm
            warm = FunctionMergingPass(
                exploration_threshold=2, alignment_kernel=kernel,
                alignment_cache=shared).run(build_module(seed))
            assert decisions(warm) == decisions(reference), ("warm", kernel)

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
