"""Tests for cross-run persistence of the alignment cache.

Covers the snapshot round trip (save/load, versioning, checksum), every
degrade-to-cold failure mode (corrupt JSON, wrong format tag, version
mismatch, checksum mismatch, malformed entries - all warn, never raise),
the ``alignment_cache_path`` / ``REPRO_ALIGN_CACHE`` wiring through
engine/pass/pipeline, the >= 90% warm hit-rate acceptance bar on family
workloads, and decision parity across {no cache, cold, warm, persisted}
x kernels x jobs.
"""

import json
import os
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FunctionMergingPass, MergeEngine, numpy_available
from repro.core.engine.align_cache import (ALIGN_CACHE_ENV, SNAPSHOT_VERSION,
                                           AlignmentCache, pack_ops,
                                           unpack_ops)
from repro.core.native import native_available
from repro.evaluation.pipeline import compile_module
from repro.ir import Module
from repro.workloads import FamilySpec, FunctionSpec, make_family


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


def hit_rate(report):
    stats = report.scheduler_stats
    total = stats["align_cache_hits"] + stats["align_cache_misses"]
    return stats["align_cache_hits"] / total if total else 0.0


def _digest_key(byte1, byte2, scoring=(1, -1, -1)):
    return (bytes([byte1] * 16), bytes([byte2] * 16), scoring)


# -- snapshot round trip ------------------------------------------------------

class TestSnapshotRoundTrip:
    def test_save_load_preserves_entries_and_marks_persisted(self, tmp_path):
        path = str(tmp_path / "cache.json")
        cache = AlignmentCache()
        cache.put(_digest_key(1, 2), "mmlr", 3)
        cache.put(_digest_key(3, 4, (2, -3, -2)), "m", 1)
        assert cache.save(path)

        fresh = AlignmentCache()
        assert fresh.load(path) == 2
        assert fresh.get(_digest_key(1, 2)) == ("mmlr", 3)
        assert fresh.get(_digest_key(3, 4, (2, -3, -2))) == ("m", 1)
        assert fresh.get(_digest_key(9, 9)) is None
        assert fresh.hits == 2 and fresh.cross_run_hits == 2
        stats = fresh.stats_dict()
        assert stats["align_cache_cross_run_hits"] == 2
        assert stats["align_cache_persisted_entries"] == 2

    def test_entries_computed_this_run_are_not_cross_run_hits(self, tmp_path):
        path = str(tmp_path / "cache.json")
        cache = AlignmentCache()
        cache.put(_digest_key(1, 2), "mm", 2)
        cache.save(path)
        cache.clear()
        cache.load(path)
        cache.put(_digest_key(1, 2), "mm", 2)  # recomputed: no longer warm
        cache.get(_digest_key(1, 2))
        assert cache.hits == 1 and cache.cross_run_hits == 0

    def test_unserializable_keys_are_skipped_not_fatal(self, tmp_path):
        path = str(tmp_path / "cache.json")
        cache = AlignmentCache()
        cache.put(("custom-test-key",), "m", 1)
        cache.put(_digest_key(5, 6), "ml", 0)
        assert cache.save(path)
        fresh = AlignmentCache()
        assert fresh.load(path) == 1
        assert fresh.get(_digest_key(5, 6)) == ("ml", 0)

    def test_load_respects_capacity_keeping_newest(self, tmp_path):
        path = str(tmp_path / "cache.json")
        cache = AlignmentCache()
        for index in range(10):
            cache.put(_digest_key(index, index), "m" * (index + 1), index)
        cache.save(path)
        small = AlignmentCache(capacity=3)
        assert small.load(path) == 3
        assert len(small) == 3
        assert small.get(_digest_key(9, 9)) == ("m" * 10, 9)
        assert small.get(_digest_key(0, 0)) is None

    def test_save_merges_with_entries_already_on_disk(self, tmp_path):
        # a small LRU must not shrink the shared snapshot: entries evicted
        # (or never held) by this run's cache survive the save
        path = str(tmp_path / "cache.json")
        first = AlignmentCache(capacity=2)
        first.put(_digest_key(1, 1), "m", 1)
        first.put(_digest_key(2, 2), "mm", 2)
        first.save(path)
        second = AlignmentCache(capacity=2)
        second.put(_digest_key(3, 3), "mmm", 3)
        second.put(_digest_key(4, 4), "mmmm", 4)
        second.save(path)

        union = AlignmentCache()
        assert union.load(path) == 4
        for byte, ops, score in ((1, "m", 1), (2, "mm", 2),
                                 (3, "mmm", 3), (4, "mmmm", 4)):
            assert union.get(_digest_key(byte, byte)) == (ops, score)

    def test_save_overwrites_duplicate_keys_with_this_runs_value(self, tmp_path):
        path = str(tmp_path / "cache.json")
        stale = AlignmentCache()
        stale.put(_digest_key(1, 1), "m", 1)
        stale.save(path)
        current = AlignmentCache()
        current.put(_digest_key(1, 1), "m", 1)
        current.put(_digest_key(2, 2), "r", -1)
        current.save(path)
        fresh = AlignmentCache()
        assert fresh.load(path) == 2

    def test_missing_file_is_silent_cold_start(self, tmp_path):
        cache = AlignmentCache()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.load(str(tmp_path / "nope.json")) == 0
        assert len(cache) == 0

    def test_save_failure_warns_instead_of_raising(self, tmp_path):
        cache = AlignmentCache()
        cache.put(_digest_key(1, 2), "m", 1)
        with pytest.warns(RuntimeWarning, match="could not save"):
            assert not cache.save(str(tmp_path / "no" / "such" / "dir.json"))


# -- failure modes degrade to a cold cache ------------------------------------

class TestSnapshotRejection:
    def _assert_cold(self, path, match):
        cache = AlignmentCache()
        with pytest.warns(RuntimeWarning, match=match):
            assert cache.load(path) == 0
        assert len(cache) == 0

    def _write(self, tmp_path, payload) -> str:
        path = str(tmp_path / "cache.json")
        with open(path, "w") as handle:
            handle.write(payload)
        return path

    def _valid_snapshot(self, tmp_path) -> str:
        path = str(tmp_path / "cache.json")
        cache = AlignmentCache()
        cache.put(_digest_key(1, 2), "mmm", 3)
        cache.save(path)
        return path

    def test_garbage_json(self, tmp_path):
        self._assert_cold(self._write(tmp_path, "{not json"), "unreadable")

    def test_non_snapshot_json(self, tmp_path):
        self._assert_cold(self._write(tmp_path, '{"hello": 1}'),
                          "not an alignment-cache snapshot")

    def test_version_mismatch(self, tmp_path):
        path = self._valid_snapshot(tmp_path)
        snapshot = json.load(open(path))
        snapshot["version"] = SNAPSHOT_VERSION + 1
        json.dump(snapshot, open(path, "w"))
        self._assert_cold(path, "version")

    def test_checksum_mismatch(self, tmp_path):
        path = self._valid_snapshot(tmp_path)
        snapshot = json.load(open(path))
        snapshot["entries"][0][4] = 99  # tamper with a score
        json.dump(snapshot, open(path, "w"))
        self._assert_cold(path, "checksum")

    def test_malformed_entry(self, tmp_path):
        path = self._valid_snapshot(tmp_path)
        snapshot = json.load(open(path))
        snapshot["entries"][0][3] = "mxl"  # not an ops-table index
        from repro.core.engine.align_cache import _entries_checksum
        snapshot["checksum"] = _entries_checksum(
            [snapshot["ops"], snapshot["entries"]])
        json.dump(snapshot, open(path, "w"))
        self._assert_cold(path, "malformed")

    def test_malformed_ops_table(self, tmp_path):
        path = self._valid_snapshot(tmp_path)
        snapshot = json.load(open(path))
        snapshot["ops"] = "3m"  # must be a list of packed strings
        json.dump(snapshot, open(path, "w"))
        self._assert_cold(path, "ops table")

    def test_engine_survives_corrupt_snapshot(self, tmp_path):
        path = self._write(tmp_path, "\x00\x01 not a snapshot")
        with pytest.warns(RuntimeWarning):
            report = FunctionMergingPass(
                exploration_threshold=2,
                alignment_cache_path=path).run(build_module())
        assert report.merge_count >= 1
        assert report.scheduler_stats["align_cache_cross_run_hits"] == 0
        # the engine saved a fresh snapshot over the corrupt file
        fresh = AlignmentCache()
        assert fresh.load(path) > 0


# -- engine / pass / pipeline wiring -----------------------------------------

class TestEnginePersistence:
    def test_second_run_hits_at_least_90_percent(self, tmp_path):
        path = str(tmp_path / "cache.json")
        cold = FunctionMergingPass(
            exploration_threshold=2,
            alignment_cache_path=path).run(build_module())
        warm = FunctionMergingPass(
            exploration_threshold=2,
            alignment_cache_path=path).run(build_module())
        assert decisions(warm) == decisions(cold)
        assert hit_rate(warm) >= 0.9
        assert warm.scheduler_stats["align_cache_cross_run_hits"] > 0
        assert warm.scheduler_stats["align_cache_misses"] == 0

    def test_snapshot_accumulates_across_different_modules(self, tmp_path):
        path = str(tmp_path / "cache.json")
        FunctionMergingPass(exploration_threshold=2,
                            alignment_cache_path=path).run(build_module(3))
        after_first = len(json.load(open(path))["entries"])
        FunctionMergingPass(exploration_threshold=2,
                            alignment_cache_path=path).run(build_module(11))
        after_second = len(json.load(open(path))["entries"])
        assert after_second > after_first

    def test_env_knob_selects_the_snapshot(self, tmp_path, monkeypatch):
        path = str(tmp_path / "env_cache.json")
        monkeypatch.setenv(ALIGN_CACHE_ENV, path)
        FunctionMergingPass(exploration_threshold=2).run(build_module())
        assert os.path.exists(path)
        warm = FunctionMergingPass(exploration_threshold=2).run(build_module())
        assert warm.scheduler_stats["align_cache_cross_run_hits"] > 0

    def test_explicit_path_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ALIGN_CACHE_ENV, str(tmp_path / "env.json"))
        explicit = str(tmp_path / "explicit.json")
        engine = MergeEngine(alignment_cache_path=explicit)
        assert engine.alignment_cache_path == explicit

    def test_no_path_means_no_snapshot(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ALIGN_CACHE_ENV, raising=False)
        engine = MergeEngine(exploration_threshold=2)
        assert engine.alignment_cache_path is None
        engine.run(build_module())
        assert list(tmp_path.iterdir()) == []

    def test_disabled_cache_ignores_path(self, tmp_path):
        path = str(tmp_path / "cache.json")
        report = FunctionMergingPass(
            exploration_threshold=2, alignment_cache=False,
            alignment_cache_path=path).run(build_module())
        assert report.merge_count >= 1
        assert not os.path.exists(path)

    def test_unkeyed_alignment_skips_snapshot_and_wave_planning(self, tmp_path):
        # the generic predicate path (hirschberg has no keyed kernel) never
        # consults the cache, so a run on it must neither touch the
        # snapshot nor pay for content grouping
        path = str(tmp_path / "cache.json")
        engine = MergeEngine(exploration_threshold=2,
                             alignment_kernel="hirschberg",
                             alignment_cache_path=path)
        assert not engine.alignment.uses_cache
        scheduler = engine.make_scheduler()
        try:
            assert scheduler.content_key is None
        finally:
            scheduler.close()
        engine.run(build_module())
        assert not os.path.exists(path)
        # the keyed default does both
        keyed = MergeEngine(exploration_threshold=2,
                            alignment_cache_path=path)
        assert keyed.alignment.uses_cache
        keyed.run(build_module())
        assert os.path.exists(path)

    def test_pipeline_threads_the_path_through(self, tmp_path):
        path = str(tmp_path / "cache.json")
        compile_module(build_module(5), "fmsa", threshold=2,
                       alignment_cache_path=path)
        assert os.path.exists(path)
        result = compile_module(build_module(5), "fmsa", threshold=2,
                                alignment_cache_path=path)
        stats = result.merge_report.scheduler_stats
        assert stats["align_cache_cross_run_hits"] > 0


# -- concurrent snapshot sharing (file lock) ----------------------------------

class TestConcurrentSnapshotWriters:
    def test_racing_writers_lose_no_entries(self):
        # two processes hammer one snapshot with interleaved read-merge-write
        # cycles; the advisory lock makes every merge see the latest state,
        # so the union of both writers' entries survives (this reliably
        # lost entries under the old lockless atomic-replace protocol).
        # The harness is shared with the CI cache-persistence driver so the
        # two checks cannot drift apart.
        import sys
        benchmarks = os.path.join(os.path.dirname(__file__), os.pardir,
                                  os.pardir, "benchmarks")
        if benchmarks not in sys.path:
            sys.path.insert(0, benchmarks)
        from ci_cache_persistence import check_concurrent_writers
        assert check_concurrent_writers(entries_per_writer=20) == []

    def test_lock_file_sits_next_to_the_snapshot(self, tmp_path):
        path = str(tmp_path / "cache.json")
        cache = AlignmentCache()
        cache.put(_digest_key(1, 2), "m", 1)
        cache.save(path)
        assert os.path.exists(path + ".lock")


# -- generational compaction --------------------------------------------------

class TestSnapshotCompaction:
    @staticmethod
    def _save_fresh(path, byte, max_generations=None):
        """One run: load the shared snapshot, reference only ``byte``'s
        entry (by recomputing it), save back."""
        cache = AlignmentCache(max_generations=max_generations)
        cache.load(path)
        cache.put(_digest_key(byte, byte), "m", 1)
        cache.save(path)
        return cache

    def test_generation_counter_bumps_per_load(self, tmp_path):
        path = str(tmp_path / "cache.json")
        self._save_fresh(path, 1)
        for expected in (1, 2, 3):
            cache = AlignmentCache()
            cache.load(path)
            assert cache.stats_dict()["align_cache_generation"] == expected
            cache.save(path)

    def test_unreferenced_entries_age_out_after_horizon(self, tmp_path):
        path = str(tmp_path / "cache.json")
        self._save_fresh(path, 1, max_generations=2)
        self._save_fresh(path, 2, max_generations=2)
        # entry 1 is never referenced again; after 2 more generations it
        # must be gone while the always-recomputed entry 2 survives
        for _ in range(3):
            self._save_fresh(path, 2, max_generations=2)
        survivor = AlignmentCache()
        survivor.load(path)
        assert survivor.get(_digest_key(2, 2)) == ("m", 1)
        assert survivor.contains(_digest_key(1, 1)) is False

    def test_hits_refresh_an_entrys_generation(self, tmp_path):
        path = str(tmp_path / "cache.json")
        self._save_fresh(path, 1, max_generations=2)
        for _ in range(4):
            cache = AlignmentCache(max_generations=2)
            cache.load(path)
            assert cache.get(_digest_key(1, 1)) == ("m", 1)  # referenced
            cache.save(path)
        fresh = AlignmentCache()
        fresh.load(path)
        assert fresh.get(_digest_key(1, 1)) == ("m", 1)

    def test_zero_disables_aging(self, tmp_path):
        path = str(tmp_path / "cache.json")
        self._save_fresh(path, 1, max_generations=0)
        for _ in range(6):
            self._save_fresh(path, 2, max_generations=0)
        keeper = AlignmentCache()
        keeper.load(path)
        assert keeper.get(_digest_key(1, 1)) == ("m", 1)

    def test_env_knob_sets_the_default_horizon(self, monkeypatch):
        from repro.core.engine.align_cache import (ALIGN_CACHE_MAX_GEN_ENV,
                                                   DEFAULT_MAX_GENERATIONS)
        monkeypatch.delenv(ALIGN_CACHE_MAX_GEN_ENV, raising=False)
        assert AlignmentCache().max_generations == DEFAULT_MAX_GENERATIONS
        monkeypatch.setenv(ALIGN_CACHE_MAX_GEN_ENV, "7")
        assert AlignmentCache().max_generations == 7
        monkeypatch.setenv(ALIGN_CACHE_MAX_GEN_ENV, "0")
        assert AlignmentCache().max_generations is None
        assert AlignmentCache(max_generations=5).max_generations == 5

    def test_loading_a_missing_snapshot_leaves_no_lock_file(self, tmp_path):
        path = str(tmp_path / "never-written.json")
        cache = AlignmentCache()
        assert cache.load(path) == 0
        assert list(tmp_path.iterdir()) == []

    def test_writer_that_never_loaded_does_not_rewind_the_clock(self, tmp_path):
        # age the shared snapshot's clock forward, then have a fresh cache
        # (local generation 0) save into it: the counter must not rewind,
        # and the fresh writer's own entries must be stamped current
        path = str(tmp_path / "cache.json")
        self._save_fresh(path, 1)
        for _ in range(5):
            cache = AlignmentCache()
            cache.load(path)
            cache.save(path)
        before = json.load(open(path))["generation"]
        assert before == 5
        fresh = AlignmentCache(max_generations=3)  # never load()s
        fresh.put(_digest_key(9, 9), "m", 1)
        fresh.save(path)
        snapshot = json.load(open(path))
        assert snapshot["generation"] == before
        survivor = AlignmentCache()
        survivor.load(path)
        assert survivor.get(_digest_key(9, 9)) == ("m", 1)

    def test_version1_snapshots_still_load(self, tmp_path):
        # a pre-compaction (version 1) snapshot: rows without generations
        from repro.core.engine.align_cache import (SNAPSHOT_FORMAT,
                                                   _entries_checksum)
        path = str(tmp_path / "v1.json")
        digest = (5).to_bytes(16, "big").hex()
        entries = [[digest, digest, [1, -1, -1], "mm", 2]]
        json.dump({"format": SNAPSHOT_FORMAT, "version": 1,
                   "entries": entries,
                   "checksum": _entries_checksum(entries)},
                  open(path, "w"))
        cache = AlignmentCache()
        assert cache.load(path) == 1
        key = ((5).to_bytes(16, "big"), (5).to_bytes(16, "big"), (1, -1, -1))
        assert cache.get(key) == ("mm", 2)

    def test_version2_snapshots_still_load(self, tmp_path):
        # a pre-ops-table (version 2) snapshot: raw op strings inline
        from repro.core.engine.align_cache import (SNAPSHOT_FORMAT,
                                                   _entries_checksum)
        path = str(tmp_path / "v2.json")
        digest = (6).to_bytes(16, "big").hex()
        entries = [[digest, digest, [1, -1, -1], "mml", 1, 4]]
        json.dump({"format": SNAPSHOT_FORMAT, "version": 2, "generation": 4,
                   "entries": entries,
                   "checksum": _entries_checksum(entries)},
                  open(path, "w"))
        cache = AlignmentCache()
        assert cache.load(path) == 1
        key = ((6).to_bytes(16, "big"), (6).to_bytes(16, "big"), (1, -1, -1))
        assert cache.get(key) == ("mml", 1)
        # saving after a v2 load rewrites the file in the current format
        assert cache.save(path)
        assert json.load(open(path))["version"] == SNAPSHOT_VERSION


# -- packed op strings (snapshot v3) ------------------------------------------

class TestPackedOps:
    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="mlr", max_size=60))
    def test_pack_round_trips_and_never_grows(self, ops):
        packed = pack_ops(ops)
        assert unpack_ops(packed) == ops
        assert len(packed) <= len(ops)

    def test_pack_examples(self):
        assert pack_ops("") == ""
        assert pack_ops("mmmllr") == "3m2lr"
        assert pack_ops("m" * 120) == "120m"
        assert unpack_ops("12m2lr") == "m" * 12 + "llr"

    @pytest.mark.parametrize("bad", ["3", "x", "0m", "3x", "m0l"])
    def test_malformed_packed_ops_rejected(self, bad):
        with pytest.raises(ValueError):
            unpack_ops(bad)

    def test_snapshot_stores_each_distinct_shape_once(self, tmp_path):
        path = str(tmp_path / "cache.json")
        cache = AlignmentCache()
        for index in range(6):  # a clone family: six pairs, one shape
            cache.put(_digest_key(index, index + 1), "mmmmlr", 4)
        cache.put(_digest_key(9, 9), "lr", -2)
        assert cache.save(path)
        snapshot = json.load(open(path))
        assert snapshot["version"] == SNAPSHOT_VERSION
        assert sorted(snapshot["ops"]) == ["4mlr", "lr"]  # packed, deduped
        assert all(isinstance(row[3], int) for row in snapshot["entries"])
        fresh = AlignmentCache()
        assert fresh.load(path) == 7
        assert fresh.get(_digest_key(0, 1)) == ("mmmmlr", 4)
        assert fresh.get(_digest_key(9, 9)) == ("lr", -2)


# -- decision parity: cache modes x kernels x jobs ----------------------------

#: Alignment kernels exercised by the parity matrix (None = engine default).
KERNELS = [None] + (["nw-numpy"] if numpy_available() else []) + (
    ["nw-native"] if native_available() else [])


class TestCacheModeParity:
    """Merge decisions are bit-identical with the cache off, cold, warm and
    persisted, for every kernel x jobs x batch-size combination."""

    @settings(max_examples=4, deadline=None)
    @given(st.integers(0, 10_000))
    def test_cache_modes_never_change_decisions(self, tmp_path_factory, seed):
        path = str(tmp_path_factory.mktemp("parity") / f"cache_{seed}.json")
        reference = FunctionMergingPass(
            exploration_threshold=2,
            alignment_cache=False).run(build_module(seed))
        for kernel in KERNELS:
            for jobs, batch_size in ((1, 1), (2, 8), (8, 32)):
                # cold in-memory cache (no snapshot)
                cold = FunctionMergingPass(
                    exploration_threshold=2, alignment_kernel=kernel,
                    jobs=jobs, batch_size=batch_size).run(build_module(seed))
                assert decisions(cold) == decisions(reference), \
                    ("cold", kernel, jobs, batch_size)
                # persisted: first run of this config saves, later runs of
                # *every* config warm-start from the shared snapshot
                persisted = FunctionMergingPass(
                    exploration_threshold=2, alignment_kernel=kernel,
                    jobs=jobs, batch_size=batch_size,
                    alignment_cache_path=path).run(build_module(seed))
                assert decisions(persisted) == decisions(reference), \
                    ("persisted", kernel, jobs, batch_size)

    def test_warm_runs_still_verify(self, tmp_path):
        from repro.ir import verify_or_raise
        path = str(tmp_path / "cache.json")
        FunctionMergingPass(exploration_threshold=2,
                            alignment_cache_path=path).run(build_module(9))
        module = build_module(9)
        FunctionMergingPass(exploration_threshold=2,
                            alignment_cache_path=path).run(module)
        verify_or_raise(module)


class TestCrossKernelTransfer:
    """The cache key has no kernel component: entries computed by one keyed
    kernel satisfy lookups from every other (they are bit-identical by
    construction)."""

    @pytest.mark.skipif(not numpy_available(), reason="requires numpy")
    def test_numpy_run_hits_entries_from_sequential_run(self, tmp_path):
        path = str(tmp_path / "cache.json")
        first = FunctionMergingPass(
            exploration_threshold=2, alignment_kernel="needleman-wunsch",
            alignment_cache_path=path).run(build_module())
        second = FunctionMergingPass(
            exploration_threshold=2, alignment_kernel="nw-numpy",
            alignment_cache_path=path).run(build_module())
        assert decisions(second) == decisions(first)
        assert second.scheduler_stats["align_cache_cross_run_hits"] > 0
        assert second.scheduler_stats["align_cache_misses"] == 0

    @pytest.mark.skipif(not native_available(),
                        reason="requires the native extension")
    def test_native_run_hits_entries_from_sequential_run(self, tmp_path):
        path = str(tmp_path / "cache.json")
        first = FunctionMergingPass(
            exploration_threshold=2, alignment_kernel="needleman-wunsch",
            alignment_cache_path=path).run(build_module())
        second = FunctionMergingPass(
            exploration_threshold=2, alignment_kernel="nw-native",
            alignment_cache_path=path).run(build_module())
        assert decisions(second) == decisions(first)
        assert second.scheduler_stats["align_cache_cross_run_hits"] > 0
        assert second.scheduler_stats["align_cache_misses"] == 0

    def test_in_memory_transfer_between_kernel_stages(self):
        # stage-level variant: two AlignmentStage instances with different
        # kernels sharing one cache - the second never runs its DP
        from repro.core.engine.align_cache import AlignmentCache
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


class TestAutosave:
    """Debounced background snapshots: put-count and time triggers, the
    non-stacking flush guard, and crash durability (a killed process leaves
    the last autosaved snapshot loadable)."""

    def test_put_threshold_triggers_an_autosave(self, tmp_path):
        path = str(tmp_path / "auto.json")
        cache = AlignmentCache(autosave_path=path, save_every_n_puts=4)
        for index in range(4):
            cache.put(_digest_key(index, index + 1), "mmmm", 7)
        assert cache.autosaves == 1
        assert os.path.exists(path)
        warm = AlignmentCache()
        assert warm.load(path) == 4
        assert warm.contains(_digest_key(0, 1))
        # below the threshold nothing is written
        cache.put(_digest_key(9, 10), "mmmm", 7)
        assert cache.autosaves == 1

    def test_forced_flush_writes_pending_entries(self, tmp_path):
        path = str(tmp_path / "auto.json")
        cache = AlignmentCache(autosave_path=path, save_every_n_puts=1000)
        cache.put(_digest_key(1, 2), "mmmm", 5)
        assert not os.path.exists(path)  # debounced: not due yet
        assert cache.autosave_flush(force=True)
        assert AlignmentCache().load(path) == 1
        # nothing new pending: a second forced flush is a no-op
        assert not cache.autosave_flush(force=True)
        assert cache.autosaves == 1

    def test_time_based_flush(self, tmp_path):
        path = str(tmp_path / "auto.json")
        cache = AlignmentCache(autosave_path=path, save_every_n_puts=None,
                               autosave_interval=0.0)  # always due
        cache.put(_digest_key(3, 4), "mmmm", 5)
        assert cache.autosave_flush()
        assert AlignmentCache().load(path) == 1

    def test_disable_autosave_stops_writing(self, tmp_path):
        path = str(tmp_path / "auto.json")
        cache = AlignmentCache(autosave_path=path, save_every_n_puts=1)
        cache.put(_digest_key(1, 2), "mmmm", 5)
        assert cache.autosaves == 1
        cache.disable_autosave()
        cache.put(_digest_key(2, 3), "mmmm", 5)
        assert cache.autosaves == 1

    def test_autosaves_surface_in_stats(self, tmp_path):
        path = str(tmp_path / "auto.json")
        cache = AlignmentCache(autosave_path=path, save_every_n_puts=2)
        for index in range(4):
            cache.put(_digest_key(index, index + 1), "mmmm", 7)
        assert cache.stats_dict()["align_cache_autosaves"] == 2

    def test_killed_process_leaves_a_loadable_snapshot(self, tmp_path):
        import signal
        import subprocess
        import sys
        import textwrap
        path = str(tmp_path / "auto.json")
        # the child autosaves every 8 puts, reports each flush on stdout,
        # then hangs forever; SIGKILL it mid-life and load what it left
        child = textwrap.dedent(f"""
            import sys
            from repro.core.engine.align_cache import AlignmentCache
            cache = AlignmentCache(autosave_path={path!r},
                                   save_every_n_puts=8)
            for index in range(32):
                key = (bytes([index] * 16), bytes([index + 1] * 16),
                       (1, -1, -1))
                cache.put(key, "mmmm", 7)
            print("flushed", cache.autosaves, flush=True)
            sys.stdin.read()  # hang until killed
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep))
        proc = subprocess.Popen([sys.executable, "-c", child], env=env,
                                stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline().decode()
            assert line.startswith("flushed 4"), line
            proc.send_signal(signal.SIGKILL)
        finally:
            proc.kill()
            proc.wait()
        warm = AlignmentCache()
        assert warm.load(path) == 32
        assert warm.contains((bytes([0] * 16), bytes([1] * 16), (1, -1, -1)))
