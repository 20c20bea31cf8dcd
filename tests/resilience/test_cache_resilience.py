"""Alignment-cache persistence under failure: snapshot saves are torn-write
proof (fsync + atomic rename; a simulated crash mid-write leaves the old
snapshot fully intact), and every I/O failure degrades - warm start to
cold, persistent to unsaved - without ever changing merge decisions."""

import glob
import os
import warnings

from repro.core.pass_ import FunctionMergingPass
from repro.core.reference import ReferenceMergingPass
from repro.resilience import FaultPlan, active_faults
from tests.core.test_offload import build_module, decisions


def reference_decisions(seed=11):
    return decisions(ReferenceMergingPass(
        exploration_threshold=2).run(build_module(seed)))


def run_with_cache(path, fault_plan=None, seed=11):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return FunctionMergingPass(
            exploration_threshold=2, alignment_cache_path=path,
            fault_plan=fault_plan).run(build_module(seed))


class TestTornWriteProofSnapshots:
    def test_crash_mid_write_leaves_the_old_snapshot_intact(self, tmp_path):
        path = str(tmp_path / "cache.json")
        first = run_with_cache(path)
        assert decisions(first) == reference_decisions()
        with open(path, "rb") as handle:
            old_snapshot = handle.read()
        # second run: the save crashes between the temp write and the
        # atomic rename (the injected torn write)
        plan = FaultPlan.parse("seed=1,cache.snapshot_torn_write")
        second = run_with_cache(path, fault_plan=plan)
        assert decisions(second) == reference_decisions()
        assert plan.fired("cache.snapshot_torn_write") >= 1
        # the committed snapshot never saw the torn write ...
        with open(path, "rb") as handle:
            assert handle.read() == old_snapshot
        # ... and a third run warm-starts from it as if nothing happened
        third = run_with_cache(path)
        assert decisions(third) == reference_decisions()
        assert third.scheduler_stats["align_cache_cross_run_hits"] > 0
        events = second.scheduler_stats["degradations"]
        assert any(e["component"] == "cache" and e["to"] == "unsaved"
                   for e in events)

    def test_stray_temp_file_is_harmless_litter(self, tmp_path):
        path = str(tmp_path / "cache.json")
        run_with_cache(path)
        plan = FaultPlan.parse("seed=1,cache.snapshot_torn_write")
        run_with_cache(path, fault_plan=plan)
        strays = glob.glob(f"{path}.tmp.*")
        assert strays  # the simulated crash left its partial temp file
        # a warm start ignores it entirely
        report = run_with_cache(path)
        assert decisions(report) == reference_decisions()


class TestSnapshotIOFailures:
    def test_unreadable_snapshot_degrades_warm_to_cold(self, tmp_path):
        path = str(tmp_path / "cache.json")
        run_with_cache(path)
        # nth=1: the load blows up, the end-of-run save (hit 2) succeeds
        plan = FaultPlan.parse("seed=1,cache.snapshot_io:nth=1")
        report = run_with_cache(path, fault_plan=plan)
        assert decisions(report) == reference_decisions()
        assert report.scheduler_stats["align_cache_cross_run_hits"] == 0
        events = report.scheduler_stats["degradations"]
        assert any(e["component"] == "cache" and e["from"] == "warm"
                   and e["to"] == "cold" for e in events)

    def test_unwritable_snapshot_degrades_to_unsaved(self, tmp_path):
        path = str(tmp_path / "cache.json")
        plan = FaultPlan.parse("seed=1,cache.snapshot_io")
        report = run_with_cache(path, fault_plan=plan)
        assert decisions(report) == reference_decisions()
        assert not os.path.exists(path)
        events = report.scheduler_stats["degradations"]
        assert any(e["component"] == "cache" and e["from"] == "persistent"
                   and e["to"] == "unsaved" for e in events)

    def test_corrupt_snapshot_bytes_degrade_warm_to_cold(self, tmp_path):
        # organic (non-injected) corruption takes the same degradation
        # path: checksum rejects the file, the run starts cold
        path = str(tmp_path / "cache.json")
        run_with_cache(path)
        with open(path, "r+b") as handle:
            handle.seek(os.path.getsize(path) // 2)
            handle.write(b"GARBAGE")
        report = run_with_cache(path)
        assert decisions(report) == reference_decisions()
        events = report.scheduler_stats["degradations"]
        assert any(e["component"] == "cache" and e["to"] == "cold"
                   for e in events)

    def test_cache_level_degradations_reset_with_clear(self, tmp_path):
        from repro.core.engine import AlignmentCache
        cache = AlignmentCache(capacity=16)
        with active_faults(FaultPlan.parse("seed=1,cache.snapshot_io")):
            cache.put(("k", 1, 2), "m", 1)
            assert cache.save(str(tmp_path / "c.json")) is False
        assert len(cache.degradations) == 1
        assert cache.stats_dict()["align_cache_degradations"] == 1
        cache.clear()
        assert cache.degradations == []
