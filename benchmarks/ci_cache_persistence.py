"""CI driver: two-pass suite compilation through a shared alignment cache.

Compiles every (small) MiBench module at thresholds 1 and 5 through the
FMSA engine twice, with ``REPRO_ALIGN_CACHE`` pointing at one snapshot
file.  The first pass populates the snapshot (its later benchmark x
threshold compilations already warm-start from the earlier ones); the
second pass must warm-start virtually everything.  The
run fails when the second pass records no cross-run hits, when its hit rate
drops below 90%, or when the two passes disagree on any merge decision -
the regression tripwires for the cache-persistence path.

The driver then exercises the snapshot file lock: two *concurrent*
processes hammer one snapshot with interleaved read-merge-write saves of
disjoint entry sets, and the run fails if the union loses a single entry
(the lost-update race the advisory lock exists to close).

Usage (the CI cache-persistence job)::

    PYTHONPATH=src REPRO_ALIGN_CACHE=$PWD/align-cache.json \
        python benchmarks/ci_cache_persistence.py

Knobs: ``REPRO_BENCH_SCALE`` (default 0.02) scales the workload;
``REPRO_ALIGN_CACHE`` names the snapshot (default ``align-cache.json``).
"""

import multiprocessing
import os
import sys
import tempfile

_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.core.engine.align_cache import ALIGN_CACHE_ENV  # noqa: E402
from repro.evaluation import compile_module  # noqa: E402
from repro.workloads.mibench import (build_mibench_benchmark,  # noqa: E402
                                     mibench_benchmark_names)

THRESHOLDS = (1, 5)


def _scale() -> float:
    try:
        return float(os.environ.get("REPRO_BENCH_SCALE", 0.02))
    except ValueError:
        return 0.02


def _compile_pass(cache_path, scale):
    """Compile every module at every threshold against the shared snapshot;
    returns the summed alignment-cache counters and every decision."""
    totals = {"hits": 0, "misses": 0, "cross_run_hits": 0}
    decisions = {}
    for benchmark in mibench_benchmark_names():
        for threshold in THRESHOLDS:
            module = build_mibench_benchmark(benchmark, scale=scale, cap=40).module
            report = compile_module(
                module, "fmsa", benchmark=benchmark, threshold=threshold,
                alignment_cache_path=cache_path).merge_report
            stats = report.scheduler_stats
            totals["hits"] += stats.get("align_cache_hits", 0)
            totals["misses"] += stats.get("align_cache_misses", 0)
            totals["cross_run_hits"] += stats.get("align_cache_cross_run_hits", 0)
            decisions[(benchmark, threshold)] = [
                (m.function1, m.function2, m.merged_name, m.rank_position,
                 m.delta) for m in report.merges]
    total = totals["hits"] + totals["misses"]
    totals["hit_rate"] = totals["hits"] / total if total else 0.0
    return totals, decisions


def _concurrent_writer(path, offset, count, barrier):
    """Child: merge ``count`` distinct entries into the shared snapshot,
    one locked save per entry, racing the sibling process."""
    from repro.core.engine.align_cache import AlignmentCache
    cache = AlignmentCache()
    barrier.wait(timeout=60)
    for index in range(offset, offset + count):
        digest = index.to_bytes(16, "big")
        cache.put((digest, digest, (1, -1, -1)), "m", 1)
        cache.save(path)


def check_concurrent_writers(entries_per_writer: int = 40) -> list:
    """Two processes saving concurrently must lose no entries."""
    from repro.core.engine.align_cache import AlignmentCache
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "shared-cache.json")
        barrier = multiprocessing.Barrier(2)
        writers = [
            multiprocessing.Process(
                target=_concurrent_writer,
                args=(path, offset, entries_per_writer, barrier))
            for offset in (0, entries_per_writer)]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=120)
            if writer.exitcode != 0:
                failures.append(f"concurrent writer exited with "
                                f"{writer.exitcode}")
        union = AlignmentCache()
        loaded = union.load(path)
        expected = 2 * entries_per_writer
        print(f"concurrent writers: {loaded}/{expected} entries survived")
        if loaded != expected:
            failures.append(
                f"concurrent snapshot writers lost entries: "
                f"{loaded} of {expected} survived (file-lock regression)")
    return failures


def main() -> int:
    cache_path = os.environ.get(ALIGN_CACHE_ENV, "").strip() \
        or "align-cache.json"
    scale = _scale()

    first_stats, first_decisions = _compile_pass(cache_path, scale)
    second_stats, second_decisions = _compile_pass(cache_path, scale)

    print(f"pass 1: hit rate {first_stats['hit_rate']:.0%} "
          f"({first_stats['hits']}/{first_stats['hits'] + first_stats['misses']}), "
          f"{first_stats['cross_run_hits']} cross-run hits")
    print(f"pass 2: hit rate {second_stats['hit_rate']:.0%} "
          f"({second_stats['hits']}/{second_stats['hits'] + second_stats['misses']}), "
          f"{second_stats['cross_run_hits']} cross-run hits")
    print(f"snapshot: {cache_path} "
          f"({os.path.getsize(cache_path)} bytes)")

    failures = []
    if second_stats["cross_run_hits"] <= 0:
        failures.append("second pass recorded no cross-run cache hits")
    if second_stats["hit_rate"] < 0.9:
        failures.append(f"second-pass hit rate "
                        f"{second_stats['hit_rate']:.0%} is below 90%")
    if second_decisions != first_decisions:
        failures.append("merge decisions changed between the two passes")
    failures.extend(check_concurrent_writers())
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
