"""Static-analysis / sanitizer benchmark (``BENCH_analysis.json``).

Measures what ``REPRO_SANITIZE=1`` costs: the same workloads are compiled
with the sanitizer off (the production default - the baseline this must
not regress) and on (verifier v2 + merge linter at every stage boundary),
asserting the merge decisions are bit-identical both ways and that no
violations are found.  Reported per workload:

- ``plain_seconds`` / ``sanitized_seconds``: best-of-N merge wall clock
- ``overhead_ratio``: sanitized / plain - the headline sanitizer cost
- ``sanitize_runs`` / ``sanitize_wall_seconds``: how many stage-boundary
  checks ran and what they cost in isolation (``after_commit`` once per
  committed merge plus one whole-module ``after_run``)
- ``analysis_cache_*``: dataflow result reuse inside the sanitizer

The tripwires assert zero violations, bit-identical decisions, and that
the sanitizer's own accounting is consistent (its isolated wall clock
cannot exceed the end-to-end overhead it caused, modulo noise).

Run directly (the CI analysis job does)::

    PYTHONPATH=src python benchmarks/bench_analysis.py

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_analysis.py -q

Knobs: ``REPRO_BENCH_REPEATS`` (default 3, best run wins),
``REPRO_BENCH_ANALYSIS_OUT`` (default ``BENCH_analysis.json``).
"""

import json
import os
import sys
import time

_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.evaluation import compile_module  # noqa: E402
from repro.workloads.case_studies import case_study_module  # noqa: E402
from repro.workloads.mibench import build_mibench_benchmark  # noqa: E402

REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))
ANALYSIS_OUT = os.environ.get("REPRO_BENCH_ANALYSIS_OUT",
                              "BENCH_analysis.json")

#: (label, module factory) - regenerated per run so module state never
#: leaks between the plain and sanitized measurements.
WORKLOADS = [
    ("mibench/gsm", lambda: build_mibench_benchmark("gsm").module),
    ("mibench/rijndael",
     lambda: build_mibench_benchmark("rijndael").module),
    ("case/libquantum", lambda: case_study_module("libquantum")),
]


def _measure(factory, sanitize: bool):
    best = None
    for _ in range(max(1, REPEATS)):
        module = factory()
        start = time.perf_counter()
        result = compile_module(module, "fmsa", threshold=1,
                                sanitize=sanitize)
        seconds = time.perf_counter() - start
        if best is None or seconds < best[0]:
            best = (seconds, result)
    return best


def run_bench() -> dict:
    workloads = []
    for label, factory in WORKLOADS:
        plain_seconds, plain = _measure(factory, sanitize=False)
        sanitized_seconds, sanitized = _measure(factory, sanitize=True)

        assert plain.merge_report.decision_keys() \
            == sanitized.merge_report.decision_keys(), \
            f"{label}: sanitizer changed the merge decisions"

        stats = sanitized.merge_report.scheduler_stats
        workloads.append({
            "workload": label,
            "merges": sanitized.merge_count,
            "plain_seconds": plain_seconds,
            "sanitized_seconds": sanitized_seconds,
            "overhead_ratio": (sanitized_seconds / plain_seconds
                               if plain_seconds else float("inf")),
            "sanitize_runs": stats.get("sanitize_runs", 0),
            "sanitize_wall_seconds": stats.get("sanitize_wall_seconds", 0.0),
            "analysis_cache_hits": stats.get("analysis_cache_hits", 0),
            "analysis_cache_misses": stats.get("analysis_cache_misses", 0),
        })

    ratios = sorted(w["overhead_ratio"] for w in workloads)
    return {
        "repeats": REPEATS,
        "workloads": workloads,
        "median_overhead_ratio": ratios[len(ratios) // 2],
        "total_sanitize_runs": sum(w["sanitize_runs"] for w in workloads),
    }


def emit(payload: dict) -> None:
    with open(ANALYSIS_OUT, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    lines = ", ".join(f"{w['workload']} {w['overhead_ratio']:.2f}x"
                      for w in payload["workloads"])
    print(f"wrote {ANALYSIS_OUT}: sanitize overhead {lines} "
          f"(median {payload['median_overhead_ratio']:.2f}x)")


def test_analysis_bench():
    """Pytest entry point: decision parity, zero violations, sane cost."""
    payload = run_bench()
    emit(payload)
    for workload in payload["workloads"]:
        assert workload["merges"] >= 1, workload
        assert workload["sanitize_runs"] >= workload["merges"] + 1, workload
    # the sanitizer is a debugging mode, but it must stay usable: a 25x
    # end-to-end blowup means a stage check went superlinear
    assert payload["median_overhead_ratio"] < 25.0, payload


if __name__ == "__main__":
    test_analysis_bench()
