"""CI driver: warm-daemon latency and decision-parity tripwires.

Boots the merge daemon in-process and measures the three request tiers on
one workload:

* **cold** - the daemon's first request: builds the merge pass and runs
  every alignment DP;
* **engine-warm** - identical repeats with the response memo disabled
  (``result_cache_size=0``): reuse the warm pass and resident alignment
  cache (DP-free), but replan and re-merge the module;
* **warm** - identical repeats against the default daemon: regenerative
  payloads are deterministic, so the response is memoized and served
  without touching the engine.

The run fails when the warm p50 is not >= 3x better than the cold request
(the service's headline), when the daemon's decisions differ from a
direct ``compile_module`` call (bit-identity), or when the daemon is
unhealthy after the series.  The fixed cost the warm tiers skip - pass
construction - is measured separately and recorded in the
``BENCH_service.json`` artifact together with requests/sec and p50/p99
latencies per tier.

Usage (the CI service job)::

    PYTHONPATH=src python benchmarks/ci_service.py

Knobs: ``REPRO_BENCH_SERVICE_BENCHMARK`` (default ``gsm``),
``REPRO_BENCH_SERVICE_REQUESTS`` (warm requests per tier, default 15),
``REPRO_BENCH_SERVICE_OUT`` (artifact path, default ``BENCH_service.json``).
"""

import json
import os
import statistics
import sys
import time

_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.core.pass_ import FunctionMergingPass  # noqa: E402
from repro.evaluation.pipeline import compile_module  # noqa: E402
from repro.service import (DaemonConfig, MergeDaemon,  # noqa: E402
                           ServiceClient)
from repro.service.protocol import (build_module,  # noqa: E402
                                    jsonable_decisions)


def percentile(samples, fraction):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def timed_requests(client, payload, count):
    latencies = []
    for _ in range(count):
        start = time.perf_counter()
        client.compile_module(payload)
        latencies.append(time.perf_counter() - start)
    return latencies


def tier_summary(latencies):
    return {
        "requests": len(latencies),
        "p50_seconds": round(percentile(latencies, 0.50), 6),
        "p99_seconds": round(percentile(latencies, 0.99), 6),
        "mean_seconds": round(statistics.mean(latencies), 6),
        "requests_per_second": round(len(latencies) / sum(latencies), 2),
    }


def measure_fixed_costs():
    """The per-request cost a cold process pays and the warm daemon
    hoists: merge-pass construction."""
    start = time.perf_counter()
    FunctionMergingPass(exploration_threshold=1)
    pass_build = time.perf_counter() - start
    return {"pass_build_seconds": round(pass_build, 6)}


def direct_decisions(payload):
    result = compile_module(build_module(payload), "fmsa")
    return jsonable_decisions(result.merge_report.decision_keys())


def run_daemon_tier(payload, warm_requests, result_cache):
    """One daemon boot: the first request is the cold sample, the repeats
    are the tier's warm series.  Returns (cold, latencies, stats,
    decisions, healthy)."""
    config = DaemonConfig(port=0, result_cache_size=result_cache)
    daemon = MergeDaemon(config).start()
    try:
        with ServiceClient(daemon.address, timeout=300.0) as client:
            start = time.perf_counter()
            first = client.compile_module(payload)
            cold = time.perf_counter() - start
            latencies = timed_requests(client, payload, warm_requests)
            stats = client.stats()
            healthy = client.health().get("ok", False)
    finally:
        daemon.shutdown()
    return cold, latencies, stats, first["decisions"], healthy


def main() -> int:
    benchmark = os.environ.get("REPRO_BENCH_SERVICE_BENCHMARK", "gsm")
    try:
        warm_requests = int(os.environ.get("REPRO_BENCH_SERVICE_REQUESTS", 15))
    except ValueError:
        warm_requests = 15
    out_path = os.environ.get("REPRO_BENCH_SERVICE_OUT", "BENCH_service.json")
    payload = {"kind": "workload", "suite": "mibench",
               "benchmark": benchmark}
    failures = []

    # tier 1 + 2: cold, then engine-warm repeats (response memo off)
    cold_seconds, engine_warm, engine_stats, decisions, healthy = \
        run_daemon_tier(payload, warm_requests, result_cache=0)
    if not healthy:
        failures.append("daemon unhealthy after the engine-warm series")
    # tier 3: a second boot with the response memo on
    _, result_warm, warm_stats, warm_decisions, healthy = \
        run_daemon_tier(payload, warm_requests, result_cache=64)
    if not healthy:
        failures.append("daemon unhealthy after the warm series")
    if warm_stats.get("result_cache_hits", 0) < warm_requests:
        failures.append("warm series did not hit the result cache")
    fixed_costs = measure_fixed_costs()

    warm_p50 = percentile(result_warm, 0.50)
    engine_p50 = percentile(engine_warm, 0.50)
    speedup = cold_seconds / warm_p50 if warm_p50 > 0 else float("inf")
    if speedup < 3.0:
        failures.append(f"warm p50 beats cold only {speedup:.1f}x (< 3x): "
                        f"cold {cold_seconds:.3f}s, warm p50 {warm_p50:.4f}s")

    if warm_decisions != decisions:
        failures.append("the two daemon boots disagree on decisions")
    if direct_decisions(payload) != decisions:
        failures.append("daemon decisions differ from direct compile_module")

    artifact = {
        "benchmark": benchmark,
        "cold_seconds": round(cold_seconds, 6),
        "tiers": {
            "engine_warm": tier_summary(engine_warm),
            "warm": tier_summary(result_warm),
        },
        "warm_speedup_vs_cold": round(speedup, 2),
        "engine_warm_speedup_vs_cold": round(
            cold_seconds / engine_p50 if engine_p50 > 0 else 0.0, 2),
        "fixed_costs_skipped_when_warm": fixed_costs,
        "daemon_stats": {
            "engine_warm_tier": {
                key: engine_stats.get(key) for key in
                ("warm_requests", "cold_requests",
                 "align_cache_hits", "align_cache_misses")},
            "warm_tier_result_cache_hits":
                warm_stats.get("result_cache_hits", 0),
        },
        "decisions_identical_to_direct": not any(
            "differ" in failure for failure in failures),
    }
    with open(out_path, "w") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)

    print(f"cold: {cold_seconds * 1000:.0f}ms; engine-warm p50 "
          f"{engine_p50 * 1000:.0f}ms "
          f"({cold_seconds / engine_p50:.1f}x); warm p50 "
          f"{warm_p50 * 1000:.1f}ms ({speedup:.1f}x)")
    print(f"fixed costs skipped when warm: {fixed_costs}")
    print(f"artifact: {out_path}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
