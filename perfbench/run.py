"""The repository's benchmark: the whole ``compile_module`` path, end to end
and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload suite --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``suite`` (the 42 SPEC/MiBench models),
``clones`` (one clone-family stress module) and ``edits`` (an incremental
session driven by a fixed script of 100 single-function edits, so its run
length does not follow ``--seconds``).  Every workload uses one pinned
configuration: serial planning, ``jobs=1``, the ``auto`` alignment kernel
(which must resolve to ``nw-native``), exploration threshold t=1.  Ambient
``REPRO_*`` variables are cleared first.

``--trace 0`` prints the end-to-end metrics, measured with nothing wrapped.
Every time among them is in reference-speed seconds: wall or CPU time
scaled by how fast a fixed calibration loop ran meanwhile (see ``speed.py``),
so that the host's drifting speed does not read as a change of the program.
The info line carries the raw wall times as ``raw_compile_s``.  On suite
and clones the first pass is an untimed (but checked) warm-up, and the
timings are medians over the passes after it.

* ``compile_s``: wall seconds of one compile - a suite pass (42 modules),
  the clones module, or a cold open of the edits session (median of 7);
* ``merge_s``: the merge phase - summed ``CompilationResult.merge_time``
  (suite, clones), or a cold ``MergeEngine.run`` on the edited module
  (median of 7);
* ``busy_s``: process plus child CPU seconds per suite pass, clones compile
  or edits update;
* ``update_p50_ms``/``update_p90_ms``: latency of one operation - a module
  compile (suite, clones) or a session update (edits);
* ``merges``, ``size_reduction_pct`` (x86-64 cost model, geometric mean
  over the suite's modules) and ``modeled_runtime`` (the Fig. 14 profile
  model, geometric mean): exact, identical in every pass of one seed; on
  edits, of the session as opened, before the edit script;
* ``peak_rss_mb``; ``setup_s``: imports, loading or building the native
  extension, and the median input-generation time.

The error rate is ``failed / attempted`` of the result line; an operation
is one module compile or one session update.

``--trace 1`` alternates untraced and traced passes and prints per-layer
self time and calls (see ``tracer.py``), the tracing overhead, the share
of traced time the layers cover, and writes the first traced pass as
Chrome trace-event JSON under ``.bench_build/perfbench/``.

Every run checks its outputs: ``verify_module`` on every compiled module,
one decision digest (FMSA decision keys plus Identical fold records) across
all passes, traced or not, and for ``edits`` the session's decisions
against a cold run.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

_START = perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The kernel ``auto`` resolved to when the baseline was recorded; a run
#: that resolves to another kernel measures something else and fails.
EXPECTED_KERNEL = "nw-native"


def pin_environment() -> None:
    """Drop every ambient ``REPRO_*`` knob; the configuration is passed
    explicitly.  The on-demand native build goes inside the checkout."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_NATIVE_BUILD_DIR"] = os.path.join(ROOT, ".bench_build", "native")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("suite", "clones", "edits"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's small inputs")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, os.path.join(ROOT, "src"))

    from speed import Speedometer
    speedometer = Speedometer(enabled=not args.trace)
    with speedometer.measure() as setup:
        import workloads
        from repro.core.engine.stages import resolve_alignment_kernel
        from repro.core.native import native_available
        native_available()
        kernel = resolve_alignment_kernel(workloads.CONFIG["alignment_kernel"],
                                          "needleman-wunsch")
    if kernel != EXPECTED_KERNEL:
        print(f"error: alignment kernel 'auto' resolved to {kernel!r}, the "
              f"baseline used {EXPECTED_KERNEL!r}", file=sys.stderr)
        return 3

    size = workloads.TINY if args.size == "tiny" else workloads.FULL
    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds, size)
    input_digest = workload.input_digest()
    results = workload.passes(bool(args.trace), speedometer)

    errors = workloads.check_passes(results)
    metrics, info = workloads.summarize(workload, results, bool(args.trace))
    if not args.trace:
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        metrics["setup_s"] = (
            setup.seconds + statistics.median(r.gen_s for r in results), "s")
    else:
        path = os.path.join(ROOT, ".bench_build", "perfbench",
                            f"trace-{args.workload}-seed{args.seed}.json")
        workload.tracer.write_chrome_trace(path, _START)
        info["trace_file"] = os.path.relpath(path, ROOT)
    if args.workload == "suite":
        for line in workloads.module_table(results):
            print(line)
    if speedometer.slices:
        info["calibration_slice_ms"] = 1000 * statistics.median(
            seconds for _, seconds in speedometer.slices)
    info.update(workload=args.workload, seed=args.seed, kernel=kernel,
                python=platform.python_version(), input_digest=input_digest,
                errors=errors[:10])
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
