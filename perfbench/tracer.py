"""Outside-in layer tracing: spans around calls into each layer's public
functions, self time per layer, and a Chrome trace-event file.

Nothing under ``src/`` knows about this module.  :func:`install_layers`
replaces each wrapped attribute (a class method, a module-level function or
a dict entry) with a timing wrapper and :meth:`Tracer.uninstall` puts the
originals back, so untraced passes run the unmodified program.

A layer's self time is the time inside its spans minus the time inside
spans nested in them (of any layer), so the self times of all layers add up
to the traced time the spans cover.
"""

from __future__ import annotations

import json
import os
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

_MISSING = object()


class Tracer:
    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Counts recorded at layer boundaries (cache hits, DP cells, ...).
        self.counts: Counter = Counter()
        #: (layer, start, duration, depth) of every span while ``record`` is on.
        self.events: List[Tuple[str, float, float, int]] = []
        self.record = False
        self._stack: List[float] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------
    def wrap(self, layer: str, fn: Callable,
             on_call: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span of ``layer``; ``on_call(result, args)`` runs
        after each successful call to record boundary counts."""
        stack = self._stack
        self_s, calls, events = self.self_s, self.calls, self.events

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                children = stack.pop()
                self_s[layer] += duration - children
                calls[layer] += 1
                if stack:
                    stack[-1] += duration
                if self.record:
                    events.append((layer, start, duration, len(stack)))
            if on_call is not None:
                on_call(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ---------------------------------------------------------
    def patch(self, owner, attr: str, layer: str,
              on_call: Optional[Callable] = None) -> None:
        """Wrap ``owner.attr`` (class or module attribute) or ``owner[attr]``
        (dict entry)."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self.wrap(layer, original, on_call)
            self._patches.append((owner, attr, original))
            return
        own = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, self.wrap(layer, getattr(owner, attr), on_call))
        self._patches.append((owner, attr, own))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            elif original is _MISSING:
                delattr(owner, attr)  # the attribute was inherited
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- output ---------------------------------------------------------------
    def covered_s(self) -> float:
        return sum(self.self_s.values())

    def write_chrome_trace(self, path: str, origin: float) -> None:
        """Chrome trace-event JSON (open in Perfetto or chrome://tracing)."""
        events = [{"name": layer, "cat": layer.split(".")[0], "ph": "X",
                   "ts": round((start - origin) * 1e6, 3),
                   "dur": round(duration * 1e6, 3),
                   "pid": os.getpid(), "tid": 1, "args": {"depth": depth}}
                  for layer, start, duration, depth in self.events]
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def install_layers(tracer: Tracer, generators: List[Tuple[object, str]]) -> None:
    """Wrap every layer's public calls; ``generators`` lists the
    benchmark's own input builders as ``(owner, attribute)`` pairs, wrapped
    as the ``workloads`` layer."""
    from repro.baselines.identical import IdenticalFunctionMergingPass
    from repro.core.engine.align_cache import AlignmentCache
    from repro.core.engine.engine import MergeEngine
    from repro.core.engine.session import MergeSession
    from repro.core.engine.stages import (AlignmentStage, CandidateSearchStage,
                                          CodegenStage, CommitStage,
                                          FingerprintStage, LinearizeStage,
                                          ProfitabilityStage)
    from repro.core.linearizer import LinearizedFunction
    from repro.evaluation import pipeline
    from repro.ir.callgraph import CallGraph
    from repro.passes.dce import DeadCodeElimination, DeadFunctionElimination
    from repro.passes.simplify_cfg import SimplifyCFG
    from repro.targets.cost_model import TargetCostModel

    counts = tracer.counts

    def on_folds(report, args):
        counts["baselines.identical.folds"] += report.merge_count

    def on_cache_get(result, args):
        counts["align_cache.gets"] += 1
        counts["align_cache.hits"] += result is not None

    def on_dp(result, args):
        counts["core.alignment.dp.cells"] += len(args[0]) * len(args[1])

    def on_update(report, args):
        counts["session.plans_reused"] += report.plans_reused
        counts["session.plans_total"] += report.plans_reused + report.functions_replanned

    for owner, attr in generators:
        tracer.patch(owner, attr, "workloads")
    for cls in (DeadCodeElimination, DeadFunctionElimination, SimplifyCFG):
        tracer.patch(cls, "run", "passes")
    tracer.patch(IdenticalFunctionMergingPass, "run", "baselines.identical", on_folds)
    tracer.patch(CallGraph, "rebuild", "ir.callgraph.rebuild")
    tracer.patch(FingerprintStage, "add_functions", "core.engine.fingerprint")
    tracer.patch(FingerprintStage, "add_merged", "core.engine.fingerprint")
    tracer.patch(CandidateSearchStage, "query", "core.engine.search")
    tracer.patch(LinearizeStage, "get", "core.linearizer")
    tracer.patch(LinearizedFunction, "canonical_digest", "core.equivalence.keys")
    tracer.patch(AlignmentCache, "get", "core.engine.align_cache", on_cache_get)
    tracer.patch(AlignmentCache, "put", "core.engine.align_cache")
    for kernel in list(AlignmentStage.KEYED_KERNELS):
        tracer.patch(AlignmentStage.KEYED_KERNELS, kernel, "core.alignment.dp", on_dp)
    tracer.patch(AlignmentStage, "align_pair", "core.engine.align")
    tracer.patch(CodegenStage, "generate", "core.codegen")
    tracer.patch(ProfitabilityStage, "evaluate", "core.profitability")
    tracer.patch(CommitStage, "apply", "core.thunks.commit")
    tracer.patch(MergeSession, "__init__", "core.engine.session")
    tracer.patch(MergeSession, "update", "core.engine.session", on_update)
    tracer.patch(MergeEngine, "run", "core.engine.other")
    # the backend emulation calls these through the pipeline module's globals
    tracer.patch(pipeline, "verify_module", "backend")
    tracer.patch(pipeline, "function_to_str", "backend")
    tracer.patch(TargetCostModel, "module_cost", "backend")


#: Every layer, in pipeline order (the per-layer metric names derive from it).
LAYERS = ("workloads", "passes", "baselines.identical", "ir.callgraph.rebuild",
          "core.engine.fingerprint", "core.engine.search", "core.linearizer",
          "core.equivalence.keys", "core.engine.align_cache", "core.alignment.dp",
          "core.engine.align", "core.codegen", "core.profitability",
          "core.thunks.commit", "core.engine.session", "core.engine.other",
          "backend")


def layer_metrics(tracer: Tracer, passes: int, traced_wall_s: float,
                  overhead: float) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics per traced pass, as ``name -> (value, unit)``."""
    counts = tracer.counts
    metrics: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (tracer.self_s[layer] / passes, "s")
        metrics[f"{layer}.calls"] = (tracer.calls[layer] / passes, "count")

    def ratio(num, den):
        return num / den if den else 0.0

    metrics["baselines.identical.folds"] = (
        counts["baselines.identical.folds"] / passes, "count")
    metrics["core.engine.align_cache.hit_ratio"] = (
        ratio(counts["align_cache.hits"], counts["align_cache.gets"]), "ratio")
    metrics["core.alignment.dp.cells"] = (
        counts["core.alignment.dp.cells"] / passes, "count")
    metrics["core.codegen.useful_ratio"] = (
        ratio(tracer.calls["core.thunks.commit"], tracer.calls["core.codegen"]), "ratio")
    metrics["core.engine.session.plan_reuse_ratio"] = (
        ratio(counts["session.plans_reused"], counts["session.plans_total"]), "ratio")
    metrics["trace.wall_s"] = (traced_wall_s / passes, "s")
    metrics["trace.coverage"] = (ratio(tracer.covered_s(), traced_wall_s), "ratio")
    metrics["trace_overhead"] = (overhead, "ratio")
    return metrics
