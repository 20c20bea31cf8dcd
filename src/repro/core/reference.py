"""The paper's exploration loop (Figure 7) as one straight pass.

:class:`ReferenceMergingPass` ranks candidates by a linear scan over every
fingerprint, aligns with the structural equivalence predicate, generates
and costs each candidate in rank order, commits the first profitable merge
(the best one under ``oracle``), rebuilds the call graph and fingerprints
the merged function by rescanning it.  It is the oracle the optimized
:class:`~repro.core.engine.MergeEngine` is tested against, and the driver
the paper-figure harness times, so that Figures 12 and 13 characterize the
paper's algorithm rather than this repository's optimizations.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Dict, List, Optional

from ..ir.callgraph import CallGraph
from ..ir.function import Function
from ..ir.module import Module
from ..passes.pass_manager import Pass
from ..passes.reg2mem import demote_phis
from ..targets.cost_model import TargetCostModel
from ..targets.x86_64 import X86_64
from .alignment import align
from .codegen import CodegenError, MergeOptions, merge_functions
from .engine.report import STAGES, MergeRecord, MergeReport
from .equivalence import entries_equivalent
from .linearizer import LinearEntry, linearize
from .profitability import estimate_profit
from .ranking import CandidateRanker
from .thunks import apply_merge


class ReferenceMergingPass(Pass):
    """FMSA exactly as in Figure 7; the parameters mean what they mean for
    :class:`~repro.core.engine.MergeEngine`."""

    name = "func-merging-reference"

    def __init__(self, target: Optional[TargetCostModel] = None,
                 exploration_threshold: int = 1,
                 oracle: bool = False,
                 options: Optional[MergeOptions] = None,
                 allow_deletion: bool = True,
                 hot_function_filter: Optional[Callable[[Function], bool]] = None,
                 minimum_function_size: int = 1):
        self.target = target or X86_64
        self.exploration_threshold = max(1, exploration_threshold)
        self.oracle = oracle
        self.options = options or MergeOptions()
        self.allow_deletion = allow_deletion
        self.hot_function_filter = hot_function_filter
        self.minimum_function_size = minimum_function_size
        self._times: Dict[str, float] = {}

    def _timed(self, stage: str, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._times[stage] += time.perf_counter() - start

    def _eligible(self, function: Function) -> bool:
        return (not function.is_declaration
                and function.instruction_count() >= self.minimum_function_size)

    def run(self, module: Module) -> MergeReport:
        report = MergeReport()
        self._times = dict.fromkeys(STAGES, 0.0)
        for function in module.defined_functions():
            demote_phis(function)
        call_graph = CallGraph(module)

        hot = self.hot_function_filter
        excluded = {f.name for f in module.defined_functions()
                    if hot is not None and hot(f)}
        report.excluded_hot_functions = len(excluded)
        eligible = [f for f in module.defined_functions()
                    if self._eligible(f) and f.name not in excluded]
        ranker = CandidateRanker(self.exploration_threshold)
        self._timed("fingerprinting", ranker.add_functions, eligible)
        available = {f.name for f in eligible}
        worklist = deque(sorted(available))
        report.functions_considered = len(available)

        linearized: Dict[str, List[LinearEntry]] = {}

        def linearization(function: Function) -> List[LinearEntry]:
            if function.name not in linearized:
                linearized[function.name] = linearize(function,
                                                      self.options.traversal)
            return linearized[function.name]

        limit = 0 if self.oracle else self.exploration_threshold
        while worklist:
            name = worklist.popleft()
            function1 = module.get_function(name) if name in available else None
            if function1 is None:  # consumed since it was enqueued
                report.stale_entries += 1
                continue
            best = None
            for candidate in self._timed("ranking", ranker.rank_candidates,
                                         name, limit):
                partner = candidate.function_name
                function2 = (module.get_function(partner)
                             if partner in available else None)
                if function2 is None:
                    continue
                report.candidates_evaluated += 1
                entries1 = self._timed("linearization", linearization, function1)
                entries2 = self._timed("linearization", linearization, function2)
                alignment = self._timed(
                    "alignment", align, entries1, entries2, entries_equivalent,
                    self.options.scoring, self.options.alignment_algorithm)
                try:
                    result = self._timed("codegen", merge_functions, function1,
                                         function2, self.options, alignment)
                    evaluation = self._timed("codegen", estimate_profit, result,
                                             self.target, call_graph,
                                             self.allow_deletion)
                except CodegenError:
                    report.codegen_failures += 1
                    continue
                if evaluation.profitable and (
                        best is None or evaluation.delta > best[2].delta):
                    if best is not None:
                        best[1].merged.drop_body()
                    best = (candidate, result, evaluation)
                    if not self.oracle:
                        break
                else:
                    result.merged.drop_body()
            if best is None:
                continue

            # commit: apply, rebuild the call graph, re-fingerprint by rescan
            candidate, result, evaluation = best
            originals = (result.function1, result.function2)
            original_sizes = tuple(f.instruction_count() for f in originals)
            applied = self._timed("updating_calls", apply_merge, module, result,
                                  call_graph, self.allow_deletion)
            self._timed("updating_calls", call_graph.rebuild)
            for original in originals:
                available.discard(original.name)
                ranker.remove_function(original.name)
            # callers whose call sites the commit rewrote have new bodies
            for stale in [f.name for f in originals] + applied.rewritten_callers:
                linearized.pop(stale, None)
            merged = result.merged
            if self._eligible(merged):
                self._timed("fingerprinting", ranker.add_function, merged)
                available.add(merged.name)
                worklist.append(merged.name)

            extra_ops = applied.disposition.count("thunk")
            if result.func_id is not None:
                extra_ops += sum(1 for user in result.func_id.users
                                 if getattr(user, "parent", None) is not None)
            report.merges.append(MergeRecord(
                function1=applied.function1, function2=applied.function2,
                merged_name=applied.merged_name,
                rank_position=candidate.position, delta=evaluation.delta,
                size_before=evaluation.size_function1 + evaluation.size_function2,
                size_after=evaluation.size_merged + evaluation.epsilon,
                dispositions=list(applied.disposition),
                original_sizes=original_sizes,
                merged_size=merged.instruction_count(),
                extra_dynamic_ops=extra_ops))

        report.stage_times = dict(self._times)
        return report
