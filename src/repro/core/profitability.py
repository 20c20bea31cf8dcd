"""Profitability cost model (Section IV-A of the paper).

Given a candidate merged function - built, or only costed by the code
generator's counting sink - we estimate the code-size benefit of replacing
the original pair with it:

    delta({f1, f2}, f12) = (c(f1) + c(f2)) - (c(f12) + epsilon)

where ``c`` is the target-specific code-size cost and ``epsilon`` collects
the extra costs of keeping thunks for originals that cannot be deleted and
of the larger argument lists at updated call sites.  A merge is committed
only when ``delta > 0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..ir.callgraph import CallGraph
from ..ir.function import Function
from ..targets.cost_model import TargetCostModel
from .codegen import MergeResult


@dataclass
class MergeEvaluation:
    """Detailed outcome of the profitability analysis for one candidate."""

    size_function1: int
    size_function2: int
    size_merged: int
    #: Extra cost of keeping/retargeting the first and second original.
    extra_cost1: int
    extra_cost2: int
    #: True when the original can be deleted outright (its cost is fully
    #: recovered); False when a thunk must be kept.
    deletable1: bool = False
    deletable2: bool = False

    @property
    def epsilon(self) -> int:
        return self.extra_cost1 + self.extra_cost2

    @property
    def delta(self) -> int:
        return (self.size_function1 + self.size_function2) - (self.size_merged + self.epsilon)

    @property
    def profitable(self) -> bool:
        return self.delta > 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<MergeEvaluation delta={self.delta} "
                f"({self.size_function1}+{self.size_function2} vs "
                f"{self.size_merged}+{self.epsilon})>")


def _replacement_cost(original: Function, merged_param_count: int,
                      target: TargetCostModel, call_graph: Optional[CallGraph],
                      allow_deletion: bool) -> tuple:
    """Extra cost (epsilon contribution) of retargeting one original to a
    merged function taking ``merged_param_count`` parameters.

    Returns ``(cost, deletable)``.
    """
    original_args = len(original.arguments)
    per_call_growth = max(0, target.call_site_cost(merged_param_count)
                          - target.call_site_cost(original_args))

    deletable = allow_deletion and original.can_be_deleted()
    if call_graph is not None and deletable:
        deletable = not call_graph.is_address_taken(original)

    if deletable:
        if call_graph is not None:
            call_sites = len(call_graph.direct_call_sites(original))
        else:
            call_sites = len(original.callers())
        return per_call_growth * call_sites, True

    # a thunk must be kept: prologue overhead + one call + return
    thunk_cost = (target.function_overhead
                  + target.call_site_cost(merged_param_count)
                  + target.opcode_costs.get("ret", target.default_cost))
    return thunk_cost, False


def evaluate_merge(function1: Function, function2: Function,
                   size_merged: int, merged_param_count: int,
                   target: TargetCostModel,
                   call_graph: Optional[CallGraph] = None,
                   allow_deletion: bool = True) -> MergeEvaluation:
    """Evaluate the profitability of merging ``function1`` and
    ``function2`` into a function of cost ``size_merged`` taking
    ``merged_param_count`` parameters (as :func:`~repro.core.codegen.merge_cost`
    reports them, with no merged body built)."""
    size1 = target.function_cost(function1)
    size2 = target.function_cost(function2)
    extra1, deletable1 = _replacement_cost(function1, merged_param_count, target,
                                           call_graph, allow_deletion)
    extra2, deletable2 = _replacement_cost(function2, merged_param_count, target,
                                           call_graph, allow_deletion)
    return MergeEvaluation(size1, size2, size_merged, extra1, extra2,
                           deletable1, deletable2)


def estimate_profit(result: MergeResult, target: TargetCostModel,
                    call_graph: Optional[CallGraph] = None,
                    allow_deletion: bool = True) -> MergeEvaluation:
    """Evaluate the profitability of a generated merge candidate."""
    return evaluate_merge(result.function1, result.function2,
                          target.function_cost(result.merged),
                          len(result.merged.arguments), target, call_graph,
                          allow_deletion)
