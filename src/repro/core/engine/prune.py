"""Profit upper bounds for oracle-mode candidate pruning.

Oracle mode evaluates *every* ranked candidate of a worklist entry and
commits the best profitable one - the paper's exhaustive upper-bound
strategy, quadratic in practice.  Most of those evaluations are provably
wasted: a candidate whose best-case profit cannot exceed the best profitable
merge found so far (or cannot exceed zero) can be skipped without running
alignment, codegen or the cost model at all.

:class:`ProfitBoundIndex` extends the indexed searcher's cardinality
early-exit idea from the similarity domain to the profit domain.  For each
function it caches a sorted ``(opcode id, total cost)`` vector under the
target cost model, and bounds the profit of merging ``f1`` with ``f2`` by

    delta(f1, f2) <= sum_op min(T1(op), T2(op)) + overhead + args1 + args2

where ``T(op)`` is the total cost of the function's ``op`` instructions.
The bound is sound because aligned instruction pairs must share an opcode
(the equivalence relation requires it) and a merged instruction never costs
less than either original (equivalent non-call instructions have identical
costs; merged calls carry at least the larger argument list), so the total
cost saved by matching is at most ``sum_op min(T1, T2)``; everything the
merge *adds* (selects, guards, thunks, wider call sites) only shrinks the
real delta.  Like the searcher, a cardinality-only pre-check
(``min(total1, total2)``) skips the vector intersection when even that
cruder cap cannot beat the floor.

Pruning with a sound bound leaves merge decisions bit-identical to the
unpruned oracle: a skipped candidate is exactly one the serial oracle would
have evaluated and then discarded.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ...ir.function import Function
from ...targets.cost_model import TargetCostModel
from .search import shared_count


class _CostVector:
    """Per-function cost summary: sorted (opcode id, total cost) pairs."""

    __slots__ = ("op_ids", "op_costs", "body_total", "fixed_overhead")

    def __init__(self, op_vec: List[Tuple[int, int]], fixed_overhead: int):
        self.op_ids = [fid for fid, _ in op_vec]
        self.op_costs = [cost for _, cost in op_vec]
        self.body_total = sum(self.op_costs)
        self.fixed_overhead = fixed_overhead


class ProfitBoundIndex:
    """Upper-bounds the merge profit of any pair of indexed functions."""

    def __init__(self, target: TargetCostModel):
        self.target = target
        self._entries: Dict[str, _CostVector] = {}
        self._op_ids: Dict[str, int] = {}

    # -- maintenance (driven by the same events as the fingerprint index) ------
    def add_function(self, function: Function) -> None:
        target = self.target
        totals: Dict[str, int] = {}
        for inst in function.instructions():
            cost = target.instruction_cost(inst)
            totals[inst.opcode] = totals.get(inst.opcode, 0) + cost
        vec = []
        for opcode, total in totals.items():
            fid = self._op_ids.get(opcode)
            if fid is None:
                fid = self._op_ids[opcode] = len(self._op_ids)
            vec.append((fid, total))
        vec.sort()
        args_over = max(0, len(function.arguments) - target.free_argument_registers)
        fixed = target.function_overhead + args_over * target.per_argument_overhead
        self._entries[function.name] = _CostVector(vec, fixed)

    def add_functions(self, functions: Iterable[Function]) -> None:
        for function in functions:
            self.add_function(function)

    def remove_function(self, name: str) -> None:
        self._entries.pop(name, None)

    def clear(self) -> None:
        self._entries.clear()
        self._op_ids.clear()

    # -- queries ----------------------------------------------------------------
    def delta_bound(self, name1: str, name2: str,
                    floor: int = 0) -> Optional[int]:
        """An upper bound on ``delta(name1, name2)``, or ``None`` when either
        function is unknown.  Returns early (with any value <= ``floor``)
        once the cardinality-only cap proves the pair cannot beat ``floor``.
        """
        e1 = self._entries.get(name1)
        e2 = self._entries.get(name2)
        if e1 is None or e2 is None:
            return None
        # delta <= S + overhead + argover1 + argover2: one function overhead
        # is saved outright, both argument overheads could be freed, and the
        # body saving S is capped by min(T1, T2) per shared opcode (bounding
        # the merged function's own argument overhead at zero stays sound)
        slack = e1.fixed_overhead + e2.fixed_overhead - self.target.function_overhead
        cardinality_cap = min(e1.body_total, e2.body_total) + slack
        if cardinality_cap <= floor:
            return cardinality_cap
        shared = shared_count(e1.op_ids, e1.op_costs, e2.op_ids, e2.op_costs)
        return shared + slack
