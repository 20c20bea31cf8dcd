"""Structural function merging — the state-of-the-art (SOA) baseline.

This models the technique of von Koch et al., *Exploiting function
similarity for code size reduction* (LCTES 2014), which the paper compares
against:

* two functions are mergeable only if their **signatures are identical**
  (same return type and same parameter list) and their **CFGs are
  isomorphic** with corresponding basic blocks of exactly the same length;
* corresponding instructions must produce equivalent types but may differ in
  opcode or operands, in which case the merged function guards them with the
  function identifier (we reuse the FMSA code generator with a positional,
  structure-derived alignment, which produces exactly those guarded
  diamonds/selects);
* a merge is committed only when the code-size cost model says it is
  profitable.

The original technique merges whole groups of similar functions at once; we
merge pairwise and iterate, which the paper notes is the main structural
difference (documented in DESIGN.md).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ir import cfg
from ..ir.callgraph import CallGraph
from ..ir.function import Function
from ..ir.module import Module
from ..passes.pass_manager import Pass
from ..targets.cost_model import TargetCostModel
from ..targets.x86_64 import X86_64
from ..core.alignment import AlignedEntry, AlignmentResult
from ..core.codegen import CodegenError, MergeOptions, merge_functions
from ..core.equivalence import entries_equivalent, types_equivalent
from ..core.linearizer import LinearEntry, linearize
from ..core.profitability import estimate_profit
from ..core.thunks import apply_merge


@dataclass
class StructuralMergeRecord:
    function1: str
    function2: str
    merged_name: str
    delta: int


@dataclass
class StructuralMergeReport:
    records: List[StructuralMergeRecord] = field(default_factory=list)
    candidates_evaluated: int = 0
    elapsed: float = 0.0

    @property
    def merge_count(self) -> int:
        return len(self.records)


def cfg_shape(function: Function) -> Tuple:
    """A signature of the CFG structure: block count, per-block instruction
    counts and successor index lists along the RPO traversal."""
    order = cfg.reverse_post_order(function)
    index = {id(block): i for i, block in enumerate(order)}
    shape = []
    for block in order:
        successors = tuple(index.get(id(s), -1) for s in cfg.successors(block))
        shape.append((len(block.instructions), successors))
    return (str(function.function_type), tuple(shape))


def structurally_similar(f1: Function, f2: Function) -> bool:
    """The SOA applicability test (identical signature + isomorphic CFG with
    equal block sizes + equivalent result types of corresponding
    instructions)."""
    if f1.function_type != f2.function_type:
        return False
    order1 = cfg.reverse_post_order(f1)
    order2 = cfg.reverse_post_order(f2)
    if len(order1) != len(order2):
        return False
    index1 = {id(b): i for i, b in enumerate(order1)}
    index2 = {id(b): i for i, b in enumerate(order2)}
    for b1, b2 in zip(order1, order2):
        if len(b1.instructions) != len(b2.instructions):
            return False
        succ1 = [index1.get(id(s)) for s in cfg.successors(b1)]
        succ2 = [index2.get(id(s)) for s in cfg.successors(b2)]
        if succ1 != succ2:
            return False
        for i1, i2 in zip(b1.instructions, b2.instructions):
            if not types_equivalent(i1.type, i2.type):
                return False
            if len(i1.operands) != len(i2.operands):
                return False
            if i1.is_terminator != i2.is_terminator:
                return False
    return True


def structural_alignment(f1: Function, f2: Function) -> AlignmentResult:
    """Build the positional alignment implied by the isomorphic CFGs.

    Corresponding entries that satisfy the FMSA equivalence relation become
    matches; the rest are expanded into one-sided entries so that the code
    generator guards them with the function identifier (the switch/select
    behaviour of the SOA technique).
    """
    entries1 = linearize(f1, "rpo")
    entries2 = linearize(f2, "rpo")
    if len(entries1) != len(entries2):
        raise CodegenError("structural alignment requires equal-length linearizations")
    aligned: List[AlignedEntry] = []
    matches = 0
    for e1, e2 in zip(entries1, entries2):
        if entries_equivalent(e1, e2):
            aligned.append(AlignedEntry(e1, e2))
            matches += 1
        else:
            aligned.append(AlignedEntry(e1, None))
            aligned.append(AlignedEntry(None, e2))
    return AlignmentResult(aligned, matches)


class StructuralFunctionMergingPass(Pass):
    """Pairwise greedy merging of structurally similar functions."""

    name = "soa-merging"

    def __init__(self, target: Optional[TargetCostModel] = None,
                 allow_deletion: bool = True):
        self.target = target or X86_64
        self.allow_deletion = allow_deletion
        self.options = MergeOptions(smart_parameter_pairing=False)

    def run(self, module: Module) -> StructuralMergeReport:
        start = time.perf_counter()
        report = StructuralMergeReport()
        graph = CallGraph(module)

        available = {f.name for f in module.defined_functions()}
        changed = True
        while changed:
            changed = False
            buckets: Dict[Tuple, List[Function]] = {}
            for name in sorted(available):
                function = module.get_function(name)
                if function is None or function.is_declaration:
                    available.discard(name)
                    continue
                buckets.setdefault(cfg_shape(function), []).append(function)

            for functions in buckets.values():
                if len(functions) < 2:
                    continue
                merged_this_bucket = False
                for i in range(len(functions)):
                    if merged_this_bucket:
                        break
                    for j in range(i + 1, len(functions)):
                        f1, f2 = functions[i], functions[j]
                        if f1.name not in available or f2.name not in available:
                            continue
                        report.candidates_evaluated += 1
                        if not structurally_similar(f1, f2):
                            continue
                        try:
                            alignment = structural_alignment(f1, f2)
                            result = merge_functions(f1, f2, self.options, alignment)
                        except CodegenError:
                            continue
                        evaluation = estimate_profit(result, self.target, graph,
                                                     self.allow_deletion)
                        if not evaluation.profitable:
                            result.merged.drop_body()
                            continue
                        applied = apply_merge(module, result, graph, self.allow_deletion)
                        available.discard(f1.name)
                        available.discard(f2.name)
                        available.add(result.merged.name)
                        report.records.append(StructuralMergeRecord(
                            f1.name, f2.name, applied.merged_name, evaluation.delta))
                        changed = True
                        merged_this_bucket = True
                        break
        report.elapsed = time.perf_counter() - start
        return report
