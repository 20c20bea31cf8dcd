"""Identical function merging (the ``Identical`` baseline).

This models LLVM's ``MergeFunctions`` pass / gold's ICF: only functions that
are structurally identical (same signature, same CFG, same instructions with
the same operands up to value numbering, allowing only lossless type
mismatches) are merged.  Exploration uses a structural hash to bucket
functions, then verifies exact equivalence inside each bucket, which mirrors
the hash-then-tree approach of the production implementations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..ir import types as ty
from ..ir.builder import IRBuilder
from ..ir.callgraph import CallGraph
from ..ir.function import Function
from ..ir.module import Module
from ..ir.values import Constant, GlobalVariable
from ..passes.pass_manager import Pass


@dataclass
class IdenticalMergeRecord:
    """One group of identical functions folded into a representative."""

    representative: str
    folded: List[str] = field(default_factory=list)


@dataclass
class IdenticalMergeReport:
    records: List[IdenticalMergeRecord] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def merge_count(self) -> int:
        """Number of pairwise merge operations, comparable to Table I/II."""
        return sum(len(r.folded) for r in self.records)


def structural_hash(function: Function) -> Tuple:
    """A hash that is equal for structurally identical functions."""
    items: List[Tuple] = [
        ("sig", function.function_type._key(), len(function.blocks)),
    ]
    for block in function.blocks:
        items.append(("block", len(block.instructions)))
        for inst in block.instructions:
            items.append((inst.opcode, str(inst.type), len(inst.operands)))
    return tuple(items)


def functions_identical(f1: Function, f2: Function) -> bool:
    """Deep structural equality with value numbering.

    Two functions are identical when their signatures match and their bodies
    are the same instruction-for-instruction, where instruction results,
    arguments and blocks are compared positionally.
    """
    if f1.function_type != f2.function_type:
        return False
    if len(f1.blocks) != len(f2.blocks):
        return False

    numbering: Dict[int, int] = {}

    def number(value, counter=[0]) -> int:
        key = id(value)
        if key not in numbering:
            numbering[key] = counter[0]
            counter[0] += 1
        return numbering[key]

    # pre-number arguments and blocks positionally so that uses compare equal
    for a1, a2 in zip(f1.arguments, f2.arguments):
        if a1.type != a2.type:
            return False
        numbering[id(a2)] = number(a1)
    for b1, b2 in zip(f1.blocks, f2.blocks):
        numbering[id(b2)] = number(b1)

    for b1, b2 in zip(f1.blocks, f2.blocks):
        if len(b1.instructions) != len(b2.instructions):
            return False
        for i1, i2 in zip(b1.instructions, b2.instructions):
            numbering[id(i2)] = number(i1)

    for b1, b2 in zip(f1.blocks, f2.blocks):
        for i1, i2 in zip(b1.instructions, b2.instructions):
            if i1.opcode != i2.opcode or i1.attrs != i2.attrs:
                return False
            if i1.type != i2.type and not ty.can_losslessly_bitcast(i1.type, i2.type):
                return False
            if len(i1.operands) != len(i2.operands):
                return False
            for o1, o2 in zip(i1.operands, i2.operands):
                if isinstance(o1, Constant) or isinstance(o2, Constant):
                    if not (isinstance(o1, Constant) and isinstance(o2, Constant) and o1 == o2):
                        return False
                    continue
                if isinstance(o1, Function) or isinstance(o2, Function):
                    # callees compare by name and signature so that identical
                    # functions from different modules still compare equal
                    if not (isinstance(o1, Function)
                            and isinstance(o2, Function)
                            and o1.name == o2.name
                            and o1.function_type == o2.function_type):
                        return False
                    continue
                if isinstance(o1, GlobalVariable) or isinstance(o2, GlobalVariable):
                    if not (isinstance(o1, GlobalVariable)
                            and isinstance(o2, GlobalVariable)
                            and o1.name == o2.name
                            and o1.content_type == o2.content_type):
                        return False
                    continue
                if number(o1) != number(o2):
                    return False
    return True


class IdenticalFunctionMergingPass(Pass):
    """Fold identical functions onto a single representative."""

    name = "identical-merging"

    def run(self, module: Module) -> IdenticalMergeReport:
        start = time.perf_counter()
        report = IdenticalMergeReport()

        buckets: Dict[Tuple, List[Function]] = {}
        for function in module.defined_functions():
            buckets.setdefault(structural_hash(function), []).append(function)

        graph = None  # built at the first fold; until then nothing changes
        for functions in buckets.values():
            if len(functions) < 2:
                continue
            groups: List[List[Function]] = []
            for function in functions:
                placed = False
                for group in groups:
                    if functions_identical(group[0], function):
                        group.append(function)
                        placed = True
                        break
                if not placed:
                    groups.append([function])
            for group in groups:
                if len(group) < 2:
                    continue
                representative = group[0]
                record = IdenticalMergeRecord(representative.name)
                if graph is None:
                    graph = CallGraph(module)
                for duplicate in group[1:]:
                    self._fold(module, graph, representative, duplicate)
                    record.folded.append(duplicate.name)
                report.records.append(record)
        report.elapsed = time.perf_counter() - start
        return report

    def _fold(self, module: Module, graph: CallGraph,
              representative: Function, duplicate: Function) -> None:
        """Redirect callers of ``duplicate`` to ``representative``; delete the
        duplicate when safe, otherwise leave a thunk behind.

        ``graph`` is exact for the module on entry and is kept exact
        incrementally (the same register/unregister protocol as
        ``apply_merge``), so ``run`` builds the call graph only once.
        Redirected sites are filed under the representative, so a
        duplicate's site list only ever shrinks and stays in module order.
        """
        for site in graph.direct_call_sites(duplicate):
            caller = site.parent.parent.name
            graph.unregister_instruction(caller, site)
            site.set_operand(0, representative)
            graph.register_instruction(caller, site)
        deletable = (duplicate.can_be_deleted()
                     and not graph.is_address_taken(duplicate) and not duplicate.users)
        if deletable:
            graph.remove_function(duplicate)
            module.remove_function(duplicate)
            return
        graph.unregister_body(duplicate)
        duplicate.drop_body()
        block = duplicate.append_block("thunk")
        builder = IRBuilder(block)
        call = builder.call(representative, list(duplicate.arguments))
        if duplicate.return_type.is_void:
            builder.ret_void()
        else:
            builder.ret(call)
        graph.register_body(duplicate)
