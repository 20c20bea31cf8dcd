"""CFG simplification.

Removes unreachable blocks and merges trivial straight-line block chains
(a block whose only terminator is an unconditional branch to a block with a
single predecessor).  Run after merging to clean up the diamond scaffolding
when both sides turned out to be empty, and as part of the -Os-like
pre-pipeline.
"""

from __future__ import annotations

from ..ir import cfg
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from .pass_manager import FunctionPass


class SimplifyCFG(FunctionPass):

    name = "simplifycfg"

    def run_on_function(self, function: Function) -> bool:
        changed = False
        changed |= self._remove_unreachable(function)
        changed |= self._merge_straightline(function)
        return changed

    def _remove_unreachable(self, function: Function) -> bool:
        if function.is_declaration:
            return False
        reachable = cfg.reachable_blocks(function)
        changed = False
        for block in list(function.blocks):
            if id(block) not in reachable:
                # drop phi references from successors first
                for inst in list(block.instructions):
                    inst.erase_from_parent()
                function.remove_block(block)
                changed = True
        return changed

    def _merge_straightline(self, function: Function) -> bool:
        """Fold ``A -> br B`` into a single block when B has exactly one
        predecessor and is not a landing block.

        One sweep: after ``A`` absorbs ``B``, ``A``'s new terminator (``B``'s
        old one) is examined straight away, so a whole chain folds into its
        head on the head's turn.  A fold never changes another block's
        predecessor count, so nothing skipped earlier becomes foldable.
        """
        changed = False
        for block in list(function.blocks):
            while True:
                term = block.terminator
                if term is None or term.opcode != "br" or len(term.operands) != 1:
                    break
                succ = term.operands[0]
                if not isinstance(succ, BasicBlock) or succ is block:
                    break
                if succ is function.entry_block or succ.is_landing_block:
                    break
                if len(succ.predecessors()) != 1:
                    break
                if succ.phis():
                    break
                # splice succ's instructions into block
                term.erase_from_parent()
                for inst in list(succ.instructions):
                    succ.remove(inst)
                    block.append(inst)
                succ.replace_all_uses_with(block)
                function.remove_block(succ)
                changed = True
        return changed
