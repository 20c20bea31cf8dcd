"""Phi demotion (``reg2mem``).

The paper's implementation "assumes that the input functions have all their
phi-functions demoted to memory operations, simplifying code generation"
(Section III-A).  This pass performs that demotion: every phi node is
replaced by an ``alloca`` in the entry block, stores of each incoming value
at the end of the corresponding predecessor, and a load where the phi used
to be.
"""

from __future__ import annotations

from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import Alloca, Load, Store
from .pass_manager import FunctionPass


class RegToMem(FunctionPass):

    name = "reg2mem"

    def run_on_function(self, function: Function) -> bool:
        if function.is_declaration:
            return False
        phis = [inst for block in function.blocks for inst in block.phis()]
        if not phis:
            return False
        entry = function.entry_block
        for phi in phis:
            slot = Alloca(phi.type, name=f"{phi.name or 'phi'}.slot")
            entry.insert(0, slot)
            # store incoming values at the end of each predecessor, before
            # its terminator
            for value, pred in phi.incoming():
                assert isinstance(pred, BasicBlock)
                store = Store(value, slot)
                term = pred.terminator
                if term is not None:
                    pred.insert_before(term, store)
                else:  # malformed block: append, verifier will flag it
                    pred.append(store)
            # replace the phi itself with a load at its position
            block = phi.parent
            assert block is not None
            idx = block.instructions.index(phi)
            load = Load(slot, name=phi.name or "phi.load")
            phi.replace_all_uses_with(load)
            phi.erase_from_parent()
            block.insert(idx, load)
        return True


def demote_phis(function: Function) -> bool:
    """Convenience wrapper used by the merging pass pre-conditions."""
    return RegToMem().run_on_function(function)
