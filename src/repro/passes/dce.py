"""Dead-code elimination passes.

Two flavours are provided:

* :class:`DeadCodeElimination` — removes side-effect-free instructions whose
  results have no users, and then the operands that leaves unused, to a
  fixed point.
* :class:`DeadFunctionElimination` — removes internal functions that are
  never referenced; this is what makes full removal of merged originals
  actually shrink the module.
"""

from __future__ import annotations

from ..ir.function import Function
from ..ir.instructions import Instruction
from ..ir.module import Module
from .pass_manager import FunctionPass, Pass


def _trivially_dead(inst: Instruction) -> bool:
    """A value-producing, side-effect-free instruction nobody uses."""
    return not (inst.users or inst.has_side_effects or inst.is_terminator
                or inst.type.is_void)


class DeadCodeElimination(FunctionPass):
    """Classic trivially-dead-instruction elimination.

    One scan seeds a worklist with the dead instructions; erasing one
    drops its operand uses, so only its operands can newly become dead and
    only they are revisited.  The removed set is the fixed point a
    rescan-until-stable loop reaches.
    """

    name = "dce"

    def run_on_function(self, function: Function) -> bool:
        blocks = {id(block) for block in function.blocks}
        worklist = [inst for block in function.blocks
                    for inst in block.instructions if _trivially_dead(inst)]
        changed = False
        while worklist:
            inst = worklist.pop()
            if inst.parent is None:  # queued twice, already erased
                continue
            operands = inst.operands
            inst.erase_from_parent()
            changed = True
            for operand in operands:
                if (isinstance(operand, Instruction)
                        and operand.parent is not None
                        and id(operand.parent) in blocks
                        and _trivially_dead(operand)):
                    worklist.append(operand)
        return changed


class DeadFunctionElimination(Pass):
    """Remove internal functions with no remaining references.  Every call
    site and address-taking operand is one of a function's ``users``, so no
    call graph is needed; sweeps repeat until one removes nothing."""

    name = "dead-function-elim"

    def run(self, module: Module) -> int:
        removed = 0
        progress = True
        while progress:
            progress = False
            for function in list(module.functions):
                if function.is_declaration:
                    continue
                if function.linkage == "internal" and not function.users:
                    module.remove_function(function)
                    removed += 1
                    progress = True
        return removed
