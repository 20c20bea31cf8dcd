"""Basic blocks: ordered containers of instructions ending in a terminator."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional

from . import types as ty
from .instructions import Instruction
from .values import Value

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .function import Function


class BasicBlock(Value):
    """A straight-line sequence of instructions with a single terminator.

    A basic block is itself a :class:`Value` of label type so that branch
    instructions can reference it directly as an operand.
    """

    def __init__(self, name: str = "", parent: Optional["Function"] = None):
        super().__init__(ty.LABEL, name)
        self.parent = parent
        self.instructions: List[Instruction] = []

    # -- instruction management ---------------------------------------------
    def append(self, inst: Instruction) -> Instruction:
        inst.parent = self
        self.instructions.append(inst)
        return inst

    def insert(self, index: int, inst: Instruction) -> Instruction:
        inst.parent = self
        self.instructions.insert(index, inst)
        return inst

    def insert_before(self, anchor: Instruction, inst: Instruction) -> Instruction:
        idx = self.instructions.index(anchor)
        return self.insert(idx, inst)

    def remove(self, inst: Instruction) -> None:
        self.instructions.remove(inst)
        inst.parent = None

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    # -- structure ------------------------------------------------------------
    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    @property
    def is_terminated(self) -> bool:
        return self.terminator is not None

    @property
    def is_landing_block(self) -> bool:
        """True when this block is the unwind destination of an invoke, i.e.
        its first instruction is a landing pad."""
        return bool(self.instructions) and self.instructions[0].opcode == "landingpad"

    def successors(self) -> List["BasicBlock"]:
        term = self.terminator
        if term is None:
            return []
        return [op for op in term.operands if isinstance(op, BasicBlock)]

    def predecessors(self) -> List["BasicBlock"]:
        """Distinct blocks of the same function whose terminator branches
        here, in function block order.

        Read off this block's use list: phi label operands and detached
        instructions are not terminators of a block, so they do not count.
        """
        function = self.parent
        if function is None:
            return []
        preds: List["BasicBlock"] = []
        for user in self.users:
            block = user.parent
            if (block is not None and block.parent is function
                    and user.is_terminator and block.instructions[-1] is user
                    and block not in preds):
                preds.append(block)
        if len(preds) > 1:
            preds.sort(key=function.blocks.index)
        return preds

    def phis(self) -> List[Instruction]:
        return [inst for inst in self.instructions if inst.is_phi]

    def first_non_phi_index(self) -> int:
        for i, inst in enumerate(self.instructions):
            if not inst.is_phi:
                return i
        return len(self.instructions)

    def split_at(self, index: int, new_name: str = "") -> "BasicBlock":
        """Split this block before ``index``; trailing instructions move to a
        new block which is returned.  No branch is inserted automatically."""
        from .function import Function  # local import to avoid a cycle

        assert self.parent is not None
        new_block = BasicBlock(new_name or f"{self.name}.split", self.parent)
        moved = self.instructions[index:]
        self.instructions = self.instructions[:index]
        for inst in moved:
            inst.parent = new_block
            new_block.instructions.append(inst)
        parent: Function = self.parent
        parent.blocks.insert(parent.blocks.index(self) + 1, new_block)
        return new_block

    def __str__(self) -> str:
        from .printer import block_to_str
        return block_to_str(self)
