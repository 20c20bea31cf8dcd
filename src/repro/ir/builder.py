"""IRBuilder: convenience API for constructing instructions in a block.

The builder keeps an insertion point (a block and an optional position) and
offers one method per instruction kind, mirroring LLVM's ``IRBuilder``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from . import types as ty
from .basicblock import BasicBlock
from .instructions import (Alloca, BinaryOperator, Branch, Call, Cast, FCmp,
                           Freeze, GetElementPtr, ICmp, Instruction, Invoke,
                           LandingPad, Load, Phi, Return, Select, Store,
                           Switch, Unreachable)
from .values import Constant, Value


class IRBuilder:
    """Builds instructions at an insertion point inside a basic block."""

    def __init__(self, block: Optional[BasicBlock] = None):
        self.block = block
        self._index: Optional[int] = None  # None = append at the end

    # -- positioning -----------------------------------------------------------
    def position_at_end(self, block: BasicBlock) -> "IRBuilder":
        self.block = block
        self._index = None
        return self

    def position_before(self, inst: Instruction) -> "IRBuilder":
        assert inst.parent is not None
        self.block = inst.parent
        self._index = inst.parent.instructions.index(inst)
        return self

    def _insert(self, inst: Instruction) -> Instruction:
        if self.block is None:
            raise RuntimeError("builder has no insertion block")
        if self._index is None:
            self.block.append(inst)
        else:
            self.block.insert(self._index, inst)
            self._index += 1
        return inst

    # -- memory ------------------------------------------------------------------
    def alloca(self, allocated_type: ty.Type, name: str = "") -> Instruction:
        return self._insert(Alloca(allocated_type, name))

    def load(self, pointer_value: Value, name: str = "") -> Instruction:
        return self._insert(Load(pointer_value, name))

    def store(self, value: Value, pointer_value: Value) -> Instruction:
        return self._insert(Store(value, pointer_value))

    def gep(self, source_type: ty.Type, base: Value, indices: Sequence[Value],
            result_type: Optional[ty.Type] = None, name: str = "") -> Instruction:
        if result_type is None:
            result_type = _gep_result_type(source_type, len(indices))
        return self._insert(GetElementPtr(source_type, base, indices, result_type, name))

    # -- arithmetic ----------------------------------------------------------------
    def binary(self, opcode: str, lhs: Value, rhs: Value, name: str = "") -> Instruction:
        return self._insert(BinaryOperator(opcode, lhs, rhs, name))

    def add(self, lhs: Value, rhs: Value, name: str = "") -> Instruction:
        return self.binary("add", lhs, rhs, name)

    def sub(self, lhs: Value, rhs: Value, name: str = "") -> Instruction:
        return self.binary("sub", lhs, rhs, name)

    def mul(self, lhs: Value, rhs: Value, name: str = "") -> Instruction:
        return self.binary("mul", lhs, rhs, name)

    def sdiv(self, lhs: Value, rhs: Value, name: str = "") -> Instruction:
        return self.binary("sdiv", lhs, rhs, name)

    def fadd(self, lhs: Value, rhs: Value, name: str = "") -> Instruction:
        return self.binary("fadd", lhs, rhs, name)

    def fsub(self, lhs: Value, rhs: Value, name: str = "") -> Instruction:
        return self.binary("fsub", lhs, rhs, name)

    def fmul(self, lhs: Value, rhs: Value, name: str = "") -> Instruction:
        return self.binary("fmul", lhs, rhs, name)

    def fdiv(self, lhs: Value, rhs: Value, name: str = "") -> Instruction:
        return self.binary("fdiv", lhs, rhs, name)

    def icmp(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> Instruction:
        return self._insert(ICmp(predicate, lhs, rhs, name))

    def fcmp(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> Instruction:
        return self._insert(FCmp(predicate, lhs, rhs, name))

    def select(self, cond: Value, true_value: Value, false_value: Value,
               name: str = "") -> Instruction:
        return self._insert(Select(cond, true_value, false_value, name))

    def cast(self, opcode: str, value: Value, to_type: ty.Type, name: str = "") -> Instruction:
        return self._insert(Cast(opcode, value, to_type, name))

    def bitcast(self, value: Value, to_type: ty.Type, name: str = "") -> Instruction:
        return self.cast("bitcast", value, to_type, name)

    def zext(self, value: Value, to_type: ty.Type, name: str = "") -> Instruction:
        return self.cast("zext", value, to_type, name)

    def sext(self, value: Value, to_type: ty.Type, name: str = "") -> Instruction:
        return self.cast("sext", value, to_type, name)

    def trunc(self, value: Value, to_type: ty.Type, name: str = "") -> Instruction:
        return self.cast("trunc", value, to_type, name)

    def sitofp(self, value: Value, to_type: ty.Type, name: str = "") -> Instruction:
        return self.cast("sitofp", value, to_type, name)

    def fptosi(self, value: Value, to_type: ty.Type, name: str = "") -> Instruction:
        return self.cast("fptosi", value, to_type, name)

    def fpext(self, value: Value, to_type: ty.Type, name: str = "") -> Instruction:
        return self.cast("fpext", value, to_type, name)

    def fptrunc(self, value: Value, to_type: ty.Type, name: str = "") -> Instruction:
        return self.cast("fptrunc", value, to_type, name)

    def freeze(self, value: Value, name: str = "") -> Instruction:
        return self._insert(Freeze(value, name))

    # -- calls --------------------------------------------------------------------
    def call(self, callee: Value, args: Sequence[Value], name: str = "") -> Instruction:
        return self._insert(Call(callee, list(args), name=name))

    def invoke(self, callee: Value, args: Sequence[Value],
               normal_dest: BasicBlock, unwind_dest: BasicBlock,
               name: str = "") -> Instruction:
        return self._insert(Invoke(callee, list(args), normal_dest, unwind_dest, name=name))

    def landingpad(self, result_type: ty.Type = ty.TOKEN,
                   clauses: Sequence[str] = ("cleanup",), name: str = "") -> Instruction:
        return self._insert(LandingPad(result_type, clauses, name))

    # -- control flow ----------------------------------------------------------------
    def br(self, target: BasicBlock) -> Instruction:
        return self._insert(Branch(target))

    def cond_br(self, cond: Value, true_block: BasicBlock,
                false_block: BasicBlock) -> Instruction:
        return self._insert(Branch(cond, true_block, false_block))

    def switch(self, value: Value, default_dest: BasicBlock,
               cases: Sequence[Tuple[Constant, BasicBlock]] = ()) -> Instruction:
        return self._insert(Switch(value, default_dest, cases))

    def ret(self, value: Optional[Value] = None) -> Instruction:
        return self._insert(Return(value))

    def ret_void(self) -> Instruction:
        return self._insert(Return(None))

    def unreachable(self) -> Instruction:
        return self._insert(Unreachable())

    def phi(self, vtype: ty.Type, name: str = "") -> Phi:
        node = Phi(vtype, name)
        self._insert(node)
        return node


def _gep_result_type(source_type: ty.Type, num_indices: int) -> ty.Type:
    """Compute the pointer type produced by a ``gep`` with flat indexing.

    Index 0 steps over the base pointer; remaining indices step into arrays
    or structs.  When the index count only covers the base pointer, the
    result points at the source type itself.
    """
    current = source_type
    for _ in range(max(0, num_indices - 1)):
        if isinstance(current, ty.ArrayType):
            current = current.element
        elif isinstance(current, ty.StructType):
            # without the literal index value the best static answer is the
            # first field; callers that need precision pass result_type
            current = current.fields[0] if current.fields else ty.I8
        else:
            break
    return ty.pointer(current)
