"""Textual printer for the mini-IR (LLVM-flavoured syntax).

The printer assigns stable local numbers to unnamed values per function so
that the output is deterministic and diffable, which the tests rely on.
"""

from __future__ import annotations

from typing import Dict

from .basicblock import BasicBlock
from .function import Function
from .instructions import Instruction
from .module import Module
from .values import (ConstantFloat, ConstantInt, ConstantNull, ConstantString,
                     GlobalVariable, UndefValue, Value)


class _NameTable:
    """Assigns printable names to values within one function."""

    def __init__(self, function: Function = None):
        self._names: Dict[int, str] = {}
        self._counter = 0
        self._used = set()
        if function is not None:
            for arg in function.arguments:
                self._assign(arg, arg.name)
            for block in function.blocks:
                self._assign(block, block.name or None)
                for inst in block.instructions:
                    if not inst.type.is_void:
                        self._assign(inst, inst.name or None)

    def _assign(self, value: Value, preferred) -> None:
        name = preferred
        if not name or name in self._used:
            base = name or "v"
            name = f"{base}{self._counter}"
            while name in self._used:
                self._counter += 1
                name = f"{base}{self._counter}"
            self._counter += 1
        self._used.add(name)
        self._names[id(value)] = name

    def name_of(self, value: Value) -> str:
        if id(value) not in self._names:
            self._assign(value, value.name or None)
        return self._names[id(value)]


def value_ref(value: Value, names: _NameTable) -> str:
    """Render a value as an operand reference."""
    if isinstance(value, GlobalVariable):
        return f"@{value.name}"
    if isinstance(value, Function):
        return f"@{value.name}"
    if isinstance(value, ConstantInt):
        return str(value.signed_value)
    if isinstance(value, ConstantFloat):
        return repr(value.value)
    if isinstance(value, ConstantNull):
        return "null"
    if isinstance(value, UndefValue):
        return "undef"
    if isinstance(value, ConstantString):
        return f'c"{value.data}"'
    if isinstance(value, BasicBlock):
        return f"%{names.name_of(value)}"
    return f"%{names.name_of(value)}"


def typed_ref(value: Value, names: _NameTable) -> str:
    if isinstance(value, BasicBlock):
        return f"label %{names.name_of(value)}"
    return f"{value.type} {value_ref(value, names)}"


def instruction_to_str(inst: Instruction, names: _NameTable = None) -> str:
    names = names or _NameTable()
    parts = []
    if not inst.type.is_void:
        parts.append(f"%{names.name_of(inst)} =")
    opcode = inst.opcode
    if opcode in ("icmp", "fcmp"):
        pred = inst.attrs.get("predicate")
        operand_strs = ", ".join(typed_ref(op, names) for op in inst.operands)
        parts.append(f"{opcode} {pred} {operand_strs}")
    elif opcode == "alloca":
        parts.append(f"alloca {inst.attrs.get('allocated_type')}")
    elif opcode == "gep":
        ops = ", ".join(typed_ref(op, names) for op in inst.operands)
        parts.append(f"gep {inst.attrs.get('source_type')}, {ops}")
    elif opcode == "landingpad":
        clauses = " ".join(inst.attrs.get("clauses", ()))
        parts.append(f"landingpad {inst.type} [{clauses}]")
    elif opcode in ("call", "invoke"):
        callee = inst.operands[0]
        if opcode == "call":
            args = inst.operands[1:]
            arg_str = ", ".join(typed_ref(a, names) for a in args)
            parts.append(f"call {inst.type} {value_ref(callee, names)}({arg_str})")
        else:
            args = inst.operands[1:-2]
            arg_str = ", ".join(typed_ref(a, names) for a in args)
            normal = typed_ref(inst.operands[-2], names)
            unwind = typed_ref(inst.operands[-1], names)
            parts.append(f"invoke {inst.type} {value_ref(callee, names)}({arg_str}) "
                         f"to {normal} unwind {unwind}")
    elif opcode == "ret":
        if inst.operands:
            parts.append(f"ret {typed_ref(inst.operands[0], names)}")
        else:
            parts.append("ret void")
    elif opcode == "phi":
        pairs = ", ".join(
            f"[{value_ref(inst.operands[i], names)}, %{names.name_of(inst.operands[i + 1])}]"
            for i in range(0, len(inst.operands), 2))
        parts.append(f"phi {inst.type} {pairs}")
    else:
        operand_strs = ", ".join(typed_ref(op, names) for op in inst.operands)
        if inst.is_cast:
            parts.append(f"{opcode} {operand_strs} to {inst.type}")
        elif operand_strs:
            parts.append(f"{opcode} {operand_strs}")
        else:
            parts.append(opcode)
    return " ".join(parts)


def block_to_str(block: BasicBlock, names: _NameTable = None) -> str:
    names = names or (_NameTable(block.parent) if block.parent else _NameTable())
    lines = [f"{names.name_of(block)}:"]
    for inst in block.instructions:
        lines.append(f"  {instruction_to_str(inst, names)}")
    return "\n".join(lines)


def function_to_str(function: Function) -> str:
    names = _NameTable(function)
    args = ", ".join(f"{a.type} %{names.name_of(a)}" for a in function.arguments)
    header = (f"define {function.linkage} {function.return_type} "
              f"@{function.name}({args})")
    if function.is_declaration:
        return f"declare {function.return_type} @{function.name}({args})"
    lines = [header + " {"]
    for block in function.blocks:
        lines.append(block_to_str(block, names))
    lines.append("}")
    return "\n".join(lines)


def module_to_str(module: Module) -> str:
    chunks = [f"; module: {module.name}"]
    for gv in module.globals:
        init = f" = {gv.initializer}" if gv.initializer is not None else ""
        chunks.append(f"@{gv.name} : {gv.content_type}{init}")
    for function in module.functions:
        chunks.append(function_to_str(function))
    return "\n\n".join(chunks) + "\n"
