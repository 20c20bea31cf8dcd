"""Instruction set of the mini-IR.

Instructions are values (their result can be used as an operand elsewhere).
All instructions share a uniform representation - an opcode string, a list of
operand :class:`~repro.ir.values.Value` objects and a small dictionary of
immediate attributes (e.g. the comparison predicate of an ``icmp``).  Thin
subclasses provide ergonomic constructors and accessors, while generic code
(cloning, equivalence checks, linearization, cost models) only needs the
uniform view.

The opcode vocabulary is a practical subset of LLVM IR sufficient to express
the programs the paper evaluates on: integer/float arithmetic, comparisons,
memory operations through ``alloca``/``load``/``store``/``gep``, calls,
control flow (``br``, ``switch``, ``ret``, ``unreachable``), ``select``,
casts, ``phi`` (demoted before merging) and the exception-handling pair
``invoke``/``landingpad``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from . import types as ty
from .values import Constant, Value


# ---------------------------------------------------------------------------
# Opcode classification tables
# ---------------------------------------------------------------------------

INT_BINARY_OPS = (
    "add", "sub", "mul", "sdiv", "udiv", "srem", "urem",
    "and", "or", "xor", "shl", "lshr", "ashr",
)
FLOAT_BINARY_OPS = ("fadd", "fsub", "fmul", "fdiv", "frem")
BINARY_OPS = INT_BINARY_OPS + FLOAT_BINARY_OPS

CAST_OPS = (
    "bitcast", "zext", "sext", "trunc", "fptrunc", "fpext",
    "sitofp", "uitofp", "fptosi", "fptoui", "ptrtoint", "inttoptr",
)

TERMINATOR_OPS = ("br", "switch", "ret", "unreachable", "invoke")

MEMORY_OPS = ("alloca", "load", "store", "gep")

OTHER_OPS = ("icmp", "fcmp", "call", "select", "phi", "landingpad", "freeze")

ALL_OPCODES: Tuple[str, ...] = BINARY_OPS + CAST_OPS + TERMINATOR_OPS + MEMORY_OPS + OTHER_OPS

#: Opcodes whose first two operands may be swapped without changing semantics.
COMMUTATIVE_OPS = frozenset({"add", "mul", "and", "or", "xor", "fadd", "fmul"})

ICMP_PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge")
FCMP_PREDICATES = ("oeq", "one", "olt", "ole", "ogt", "oge", "ord", "uno")


class Instruction(Value):
    """A single IR instruction.

    Attributes:
        opcode: lower-case opcode string (member of :data:`ALL_OPCODES`).
        operands: ordered operand values.
        attrs: immediate (non-Value) attributes such as comparison
            predicates, allocated types or landing-pad clauses.
        parent: the :class:`~repro.ir.basicblock.BasicBlock` containing the
            instruction, or ``None`` while detached.
    """

    def __init__(self, opcode: str, vtype: ty.Type,
                 operands: Sequence[Value] = (),
                 attrs: Optional[Dict[str, object]] = None,
                 name: str = ""):
        super().__init__(vtype, name)
        if opcode not in ALL_OPCODES:
            raise ValueError(f"unknown opcode: {opcode!r}")
        self.opcode = opcode
        self.attrs: Dict[str, object] = dict(attrs or {})
        self.parent = None  # type: ignore[assignment]
        self.operands: List[Value] = []
        for op in operands:
            self.append_operand(op)

    # -- operand management -------------------------------------------------
    def append_operand(self, value: Value) -> None:
        self.operands.append(value)
        value.add_user(self)

    def set_operand(self, index: int, value: Value) -> None:
        old = self.operands[index]
        old.remove_user(self)
        self.operands[index] = value
        value.add_user(self)

    def drop_all_operands(self) -> None:
        for op in self.operands:
            op.remove_user(self)
        self.operands = []

    def replace_uses_of_with(self, old: Value, new: Value) -> None:
        for i, op in enumerate(self.operands):
            if op is old:
                self.set_operand(i, new)

    # -- classification ------------------------------------------------------
    @property
    def is_terminator(self) -> bool:
        return self.opcode in TERMINATOR_OPS

    @property
    def is_binary(self) -> bool:
        return self.opcode in BINARY_OPS

    @property
    def is_cast(self) -> bool:
        return self.opcode in CAST_OPS

    @property
    def is_commutative(self) -> bool:
        return self.opcode in COMMUTATIVE_OPS

    @property
    def is_memory(self) -> bool:
        return self.opcode in MEMORY_OPS

    @property
    def has_side_effects(self) -> bool:
        """Conservative side-effect classification used by DCE."""
        return self.opcode in ("store", "call", "invoke", "ret", "br", "switch",
                               "unreachable", "landingpad")

    @property
    def is_phi(self) -> bool:
        return self.opcode == "phi"

    # -- structural helpers ---------------------------------------------------
    def clone(self) -> "Instruction":
        """Return a detached copy with the same opcode, type, attributes and
        operand references."""
        cls = type(self)
        new = Instruction.__new__(cls)
        Value.__init__(new, self.type, self.name)
        new.opcode = self.opcode
        new.attrs = dict(self.attrs)
        new.parent = None
        new.operands = []
        for op in self.operands:
            new.append_operand(op)
        return new

    def erase_from_parent(self) -> None:
        """Remove this instruction from its block and drop operand uses."""
        if self.parent is not None:
            self.parent.remove(self)
        self.drop_all_operands()

    def block_operands(self) -> List[Value]:
        """Return the operands that are basic-block labels."""
        return [op for op in self.operands if op.type.is_label]

    def __str__(self) -> str:
        from .printer import instruction_to_str
        return instruction_to_str(self)


# ---------------------------------------------------------------------------
# Ergonomic subclasses
# ---------------------------------------------------------------------------

class BinaryOperator(Instruction):
    """Integer or floating-point binary arithmetic/logic."""

    def __init__(self, opcode: str, lhs: Value, rhs: Value, name: str = ""):
        if opcode not in BINARY_OPS:
            raise ValueError(f"not a binary opcode: {opcode}")
        super().__init__(opcode, lhs.type, [lhs, rhs], name=name)

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]


class ICmp(Instruction):
    """Integer / pointer comparison producing an ``i1``."""

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = ""):
        if predicate not in ICMP_PREDICATES:
            raise ValueError(f"bad icmp predicate: {predicate}")
        super().__init__("icmp", ty.I1, [lhs, rhs],
                         attrs={"predicate": predicate}, name=name)

    @property
    def predicate(self) -> str:
        return self.attrs["predicate"]  # type: ignore[return-value]


class FCmp(Instruction):
    """Floating-point comparison producing an ``i1``."""

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = ""):
        if predicate not in FCMP_PREDICATES:
            raise ValueError(f"bad fcmp predicate: {predicate}")
        super().__init__("fcmp", ty.I1, [lhs, rhs],
                         attrs={"predicate": predicate}, name=name)

    @property
    def predicate(self) -> str:
        return self.attrs["predicate"]  # type: ignore[return-value]


class Alloca(Instruction):
    """Stack allocation; the result is a pointer to the allocated type."""

    def __init__(self, allocated_type: ty.Type, name: str = ""):
        super().__init__("alloca", ty.pointer(allocated_type), [],
                         attrs={"allocated_type": allocated_type}, name=name)

    @property
    def allocated_type(self) -> ty.Type:
        return self.attrs["allocated_type"]  # type: ignore[return-value]


class Load(Instruction):
    """Load a value of the pointee type through a pointer operand."""

    def __init__(self, pointer_value: Value, name: str = ""):
        if not pointer_value.type.is_pointer:
            raise TypeError("load requires a pointer operand")
        super().__init__("load", pointer_value.type.pointee, [pointer_value], name=name)

    @property
    def pointer_operand(self) -> Value:
        return self.operands[0]


class Store(Instruction):
    """Store a value through a pointer operand (void result)."""

    def __init__(self, value: Value, pointer_value: Value):
        super().__init__("store", ty.VOID, [value, pointer_value])

    @property
    def value_operand(self) -> Value:
        return self.operands[0]

    @property
    def pointer_operand(self) -> Value:
        return self.operands[1]


class GetElementPtr(Instruction):
    """Pointer arithmetic over arrays and structs (``gep``)."""

    def __init__(self, source_type: ty.Type, base: Value,
                 indices: Sequence[Value], result_type: ty.Type, name: str = ""):
        super().__init__("gep", result_type, [base, *indices],
                         attrs={"source_type": source_type}, name=name)

    @property
    def base_pointer(self) -> Value:
        return self.operands[0]

    @property
    def indices(self) -> List[Value]:
        return self.operands[1:]

    @property
    def source_type(self) -> ty.Type:
        return self.attrs["source_type"]  # type: ignore[return-value]


class Call(Instruction):
    """Direct or indirect function call.  Operand 0 is the callee."""

    def __init__(self, callee: Value, args: Sequence[Value],
                 return_type: Optional[ty.Type] = None, name: str = ""):
        if return_type is None:
            fnty = getattr(callee, "function_type", None)
            if fnty is None and callee.type.is_pointer and callee.type.pointee.is_function:
                fnty = callee.type.pointee
            if fnty is None:
                raise TypeError("cannot infer call return type")
            return_type = fnty.return_type
        super().__init__("call", return_type, [callee, *args], name=name)

    @property
    def callee(self) -> Value:
        return self.operands[0]

    @property
    def args(self) -> List[Value]:
        return self.operands[1:]


class Invoke(Instruction):
    """A call with exceptional control flow.

    Operands: ``[callee, arg..., normal_dest, unwind_dest]``; the last two are
    basic-block labels, the unwind destination must be a landing block.
    """

    def __init__(self, callee: Value, args: Sequence[Value],
                 normal_dest: Value, unwind_dest: Value,
                 return_type: Optional[ty.Type] = None, name: str = ""):
        if return_type is None:
            fnty = getattr(callee, "function_type", None)
            if fnty is None:
                raise TypeError("cannot infer invoke return type")
            return_type = fnty.return_type
        super().__init__("invoke", return_type,
                         [callee, *args, normal_dest, unwind_dest], name=name)

    @property
    def callee(self) -> Value:
        return self.operands[0]

    @property
    def args(self) -> List[Value]:
        return self.operands[1:-2]

    @property
    def normal_dest(self) -> Value:
        return self.operands[-2]

    @property
    def unwind_dest(self) -> Value:
        return self.operands[-1]


class LandingPad(Instruction):
    """Landing-pad instruction heading a landing block.

    ``clauses`` encodes the list of exception/cleanup handlers as an opaque
    tuple of strings; two landing pads are equivalent only when their types
    and clause lists are identical (Section III-D of the paper).
    """

    def __init__(self, result_type: ty.Type = ty.TOKEN,
                 clauses: Sequence[str] = ("cleanup",), name: str = ""):
        super().__init__("landingpad", result_type, [],
                         attrs={"clauses": tuple(clauses)}, name=name)

    @property
    def clauses(self) -> Tuple[str, ...]:
        return self.attrs["clauses"]  # type: ignore[return-value]


class Branch(Instruction):
    """Conditional (``[cond, true_bb, false_bb]``) or unconditional
    (``[target]``) branch."""

    def __init__(self, *operands: Value):
        if len(operands) not in (1, 3):
            raise ValueError("branch takes 1 (uncond) or 3 (cond) operands")
        super().__init__("br", ty.VOID, list(operands))

    @property
    def is_conditional(self) -> bool:
        return len(self.operands) == 3

    @property
    def condition(self) -> Value:
        if not self.is_conditional:
            raise ValueError("unconditional branch has no condition")
        return self.operands[0]

    def targets(self) -> List[Value]:
        return self.operands[1:] if self.is_conditional else self.operands[:]


class Switch(Instruction):
    """Multi-way branch: ``[value, default_bb, caseval0, bb0, caseval1, bb1...]``."""

    def __init__(self, value: Value, default_dest: Value,
                 cases: Sequence[Tuple[Constant, Value]] = ()):
        flat: List[Value] = [value, default_dest]
        for case_value, dest in cases:
            flat.append(case_value)
            flat.append(dest)
        super().__init__("switch", ty.VOID, flat)

    @property
    def condition(self) -> Value:
        return self.operands[0]

    @property
    def default_dest(self) -> Value:
        return self.operands[1]

    def cases(self) -> List[Tuple[Value, Value]]:
        rest = self.operands[2:]
        return [(rest[i], rest[i + 1]) for i in range(0, len(rest), 2)]

    def add_case(self, case_value: Constant, dest: Value) -> None:
        self.append_operand(case_value)
        self.append_operand(dest)


class Return(Instruction):
    """Function return, optionally carrying a value."""

    def __init__(self, value: Optional[Value] = None):
        super().__init__("ret", ty.VOID, [] if value is None else [value])

    @property
    def return_value(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None


class Select(Instruction):
    """Ternary select: ``select cond, true_value, false_value``."""

    def __init__(self, cond: Value, true_value: Value, false_value: Value, name: str = ""):
        super().__init__("select", true_value.type,
                         [cond, true_value, false_value], name=name)

    @property
    def condition(self) -> Value:
        return self.operands[0]

    @property
    def true_value(self) -> Value:
        return self.operands[1]

    @property
    def false_value(self) -> Value:
        return self.operands[2]


class Cast(Instruction):
    """Any of the cast opcodes; result type is explicit."""

    def __init__(self, opcode: str, value: Value, to_type: ty.Type, name: str = ""):
        if opcode not in CAST_OPS:
            raise ValueError(f"not a cast opcode: {opcode}")
        super().__init__(opcode, to_type, [value], name=name)

    @property
    def source(self) -> Value:
        return self.operands[0]


class Phi(Instruction):
    """SSA phi node: ``[value0, block0, value1, block1, ...]``.

    The merging passes require phi-free input (the paper demotes phis to
    memory first); phis exist in the IR so that the ``reg2mem`` pass has
    something to demote and so that front-ends may use them.
    """

    def __init__(self, vtype: ty.Type, name: str = ""):
        super().__init__("phi", vtype, [], name=name)

    def add_incoming(self, value: Value, block: Value) -> None:
        self.append_operand(value)
        self.append_operand(block)

    def incoming(self) -> List[Tuple[Value, Value]]:
        return [(self.operands[i], self.operands[i + 1])
                for i in range(0, len(self.operands), 2)]


class Unreachable(Instruction):
    """Marks unreachable control flow."""

    def __init__(self):
        super().__init__("unreachable", ty.VOID, [])


class Freeze(Instruction):
    """Pass-through of a possibly-undef value (kept for IR completeness)."""

    def __init__(self, value: Value, name: str = ""):
        super().__init__("freeze", value.type, [value], name=name)
