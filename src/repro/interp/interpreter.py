"""A reference interpreter for the mini-IR.

The interpreter serves as the ground truth for semantic equivalence: tests
execute an original function and its merged replacement on the same inputs
and require identical results and observable memory effects.  It also
collects execution profiles (dynamic instruction counts per function and per
block) used by the runtime-overhead experiment and by the profile-guided
hot-function exclusion.

Supported: all integer/float arithmetic, comparisons, memory operations with
a byte-accurate layout, direct and indirect calls, external functions
registered as Python callables, ``invoke``/``landingpad`` exception flow,
``switch``, ``select``, casts and phi nodes.
"""

from __future__ import annotations

import struct as _struct
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..ir import types as ty
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import Instruction
from ..ir.module import Module
from ..ir.values import (ConstantFloat, ConstantInt, ConstantNull, ConstantString,
                         GlobalVariable, UndefValue, Value)
from .memory import Memory
from .profile import ModuleProfile


class InterpreterError(Exception):
    """Raised on malformed IR or unsupported runtime behaviour."""


class IRException(Exception):
    """An in-IR exception: thrown by external functions, caught by invokes."""

    def __init__(self, payload=0):
        super().__init__(f"IR exception (payload={payload})")
        self.payload = payload


class Timeout(InterpreterError):
    """Raised when execution exceeds the configured fuel."""


ExternalFn = Callable[["Interpreter", List[object]], object]


def _to_signed(value: int, bits: int) -> int:
    value &= (1 << bits) - 1
    if bits > 0 and value >= (1 << (bits - 1)):
        return value - (1 << bits)
    return value


def _wrap(value: int, bits: int) -> int:
    return value & ((1 << bits) - 1)


class Interpreter:
    """Executes functions of one module."""

    def __init__(self, module: Module,
                 externals: Optional[Dict[str, ExternalFn]] = None,
                 fuel: int = 2_000_000):
        self.module = module
        self.externals: Dict[str, ExternalFn] = dict(externals or {})
        self.memory = Memory()
        self.fuel = fuel
        self._steps = 0
        self.profile = ModuleProfile()
        self._globals: Dict[str, int] = {}
        self._string_cache: Dict[str, int] = {}
        self._init_globals()

    # -- setup -------------------------------------------------------------------
    def _init_globals(self) -> None:
        for gv in self.module.globals:
            address = self.memory.allocate_type(gv.content_type)
            self._globals[gv.name] = address
            init = gv.initializer
            if isinstance(init, (ConstantInt,)):
                self.memory.store(address, init.type, init.value)
            elif isinstance(init, ConstantFloat):
                self.memory.store(address, init.type, init.value)
            elif isinstance(init, ConstantString):
                data = init.data.encode() + b"\x00"
                base = self.memory.allocate(len(data))
                self.memory.write_bytes(base, data)
                self.memory.store(address, ty.pointer(ty.I8), base)

    def register_external(self, name: str, fn: ExternalFn) -> None:
        self.externals[name] = fn

    def reset_profile(self) -> None:
        self.profile = ModuleProfile()

    # -- value resolution --------------------------------------------------------
    def _resolve(self, value: Value, frame: Dict[int, object]) -> object:
        if isinstance(value, ConstantInt):
            return value.value
        if isinstance(value, ConstantFloat):
            return value.value
        if isinstance(value, ConstantNull):
            return 0
        if isinstance(value, UndefValue):
            return 0.0 if value.type.is_float else 0
        if isinstance(value, ConstantString):
            if value.data not in self._string_cache:
                data = value.data.encode() + b"\x00"
                base = self.memory.allocate(len(data))
                self.memory.write_bytes(base, data)
                self._string_cache[value.data] = base
            return self._string_cache[value.data]
        if isinstance(value, GlobalVariable):
            return self._globals.setdefault(
                value.name, self.memory.allocate_type(value.content_type))
        if isinstance(value, Function):
            return value
        key = id(value)
        if key not in frame:
            raise InterpreterError(f"use of undefined value {value!r}")
        return frame[key]

    # -- public API --------------------------------------------------------------
    def run(self, function: Union[str, Function], args: Sequence[object] = ()) -> object:
        """Execute ``function`` with the given Python-level arguments and
        return its result (``None`` for void)."""
        if isinstance(function, str):
            found = self.module.get_function(function)
            if found is None:
                raise InterpreterError(f"no function named {function!r}")
            function = found
        self._steps = 0
        return self._call(function, list(args))

    # -- execution ------------------------------------------------------------------
    def _call(self, function: Function, args: List[object]) -> object:
        if function.is_declaration:
            return self._call_external(function, args)

        fn_profile = self.profile.for_function(function.name)
        fn_profile.call_count += 1

        frame: Dict[int, object] = {}
        for arg, value in zip(function.arguments, args):
            frame[id(arg)] = value
        for arg in function.arguments[len(args):]:
            frame[id(arg)] = 0.0 if arg.type.is_float else 0

        block = function.entry_block
        prev_block: Optional[BasicBlock] = None
        while True:
            executed = 0
            next_block: Optional[BasicBlock] = None
            return_value: object = None
            returned = False
            for inst in list(block.instructions):
                self._steps += 1
                executed += 1
                if self._steps > self.fuel:
                    raise Timeout(f"exceeded fuel of {self.fuel} steps")
                outcome = self._execute(inst, frame, prev_block)
                if outcome is None:
                    continue
                kind, payload = outcome
                if kind == "branch":
                    next_block = payload
                    break
                if kind == "return":
                    return_value = payload
                    returned = True
                    break
            fn_profile.record_block(block.name, executed)
            if returned:
                return return_value
            if next_block is None:
                raise InterpreterError(
                    f"block {function.name}/{block.name} fell through without a terminator")
            prev_block, block = block, next_block

    def _call_external(self, function: Function, args: List[object]) -> object:
        handler = self.externals.get(function.name)
        if handler is None:
            raise InterpreterError(
                f"call to unresolved external function {function.name!r}; "
                f"register it via Interpreter(externals={{...}})")
        return handler(self, args)

    # -- instruction dispatch ----------------------------------------------------------
    def _execute(self, inst: Instruction, frame: Dict[int, object],
                 prev_block: Optional[BasicBlock]):
        opcode = inst.opcode

        if opcode == "br":
            if len(inst.operands) == 1:
                return "branch", inst.operands[0]
            cond = self._resolve(inst.operands[0], frame)
            return "branch", inst.operands[1] if cond & 1 else inst.operands[2]

        if opcode == "switch":
            value = self._resolve(inst.operands[0], frame)
            rest = inst.operands[2:]
            for i in range(0, len(rest), 2):
                case_value = self._resolve(rest[i], frame)
                if case_value == value:
                    return "branch", rest[i + 1]
            return "branch", inst.operands[1]

        if opcode == "ret":
            if not inst.operands:
                return "return", None
            return "return", self._resolve(inst.operands[0], frame)

        if opcode == "unreachable":
            raise InterpreterError("executed 'unreachable'")

        if opcode == "phi":
            for value, block in zip(inst.operands[0::2], inst.operands[1::2]):
                if block is prev_block:
                    frame[id(inst)] = self._resolve(value, frame)
                    return None
            raise InterpreterError("phi has no incoming entry for the predecessor")

        if opcode in ("call", "invoke"):
            return self._execute_call(inst, frame)

        if opcode == "landingpad":
            # the payload was deposited by the invoke dispatcher
            frame[id(inst)] = frame.pop("__exception_payload__", 0)
            return None

        frame[id(inst)] = self._evaluate(inst, frame)
        return None

    def _execute_call(self, inst: Instruction, frame: Dict[int, object]):
        callee = self._resolve(inst.operands[0], frame)
        if inst.opcode == "call":
            args = [self._resolve(op, frame) for op in inst.operands[1:]]
        else:
            args = [self._resolve(op, frame) for op in inst.operands[1:-2]]

        if not isinstance(callee, Function):
            raise InterpreterError("indirect call target did not resolve to a function")

        if inst.opcode == "call":
            result = self._call(callee, args)
            if not inst.type.is_void:
                frame[id(inst)] = result
            return None

        # invoke: exceptions transfer to the unwind destination
        normal_dest, unwind_dest = inst.operands[-2], inst.operands[-1]
        try:
            result = self._call(callee, args)
        except IRException as exc:
            frame["__exception_payload__"] = exc.payload
            return "branch", unwind_dest
        if not inst.type.is_void:
            frame[id(inst)] = result
        return "branch", normal_dest

    # -- expression evaluation -------------------------------------------------------
    def _evaluate(self, inst: Instruction, frame: Dict[int, object]) -> object:
        opcode = inst.opcode
        resolve = lambda i: self._resolve(inst.operands[i], frame)  # noqa: E731

        if opcode == "alloca":
            return self.memory.allocate_type(inst.attrs["allocated_type"])
        if opcode == "load":
            return self.memory.load(resolve(0), inst.type)
        if opcode == "store":
            pointer = resolve(1)
            self.memory.store(pointer, inst.operands[0].type, resolve(0))
            return None
        if opcode == "gep":
            return self._evaluate_gep(inst, frame)
        if opcode == "select":
            return resolve(1) if resolve(0) & 1 else resolve(2)
        if opcode == "freeze":
            return resolve(0)
        if opcode == "icmp":
            return self._evaluate_icmp(inst, frame)
        if opcode == "fcmp":
            return self._evaluate_fcmp(inst, frame)
        if inst.is_binary:
            return self._evaluate_binary(inst, frame)
        if inst.is_cast:
            return self._evaluate_cast(inst, frame)
        raise InterpreterError(f"unsupported opcode {opcode!r}")

    def _evaluate_gep(self, inst: Instruction, frame: Dict[int, object]) -> int:
        base = self._resolve(inst.operands[0], frame)
        indices = [self._resolve(op, frame) for op in inst.operands[1:]]
        source_type: ty.Type = inst.attrs["source_type"]
        offset = 0
        if indices:
            first = _to_signed(int(indices[0]), 64)
            offset += first * source_type.size_bytes()
        current: ty.Type = source_type
        for raw_index in indices[1:]:
            index = _to_signed(int(raw_index), 64)
            if isinstance(current, ty.ArrayType):
                offset += index * current.element.size_bytes()
                current = current.element
            elif isinstance(current, ty.StructType):
                offset += current.field_offset_bytes(index)
                current = current.fields[index]
            else:
                offset += index * current.size_bytes()
        return int(base) + offset

    def _evaluate_icmp(self, inst: Instruction, frame: Dict[int, object]) -> int:
        a = self._resolve(inst.operands[0], frame)
        b = self._resolve(inst.operands[1], frame)
        bits = max(1, inst.operands[0].type.size_bits())
        predicate = inst.attrs["predicate"]
        if predicate in ("slt", "sle", "sgt", "sge"):
            a, b = _to_signed(int(a), bits), _to_signed(int(b), bits)
        else:
            a, b = _wrap(int(a), bits), _wrap(int(b), bits)
        result = {
            "eq": a == b, "ne": a != b,
            "slt": a < b, "sle": a <= b, "sgt": a > b, "sge": a >= b,
            "ult": a < b, "ule": a <= b, "ugt": a > b, "uge": a >= b,
        }[predicate]
        return 1 if result else 0

    def _evaluate_fcmp(self, inst: Instruction, frame: Dict[int, object]) -> int:
        a = float(self._resolve(inst.operands[0], frame))
        b = float(self._resolve(inst.operands[1], frame))
        predicate = inst.attrs["predicate"]
        is_nan = (a != a) or (b != b)
        result = {
            "oeq": not is_nan and a == b, "one": not is_nan and a != b,
            "olt": not is_nan and a < b, "ole": not is_nan and a <= b,
            "ogt": not is_nan and a > b, "oge": not is_nan and a >= b,
            "ord": not is_nan, "uno": is_nan,
        }[predicate]
        return 1 if result else 0

    def _evaluate_binary(self, inst: Instruction, frame: Dict[int, object]) -> object:
        a = self._resolve(inst.operands[0], frame)
        b = self._resolve(inst.operands[1], frame)
        opcode = inst.opcode
        if opcode.startswith("f"):
            a, b = float(a), float(b)
            if opcode == "fadd":
                return a + b
            if opcode == "fsub":
                return a - b
            if opcode == "fmul":
                return a * b
            if opcode == "fdiv":
                return a / b if b != 0 else float("inf")
            if opcode == "frem":
                return a - b * int(a / b) if b != 0 else float("nan")
        bits = max(1, inst.type.size_bits())
        a, b = int(a), int(b)
        if opcode == "add":
            return _wrap(a + b, bits)
        if opcode == "sub":
            return _wrap(a - b, bits)
        if opcode == "mul":
            return _wrap(a * b, bits)
        if opcode in ("sdiv", "srem"):
            sa, sb = _to_signed(a, bits), _to_signed(b, bits)
            if sb == 0:
                raise InterpreterError("signed division by zero")
            quotient = int(sa / sb)
            return _wrap(quotient if opcode == "sdiv" else sa - sb * quotient, bits)
        if opcode in ("udiv", "urem"):
            ua, ub = _wrap(a, bits), _wrap(b, bits)
            if ub == 0:
                raise InterpreterError("unsigned division by zero")
            return _wrap(ua // ub if opcode == "udiv" else ua % ub, bits)
        if opcode == "and":
            return _wrap(a & b, bits)
        if opcode == "or":
            return _wrap(a | b, bits)
        if opcode == "xor":
            return _wrap(a ^ b, bits)
        if opcode == "shl":
            return _wrap(a << (b % bits), bits)
        if opcode == "lshr":
            return _wrap(_wrap(a, bits) >> (b % bits), bits)
        if opcode == "ashr":
            return _wrap(_to_signed(a, bits) >> (b % bits), bits)
        raise InterpreterError(f"unsupported binary opcode {opcode!r}")

    def _evaluate_cast(self, inst: Instruction, frame: Dict[int, object]) -> object:
        value = self._resolve(inst.operands[0], frame)
        from_type = inst.operands[0].type
        to_type = inst.type
        opcode = inst.opcode
        if opcode == "bitcast":
            return self._bitcast(value, from_type, to_type)
        if opcode == "zext":
            return _wrap(int(value), to_type.size_bits())
        if opcode == "sext":
            return _wrap(_to_signed(int(value), from_type.size_bits()), to_type.size_bits())
        if opcode == "trunc":
            return _wrap(int(value), to_type.size_bits())
        if opcode in ("fptrunc", "fpext"):
            result = float(value)
            if to_type.size_bits() == 32:
                result = _struct.unpack("<f", _struct.pack("<f", result))[0]
            return result
        if opcode in ("sitofp",):
            return float(_to_signed(int(value), from_type.size_bits()))
        if opcode == "uitofp":
            return float(_wrap(int(value), from_type.size_bits()))
        if opcode in ("fptosi", "fptoui"):
            return _wrap(int(float(value)), to_type.size_bits())
        if opcode in ("ptrtoint", "inttoptr"):
            return int(value)
        raise InterpreterError(f"unsupported cast {opcode!r}")

    @staticmethod
    def _bitcast(value, from_type: ty.Type, to_type: ty.Type):
        """Reinterpret a scalar's bits as another type of the same width."""
        if from_type == to_type:
            return value
        if from_type.is_pointer and to_type.is_pointer:
            return value
        width = from_type.size_bits()
        if from_type.is_float and to_type.is_integer:
            fmt = "<f" if width == 32 else "<d"
            return int.from_bytes(_struct.pack(fmt, float(value)), "little")
        if from_type.is_integer and to_type.is_float:
            fmt = "<f" if to_type.size_bits() == 32 else "<d"
            return _struct.unpack(fmt, int(value).to_bytes(width // 8, "little"))[0]
        if from_type.is_integer and to_type.is_integer:
            return _wrap(int(value), to_type.size_bits())
        if from_type.is_float and to_type.is_float:
            return float(value)
        if from_type.is_pointer or to_type.is_pointer:
            return int(value) if not isinstance(value, Function) else value
        raise InterpreterError(f"unsupported bitcast {from_type} -> {to_type}")


# ---------------------------------------------------------------------------
# Common external functions used by examples and workloads
# ---------------------------------------------------------------------------

def standard_externals() -> Dict[str, ExternalFn]:
    """A small "libc" for the interpreter: malloc/free/abs/printf-as-no-op."""

    def _malloc(interp: Interpreter, args: List[object]) -> int:
        return interp.memory.allocate(int(args[0]) if args else 8)

    def _free(interp: Interpreter, args: List[object]) -> None:
        return None

    def _abs(interp: Interpreter, args: List[object]) -> int:
        return abs(int(args[0]))

    def _printf(interp: Interpreter, args: List[object]) -> int:
        return 0

    def _throw(interp: Interpreter, args: List[object]) -> None:
        raise IRException(args[0] if args else 0)

    return {
        "malloc": _malloc, "mymalloc": _malloc, "free": _free,
        "abs": _abs, "printf": _printf, "puts": _printf,
        "__throw_exception": _throw,
    }
