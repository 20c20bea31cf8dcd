"""Core value hierarchy of the mini-IR.

Everything that can appear as an instruction operand is a :class:`Value`:
constants, function arguments, global variables, basic blocks (as labels),
functions (as callees) and instructions themselves (their results).

Values track their users so that ``replace_all_uses_with`` and dead-code
elimination can be implemented efficiently.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from . import types as ty

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .instructions import Instruction


class Value:
    """Base class of every IR value."""

    #: Overridden by :class:`Constant` (a class attribute, like the type
    #: flags in :mod:`repro.ir.types`).
    is_constant = False

    def __init__(self, vtype: ty.Type, name: str = ""):
        self.type = vtype
        self.name = name
        #: Instructions that currently use this value as an operand.  A user
        #: appears once per distinct operand slot referencing this value.
        self.users: List["Instruction"] = []

    # -- use-def maintenance ------------------------------------------------
    def add_user(self, user: "Instruction") -> None:
        self.users.append(user)

    def remove_user(self, user: "Instruction") -> None:
        try:
            self.users.remove(user)
        except ValueError:
            pass

    def replace_all_uses_with(self, new_value: "Value") -> None:
        """Rewrite every operand slot that references ``self`` to point at
        ``new_value`` instead."""
        if new_value is self:
            return
        for user in list(self.users):
            user.replace_uses_of_with(self, new_value)

    def short_name(self) -> str:
        return self.name or f"<{self.__class__.__name__.lower()}>"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.__class__.__name__} {self.short_name()}: {self.type}>"


class Constant(Value):
    """Base class for immutable, context-free values."""

    is_constant = True

    def constant_key(self) -> tuple:
        """A hashable key identifying this constant (used for structural
        hashing and equality between constants)."""
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return (type(other) is type(self)
                and other.constant_key() == self.constant_key())  # type: ignore[union-attr]

    def __hash__(self) -> int:
        return hash(self.constant_key())


class ConstantInt(Constant):
    """An integer constant of a specific integer type."""

    def __init__(self, vtype: ty.IntType, value: int):
        super().__init__(vtype)
        mask = (1 << vtype.bits) - 1
        self.value = value & mask
        # interpret as two's complement for convenience
        if self.value >= (1 << (vtype.bits - 1)) and vtype.bits > 1:
            self.signed_value = self.value - (1 << vtype.bits)
        else:
            self.signed_value = self.value

    def constant_key(self) -> tuple:
        return ("int", self.type.size_bits(), self.value)

    def __str__(self) -> str:
        return f"{self.type} {self.signed_value}"


class ConstantFloat(Constant):
    """A floating-point constant."""

    def __init__(self, vtype: ty.FloatType, value: float):
        super().__init__(vtype)
        self.value = float(value)

    def constant_key(self) -> tuple:
        return ("float", self.type.size_bits(), self.value)

    def __str__(self) -> str:
        return f"{self.type} {self.value}"


class ConstantNull(Constant):
    """The null pointer constant of a given pointer type."""

    def __init__(self, vtype: ty.PointerType):
        super().__init__(vtype)

    def constant_key(self) -> tuple:
        return ("null",)

    def __str__(self) -> str:
        return f"{self.type} null"


class UndefValue(Constant):
    """An undefined value: used for unused merged parameters and void-return
    placeholders, exactly as in the paper's code generation."""

    def __init__(self, vtype: ty.Type):
        super().__init__(vtype)

    def constant_key(self) -> tuple:
        return ("undef", str(self.type))

    def __str__(self) -> str:
        return f"{self.type} undef"


class ConstantString(Constant):
    """A constant byte string (used by globals for string literals)."""

    def __init__(self, data: str):
        super().__init__(ty.pointer(ty.I8))
        self.data = data

    def constant_key(self) -> tuple:
        return ("str", self.data)

    def __str__(self) -> str:
        return f'i8* c"{self.data}"'


class Argument(Value):
    """A formal parameter of a function."""

    def __init__(self, vtype: ty.Type, name: str, index: int, parent=None):
        super().__init__(vtype, name)
        self.index = index
        self.parent = parent

    def __str__(self) -> str:
        return f"{self.type} %{self.name}"


class GlobalVariable(Value):
    """A module-level variable.  Its value is the *address* of the storage,
    so the type of the value is a pointer to the declared content type."""

    def __init__(self, name: str, content_type: ty.Type,
                 initializer: Optional[Constant] = None,
                 is_constant: bool = False):
        super().__init__(ty.pointer(content_type), name)
        self.content_type = content_type
        self.initializer = initializer
        self.is_constant_global = is_constant

    def __str__(self) -> str:
        return f"@{self.name}"


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------

def const_int(value: int, bits: int = 32) -> ConstantInt:
    return ConstantInt(ty.int_type(bits), value)


def const_bool(value: bool) -> ConstantInt:
    return ConstantInt(ty.I1, 1 if value else 0)


def const_float(value: float, bits: int = 64) -> ConstantFloat:
    return ConstantFloat(ty.FloatType(bits), value)


def const_null(pointee: ty.Type) -> ConstantNull:
    return ConstantNull(ty.pointer(pointee))


def undef(vtype: ty.Type) -> UndefValue:
    return UndefValue(vtype)
