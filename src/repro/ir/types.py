"""Type system for the mini-IR.

The IR is a simplified, typed, LLVM-like intermediate representation.  Types
are immutable value objects: two types compare equal iff they are structurally
identical.  Commonly used scalar types are exposed as module-level singletons
(``I1``, ``I8``, ``I32``, ``I64``, ``FLOAT``, ``DOUBLE``, ``VOID``).

The paper's equivalence relation over types ("equivalent if they can be
bitcast in a lossless way") is implemented by :func:`can_losslessly_bitcast`.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple


class Type:
    """Base class for all IR types."""

    #: Number of bits occupied by a value of this type when lowered.  ``0``
    #: for void/label/token types which have no runtime representation.
    def size_bits(self) -> int:
        raise NotImplementedError

    def size_bytes(self) -> int:
        """Size in bytes, rounded up to the next whole byte."""
        return (self.size_bits() + 7) // 8

    # -- classification flags ---------------------------------------------
    # Plain class attributes, overridden per subclass: the compile path asks
    # these millions of times, so they are attribute reads, not calls.
    is_void = False
    is_integer = False
    is_float = False
    is_pointer = False
    is_aggregate = False
    is_label = False
    is_function = False
    #: True for types that can be produced by an instruction.
    is_first_class = True

    def __eq__(self, other: object) -> bool:  # pragma: no cover - trivial
        return isinstance(other, Type) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _key(self) -> tuple:
        raise NotImplementedError

    def __repr__(self) -> str:
        return str(self)


class VoidType(Type):
    """The void type: only valid as a function return type."""

    is_void = True
    is_first_class = False

    def size_bits(self) -> int:
        return 0

    def _key(self) -> tuple:
        return ("void",)

    def __str__(self) -> str:
        return "void"


class LabelType(Type):
    """Type of basic-block labels."""

    is_label = True
    is_first_class = False

    def size_bits(self) -> int:
        return 0

    def _key(self) -> tuple:
        return ("label",)

    def __str__(self) -> str:
        return "label"


class TokenType(Type):
    """Type produced by landing-pad instructions (exception payload)."""

    def size_bits(self) -> int:
        return 64

    def _key(self) -> tuple:
        return ("token",)

    def __str__(self) -> str:
        return "token"


class IntType(Type):
    """An integer type of arbitrary bit-width (i1, i8, i16, i32, i64...)."""

    is_integer = True

    def __init__(self, bits: int):
        if bits <= 0:
            raise ValueError(f"integer width must be positive, got {bits}")
        self.bits = bits

    def size_bits(self) -> int:
        return self.bits

    def _key(self) -> tuple:
        return ("int", self.bits)

    def __str__(self) -> str:
        return f"i{self.bits}"


class FloatType(Type):
    """An IEEE floating point type (float: 32 bits, double: 64 bits)."""

    is_float = True

    def __init__(self, bits: int):
        if bits not in (16, 32, 64, 128):
            raise ValueError(f"unsupported float width: {bits}")
        self.bits = bits

    def size_bits(self) -> int:
        return self.bits

    def _key(self) -> tuple:
        return ("float", self.bits)

    def __str__(self) -> str:
        return {16: "half", 32: "float", 64: "double", 128: "fp128"}[self.bits]


#: Pointer width used by both modelled targets.
POINTER_BITS = 64


class PointerType(Type):
    """A typed pointer.  All pointers have the same lowered size."""

    is_pointer = True

    def __init__(self, pointee: Type):
        self.pointee = pointee

    def size_bits(self) -> int:
        return POINTER_BITS

    def _key(self) -> tuple:
        return ("ptr", self.pointee._key())

    def __str__(self) -> str:
        return f"{self.pointee}*"


class ArrayType(Type):
    """A fixed-length homogeneous array."""

    is_aggregate = True

    def __init__(self, element: Type, count: int):
        if count < 0:
            raise ValueError("array length must be non-negative")
        self.element = element
        self.count = count

    def size_bits(self) -> int:
        return self.element.size_bits() * self.count

    def _key(self) -> tuple:
        return ("array", self.element._key(), self.count)

    def __str__(self) -> str:
        return f"[{self.count} x {self.element}]"


class StructType(Type):
    """A structure type with named-or-anonymous, ordered fields."""

    is_aggregate = True

    def __init__(self, fields: Sequence[Type], name: Optional[str] = None):
        self.fields: Tuple[Type, ...] = tuple(fields)
        self.name = name

    def size_bits(self) -> int:
        return sum(f.size_bits() for f in self.fields)

    def field_offset_bytes(self, index: int) -> int:
        """Byte offset of field ``index`` (packed layout, no padding)."""
        return sum(f.size_bytes() for f in self.fields[:index])

    def _key(self) -> tuple:
        if self.name is not None:
            return ("struct", self.name)
        return ("struct", tuple(f._key() for f in self.fields))

    def __str__(self) -> str:
        if self.name:
            return f"%{self.name}"
        inner = ", ".join(str(f) for f in self.fields)
        return "{" + inner + "}"


class FunctionType(Type):
    """A function signature: return type plus ordered parameter types."""

    is_function = True
    is_first_class = False

    def __init__(self, return_type: Type, param_types: Iterable[Type],
                 is_vararg: bool = False):
        self.return_type = return_type
        self.param_types: Tuple[Type, ...] = tuple(param_types)
        self.is_vararg = is_vararg

    def size_bits(self) -> int:
        return 0

    def _key(self) -> tuple:
        return ("fn", self.return_type._key(),
                tuple(p._key() for p in self.param_types), self.is_vararg)

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.param_types)
        if self.is_vararg:
            params = params + ", ..." if params else "..."
        return f"{self.return_type} ({params})"


# ---------------------------------------------------------------------------
# Common singletons and small factories
# ---------------------------------------------------------------------------

VOID = VoidType()
LABEL = LabelType()
TOKEN = TokenType()
I1 = IntType(1)
I8 = IntType(8)
I16 = IntType(16)
I32 = IntType(32)
I64 = IntType(64)
FLOAT = FloatType(32)
DOUBLE = FloatType(64)


def int_type(bits: int) -> IntType:
    """Return the integer type of the given width."""
    return {1: I1, 8: I8, 16: I16, 32: I32, 64: I64}.get(bits) or IntType(bits)


def pointer(pointee: Type) -> PointerType:
    """Return a pointer type to ``pointee``."""
    return PointerType(pointee)


def array(element: Type, count: int) -> ArrayType:
    return ArrayType(element, count)


def struct(fields: Sequence[Type], name: Optional[str] = None) -> StructType:
    return StructType(fields, name)


def function_type(return_type: Type, params: Iterable[Type],
                  is_vararg: bool = False) -> FunctionType:
    return FunctionType(return_type, params, is_vararg)


# ---------------------------------------------------------------------------
# Type equivalence used by the merger
# ---------------------------------------------------------------------------

def can_losslessly_bitcast(a: Type, b: Type) -> bool:
    """Return True if a value of type ``a`` can be reinterpreted as ``b``
    without losing information.

    This mirrors the notion of type equivalence used by the paper: two types
    are equivalent when they have identical lowered sizes and compatible
    first-class kinds.  Pointers are mutually bitcastable regardless of the
    pointee type; integers and floats are bitcastable when their widths
    match.  Void and label types are only equivalent to themselves.
    """
    if a == b:
        return True
    if a.is_pointer and b.is_pointer:
        return True
    if not a.is_first_class or not b.is_first_class:
        return False
    if a.is_aggregate or b.is_aggregate:
        return False
    return a.size_bits() == b.size_bits()


def larger_type(a: Type, b: Type) -> Type:
    """Return the larger of two first-class types (ties favour ``a``).

    Used when merging differing return types: the paper selects the largest
    type as the base return type of the merged function.
    """
    if a.is_void:
        return b
    if b.is_void:
        return a
    return a if a.size_bits() >= b.size_bits() else b
