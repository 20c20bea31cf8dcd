"""Equivalence relation over linearized entries (Section III-D).

Two *instructions* are equivalent when

1. their opcodes are semantically equivalent (here: identical, plus identical
   immediate attributes such as comparison predicates),
2. their result types are equivalent, and
3. their operands have pairwise equivalent types.

Types are equivalent when they can be bitcast losslessly
(:func:`repro.ir.types.can_losslessly_bitcast`), with the extra pointer
alignment caveat handled by requiring that loads/stores/allocas/geps agree on
the *size* of the accessed type.  Calls additionally require identical callee
function types.

Labels of normal basic blocks always match each other; landing blocks only
match landing blocks whose landing-pad instructions have identical types and
clause lists.

Because every clause of the relation is an equality over *derived* attributes
(opcode, operand count, type bitcast classes, immediate attributes), the
relation is a true equivalence relation and each entry can be summarised by a
canonical **equivalence key**: two entries are equivalent iff their keys are
equal.  :class:`EquivalenceKeyInterner` maps those keys to small integers so
the alignment inner loop degenerates to an int compare instead of a recursive
structural walk (the hot-path optimisation used by the merge engine).  The
single non-reflexive corner - calls whose callee function type cannot be
determined are equivalent to nothing, not even themselves - is preserved by
assigning such entries a fresh, never-reused key.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..ir import types as ty
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import Instruction
from .linearizer import LinearEntry


def types_equivalent(a: ty.Type, b: ty.Type) -> bool:
    """Type equivalence used throughout the merger."""
    return ty.can_losslessly_bitcast(a, b)


def _callee_function_type(inst: Instruction):
    callee = inst.operands[0]
    fnty = getattr(callee, "function_type", None)
    if fnty is None and callee.type.is_pointer and callee.type.pointee.is_function:
        fnty = callee.type.pointee
    return fnty


def _accessed_type_size(inst: Instruction) -> int:
    """Size in bits of the memory location an instruction touches."""
    if inst.opcode == "alloca":
        return inst.attrs["allocated_type"].size_bits()  # type: ignore[union-attr]
    if inst.opcode == "load":
        return inst.type.size_bits()
    if inst.opcode == "store":
        return inst.operands[0].type.size_bits()
    return 0


def instructions_equivalent(a: Instruction, b: Instruction) -> bool:
    """The instruction-level equivalence relation used for alignment."""
    if a.opcode != b.opcode:
        return False
    if len(a.operands) != len(b.operands):
        return False
    if not types_equivalent(a.type, b.type):
        return False

    # Immediate attributes must agree: comparison predicates, landing-pad
    # clauses, gep source types (index scaling), alloca allocated types.
    if a.opcode in ("icmp", "fcmp"):
        if a.attrs.get("predicate") != b.attrs.get("predicate"):
            return False
    if a.opcode == "landingpad":
        if a.attrs.get("clauses") != b.attrs.get("clauses") or a.type != b.type:
            return False
    if a.opcode == "gep":
        if a.attrs.get("source_type") != b.attrs.get("source_type"):
            return False
    if a.opcode == "alloca":
        if _accessed_type_size(a) != _accessed_type_size(b):
            return False
    if a.opcode in ("load", "store"):
        # avoid conflicting memory access widths (alignment/size conflicts)
        if _accessed_type_size(a) != _accessed_type_size(b):
            return False

    # Calls and invokes: both must have identical function types (identical
    # return type and identical parameter list), per the paper.
    if a.opcode in ("call", "invoke"):
        fa, fb = _callee_function_type(a), _callee_function_type(b)
        if fa is None or fb is None or fa != fb:
            return False

    # Operand types must be pairwise equivalent.  Label operands only match
    # label operands.
    for oa, ob in zip(a.operands, b.operands):
        if isinstance(oa, BasicBlock) != isinstance(ob, BasicBlock):
            return False
        if isinstance(oa, BasicBlock):
            if not labels_equivalent(oa, ob):
                return False
            continue
        if isinstance(oa, Function) != isinstance(ob, Function):
            return False
        if not types_equivalent(oa.type, ob.type):
            return False
    return True


def labels_equivalent(a: BasicBlock, b: BasicBlock) -> bool:
    """Label equivalence: normal blocks always match; landing blocks must
    carry identical landing pads (type + clauses)."""
    a_landing = a.is_landing_block
    b_landing = b.is_landing_block
    if a_landing != b_landing:
        return False
    if not a_landing:
        return True
    lp_a = a.instructions[0]
    lp_b = b.instructions[0]
    return (lp_a.type == lp_b.type
            and lp_a.attrs.get("clauses") == lp_b.attrs.get("clauses"))


def entries_equivalent(a: LinearEntry, b: LinearEntry) -> bool:
    """Equivalence over linearized entries: the relation the aligner uses."""
    if a.is_label != b.is_label:
        return False
    if a.is_label:
        return labels_equivalent(a.value, b.value)  # type: ignore[arg-type]
    return instructions_equivalent(a.value, b.value)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Canonical equivalence keys (the fast-kernel representation)
# ---------------------------------------------------------------------------

def type_equivalence_key(vtype: ty.Type) -> tuple:
    """Canonical key of a type's :func:`~repro.ir.types.can_losslessly_bitcast`
    equivalence class.

    First-class non-aggregate types (ints, floats, pointers, tokens) are
    mutually bitcastable exactly when their lowered sizes agree, so their
    class is the size alone; everything else (void, labels, function types,
    aggregates) is only equivalent to a structurally identical type.
    """
    if vtype.is_first_class and not vtype.is_aggregate:
        return ("fc", vtype.size_bits())
    return vtype._key()


def label_equivalence_key(block: BasicBlock) -> tuple:
    """Canonical key of a basic block under :func:`labels_equivalent`."""
    if not block.is_landing_block:
        return ("block",)
    lp = block.instructions[0]
    return ("landing", lp.type._key(), lp.attrs.get("clauses"))


def _attr_key(value) -> object:
    """Hashable stand-in for an immediate attribute (types keyed structurally)."""
    if isinstance(value, ty.Type):
        return value._key()
    return value


def instruction_equivalence_key(inst: Instruction) -> Optional[tuple]:
    """Canonical key of an instruction under :func:`instructions_equivalent`,
    or ``None`` when the instruction is equivalent to nothing (a call whose
    callee function type cannot be determined)."""
    opcode = inst.opcode
    parts: List[object] = [opcode, len(inst.operands),
                           type_equivalence_key(inst.type)]
    if opcode in ("icmp", "fcmp"):
        parts.append(inst.attrs.get("predicate"))
    elif opcode == "landingpad":
        # exact (not bitcast-class) type equality plus identical clauses
        parts.append((inst.type._key(), inst.attrs.get("clauses")))
    elif opcode == "gep":
        parts.append(_attr_key(inst.attrs.get("source_type")))
    elif opcode in ("alloca", "load", "store"):
        parts.append(_accessed_type_size(inst))
    elif opcode in ("call", "invoke"):
        fnty = _callee_function_type(inst)
        if fnty is None:
            return None
        parts.append(fnty._key())
    for op in inst.operands:
        if isinstance(op, BasicBlock):
            parts.append(("lbl", label_equivalence_key(op)))
        elif isinstance(op, Function):
            parts.append(("fn", type_equivalence_key(op.type)))
        else:
            parts.append(("val", type_equivalence_key(op.type)))
    return tuple(parts)


def entry_equivalence_key(entry: LinearEntry) -> Optional[tuple]:
    """Canonical key of a linearized entry under :func:`entries_equivalent`.

    ``key(a) == key(b)  <=>  entries_equivalent(a, b)`` for all entries with
    non-``None`` keys; ``None`` marks the never-equivalent corner case.
    """
    if entry.is_label:
        return ("label", label_equivalence_key(entry.value))  # type: ignore[arg-type]
    key = instruction_equivalence_key(entry.value)  # type: ignore[arg-type]
    if key is None:
        return None
    return ("inst",) + key


# ---------------------------------------------------------------------------
# Stable structural serialization (interner-free; the cache keys hash it)
# ---------------------------------------------------------------------------

#: Byte marker encoding a never-equivalent entry (a call whose callee
#: function type cannot be determined).  Distinct from every structural key
#: encoding - those always start with ``(`` - so it can never collide with a
#: real equivalence class.  Two sequences that both carry the marker at the
#: same position still produce identical alignments: a never-equivalent
#: entry matches *nothing* in the opposite sequence, which is exactly how
#: every keyed kernel treats it (each occurrence gets a fresh negative
#: interner id), so the match/mismatch matrix the DP sees is fully
#: determined by the canonical sequence.
NEVER_EQUIVALENT_MARKER = b"!"


def _encode_into(value, out: List[bytes]) -> None:
    # bool before int: True/False are ints but must not alias 1/0 keys
    if isinstance(value, bool):
        out.append(b"b1" if value else b"b0")
    elif isinstance(value, int):
        out.append(b"i%d;" % value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(b"s%d:" % len(raw))
        out.append(raw)
    elif isinstance(value, tuple):
        out.append(b"(")
        for item in value:
            _encode_into(item, out)
        out.append(b")")
    elif value is None:
        out.append(b"N")
    elif isinstance(value, float):
        out.append(b"f" + repr(value).encode("ascii") + b";")
    else:
        raise TypeError(
            f"equivalence keys must be built from tuples of primitives; "
            f"cannot canonically encode {type(value).__name__!r} ({value!r})")


def encode_equivalence_key(key: Optional[tuple]) -> bytes:
    """Stable byte serialization of a canonical equivalence key.

    The encoding is *structural*: it depends only on the key's content
    (opcodes, type shapes, immediate attributes), never on interner ids or
    insertion order, and it is injective - two keys encode to the same bytes
    exactly when they are equal.  Each encoding is self-delimiting, so
    concatenating the per-entry encodings of a key sequence stays injective;
    that concatenation is what :meth:`LinearizedFunction.canonical_digest`
    hashes, making digests comparable across interners, modules and runs.

    ``None`` (the never-equivalent corner case) encodes to
    :data:`NEVER_EQUIVALENT_MARKER`.
    """
    if key is None:
        return NEVER_EQUIVALENT_MARKER
    out: List[bytes] = []
    _encode_into(key, out)
    return b"".join(out)


class EquivalenceKeyInterner:
    """Maps canonical equivalence keys to dense integers.

    Sharing one interner across all functions of a module makes cross-function
    entry equivalence a single int compare.  Never-equivalent entries receive
    a fresh negative id each time so they compare unequal to everything,
    themselves included.
    """

    def __init__(self):
        self._ids = {}
        self._unique = 0

    def __len__(self) -> int:
        return len(self._ids)

    def key_of(self, entry: LinearEntry) -> int:
        canonical = entry_equivalence_key(entry)
        if canonical is None:
            self._unique -= 1
            return self._unique
        existing = self._ids.get(canonical)
        if existing is None:
            existing = len(self._ids)
            self._ids[canonical] = existing
        return existing

    def keys_of(self, entries: Iterable[LinearEntry]) -> List[int]:
        return [self.key_of(entry) for entry in entries]
