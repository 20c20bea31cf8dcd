"""Function fingerprints and the similarity upper bound (Section IV).

A fingerprint is a lightweight summary of a function:

* a map of instruction opcodes to their frequency in the function, and
* the multiset of types manipulated by the function.

Comparing two fingerprints yields an optimistic *upper bound* on how well the
functions could merge: the best case where every instruction with the same
opcode (resp. the same type) could be matched.  The final similarity estimate
is the minimum of the opcode-based and the type-based upper bounds:

    UB(f1, f2, K) =   sum_k min(freq(k,f1), freq(k,f2))
                    / sum_k (freq(k,f1) + freq(k,f2))

    s(f1, f2) = min(UB(f1,f2,Opcodes), UB(f1,f2,Types))

The value lies in [0, 0.5]; identical functions score exactly 0.5.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Tuple

from ..ir import types as ty
from ..ir.function import Function


class Fingerprint:
    """Opcode-frequency and type-frequency summary of one function."""

    __slots__ = ("function_name", "opcode_freq", "type_freq", "size",
                 "opcode_total", "type_total")

    def __init__(self, function_name: str, opcode_freq: Counter,
                 type_freq: Counter, size: int):
        self.function_name = function_name
        self.opcode_freq = opcode_freq
        self.type_freq = type_freq
        self.size = size
        #: Cached multiset cardinalities: together with a candidate's totals
        #: they bound the similarity from above (shared <= min of totals),
        #: which is what lets the indexed searcher prune without computing
        #: the exact intersection.
        self.opcode_total = sum(opcode_freq.values())
        self.type_total = sum(type_freq.values())

    @classmethod
    def of(cls, function: Function) -> "Fingerprint":
        """Compute the fingerprint of a function."""
        opcode_freq: Counter = Counter()
        type_freq: Counter = Counter()
        size = 0
        for inst in function.instructions():
            size += 1
            opcode_freq[inst.opcode] += 1
            type_freq[_type_key(inst.type)] += 1
            for op in inst.operands:
                if not op.type.is_label:
                    type_freq[_type_key(op.type)] += 1
        return cls(function.name, opcode_freq, type_freq, size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Fingerprint {self.function_name} ({self.size} insts)>"


def _type_key(vtype: ty.Type) -> Tuple:
    """Hashable key describing a type for frequency counting.

    Pointer pointee structure is flattened to a single "ptr" bucket because
    the merger treats all pointers as mutually bitcastable.
    """
    if vtype.is_pointer:
        return ("ptr",)
    return vtype._key()


def _upper_bound(freq1: Counter, freq2: Counter) -> float:
    """The UB(f1, f2, K) formula from the paper."""
    total = sum(freq1.values()) + sum(freq2.values())
    if total == 0:
        return 0.0
    shared = 0
    for key, count in freq1.items():
        other = freq2.get(key, 0)
        if other:
            shared += min(count, other)
    return shared / total


def similarity(fp1: Fingerprint, fp2: Fingerprint) -> float:
    """The ranking similarity estimate s(f1, f2) in [0, 0.5]."""
    ub_opcode = _upper_bound(fp1.opcode_freq, fp2.opcode_freq)
    ub_type = _upper_bound(fp1.type_freq, fp2.type_freq)
    return min(ub_opcode, ub_type)


def fingerprint_module(functions: Iterable[Function]) -> Dict[str, Fingerprint]:
    """Fingerprint every function, keyed by function name."""
    return {f.name: Fingerprint.of(f) for f in functions}
