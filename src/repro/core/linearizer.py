"""CFG linearization (Section III-B of the paper).

Linearization turns a function's CFG into a flat sequence of *entries*: for
every basic block, its label followed by its instructions, preserving the
original instruction order inside each block.  CFG edges remain implicit in
the branch instructions, whose label operands keep pointing at the original
blocks.

The traversal order does not affect correctness of the merge, only its
effectiveness; following the paper we use a reverse post-order traversal with
a canonical ordering of successors (the operand order of the terminator).
"""

from __future__ import annotations

from typing import Iterable, List, Union

from ..ir import cfg
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import Instruction


class LinearEntry:
    """One element of a linearized function: a block label or an instruction."""

    __slots__ = ("kind", "value", "block", "is_label", "is_instruction")

    LABEL = "label"
    INSTRUCTION = "instruction"

    def __init__(self, kind: str, value: Union[BasicBlock, Instruction],
                 block: BasicBlock):
        self.kind = kind
        self.value = value
        self.block = block
        # fixed at construction: nothing reassigns ``kind`` afterwards
        self.is_label = kind == self.LABEL
        self.is_instruction = kind == self.INSTRUCTION

    def opcode_or_label(self) -> str:
        """A short token used for display and fingerprint-style summaries."""
        if self.is_label:
            return "label"
        return self.value.opcode  # type: ignore[union-attr]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LinearEntry {self.opcode_or_label()}>"


#: Traversal strategies supported by :func:`linearize`.  ``rpo`` is the
#: paper's choice; ``layout`` (textual block order) and ``dfs`` are provided
#: for the linearization-order ablation study.
TRAVERSALS = ("rpo", "layout", "dfs")


def _dfs_order(function: Function) -> List[BasicBlock]:
    seen = set()
    order: List[BasicBlock] = []
    stack = [function.entry_block]
    while stack:
        block = stack.pop()
        if id(block) in seen:
            continue
        seen.add(id(block))
        order.append(block)
        # push successors in reverse so the first successor is visited first
        for succ in reversed(cfg.successors(block)):
            if id(succ) not in seen:
                stack.append(succ)
    for block in function.blocks:
        if id(block) not in seen:
            order.append(block)
    return order


def block_order(function: Function, traversal: str = "rpo") -> List[BasicBlock]:
    """Return the block visitation order for the given traversal strategy."""
    if traversal not in TRAVERSALS:
        raise ValueError(f"unknown traversal {traversal!r}; expected one of {TRAVERSALS}")
    if function.is_declaration:
        return []
    if traversal == "layout":
        return list(function.blocks)
    if traversal == "dfs":
        return _dfs_order(function)
    return cfg.reverse_post_order(function)


def linearize(function: Function, traversal: str = "rpo") -> List[LinearEntry]:
    """Linearize ``function`` into a sequence of labels and instructions."""
    entries: List[LinearEntry] = []
    for block in block_order(function, traversal):
        entries.append(LinearEntry(LinearEntry.LABEL, block, block))
        for inst in block.instructions:
            entries.append(LinearEntry(LinearEntry.INSTRUCTION, inst, block))
    return entries


def linearize_with_keys(function: Function, traversal: str = "rpo",
                        interner=None) -> "LinearizedFunction":
    """Linearize ``function`` and precompute integer equivalence keys.

    The keys come from :class:`repro.core.equivalence.EquivalenceKeyInterner`
    (one is created on demand when ``interner`` is None): two entries -
    whether from the same or different functions keyed by the *same* interner
    - are equivalent exactly when their keys are equal.  The merge engine
    shares one interner per run so the alignment inner loop compares ints.
    """
    from .equivalence import EquivalenceKeyInterner
    if interner is None:
        interner = EquivalenceKeyInterner()
    entries = linearize(function, traversal)
    return LinearizedFunction(entries, interner.keys_of(entries))


class LinearizedFunction:
    """A linearized function plus per-entry equivalence keys."""

    __slots__ = ("entries", "keys", "_digest", "_canonical_digest")

    def __init__(self, entries: List[LinearEntry], keys: List[int]):
        self.entries = entries
        self.keys = keys
        self._digest: Union[bytes, None] = None
        self._canonical_digest: Union[bytes, None] = None

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def content_digest(self) -> bytes:
        """128-bit BLAKE2b digest of the equivalence-key sequence.

        This is the linearization's *content address*: two linearizations
        keyed by the same interner get equal digests exactly when their key
        sequences are equal (comma-separated decimals are injective), which
        is precisely when every keyed alignment kernel produces the same
        alignment shape.  Computed lazily and cached - the linearization is
        immutable once built (rewritten functions get a fresh one via
        ``LinearizeStage.invalidate``).
        """
        digest = self._digest
        if digest is None:
            import hashlib
            h = hashlib.blake2b(digest_size=16)
            h.update(",".join(map(str, self.keys)).encode("ascii"))
            digest = self._digest = h.digest()
        return digest

    def canonical_digest(self) -> bytes:
        """128-bit BLAKE2b digest of the *structural* equivalence-key
        sequence - the linearization's interner-independent content address.

        Unlike :meth:`content_digest` (which hashes the per-run interner
        ids), this digest is computed from the canonical equivalence keys
        themselves via :func:`repro.core.equivalence.encode_equivalence_key`:
        two linearizations - whether keyed by the same interner, different
        interners, or produced in different processes - get equal canonical
        digests exactly when their key sequences are structurally equal
        (each per-entry encoding is self-delimiting, so the concatenation is
        injective; never-equivalent entries encode to a fixed marker that
        cannot collide with a real class).  Since every keyed alignment
        kernel depends only on the cross-sequence key-equality pattern, and
        that pattern is fully determined by the two canonical sequences,
        equal digest pairs always reproduce the same alignment shape - the
        property the content-addressed alignment cache is built on.  Computed
        lazily and cached, like :meth:`content_digest`.
        """
        digest = self._canonical_digest
        if digest is None:
            import hashlib
            h = hashlib.blake2b(digest_size=16)
            from .equivalence import (encode_equivalence_key,
                                      entry_equivalence_key)
            for entry in self.entries:
                h.update(encode_equivalence_key(entry_equivalence_key(entry)))
            digest = self._canonical_digest = h.digest()
        return digest


def sequence_signature(entries: Iterable[LinearEntry]) -> List[str]:
    """Opcode/label token sequence - handy for tests and debugging output."""
    return [e.opcode_or_label() for e in entries]
