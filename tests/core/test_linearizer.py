"""Tests for CFG linearization."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (EquivalenceKeyInterner, linearize,
                        linearize_with_keys, sequence_signature)
from repro.core.linearizer import LinearEntry, block_order
from repro.ir import IRBuilder, Module
from repro.ir import types as ty
from repro.ir import values as vals
from repro.ir.instructions import Call
from repro.workloads import FamilySpec, FunctionSpec, make_family

from tests.helpers import make_accumulator_function, make_binary_chain_function


def _diamond(module):
    function = module.create_function("diamond", ty.function_type(ty.I32, [ty.I32]))
    entry = function.append_block("entry")
    left = function.append_block("left")
    right = function.append_block("right")
    join = function.append_block("join")
    builder = IRBuilder(entry)
    cond = builder.icmp("sgt", function.arguments[0], vals.const_int(0))
    builder.cond_br(cond, left, right)
    IRBuilder(left).br(join)
    IRBuilder(right).br(join)
    IRBuilder(join).ret(function.arguments[0])
    return function


class TestLinearEntryFlags:
    def test_flags_agree_with_kind(self):
        module = Module()
        function = make_accumulator_function(module, "acc")
        entries = linearize(function)
        assert any(e.is_label for e in entries)
        assert any(e.is_instruction for e in entries)
        for entry in entries:
            assert entry.is_label == (entry.kind == LinearEntry.LABEL)
            assert entry.is_instruction == (entry.kind == LinearEntry.INSTRUCTION)
            assert entry.is_label != entry.is_instruction

    def test_flags_of_directly_built_entries(self):
        module = Module()
        function = _diamond(module)
        block = function.entry_block
        label = LinearEntry(LinearEntry.LABEL, block, block)
        inst = LinearEntry(LinearEntry.INSTRUCTION, block.instructions[0], block)
        assert (label.is_label, label.is_instruction) == (True, False)
        assert (inst.is_label, inst.is_instruction) == (False, True)


class TestLinearize:
    def test_every_block_contributes_label_plus_instructions(self):
        module = Module()
        function = _diamond(module)
        entries = linearize(function)
        labels = [e for e in entries if e.is_label]
        instructions = [e for e in entries if e.is_instruction]
        assert len(labels) == len(function.blocks)
        assert len(instructions) == function.instruction_count()
        assert len(entries) == len(labels) + len(instructions)

    def test_instruction_order_preserved_within_blocks(self):
        module = Module()
        function = make_binary_chain_function(module, "chain", ["add", "sub", "mul"])
        entries = linearize(function)
        signature = sequence_signature(entries)
        entry_ops = signature[signature.index("label") + 1:]
        assert entry_ops[:4] == ["add", "sub", "mul", "mul"]

    def test_label_precedes_its_instructions(self):
        module = Module()
        function = _diamond(module)
        entries = linearize(function)
        current_block = None
        for entry in entries:
            if entry.is_label:
                current_block = entry.value
            else:
                assert entry.value.parent is current_block

    def test_rpo_starts_with_entry_and_visits_all(self):
        module = Module()
        function = make_accumulator_function(module, "acc")
        order = block_order(function, "rpo")
        assert order[0] is function.entry_block
        assert set(id(b) for b in order) == set(id(b) for b in function.blocks)

    def test_traversals_are_permutations_of_each_other(self):
        module = Module()
        function = _diamond(module)
        rpo = {id(b) for b in block_order(function, "rpo")}
        layout = {id(b) for b in block_order(function, "layout")}
        dfs = {id(b) for b in block_order(function, "dfs")}
        assert rpo == layout == dfs

    def test_unknown_traversal_rejected(self):
        module = Module()
        function = _diamond(module)
        with pytest.raises(ValueError):
            linearize(function, "zigzag")

    def test_declaration_linearizes_to_empty(self):
        module = Module()
        declaration = module.create_function("ext", ty.function_type(ty.VOID, []),
                                             linkage="external")
        assert linearize(declaration) == []

    def test_deterministic(self):
        module = Module()
        function = _diamond(module)
        first = sequence_signature(linearize(function))
        second = sequence_signature(linearize(function))
        assert first == second

    def test_entry_kinds(self):
        module = Module()
        function = _diamond(module)
        entries = linearize(function)
        assert entries[0].is_label and not entries[0].is_instruction
        assert entries[1].is_instruction
        assert entries[0].opcode_or_label() == "label"
        assert entries[1].opcode_or_label() == "icmp"


# -- canonical digests (the interner-independent content address) ------------

def _family_module(seed, families=3):
    module = Module(f"canon_{seed}")
    rng = random.Random(seed)
    for index in range(families):
        spec = FunctionSpec(
            f"fam{index}",
            num_blocks=2 + (index + seed) % 3,
            instructions_per_block=4 + ((index + seed) % 3) * 2,
            call_ratio=0.3, memory_ratio=0.2,
            returns_float=bool((index + seed) % 4 == 1),
            seed=700 + 11 * seed + index)
        make_family(module, spec,
                    FamilySpec(identical=2, structural=1, partial=1), rng)
    return module


class TestCanonicalDigest:
    """`canonical_digest` equals across interners iff the equivalence-key
    sequences are structurally equal (the persistent cache's key property);
    within one interner it agrees with the per-run `content_digest` except
    on never-equivalent entries, where it is strictly more precise."""

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_equal_across_interners_iff_key_sequences_equal(self, seed):
        module = _family_module(seed)
        functions = list(module.defined_functions())

        # interner A sees functions in order, interner B in reverse: the
        # integer ids assigned to each equivalence class differ, the
        # canonical digests must not
        a, b = EquivalenceKeyInterner(), EquivalenceKeyInterner()
        lins_a = {f.name: linearize_with_keys(f, "rpo", a) for f in functions}
        lins_b = {f.name: linearize_with_keys(f, "rpo", b)
                  for f in reversed(functions)}
        for name in lins_a:
            assert (lins_a[name].canonical_digest()
                    == lins_b[name].canonical_digest())

        # within one interner, digest equality must match key-sequence
        # equality for every function pair (the iff direction)
        names = sorted(lins_a)
        for n1 in names:
            for n2 in names:
                keys_equal = lins_a[n1].keys == lins_a[n2].keys
                assert keys_equal == (lins_a[n1].canonical_digest()
                                      == lins_a[n2].canonical_digest())
                # per-run digests agree with canonical equality here too
                # (no never-equivalent entries in the generated population)
                assert keys_equal == (lins_a[n1].content_digest()
                                      == lins_a[n2].content_digest())

    def test_identical_clones_share_digest_across_interners(self):
        module = _family_module(3)
        lin1 = linearize_with_keys(module.get_function("fam0"))
        lin2 = linearize_with_keys(module.get_function("fam0_ident0"))
        assert lin1.canonical_digest() == lin2.canonical_digest()

    def test_digest_tracks_structural_difference(self):
        module = Module()
        f = make_binary_chain_function(module, "f", ["add", "mul", "sub"])
        g = make_binary_chain_function(module, "g", ["add", "xor", "sub"])
        interner = EquivalenceKeyInterner()
        assert (linearize_with_keys(f, "rpo", interner).canonical_digest()
                != linearize_with_keys(g, "rpo", interner).canonical_digest())

    def test_never_equivalent_entries_use_the_stable_marker(self):
        # a call through an untyped pointer is equivalent to nothing, so the
        # shared interner hands each clone a fresh negative id and their
        # per-run digests diverge; canonically both encode the same marker
        # in the same position, which is sound because such an entry
        # matches *nothing* in the opposite sequence either way
        module = Module()

        def opaque_call(name):
            fn = module.create_function(
                name, ty.function_type(ty.I32, [ty.pointer(ty.I8), ty.I32]))
            builder = IRBuilder(fn.append_block("entry"))
            builder._insert(Call(fn.arguments[0], [], return_type=ty.I32))
            builder.ret(fn.arguments[1])
            return fn

        interner = EquivalenceKeyInterner()
        lin1 = linearize_with_keys(opaque_call("f"), "rpo", interner)
        lin2 = linearize_with_keys(opaque_call("g"), "rpo", interner)
        assert any(key < 0 for key in lin1.keys)
        assert lin1.keys != lin2.keys
        assert lin1.content_digest() != lin2.content_digest()
        assert lin1.canonical_digest() == lin2.canonical_digest()

    def test_digest_is_cached(self):
        module = Module()
        f = make_binary_chain_function(module, "f", ["add", "mul"])
        lin = linearize_with_keys(f)
        assert lin.canonical_digest() is lin.canonical_digest()
