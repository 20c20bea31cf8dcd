"""Tests for the synthetic function/module generators."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import functions_identical, structurally_similar
from repro.ir import Module, verify_or_raise
from repro.ir import types as ty
from repro.workloads import (FamilySpec, FunctionSpec, add_call_sites,
                             add_extra_instructions, add_guard_block, build_function,
                             clone_function, make_family, mutate_constants,
                             mutate_opcodes)


def _spec(seed=1, **kwargs):
    defaults = dict(name=f"gen{seed}", num_blocks=3, instructions_per_block=6, seed=seed)
    defaults.update(kwargs)
    return FunctionSpec(**defaults)


class TestBuildFunction:
    def test_generated_function_verifies(self):
        module = Module()
        function = build_function(module, _spec())
        verify_or_raise(function)

    def test_deterministic_given_seed(self):
        module1, module2 = Module("a"), Module("b")
        f1 = build_function(module1, _spec(seed=9))
        f2 = build_function(module2, _spec(seed=9))
        assert functions_identical(f1, f2)

    def test_different_seeds_differ(self):
        module = Module()
        f1 = build_function(module, _spec(seed=1, name="x"))
        f2 = build_function(module, _spec(seed=2, name="y"))
        assert not functions_identical(f1, f2)

    def test_size_scales_with_spec(self):
        module = Module()
        small = build_function(module, _spec(seed=3, name="small",
                                             num_blocks=2, instructions_per_block=4))
        large = build_function(module, _spec(seed=3, name="large",
                                             num_blocks=5, instructions_per_block=15))
        assert large.instruction_count() > small.instruction_count()

    def test_void_and_float_returns(self):
        module = Module()
        void_fn = build_function(module, _spec(seed=4, name="v", returns_void=True))
        float_fn = build_function(module, _spec(seed=4, name="fl", returns_float=True))
        assert void_fn.return_type.is_void
        assert float_fn.return_type == ty.DOUBLE

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 5), st.integers(2, 12))
    def test_generated_functions_always_verify(self, seed, blocks, insts):
        module = Module()
        spec = FunctionSpec(name="prop", num_blocks=blocks,
                            instructions_per_block=insts, seed=seed)
        function = build_function(module, spec)
        verify_or_raise(function)
        assert function.instruction_count() >= blocks


class TestCloneAndMutate:
    def test_clone_is_identical_and_verifies(self):
        module = Module()
        base = build_function(module, _spec(seed=11))
        copy = clone_function(module, base, "copy")
        verify_or_raise(copy)
        assert functions_identical(base, copy)

    def test_clone_with_extra_params_changes_signature_only(self):
        module = Module()
        base = build_function(module, _spec(seed=11, name="b2"))
        extended = clone_function(module, base, "extended",
                                  extra_param_types=[ty.I64, ty.DOUBLE])
        assert len(extended.arguments) == len(base.arguments) + 2
        assert extended.instruction_count() == base.instruction_count()
        verify_or_raise(extended)

    def test_clone_with_param_permutation(self):
        module = Module()
        base = build_function(module, _spec(seed=12, name="b3"))
        order = list(range(len(base.arguments)))[::-1]
        permuted = clone_function(module, base, "permuted", param_permutation=order)
        assert [a.type for a in permuted.arguments] == \
            [a.type for a in base.arguments][::-1]
        verify_or_raise(permuted)

    def test_mutate_opcodes_keeps_structure(self):
        module = Module()
        base = build_function(module, _spec(seed=13, name="b4"))
        sibling = clone_function(module, base, "sib")
        changed = mutate_opcodes(sibling, random.Random(0), fraction=0.5)
        assert changed > 0
        verify_or_raise(sibling)
        assert structurally_similar(base, sibling)
        assert not functions_identical(base, sibling)

    def test_mutate_constants_keeps_structure(self):
        module = Module()
        base = build_function(module, _spec(seed=14, name="b5"))
        sibling = clone_function(module, base, "sib2")
        mutate_constants(sibling, random.Random(0), fraction=0.8)
        verify_or_raise(sibling)
        assert structurally_similar(base, sibling)

    def test_add_guard_block_breaks_cfg_isomorphism(self):
        module = Module()
        base = build_function(module, _spec(seed=15, name="b6"))
        guarded = clone_function(module, base, "guarded")
        add_guard_block(module, guarded, random.Random(0))
        verify_or_raise(guarded)
        assert len(guarded.blocks) == len(base.blocks) + 2
        assert not structurally_similar(base, guarded)

    def test_add_extra_instructions_breaks_block_sizes(self):
        module = Module()
        base = build_function(module, _spec(seed=16, name="b7"))
        padded = clone_function(module, base, "padded")
        add_extra_instructions(padded, random.Random(0), count=3)
        verify_or_raise(padded)
        assert padded.instruction_count() == base.instruction_count() + 3


class TestFamiliesAndCallers:
    def test_make_family_produces_requested_members(self):
        module = Module()
        members = make_family(module, _spec(seed=20, name="fam"),
                              FamilySpec(identical=1, structural=1, partial=1),
                              random.Random(0))
        assert len(members) == 4
        verify_or_raise(module)
        base = members[0]
        assert functions_identical(base, members[1])
        assert structurally_similar(base, members[2])
        assert not structurally_similar(base, members[3])

    def test_add_call_sites_creates_driver_calling_everything(self):
        module = Module()
        members = make_family(module, _spec(seed=21, name="fam2"),
                              FamilySpec(identical=1), random.Random(0))
        driver = add_call_sites(module, members, random.Random(0))
        verify_or_raise(module)
        callees = {inst.operands[0].name for inst in driver.instructions()
                   if inst.opcode == "call"}
        assert {m.name for m in members} <= callees
