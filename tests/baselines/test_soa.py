"""Tests for the structural (SOA / von Koch) baseline."""

import random

from repro.baselines import (StructuralFunctionMergingPass, cfg_shape,
                             structural_alignment, structurally_similar)
from repro.core.codegen import CodegenError
from repro.ir import Module, verify_or_raise
from repro.ir import types as ty
from repro.workloads import (add_extra_instructions, add_guard_block, clone_function,
                             libquantum_module, sphinx_module)

from tests.helpers import make_binary_chain_function, make_caller, run_function


def _structural_pair(module, rng=None):
    """Two functions with identical signatures and isomorphic CFGs that
    differ in exactly one opcode and one constant (SOA-mergeable)."""
    base = make_binary_chain_function(module, "base",
                                      ["add", "mul", "add", "xor", "sub", "mul"],
                                      constant=3)
    sibling = make_binary_chain_function(module, "sibling",
                                         ["add", "mul", "sub", "xor", "sub", "mul"],
                                         constant=9)
    return base, sibling


class TestApplicability:
    def test_structural_variant_is_similar(self):
        module = Module()
        base, sibling = _structural_pair(module)
        assert structurally_similar(base, sibling)
        assert cfg_shape(base) == cfg_shape(sibling)

    def test_different_signature_rejected(self):
        module = Module()
        base = make_binary_chain_function(module, "base", ["add"])
        extra = clone_function(module, base, "extra", extra_param_types=[ty.DOUBLE])
        assert not structurally_similar(base, extra)

    def test_different_cfg_rejected(self):
        module = Module()
        base = make_binary_chain_function(module, "base", ["add"])
        guarded = clone_function(module, base, "guarded")
        add_guard_block(module, guarded, random.Random(0))
        assert not structurally_similar(base, guarded)

    def test_different_block_sizes_rejected(self):
        module = Module()
        base = make_binary_chain_function(module, "base", ["add", "mul"])
        padded = clone_function(module, base, "padded")
        add_extra_instructions(padded, random.Random(0), count=2)
        assert not structurally_similar(base, padded)

    def test_paper_motivating_examples_rejected_by_soa(self):
        # Figure 1: different signatures; Figure 2: different CFGs
        sphinx = sphinx_module()
        assert not structurally_similar(sphinx.get_function("glist_add_float32"),
                                        sphinx.get_function("glist_add_float64"))
        quantum = libquantum_module()
        assert not structurally_similar(quantum.get_function("quantum_cond_phase"),
                                        quantum.get_function("quantum_cond_phase_inv"))

    def test_structural_alignment_requires_equal_lengths(self):
        module = Module()
        base = make_binary_chain_function(module, "base", ["add"])
        longer = make_binary_chain_function(module, "longer", ["add", "mul"])
        try:
            structural_alignment(base, longer)
            assert False, "expected CodegenError"
        except CodegenError:
            pass

    def test_structural_alignment_pairs_entries_positionally(self):
        module = Module()
        base, sibling = _structural_pair(module)
        alignment = structural_alignment(base, sibling)
        assert alignment.match_count > 0
        # mismatching opcodes become one-sided entries, never cross-matched
        for entry in alignment.entries:
            if entry.is_match and entry.left.is_instruction:
                assert entry.left.value.opcode == entry.right.value.opcode


class TestStructuralPass:
    def test_merges_structural_family_and_preserves_semantics(self):
        def build():
            module = Module()
            base, sibling = _structural_pair(module, random.Random(7))
            make_caller(module, "main", [base, sibling])
            return module

        reference = build()
        optimized = build()
        report = StructuralFunctionMergingPass().run(optimized)
        assert report.merge_count == 1
        verify_or_raise(optimized)
        for n in (0, 2, 9):
            assert (run_function(optimized, "main", [n])
                    == run_function(reference, "main", [n]))

    def test_does_not_merge_partially_similar_functions(self):
        module = Module()
        base = make_binary_chain_function(module, "base", ["add", "mul"])
        partial = clone_function(module, base, "partial", extra_param_types=[ty.I64])
        make_caller(module, "main", [base, partial])
        report = StructuralFunctionMergingPass().run(module)
        assert report.merge_count == 0

    def test_identical_functions_also_handled(self):
        module = Module()
        base = make_binary_chain_function(module, "base", ["add", "mul", "xor"])
        twin = clone_function(module, base, "twin")
        make_caller(module, "main", [base, twin])
        report = StructuralFunctionMergingPass().run(module)
        assert report.merge_count == 1
        verify_or_raise(module)

    def test_report_counts_candidates(self):
        module = Module()
        base, sibling = _structural_pair(module)
        make_caller(module, "main", [base, sibling])
        report = StructuralFunctionMergingPass().run(module)
        assert report.candidates_evaluated >= 1
        assert report.elapsed >= 0.0
