"""Tests for the profitability cost model and merge committing (thunks)."""

from repro.core import (MergeEvaluation, apply_merge, build_thunk, estimate_profit,
                        merge_functions)
from repro.ir import CallGraph, IRBuilder, Module, verify_or_raise
from repro.ir import types as ty
from repro.ir import values as vals
from repro.targets import ARM_THUMB, X86_64
from repro.workloads import clone_function, mutate_constants

from tests.helpers import make_binary_chain_function, make_caller, run_function
import random


class TestMergeEvaluation:
    def test_delta_formula(self):
        evaluation = MergeEvaluation(size_function1=100, size_function2=90,
                                     size_merged=120, extra_cost1=10, extra_cost2=5)
        assert evaluation.epsilon == 15
        assert evaluation.delta == 190 - 135
        assert evaluation.profitable

    def test_not_profitable_when_delta_zero_or_negative(self):
        evaluation = MergeEvaluation(50, 50, 100, 0, 0)
        assert evaluation.delta == 0
        assert not evaluation.profitable

    def test_similar_functions_are_profitable(self):
        module = Module()
        f1 = make_binary_chain_function(module, "a", ["add", "mul", "add"])
        f2 = make_binary_chain_function(module, "b", ["add", "mul", "add"], constant=7)
        result = merge_functions(f1, f2)
        evaluation = estimate_profit(result, X86_64)
        assert evaluation.profitable
        assert evaluation.deletable1 and evaluation.deletable2

    def test_dissimilar_functions_are_not_profitable(self):
        module = Module()
        f1 = make_binary_chain_function(module, "ints", ["add", "mul", "xor", "and"])
        f2 = module.create_function("floats", ty.function_type(ty.DOUBLE, [ty.DOUBLE]))
        builder = IRBuilder(f2.append_block("entry"))
        value = f2.arguments[0]
        for _ in range(6):
            value = builder.fmul(value, vals.const_float(1.5))
        builder.ret(value)
        result = merge_functions(f1, f2)
        evaluation = estimate_profit(result, X86_64)
        assert not evaluation.profitable

    def test_thunk_cost_charged_for_external_functions(self):
        module = Module()
        f1 = make_binary_chain_function(module, "a", ["add"], linkage="external")
        f2 = make_binary_chain_function(module, "b", ["sub"], linkage="external")
        result = merge_functions(f1, f2)
        graph = CallGraph(module)
        evaluation = estimate_profit(result, X86_64, graph)
        assert not evaluation.deletable1 and not evaluation.deletable2
        assert evaluation.extra_cost1 >= X86_64.function_overhead
        internal = estimate_profit(merge_functions(
            make_binary_chain_function(module, "c", ["add"]),
            make_binary_chain_function(module, "d", ["sub"])), X86_64, graph)
        assert internal.epsilon <= evaluation.epsilon

    def test_call_site_growth_charged_when_deleting(self):
        module = Module()
        f1 = make_binary_chain_function(module, "a", ["add"])
        f2 = make_binary_chain_function(module, "b", ["sub"])
        make_caller(module, "main", [f1, f1, f2])
        result = merge_functions(f1, f2)
        graph = CallGraph(module)
        evaluation = estimate_profit(result, X86_64, graph)
        no_callers = estimate_profit(result, X86_64, None)
        assert evaluation.extra_cost1 >= 0
        assert evaluation.deletable1

    def test_targets_can_disagree_on_marginal_merges(self):
        module = Module()
        f1 = make_binary_chain_function(module, "a", ["add", "mul"])
        f2 = make_binary_chain_function(module, "b", ["sub", "mul"], constant=9)
        result = merge_functions(f1, f2)
        x86 = estimate_profit(result, X86_64)
        arm = estimate_profit(result, ARM_THUMB)
        # both should at least compute sensible sizes
        assert x86.size_merged > 0 and arm.size_merged > 0


class TestApplyMerge:
    def test_deletes_internal_originals_and_updates_calls(self):
        module = Module()
        f1 = make_binary_chain_function(module, "a", ["add"])
        f2 = make_binary_chain_function(module, "b", ["sub"])
        make_caller(module, "main", [f1, f2])
        result = merge_functions(f1, f2)
        record = apply_merge(module, result)
        assert record.disposition == ["deleted", "deleted"]
        assert record.updated_call_sites == 2
        assert module.get_function("a") is None
        assert module.get_function("b") is None
        assert module.get_function(record.merged_name) is result.merged
        verify_or_raise(module)

    def test_keeps_thunks_for_address_taken_functions(self):
        module = Module()
        f1 = make_binary_chain_function(module, "a", ["add"])
        f2 = make_binary_chain_function(module, "b", ["sub"])
        # take the address of `a`
        user = module.create_function("user", ty.function_type(ty.VOID, []),
                                      linkage="external")
        builder = IRBuilder(user.append_block("entry"))
        slot = builder.alloca(f1.type)
        builder.store(f1, slot)
        builder.ret_void()
        CallGraph(module)  # sets address_taken flags
        result = merge_functions(f1, f2)
        record = apply_merge(module, result)
        assert record.disposition[0] == "thunk"
        assert module.get_function("a") is not None
        verify_or_raise(module)

    def test_allow_deletion_false_always_thunks(self):
        module = Module()
        f1 = make_binary_chain_function(module, "a", ["add"])
        f2 = make_binary_chain_function(module, "b", ["sub"])
        result = merge_functions(f1, f2)
        record = apply_merge(module, result, allow_deletion=False)
        assert record.disposition == ["thunk", "thunk"]
        thunk = module.get_function("a")
        assert thunk.instruction_count() == 2  # call + ret
        verify_or_raise(module)

    def test_merged_name_uniquified(self):
        module = Module()
        f1 = make_binary_chain_function(module, "a", ["add"])
        f2 = make_binary_chain_function(module, "b", ["sub"])
        module.create_function("__merged_a_b", ty.function_type(ty.VOID, []),
                               linkage="external")
        result = merge_functions(f1, f2)
        record = apply_merge(module, result)
        assert record.merged_name != "__merged_a_b"
        assert module.get_function(record.merged_name) is not None

    def test_build_thunk_structure(self):
        module = Module()
        f1 = make_binary_chain_function(module, "a", ["add"], linkage="external")
        f2 = make_binary_chain_function(module, "b", ["sub"], linkage="external")
        result = merge_functions(f1, f2)
        module.add_function(result.merged)
        build_thunk(f1, result)
        assert f1.instruction_count() == 2
        call = f1.entry_block.instructions[0]
        assert call.opcode == "call"
        assert call.operands[0] is result.merged
        verify_or_raise(f1)

    def test_thunk_semantics_match_original(self):
        module = Module()
        f1 = make_binary_chain_function(module, "a", ["add"], linkage="external")
        f2 = make_binary_chain_function(module, "b", ["sub"], linkage="external")
        expected = run_function(module, "a", [6, 7])
        result = merge_functions(f1, f2)
        module.add_function(result.merged)
        build_thunk(f1, result)
        verify_or_raise(module)
        assert run_function(module, "a", [6, 7]) == expected

    def test_identical_clone_merge_and_commit(self):
        module = Module()
        rng = random.Random(3)
        f1 = make_binary_chain_function(module, "a", ["add", "mul"])
        f2 = clone_function(module, f1, "a_clone")
        mutate_constants(f2, rng, 0.5)
        make_caller(module, "main", [f1, f2])
        before = run_function(module, "main", [9])
        result = merge_functions(f1, f2)
        evaluation = estimate_profit(result, X86_64, CallGraph(module))
        assert evaluation.profitable
        apply_merge(module, result)
        verify_or_raise(module)
        assert run_function(module, "main", [9]) == before
