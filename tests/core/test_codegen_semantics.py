"""Semantic-equivalence tests: merged functions must behave exactly like the
originals when executed in the interpreter."""

import random

import pytest

from repro.core import FunctionMergingPass, apply_merge, merge_functions
from repro.frontend import compile_source
from repro.ir import IRBuilder, Module, verify_or_raise
from repro.ir import types as ty
from repro.ir import values as vals
from repro.interp import Interpreter, standard_externals
from repro.workloads import (add_call_sites, build_function, clone_function,
                             libquantum_module, mutate_constants, mutate_opcodes,
                             sphinx_module)
from repro.workloads.generators import FunctionSpec

from tests.helpers import (assert_semantically_equivalent,
                           make_binary_chain_function, make_caller, run_function)


def _merged_call(module, result, side, args):
    """Call the merged function directly on behalf of one original."""
    interp = Interpreter(module, standard_externals())
    call_args = []
    original = (result.function1, result.function2)[side]
    for merged_arg in result.merged.arguments:
        if merged_arg is result.func_id:
            call_args.append(1 if side == 0 else 0)
            continue
        bound = None
        for orig_arg, mapped in result.arg_maps[side].items():
            if mapped is merged_arg:
                bound = args[orig_arg.index]
                break
        call_args.append(bound if bound is not None else 0)
    return interp.run(result.merged, call_args)


class TestDirectMergeSemantics:
    def test_arithmetic_variants(self):
        module = Module()
        f1 = make_binary_chain_function(module, "f_add", ["add"], constant=2,
                                        linkage="external")
        f2 = make_binary_chain_function(module, "f_sub", ["sub"], constant=3,
                                        linkage="external")
        result = merge_functions(f1, f2)
        module.add_function(result.merged)
        verify_or_raise(module)
        for a, b in [(3, 4), (10, -2 & 0xFFFFFFFF), (0, 0), (-5 & 0xFFFFFFFF, 9)]:
            expected1 = run_function(module, "f_add", [a, b])
            expected2 = run_function(module, "f_sub", [a, b])
            assert _merged_call(module, result, 0, [a, b]) == expected1
            assert _merged_call(module, result, 1, [a, b]) == expected2

    def test_identical_functions_behave_identically(self):
        module = Module()
        f1 = make_binary_chain_function(module, "orig", ["add", "mul"], linkage="external")
        f2 = clone_function(module, f1, "copy")
        result = merge_functions(f1, f2)
        module.add_function(result.merged)
        for a, b in [(1, 2), (7, 7), (100, 3)]:
            expected = run_function(module, "orig", [a, b])
            got = Interpreter(module, standard_externals()).run(result.merged, [a, b])
            assert got == expected

    def test_different_return_types(self):
        module = Module()
        f1 = module.create_function("as32", ty.function_type(ty.I32, [ty.I32]),
                                    linkage="external")
        builder = IRBuilder(f1.append_block("entry"))
        builder.ret(builder.mul(f1.arguments[0], vals.const_int(3)))
        f2 = module.create_function("as64", ty.function_type(ty.I64, [ty.I64]),
                                    linkage="external")
        builder = IRBuilder(f2.append_block("entry"))
        builder.ret(builder.mul(f2.arguments[0], vals.const_int(3, 64)))
        result = merge_functions(f1, f2)
        module.add_function(result.merged)
        verify_or_raise(module)
        assert _merged_call(module, result, 0, [7]) & 0xFFFFFFFF == 21
        assert _merged_call(module, result, 1, [1 << 40]) == (3 << 40)


class TestCommittedMergeSemantics:
    def test_apply_merge_with_call_sites(self):
        def build():
            module = Module()
            f1 = make_binary_chain_function(module, "f_add", ["add"], constant=2)
            f2 = make_binary_chain_function(module, "f_sub", ["sub"], constant=3)
            make_caller(module, "main", [f1, f2])
            return module

        reference = build()
        merged_module = build()
        result = merge_functions(merged_module.get_function("f_add"),
                                 merged_module.get_function("f_sub"))
        apply_merge(merged_module, result)
        verify_or_raise(merged_module)
        assert_semantically_equivalent(reference, merged_module, "main",
                                       [[0], [5], [17], [-9 & 0xFFFFFFFF]])

    def test_thunks_created_for_external_functions(self):
        def build():
            module = Module()
            f1 = make_binary_chain_function(module, "f_add", ["add"], linkage="external")
            f2 = make_binary_chain_function(module, "f_sub", ["sub"], linkage="external")
            make_caller(module, "main", [f1, f2])
            return module

        reference = build()
        merged_module = build()
        result = merge_functions(merged_module.get_function("f_add"),
                                 merged_module.get_function("f_sub"))
        record = apply_merge(merged_module, result)
        assert record.disposition == ["thunk", "thunk"]
        assert merged_module.get_function("f_add") is not None
        verify_or_raise(merged_module)
        assert_semantically_equivalent(reference, merged_module, "main",
                                       [[0], [4], [123]])
        # thunk still callable directly under its original name
        assert (run_function(reference, "f_add", [2, 3])
                == run_function(merged_module, "f_add", [2, 3]))

    def test_recursive_function_merge(self):
        source = """
        int even_sum(int n) { if (n <= 0) return 0; return n + even_sum(n - 2); }
        int odd_sum(int n)  { if (n <= 1) return 1; return n + odd_sum(n - 2); }
        int main(int n) { return even_sum(n) * 1000 + odd_sum(n); }
        """
        reference = compile_source(source)
        merged_module = compile_source(source)
        result = merge_functions(merged_module.get_function("even_sum"),
                                 merged_module.get_function("odd_sum"))
        apply_merge(merged_module, result)
        verify_or_raise(merged_module)
        assert_semantically_equivalent(reference, merged_module, "main",
                                       [[0], [5], [10], [11]])


class TestCaseStudySemantics:
    def _sphinx_externals(self):
        externals = standard_externals()
        return externals

    def test_sphinx_pair_merges_and_preserves_memory_effects(self):
        reference = sphinx_module()
        merged_module = sphinx_module()
        f1 = merged_module.get_function("glist_add_float32")
        f2 = merged_module.get_function("glist_add_float64")
        result = merge_functions(f1, f2)
        assert result.uses_func_id
        # keep the originals as thunks so the test can still call them by name
        apply_merge(merged_module, result, allow_deletion=False)
        verify_or_raise(merged_module)

        def run_chain(module):
            interp = Interpreter(module, standard_externals())
            node32 = interp.run("glist_add_float32", [0, 1.5])
            node64 = interp.run("glist_add_float64", [node32, 2.25])
            # read back the stored fields through memory
            data32 = interp.memory.load(node32, ty.FLOAT)
            data64 = interp.memory.load(node64 + 4, ty.DOUBLE)
            next_pointer = interp.memory.load(node64 + 12, ty.pointer(ty.I8))
            return data32, data64, next_pointer == node32

        assert run_chain(reference) == run_chain(merged_module) == (1.5, 2.25, True)

    def test_libquantum_pair_merges_and_preserves_behaviour(self):
        reference = libquantum_module()
        merged_module = libquantum_module()
        f1 = merged_module.get_function("quantum_cond_phase_inv")
        f2 = merged_module.get_function("quantum_cond_phase")
        result = merge_functions(f1, f2)
        apply_merge(merged_module, result, allow_deletion=False)
        verify_or_raise(merged_module)

        def run_case(module, objcode_result):
            externals = standard_externals()
            calls = {"decohere": 0}
            externals["quantum_cexp"] = lambda i, args: args[0] * 0.5
            externals["quantum_objcode_put"] = lambda i, args: objcode_result
            externals["quantum_decohere"] = lambda i, args: calls.__setitem__(
                "decohere", calls["decohere"] + 1)
            interp = Interpreter(module, externals)
            # build a quantum_reg { size=2, node=* } with two nodes
            reg = interp.memory.allocate(16)
            nodes = interp.memory.allocate(32)
            interp.memory.store(reg, ty.I32, 2)
            interp.memory.store(reg + 4, ty.pointer(ty.I8), nodes)
            for index, (state, amp) in enumerate([(0b11, 2.0), (0b01, 4.0)]):
                interp.memory.store(nodes + index * 16, ty.I32, state)
                interp.memory.store(nodes + index * 16 + 8, ty.DOUBLE, amp)
            interp.run("quantum_cond_phase_inv", [1, 0, reg])
            interp.run("quantum_cond_phase", [1, 0, reg])
            amplitudes = [interp.memory.load(nodes + i * 16 + 8, ty.DOUBLE) for i in range(2)]
            return amplitudes, calls["decohere"]

        for objcode in (0, 1):
            assert run_case(reference, objcode) == run_case(merged_module, objcode)


class TestRandomizedMergePass:
    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_generated_workload_semantics_preserved(self, seed):
        def build():
            rng = random.Random(seed)
            module = Module(f"random{seed}")
            base_spec = FunctionSpec(name="base", num_blocks=3, instructions_per_block=6,
                                     seed=seed)
            base = build_function(module, base_spec, random.Random(seed))
            sibling = clone_function(module, base, "sibling")
            mutate_opcodes(sibling, rng, 0.3)
            mutate_constants(sibling, rng, 0.3)
            other_spec = FunctionSpec(name="other", num_blocks=2, instructions_per_block=5,
                                      seed=seed + 100, float_ratio=0.5)
            other = build_function(module, other_spec, random.Random(seed + 100))
            add_call_sites(module, [base, sibling, other], rng)
            return module

        externals = standard_externals()
        externals["helper_log"] = lambda i, args: (int(args[0]) * 7 + 3) & 0xFFFFFFFF
        externals["helper_fclamp"] = lambda i, args: max(0.0, min(100.0, float(args[0])))
        externals["helper_notify"] = lambda i, args: None
        externals["guard_check"] = lambda i, args: 1 if int(args[0]) % 3 == 0 else 0

        reference = build()
        optimized = build()
        report = FunctionMergingPass(exploration_threshold=3).run(optimized)
        verify_or_raise(optimized)
        assert report.merge_count >= 1
        for n in (0, 1, 5, 13):
            expected = run_function(reference, "driver_main", [n], externals)
            actual = run_function(optimized, "driver_main", [n], externals)
            assert expected == actual, f"seed {seed}, n={n}"
