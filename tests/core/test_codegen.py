"""Structural tests for the merged-function code generator."""

import pytest

from repro.core import (AlignedEntry, AlignmentResult, CodegenError,
                        MergeOptions, align, apply_merge, linearize,
                        merge_functions, merge_parameter_lists,
                        merge_return_types)
from repro.core.codegen import convert_value
from repro.core.equivalence import entries_equivalent
from repro.interp import standard_externals
from repro.ir import IRBuilder, Module, verify_or_raise
from repro.ir import types as ty
from repro.ir import values as vals
from repro.ir.callgraph import CallGraph
from repro.workloads import clone_function

from tests.helpers import (assert_semantically_equivalent,
                           make_binary_chain_function)


def _pair(module=None, opcodes1=("add",), opcodes2=("sub",)):
    module = module or Module()
    f1 = make_binary_chain_function(module, "first", list(opcodes1))
    f2 = make_binary_chain_function(module, "second", list(opcodes2))
    return module, f1, f2


class TestParameterMerging:
    def _alignment(self, f1, f2):
        return align(linearize(f1), linearize(f2), entries_equivalent)

    def test_identical_signatures_reuse_all_parameters(self):
        module, f1, f2 = _pair()
        types, names, bind1, bind2 = merge_parameter_lists(
            f1, f2, self._alignment(f1, f2), MergeOptions())
        assert types[0] == ty.I1 and names[0] == "func_id"
        assert len(types) == 1 + len(f1.arguments)
        assert set(bind2.values()) <= set(bind1.values())

    def test_disjoint_types_are_appended(self):
        module = Module()
        f1 = module.create_function("a", ty.function_type(ty.I32, [ty.I32]))
        IRBuilder(f1.append_block("entry")).ret(f1.arguments[0])
        f2 = module.create_function("b", ty.function_type(ty.DOUBLE, [ty.DOUBLE]))
        builder = IRBuilder(f2.append_block("entry"))
        builder.ret(f2.arguments[0])
        types, _, bind1, bind2 = merge_parameter_lists(
            f1, f2, self._alignment(f1, f2), MergeOptions())
        assert types == [ty.I1, ty.I32, ty.DOUBLE]
        assert bind1[0] == 1 and bind2[0] == 2

    def test_reuse_disabled_appends_everything(self):
        module, f1, f2 = _pair()
        types, *_ = merge_parameter_lists(
            f1, f2, self._alignment(f1, f2), MergeOptions(reuse_parameters=False))
        assert len(types) == 1 + len(f1.arguments) + len(f2.arguments)

    def test_each_merged_parameter_bound_at_most_once(self):
        module = Module()
        f1 = module.create_function("a", ty.function_type(ty.I32, [ty.I32, ty.I32]))
        builder = IRBuilder(f1.append_block("entry"))
        builder.ret(builder.add(f1.arguments[0], f1.arguments[1]))
        f2 = module.create_function("b", ty.function_type(ty.I32, [ty.I32, ty.I32]))
        builder = IRBuilder(f2.append_block("entry"))
        builder.ret(builder.sub(f2.arguments[0], f2.arguments[1]))
        _, _, bind1, bind2 = merge_parameter_lists(
            f1, f2, self._alignment(f1, f2), MergeOptions())
        assert len(set(bind2.values())) == len(bind2)

    def test_return_type_merging_rules(self):
        module = Module()

        def fn(name, ret):
            f = module.create_function(name, ty.function_type(ret, []))
            b = IRBuilder(f.append_block("entry"))
            if ret.is_void:
                b.ret_void()
            elif ret.is_float:
                b.ret(vals.ConstantFloat(ret, 0.0))
            else:
                b.ret(vals.ConstantInt(ret, 0))
            return f

        assert merge_return_types(fn("a", ty.I32), fn("b", ty.I32)) == ty.I32
        assert merge_return_types(fn("c", ty.VOID), fn("d", ty.I64)) == ty.I64
        assert merge_return_types(fn("e", ty.I32), fn("f", ty.I64)) == ty.I64
        assert merge_return_types(fn("g", ty.DOUBLE), fn("h", ty.FLOAT)) == ty.DOUBLE


class TestMergedStructure:
    def test_merged_function_verifies(self):
        module, f1, f2 = _pair()
        result = merge_functions(f1, f2)
        verify_or_raise(result.merged)

    def test_func_id_is_first_parameter_when_needed(self):
        module, f1, f2 = _pair()
        result = merge_functions(f1, f2)
        assert result.uses_func_id
        assert result.merged.arguments[0] is result.func_id
        assert result.func_id.type == ty.I1

    def test_identical_functions_drop_func_id(self):
        module = Module()
        f1 = make_binary_chain_function(module, "orig", ["add", "mul"])
        f2 = clone_function(module, f1, "copy")
        result = merge_functions(f1, f2)
        assert not result.uses_func_id
        assert result.func_id is None
        assert len(result.merged.arguments) == len(f1.arguments)
        # and it is no bigger than one original
        assert result.merged.instruction_count() <= f1.instruction_count()

    def test_divergent_code_guarded_by_diamond(self):
        module, f1, f2 = _pair(opcodes1=("add",), opcodes2=("sub",))
        result = merge_functions(f1, f2)
        guards = [inst for inst in result.merged.instructions()
                  if inst.opcode == "br" and len(inst.operands) == 3
                  and inst.operands[0] is result.func_id]
        assert guards, "expected a conditional branch on func_id"

    def test_differing_constants_become_selects(self):
        module = Module()
        f1 = make_binary_chain_function(module, "three", ["add"], constant=3)
        f2 = make_binary_chain_function(module, "nine", ["add"], constant=9)
        result = merge_functions(f1, f2)
        selects = [i for i in result.merged.instructions() if i.opcode == "select"]
        assert len(selects) == 1
        assert vals.const_int(3) in selects[0].operands
        assert vals.const_int(9) in selects[0].operands

    def test_merged_size_smaller_than_sum_for_similar_functions(self):
        module, f1, f2 = _pair(opcodes1=("add", "mul"), opcodes2=("add", "mul"))
        # same opcodes but different constants: highly similar
        result = merge_functions(f1, f2)
        assert result.merged.instruction_count() < (f1.instruction_count()
                                                    + f2.instruction_count())

    def test_call_arguments_for_each_side(self):
        module, f1, f2 = _pair()
        result = merge_functions(f1, f2)
        args1 = result.call_arguments(0, list(f1.arguments))
        args2 = result.call_arguments(1, list(f2.arguments))
        assert len(args1) == len(result.merged.arguments)
        assert args1[0] == vals.const_bool(True)
        assert args2[0] == vals.const_bool(False)
        assert f1.arguments[0] in args1
        assert f2.arguments[0] in args2

    def test_side_of_rejects_foreign_function(self):
        module, f1, f2 = _pair()
        other = make_binary_chain_function(module, "other", ["mul"])
        result = merge_functions(f1, f2)
        with pytest.raises(ValueError):
            result.side_of(other)

    def test_merged_name_option(self):
        module, f1, f2 = _pair()
        result = merge_functions(f1, f2, MergeOptions(merged_name="combined"))
        assert result.merged.name == "combined"

    def test_different_return_types_produce_conversions(self):
        module = Module()
        f1 = module.create_function("narrow", ty.function_type(ty.I32, [ty.I32]))
        builder = IRBuilder(f1.append_block("entry"))
        builder.ret(builder.add(f1.arguments[0], vals.const_int(1)))
        f2 = module.create_function("wide", ty.function_type(ty.I64, [ty.I64]))
        builder = IRBuilder(f2.append_block("entry"))
        builder.ret(builder.add(f2.arguments[0], vals.const_int(1, 64)))
        result = merge_functions(f1, f2)
        assert result.merged.return_type == ty.I64
        assert result.needs_return_conversion(0)
        assert not result.needs_return_conversion(1)
        verify_or_raise(result.merged)

    def test_void_and_nonvoid_return_merge(self):
        module = Module()
        f1 = module.create_function("quiet", ty.function_type(ty.VOID, [ty.I32]))
        builder = IRBuilder(f1.append_block("entry"))
        slot = builder.alloca(ty.I32)
        builder.store(f1.arguments[0], slot)
        builder.ret_void()
        f2 = module.create_function("loud", ty.function_type(ty.I32, [ty.I32]))
        builder = IRBuilder(f2.append_block("entry"))
        slot = builder.alloca(ty.I32)
        builder.store(f2.arguments[0], slot)
        builder.ret(builder.load(slot))
        result = merge_functions(f1, f2)
        assert result.merged.return_type == ty.I32
        verify_or_raise(result.merged)

    def test_original_functions_untouched_by_codegen(self):
        module, f1, f2 = _pair()
        before1 = str(f1)
        before2 = str(f2)
        merge_functions(f1, f2)
        assert str(f1) == before1
        assert str(f2) == before2

    def test_alignment_statistics_exposed(self):
        module, f1, f2 = _pair(opcodes1=("add", "mul"), opcodes2=("add", "mul"))
        result = merge_functions(f1, f2)
        assert result.alignment.match_count > 0
        assert 0.0 < result.alignment.match_ratio() <= 1.0


class TestConvertValue:
    def test_no_op_for_same_type(self):
        value = vals.const_int(3)
        from repro.ir.basicblock import BasicBlock
        assert convert_value(value, ty.I32, BasicBlock("b")) is value

    def test_undef_converts_to_undef(self):
        from repro.ir.basicblock import BasicBlock
        converted = convert_value(vals.undef(ty.I32), ty.I64, BasicBlock("b"))
        assert isinstance(converted, vals.UndefValue)
        assert converted.type == ty.I64

    def test_casts_inserted_into_block(self):
        from repro.ir.basicblock import BasicBlock
        block = BasicBlock("b")
        arg = vals.Argument(ty.I32, "a", 0)
        converted = convert_value(arg, ty.I64, block)
        assert converted.opcode == "zext"
        assert converted in block.instructions

    def test_commutative_reordering_reduces_selects(self):
        module = Module()
        f1 = module.create_function("x", ty.function_type(ty.I32, [ty.I32, ty.I32]))
        builder = IRBuilder(f1.append_block("entry"))
        builder.ret(builder.add(f1.arguments[0], f1.arguments[1]))
        f2 = module.create_function("y", ty.function_type(ty.I32, [ty.I32, ty.I32]))
        builder = IRBuilder(f2.append_block("entry"))
        # same add but operands swapped
        builder.ret(builder.add(f2.arguments[1], f2.arguments[0]))
        with_reorder = merge_functions(f1, f2, MergeOptions(reorder_commutative=True))
        without_reorder = merge_functions(f1, f2, MergeOptions(reorder_commutative=False))
        selects_with = sum(1 for i in with_reorder.merged.instructions()
                           if i.opcode == "select")
        selects_without = sum(1 for i in without_reorder.merged.instructions()
                              if i.opcode == "select")
        assert selects_with <= selects_without


def _landing_pad_pair(module):
    """Two functions that invoke a thrower and differ in their landing
    blocks; returns ``(f1, f2, landing1, landing2)``."""
    thrower = module.get_function("__throw_exception")
    maybe_throw = module.create_function(
        "maybe_throw", ty.function_type(ty.VOID, [ty.I32]), arg_names=["x"])
    entry = maybe_throw.append_block("entry")
    throw = maybe_throw.append_block("throw")
    done = maybe_throw.append_block("done")
    builder = IRBuilder(entry)
    builder.cond_br(builder.icmp("sgt", maybe_throw.arguments[0],
                                 vals.const_int(0)), throw, done)
    builder = IRBuilder(throw)
    builder.call(thrower, [maybe_throw.arguments[0]])
    builder.br(done)
    IRBuilder(done).ret_void()

    functions = []
    for name, step, landing_body in (("first", 1, "constant"),
                                     ("second", 2, "product")):
        function = module.create_function(
            name, ty.function_type(ty.I32, [ty.I32]), arg_names=["x"])
        x = function.arguments[0]
        entry = function.append_block("entry")
        normal = function.append_block("normal")
        landing = function.append_block("landing")
        IRBuilder(entry).invoke(maybe_throw, [x], normal, landing)
        builder = IRBuilder(normal)
        builder.ret(builder.add(x, vals.const_int(step)))
        builder = IRBuilder(landing)
        builder.landingpad()
        if landing_body == "constant":
            builder.ret(vals.const_int(100))
        else:
            builder.ret(builder.mul(x, vals.const_int(3)))
        functions.append((function, landing))
    (f1, landing1), (f2, landing2) = functions
    return f1, f2, landing1, landing2


def landing_pad_module():
    module = Module()
    module.create_function("__throw_exception",
                           ty.function_type(ty.VOID, [ty.I32]),
                           linkage="external")
    f1, f2, landing1, landing2 = _landing_pad_pair(module)
    main = module.create_function("main", ty.function_type(ty.I32, [ty.I32]),
                                  linkage="external", arg_names=["x"])
    builder = IRBuilder(main.append_block("entry"))
    a = builder.call(f1, [main.arguments[0]])
    b = builder.call(f2, [main.arguments[0]])
    builder.ret(builder.add(builder.mul(a, vals.const_int(1000)), b))
    return module, f1, f2, landing1, landing2


def unaligned_landing_blocks(f1, f2, landing1, landing2):
    """The predicate alignment of ``f1``/``f2`` with every column of the two
    landing blocks split into a one-sided pair, so the invokes stay matched
    while their unwind destinations become different merged blocks."""
    aligned = align(linearize(f1), linearize(f2), entries_equivalent)
    entries = []
    for entry in aligned.entries:
        if entry.is_match and (entry.left.block is landing1
                               or entry.right.block is landing2):
            entries.append(AlignedEntry(entry.left, None))
            entries.append(AlignedEntry(None, entry.right))
        else:
            entries.append(entry)
    return AlignmentResult(entries, aligned.score)


class TestCodegenEdgeCases:
    def test_unaligned_landing_blocks_get_a_router_with_hoisted_pad(self):
        before, *_ = landing_pad_module()
        module, f1, f2, landing1, landing2 = landing_pad_module()
        alignment = unaligned_landing_blocks(f1, f2, landing1, landing2)
        result = merge_functions(f1, f2, alignment=alignment)
        merged = result.merged
        verify_or_raise(merged)

        invoke = next(i for i in merged.instructions() if i.opcode == "invoke")
        router = invoke.operands[-1]
        assert router.name.startswith("route")
        assert router.instructions[0].opcode == "landingpad"
        branch = router.instructions[-1]
        assert branch.opcode == "br" and branch.operands[0] is result.func_id
        # both landing blocks lost their pad to the router
        assert [i.opcode for i in merged.instructions()].count("landingpad") == 1
        for target in branch.operands[1:]:
            assert not target.is_landing_block

        apply_merge(module, result, CallGraph(module))
        verify_or_raise(module)
        assert_semantically_equivalent(before, module, "main",
                                       [[-4], [0], [1], [7]],
                                       standard_externals())

    def test_dangling_one_sided_instruction_raises(self):
        module = Module()
        functions = []
        for name in ("first", "second"):
            function = module.create_function(
                name, ty.function_type(ty.I32, [ty.I32]), arg_names=["x"])
            builder = IRBuilder(function.append_block("entry"))
            builder.ret(function.arguments[0])
            functions.append(function)
        # malformed input: an instruction after the first one's terminator,
        # with no block of its own left to live in
        IRBuilder(functions[0].blocks[0]).add(functions[0].arguments[0],
                                             vals.const_int(1))
        with pytest.raises(CodegenError, match="dangling instruction"):
            merge_functions(*functions)

    def test_operand_never_mapped_in_pass_one_raises(self):
        module = Module()
        donor = module.create_function(
            "donor", ty.function_type(ty.I32, [ty.I32]), arg_names=["y"])
        builder = IRBuilder(donor.append_block("entry"))
        foreign = builder.add(donor.arguments[0], vals.const_int(1))
        builder.ret(foreign)
        f1 = module.create_function(
            "first", ty.function_type(ty.I32, [ty.I32]), arg_names=["x"])
        # malformed input: the first function returns another function's
        # value, which is in neither linearization and so never mapped
        IRBuilder(f1.append_block("entry")).ret(foreign)
        f2 = module.create_function(
            "second", ty.function_type(ty.I32, [ty.I32]), arg_names=["x"])
        IRBuilder(f2.append_block("entry")).ret(f2.arguments[0])
        with pytest.raises(CodegenError, match="never mapped during pass 1"):
            merge_functions(f1, f2)
