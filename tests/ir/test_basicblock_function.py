"""Tests for basic blocks, functions and modules."""

import pytest

from repro.ir import IRBuilder, Module
from repro.ir import types as ty
from repro.ir import values as vals
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Branch, Return

from tests.helpers import build_module, scan_predecessors


class TestBasicBlock:
    def _block_with_ret(self):
        block = BasicBlock("bb")
        block.append(Return(vals.const_int(1)))
        return block

    def test_append_sets_parent(self):
        block = self._block_with_ret()
        assert block.instructions[0].parent is block

    def test_terminator_detection(self):
        block = BasicBlock("bb")
        assert block.terminator is None
        assert not block.is_terminated
        block.append(Return())
        assert block.terminator is block.instructions[-1]
        assert block.is_terminated

    def test_successors_and_predecessors(self):
        module = Module()
        function = module.create_function("f", ty.function_type(ty.VOID, []))
        entry = function.append_block("entry")
        left = function.append_block("left")
        right = function.append_block("right")
        builder = IRBuilder(entry)
        builder.cond_br(vals.const_bool(True), left, right)
        IRBuilder(left).ret_void()
        IRBuilder(right).ret_void()
        assert entry.successors() == [left, right]
        assert left.predecessors() == [entry]
        assert right.predecessors() == [entry]

    def test_insert_before(self):
        block = BasicBlock("bb")
        ret = Return()
        block.append(ret)
        branchless = Return(vals.const_int(2))
        block.insert_before(ret, branchless)
        assert block.instructions[0] is branchless

    def test_split_at_moves_tail(self):
        module = Module()
        function = module.create_function("f", ty.function_type(ty.I32, [ty.I32]))
        block = function.append_block("entry")
        builder = IRBuilder(block)
        add = builder.add(function.arguments[0], vals.const_int(1))
        builder.ret(add)
        tail = block.split_at(1)
        assert len(block.instructions) == 1
        assert tail.instructions[0].opcode == "ret"
        assert tail in function.blocks

    def test_landing_block_detection(self):
        block = BasicBlock("lp")
        builder = IRBuilder(block)
        builder.landingpad()
        assert block.is_landing_block
        normal = self._block_with_ret()
        assert not normal.is_landing_block

    def test_phi_helpers(self):
        block = BasicBlock("bb")
        builder = IRBuilder(block)
        phi = builder.phi(ty.I32)
        builder.ret(phi)
        assert block.phis() == [phi]
        assert block.first_non_phi_index() == 1


def assert_predecessors_match_scan(module):
    """``predecessors()`` equals the all-blocks scan on every block;
    returns how many blocks have more than one predecessor."""
    joins = 0
    for function in module.defined_functions():
        for block in function.blocks:
            preds = block.predecessors()
            assert preds == scan_predecessors(block), (function.name, block.name)
            joins += len(preds) > 1
    return joins


class TestPredecessorsFromUses:
    """``predecessors()`` walks the block's use list; the old scan over the
    successors of every block of the function is the oracle."""

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_modules_before_and_after_a_merge(self, seed):
        from repro.core import MergeEngine
        module = build_module(seed, families=3 + seed % 3)
        assert_predecessors_match_scan(module)
        report = MergeEngine(exploration_threshold=2).run(module)
        assert report.merge_count > 0
        # merged bodies carry guard diamonds: joins with several predecessors
        assert assert_predecessors_match_scan(module) > 0

    def _function(self, *names):
        module = Module()
        function = module.create_function("f", ty.function_type(ty.I32, [ty.I32]))
        return module, function, [function.append_block(n) for n in names]

    def test_switch_with_duplicate_targets(self):
        _, function, (entry, a, b, c) = self._function("entry", "a", "b", "c")
        # built last, so the switch's uses come last in c's use list
        IRBuilder(b).br(c)
        IRBuilder(a).br(c)
        IRBuilder(entry).switch(function.arguments[0], c,
                                [(vals.const_int(1), b), (vals.const_int(2), a),
                                 (vals.const_int(3), b), (vals.const_int(4), c)])
        IRBuilder(c).ret(function.arguments[0])
        assert b.predecessors() == [entry]
        # distinct blocks, in function block order, not use-list order
        assert c.predecessors() == [entry, a, b]
        assert_predecessors_match_scan(function.module)

    def test_invoke_unwind_edge(self):
        module, function, (entry, normal, unwind) = self._function(
            "entry", "normal", "unwind")
        callee = module.create_function("g", ty.function_type(ty.I32, [ty.I32]),
                                        linkage="external")
        builder = IRBuilder(entry)
        result = builder.invoke(callee, [function.arguments[0]], normal, unwind)
        IRBuilder(normal).ret(result)
        unwind_builder = IRBuilder(unwind)
        unwind_builder.landingpad()
        unwind_builder.ret(vals.const_int(0))
        assert normal.predecessors() == [entry]
        assert unwind.predecessors() == [entry]
        assert_predecessors_match_scan(module)

    def test_phi_labels_and_detached_branches_do_not_count(self):
        _, function, (entry, left, right, join) = self._function(
            "entry", "left", "right", "join")
        cond = IRBuilder(entry).icmp("sgt", function.arguments[0], vals.const_int(0))
        IRBuilder(entry).cond_br(cond, left, right)
        IRBuilder(left).br(join)
        IRBuilder(right).br(join)
        phi = IRBuilder(join).phi(ty.I32)
        phi.add_incoming(vals.const_int(1), left)
        phi.add_incoming(vals.const_int(2), right)
        phi.add_incoming(vals.const_int(3), entry)   # label use, not an edge
        IRBuilder(join).ret(phi)
        Branch(join)                                 # detached: no parent
        assert join.predecessors() == [left, right]
        assert entry.predecessors() == []
        assert_predecessors_match_scan(function.module)

    def test_terminator_removed_or_block_detached(self):
        _, function, (entry, body, exit_) = self._function("entry", "body", "exit")
        IRBuilder(entry).br(body)
        IRBuilder(body).br(exit_)
        IRBuilder(exit_).ret(function.arguments[0])
        body.terminator.erase_from_parent()
        assert exit_.predecessors() == []
        function.remove_block(body)
        assert body.predecessors() == []
        assert_predecessors_match_scan(function.module)


class TestFunction:
    def test_arguments_created_from_type(self):
        module = Module()
        function = module.create_function(
            "f", ty.function_type(ty.I32, [ty.I32, ty.DOUBLE]), arg_names=["a", "b"])
        assert [a.name for a in function.arguments] == ["a", "b"]
        assert [a.type for a in function.arguments] == [ty.I32, ty.DOUBLE]
        assert function.arguments[1].index == 1

    def test_bad_linkage_rejected(self):
        with pytest.raises(ValueError):
            Function("f", ty.function_type(ty.VOID, []), linkage="weak")

    def test_declaration_vs_definition(self):
        module = Module()
        function = module.create_function("f", ty.function_type(ty.VOID, []))
        assert function.is_declaration
        function.append_block("entry")
        assert not function.is_declaration

    def test_entry_block_requires_body(self):
        module = Module()
        function = module.create_function("f", ty.function_type(ty.VOID, []))
        with pytest.raises(ValueError):
            _ = function.entry_block

    def test_instruction_count(self):
        module = Module()
        function = module.create_function("f", ty.function_type(ty.I32, [ty.I32]))
        builder = IRBuilder(function.append_block("entry"))
        v = builder.add(function.arguments[0], vals.const_int(1))
        builder.ret(v)
        assert function.instruction_count() == 2
        assert len(list(function.instructions())) == 2

    def test_drop_body_clears_blocks_and_uses(self):
        module = Module()
        function = module.create_function("f", ty.function_type(ty.I32, [ty.I32]))
        builder = IRBuilder(function.append_block("entry"))
        v = builder.add(function.arguments[0], vals.const_int(1))
        builder.ret(v)
        function.drop_body()
        assert function.is_declaration
        assert not function.arguments[0].users

    def test_can_be_deleted_rules(self):
        module = Module()
        internal = module.create_function("f", ty.function_type(ty.VOID, []),
                                          linkage="internal")
        external = module.create_function("g", ty.function_type(ty.VOID, []),
                                          linkage="external")
        assert internal.can_be_deleted()
        assert not external.can_be_deleted()
        internal.address_taken = True
        assert not internal.can_be_deleted()

    def test_callers_lists_direct_call_sites(self):
        module = Module()
        callee = module.create_function("callee", ty.function_type(ty.I32, []))
        IRBuilder(callee.append_block("entry")).ret(vals.const_int(1))
        caller = module.create_function("caller", ty.function_type(ty.I32, []))
        builder = IRBuilder(caller.append_block("entry"))
        call = builder.call(callee, [])
        builder.ret(call)
        assert callee.callers() == [call]


class TestModule:
    def test_duplicate_function_name_rejected(self):
        module = Module()
        module.create_function("f", ty.function_type(ty.VOID, []))
        with pytest.raises(ValueError):
            module.create_function("f", ty.function_type(ty.VOID, []))

    def test_unique_name(self):
        module = Module()
        module.create_function("f", ty.function_type(ty.VOID, []))
        assert module.unique_name("f") == "f.1"
        assert module.unique_name("g") == "g"

    def test_remove_and_rename(self):
        module = Module()
        function = module.create_function("f", ty.function_type(ty.VOID, []))
        module.rename_function(function, "g")
        assert module.get_function("g") is function
        assert module.get_function("f") is None
        module.remove_function(function)
        assert module.get_function("g") is None

    def test_globals(self):
        module = Module()
        gv = module.add_global("counter", ty.I64, vals.ConstantInt(ty.I64, 7))
        assert module.get_global("counter") is gv
        with pytest.raises(ValueError):
            module.add_global("counter", ty.I64)

    def test_defined_vs_declarations(self):
        module = Module()
        defined = module.create_function("d", ty.function_type(ty.VOID, []))
        IRBuilder(defined.append_block("entry")).ret_void()
        module.create_function("e", ty.function_type(ty.VOID, []), linkage="external")
        assert [f.name for f in module.defined_functions()] == ["d"]
        assert [f.name for f in module.declarations()] == ["e"]

    def test_module_iteration_and_instruction_count(self):
        module = Module()
        f = module.create_function("f", ty.function_type(ty.I32, []))
        IRBuilder(f.append_block("entry")).ret(vals.const_int(0))
        assert [fn.name for fn in module] == ["f"]
        assert module.instruction_count() == 1
