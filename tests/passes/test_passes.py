"""Tests for the generic IR passes (DCE, SimplifyCFG, reg2mem, manager)."""

import pytest

from repro.evaluation import compile_module, pipeline
from repro.ir import IRBuilder, Module, verify_or_raise
from repro.ir import types as ty
from repro.ir.basicblock import BasicBlock
from repro.ir.callgraph import CallGraph
from repro.ir.clone import clone_function_detached
from repro.ir.printer import function_to_str, module_to_str
from repro.ir import values as vals
from repro.interp import Interpreter
from repro.passes import (DeadCodeElimination, DeadFunctionElimination, Pass,
                          PassManager, RegToMem, SimplifyCFG, demote_phis)

from tests.helpers import BENCHMARK_MODELS, scan_predecessors


class TestDeadCodeElimination:
    def test_removes_unused_pure_instruction(self):
        module = Module()
        function = module.create_function("f", ty.function_type(ty.I32, [ty.I32]))
        builder = IRBuilder(function.append_block("entry"))
        builder.add(function.arguments[0], vals.const_int(1))  # dead
        live = builder.mul(function.arguments[0], vals.const_int(2))
        builder.ret(live)
        assert DeadCodeElimination().run_on_function(function)
        opcodes = [i.opcode for i in function.instructions()]
        assert "add" not in opcodes and "mul" in opcodes

    def test_keeps_side_effecting_instructions(self):
        module = Module()
        function = module.create_function("f", ty.function_type(ty.VOID, [ty.I32]))
        builder = IRBuilder(function.append_block("entry"))
        slot = builder.alloca(ty.I32)
        builder.store(function.arguments[0], slot)
        builder.ret_void()
        DeadCodeElimination().run_on_function(function)
        opcodes = [i.opcode for i in function.instructions()]
        assert "store" in opcodes

    def test_cascading_removal(self):
        module = Module()
        function = module.create_function("f", ty.function_type(ty.I32, [ty.I32]))
        builder = IRBuilder(function.append_block("entry"))
        a = builder.add(function.arguments[0], vals.const_int(1))
        builder.mul(a, vals.const_int(2))  # dead, and makes `a` dead too
        builder.ret(function.arguments[0])
        DeadCodeElimination().run_on_function(function)
        assert function.instruction_count() == 1

    def test_reports_no_change(self):
        module = Module()
        function = module.create_function("f", ty.function_type(ty.I32, [ty.I32]))
        builder = IRBuilder(function.append_block("entry"))
        builder.ret(function.arguments[0])
        assert not DeadCodeElimination().run_on_function(function)


def rescan_dce(function):
    """The rescan-until-stable DCE loop the worklist pass replaced: the
    oracle for the fixed point it must reach."""
    changed = False
    progress = True
    while progress:
        progress = False
        for block in function.blocks:
            for inst in list(block.instructions):
                if inst.has_side_effects or inst.is_terminator:
                    continue
                if inst.type.is_void:
                    continue
                if not inst.users:
                    inst.erase_from_parent()
                    changed = progress = True
    return changed


def use_lists(module):
    """Every instruction's users as (function, position) pairs, in use-list
    order: later passes iterate use lists, so their order must match too."""
    position = {}
    for function in module.defined_functions():
        for index, inst in enumerate(function.instructions()):
            position[id(inst)] = (function.name, index)
    return [[position.get(id(user)) for user in inst.users]
            for function in module.defined_functions()
            for inst in function.instructions()]


def assert_dce_matches_rescan(ours, theirs):
    """Run the worklist pass on ``ours`` and the rescan loop on an
    identical copy ``theirs``; returns how many instructions were removed."""
    removed = 0
    for mine, other in zip(ours.defined_functions(),
                           theirs.defined_functions()):
        before = mine.instruction_count()
        assert (DeadCodeElimination().run_on_function(mine)
                == rescan_dce(other)), mine.name
        removed += before - mine.instruction_count()
    assert module_to_str(ours) == module_to_str(theirs), ours.name
    assert use_lists(ours) == use_lists(theirs), ours.name
    return removed


class TestDeadCodeEliminationWorklist:
    """The worklist DCE leaves exactly the module the rescan loop leaves,
    on every benchmark suite module and the clone-family module."""

    def test_suite_modules(self):
        from perfbench.inputs import build_suite
        removed = sum(assert_dce_matches_rescan(ours, theirs)
                      for ours, theirs in zip(build_suite(1), build_suite(1)))
        assert removed > 0

    def test_clones_module(self):
        from perfbench.inputs import build_clones
        assert_dce_matches_rescan(build_clones(1), build_clones(1))


class GraphDeadFunctionElimination(Pass):
    """The rule ``DeadFunctionElimination`` used before it read use lists:
    a fresh ``CallGraph`` per sweep, and a function goes when the graph
    calls it dead and it has no users.  The oracle for the graph-free pass;
    ``removed`` lists what it deleted."""

    def __init__(self):
        self.removed = []

    def run(self, module):
        progress = True
        while progress:
            progress = False
            graph = CallGraph(module)
            for function in list(module.functions):
                if function.is_declaration:
                    continue
                if graph.is_dead(function) and not function.users:
                    self.removed.append(function.name)
                    module.remove_function(function)
                    progress = True
        return len(self.removed)


class RecordingDeadFunctionElimination(DeadFunctionElimination):
    """The pass under test, recording the names it deleted."""

    def __init__(self):
        self.removed = []

    def run(self, module):
        before = [f.name for f in module.functions]
        count = super().run(module)
        self.removed = [n for n in before if module.get_function(n) is None]
        assert count == len(self.removed)
        return count


def assert_dfe_matches_oracle(build):
    """Run DeadFunctionElimination and the graph oracle on two copies of
    ``build()``; both must delete the same functions and leave the same
    module.  Returns how many functions were deleted."""
    ours, theirs = build(), build()
    oracle = GraphDeadFunctionElimination()
    assert DeadFunctionElimination().run(ours) == oracle.run(theirs)
    assert module_to_str(ours) == module_to_str(theirs)
    return len(oracle.removed)


def void_function(module, name, linkage="internal"):
    """A body-less ``void name()``; :func:`define_calls` gives it one."""
    return module.create_function(name, ty.function_type(ty.VOID, []), linkage=linkage)


def define_calls(function, *callees):
    """Give ``function`` a body that calls each of ``callees``."""
    builder = IRBuilder(function.append_block("entry"))
    for callee in callees:
        builder.call(callee, [])
    builder.ret_void()
    return function


class TestDeadFunctionElimination:
    def test_removes_uncalled_internal_function(self):
        module = Module()
        dead = module.create_function("dead", ty.function_type(ty.VOID, []))
        IRBuilder(dead.append_block("entry")).ret_void()
        kept = module.create_function("kept", ty.function_type(ty.VOID, []),
                                      linkage="external")
        IRBuilder(kept.append_block("entry")).ret_void()
        removed = DeadFunctionElimination().run(module)
        assert removed == 1
        assert module.get_function("dead") is None
        assert module.get_function("kept") is not None

    def test_transitively_dead_functions_removed(self):
        module = Module()
        inner = module.create_function("inner", ty.function_type(ty.VOID, []))
        IRBuilder(inner.append_block("entry")).ret_void()
        outer = module.create_function("outer", ty.function_type(ty.VOID, []))
        builder = IRBuilder(outer.append_block("entry"))
        builder.call(inner, [])
        builder.ret_void()
        assert DeadFunctionElimination().run(module) == 2

    def test_called_function_kept(self):
        module = Module()
        callee = module.create_function("callee", ty.function_type(ty.VOID, []))
        IRBuilder(callee.append_block("entry")).ret_void()
        caller = module.create_function("caller", ty.function_type(ty.VOID, []),
                                        linkage="external")
        builder = IRBuilder(caller.append_block("entry"))
        builder.call(callee, [])
        builder.ret_void()
        assert DeadFunctionElimination().run(module) == 0


class TestDeadFunctionEliminationMatchesCallGraphRule:
    """Reading ``users`` instead of a call graph deletes exactly what the
    graph rule deleted: every call site and every address-taking operand
    of a function is one of its users."""

    def test_self_recursive_internal_function_kept(self):
        def build():
            module = Module()
            loop = void_function(module, "loop")
            define_calls(loop, loop)
            return module
        assert assert_dfe_matches_oracle(build) == 0

    def test_mutually_recursive_internal_pair_kept(self):
        def build():
            module = Module()
            ping, pong = void_function(module, "ping"), void_function(module, "pong")
            define_calls(ping, pong)
            define_calls(pong, ping)
            return module
        assert assert_dfe_matches_oracle(build) == 0

    def test_internal_function_with_stored_address_kept(self):
        def build():
            module = Module()
            target = define_calls(void_function(module, "target"))
            holder = void_function(module, "holder", linkage="external")
            builder = IRBuilder(holder.append_block("entry"))
            builder.store(target, builder.alloca(target.type))
            builder.ret_void()
            return module
        assert assert_dfe_matches_oracle(build) == 0

    def test_external_function_kept(self):
        def build():
            module = Module()
            define_calls(void_function(module, "exported", linkage="external"))
            return module
        assert assert_dfe_matches_oracle(build) == 0

    def test_uncalled_chain_removed_whole(self):
        # a -> b -> c with a uncalled; a comes last in module order, so a
        # single sweep cannot see b and c die
        def build():
            module = Module()
            c = define_calls(void_function(module, "c"))
            b = define_calls(void_function(module, "b"), c)
            define_calls(void_function(module, "a"), b)
            return module
        module = build()
        assert DeadFunctionElimination().run(module) == 3
        assert module.functions == []
        assert assert_dfe_matches_oracle(build) == 3

    @pytest.mark.parametrize("model", sorted(BENCHMARK_MODELS))
    def test_benchmark_models_after_fmsa(self, model, monkeypatch):
        # the post-merge cleanup of compile_module(..., "fmsa"), once with
        # the pass and once with the graph oracle in its place
        runs = []
        for cls in (RecordingDeadFunctionElimination, GraphDeadFunctionElimination):
            passes = []

            def make(cls=cls):
                passes.append(cls())
                return passes[-1]
            monkeypatch.setattr(pipeline, "DeadFunctionElimination", make)
            module = BENCHMARK_MODELS[model]()
            result = compile_module(module, "fmsa")
            runs.append((sorted(n for p in passes for n in p.removed),
                         result.size_after, module_to_str(module)))
        assert runs[0] == runs[1]


class TestSimplifyCFG:
    def test_removes_unreachable_block(self):
        module = Module()
        function = module.create_function("f", ty.function_type(ty.I32, []))
        builder = IRBuilder(function.append_block("entry"))
        builder.ret(vals.const_int(1))
        orphan = function.append_block("orphan")
        IRBuilder(orphan).ret(vals.const_int(2))
        assert SimplifyCFG().run_on_function(function)
        assert len(function.blocks) == 1

    def test_merges_straightline_chain(self):
        module = Module()
        function = module.create_function("f", ty.function_type(ty.I32, [ty.I32]))
        entry = function.append_block("entry")
        mid = function.append_block("mid")
        builder = IRBuilder(entry)
        a = builder.add(function.arguments[0], vals.const_int(1))
        builder.br(mid)
        mid_builder = IRBuilder(mid)
        mid_builder.ret(mid_builder.mul(a, vals.const_int(2)))
        SimplifyCFG().run_on_function(function)
        assert len(function.blocks) == 1
        verify_or_raise(function)

    def test_does_not_merge_block_with_multiple_predecessors(self):
        module = Module()
        function = module.create_function("f", ty.function_type(ty.I32, [ty.I32]))
        entry = function.append_block("entry")
        left = function.append_block("left")
        right = function.append_block("right")
        join = function.append_block("join")
        builder = IRBuilder(entry)
        cond = builder.icmp("sgt", function.arguments[0], vals.const_int(0))
        builder.cond_br(cond, left, right)
        IRBuilder(left).br(join)
        IRBuilder(right).br(join)
        IRBuilder(join).ret(vals.const_int(1))
        SimplifyCFG().run_on_function(function)
        assert join in function.blocks
        verify_or_raise(function)

    def test_preserves_semantics(self):
        module = Module()
        function = module.create_function("f", ty.function_type(ty.I32, [ty.I32]),
                                          linkage="external")
        entry = function.append_block("entry")
        mid = function.append_block("mid")
        builder = IRBuilder(entry)
        a = builder.mul(function.arguments[0], vals.const_int(3))
        builder.br(mid)
        mid_builder = IRBuilder(mid)
        mid_builder.ret(mid_builder.add(a, vals.const_int(7)))
        before = Interpreter(module).run("f", [5])
        SimplifyCFG().run_on_function(function)
        after = Interpreter(module).run("f", [5])
        assert before == after == 22


def rescan_merge_straightline(function):
    """The restart-until-stable fold loop (with the all-blocks predecessor
    scan) that the one-sweep ``_merge_straightline`` replaced: the oracle
    for the module it must leave."""
    changed = True
    any_change = False
    while changed:
        changed = False
        for block in list(function.blocks):
            term = block.terminator
            if term is None or term.opcode != "br" or len(term.operands) != 1:
                continue
            succ = term.operands[0]
            if not isinstance(succ, BasicBlock) or succ is block:
                continue
            if succ is function.entry_block or succ.is_landing_block:
                continue
            if len(scan_predecessors(succ)) != 1:
                continue
            if succ.phis():
                continue
            term.erase_from_parent()
            for inst in list(succ.instructions):
                succ.remove(inst)
                block.append(inst)
            succ.replace_all_uses_with(block)
            function.remove_block(succ)
            changed = True
            any_change = True
    return any_change


class TestMergeStraightlineOneSweep:
    """The one-sweep fold leaves exactly the function the restart loop
    leaves (printed body and block order), checked on every call that
    ``compile_module`` makes on the benchmark suite and clones modules."""

    @staticmethod
    def compile_checked(monkeypatch, modules):
        from repro.evaluation import compile_module
        one_sweep = SimplifyCFG._merge_straightline
        folded = []

        def checked(self, function):
            twin = clone_function_detached(function)
            assert function_to_str(twin) == function_to_str(function)
            expected = rescan_merge_straightline(twin)
            before = len(function.blocks)
            assert one_sweep(self, function) == expected, function.name
            assert function_to_str(function) == function_to_str(twin), function.name
            assert ([b.name for b in function.blocks]
                    == [b.name for b in twin.blocks]), function.name
            folded.append(before - len(function.blocks))
            twin.drop_body()   # release the twin's uses of shared values
            return expected

        monkeypatch.setattr(SimplifyCFG, "_merge_straightline", checked)
        for module in modules:
            compile_module(module, "fmsa")
        return sum(folded)

    def test_suite_modules(self, monkeypatch):
        from perfbench.inputs import build_suite
        assert self.compile_checked(monkeypatch, build_suite(1)) > 0

    def test_clones_module(self, monkeypatch):
        from perfbench.inputs import build_clones
        assert self.compile_checked(monkeypatch, [build_clones(1)]) > 0

    def test_chain_laid_out_backwards_folds_in_one_call(self):
        module = Module()
        function = module.create_function("f", ty.function_type(ty.I32, [ty.I32]))
        entry = function.append_block("entry")
        # layout order c, b, a; control flow entry -> a -> b -> c
        c, b, a = (function.append_block(n) for n in "cba")
        IRBuilder(entry).br(a)
        value = function.arguments[0]
        for block, target in ((a, b), (b, c)):
            builder = IRBuilder(block)
            value = builder.add(value, vals.const_int(1))
            builder.br(target)
        IRBuilder(c).ret(value)
        twin = clone_function_detached(function)
        assert SimplifyCFG()._merge_straightline(function)
        assert rescan_merge_straightline(twin)
        assert [blk.name for blk in function.blocks] == ["entry"]
        assert function_to_str(function) == function_to_str(twin)
        verify_or_raise(function)


class TestRegToMem:
    def _function_with_phi(self):
        module = Module()
        function = module.create_function("f", ty.function_type(ty.I32, [ty.I32]),
                                          linkage="external")
        entry = function.append_block("entry")
        left = function.append_block("left")
        right = function.append_block("right")
        join = function.append_block("join")
        builder = IRBuilder(entry)
        cond = builder.icmp("sgt", function.arguments[0], vals.const_int(0))
        builder.cond_br(cond, left, right)
        IRBuilder(left).br(join)
        IRBuilder(right).br(join)
        join_builder = IRBuilder(join)
        phi = join_builder.phi(ty.I32, "p")
        phi.add_incoming(vals.const_int(10), left)
        phi.add_incoming(vals.const_int(20), right)
        join_builder.ret(join_builder.add(phi, function.arguments[0]))
        return module, function

    def test_phi_removed_and_semantics_preserved(self):
        module, function = self._function_with_phi()
        before_pos = Interpreter(module).run("f", [4])
        before_neg = Interpreter(module).run("f", [-4])
        assert RegToMem().run_on_function(function)
        assert not any(i.is_phi for i in function.instructions())
        verify_or_raise(function)
        assert Interpreter(module).run("f", [4]) == before_pos == 14
        masked = Interpreter(module).run("f", [-4]) & 0xFFFFFFFF
        assert masked == (before_neg & 0xFFFFFFFF) == (20 - 4) & 0xFFFFFFFF

    def test_noop_without_phis(self):
        module = Module()
        function = module.create_function("f", ty.function_type(ty.I32, [ty.I32]))
        IRBuilder(function.append_block("entry")).ret(function.arguments[0])
        assert not demote_phis(function)


class TestPassManager:
    def test_runs_passes_in_order_and_times_them(self):
        calls = []

        class Recorder(Pass):
            def __init__(self, name):
                self.name = name

            def run(self, module):
                calls.append(self.name)
                return self.name

        manager = PassManager([Recorder("first")])
        manager.add(Recorder("second"))
        results = manager.run(Module())
        assert calls == ["first", "second"]
        assert results == {"first": "first", "second": "second"}
        assert len(manager.timings) == 2
        assert manager.total_time() >= 0.0
