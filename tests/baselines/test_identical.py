"""Tests for the Identical (LLVM MergeFunctions-style) baseline."""

import random

import pytest

from repro.baselines import (IdenticalFunctionMergingPass, functions_identical,
                             structural_hash)
from repro.baselines.identical import IdenticalMergeRecord
from repro.core import MergeEngine
from repro.ir import IRBuilder, Module, verify_or_raise
from repro.ir import types as ty
from repro.ir import values as vals
from repro.ir.callgraph import CallGraph
from repro.ir.printer import module_to_str
from repro.workloads import clone_function, mutate_opcodes

from tests.helpers import (assert_matches_rebuild, make_binary_chain_function,
                           make_caller, run_function)


class TestIdentityCheck:
    def test_clone_is_identical(self):
        module = Module()
        base = make_binary_chain_function(module, "base", ["add", "mul"])
        copy = clone_function(module, base, "copy")
        assert structural_hash(base) == structural_hash(copy)
        assert functions_identical(base, copy)

    def test_different_constant_not_identical(self):
        module = Module()
        base = make_binary_chain_function(module, "base", ["add"], constant=3)
        other = make_binary_chain_function(module, "other", ["add"], constant=4)
        assert not functions_identical(base, other)

    def test_different_opcode_not_identical(self):
        module = Module()
        base = make_binary_chain_function(module, "base", ["add"])
        other = make_binary_chain_function(module, "other", ["sub"])
        assert not functions_identical(base, other)
        assert structural_hash(base) != structural_hash(other)

    def test_different_signature_not_identical(self):
        module = Module()
        base = make_binary_chain_function(module, "base", ["add"])
        extra = clone_function(module, base, "extra", extra_param_types=[ty.I64])
        assert not functions_identical(base, extra)

    def test_mutated_clone_not_identical(self):
        module = Module()
        rng = random.Random(1)
        base = make_binary_chain_function(module, "base", ["add", "mul", "xor"])
        mutated = clone_function(module, base, "mutated")
        mutate_opcodes(mutated, rng, fraction=1.0)
        assert not functions_identical(base, mutated)

    def test_value_numbering_handles_operand_topology(self):
        # two functions with the same multiset of instructions but different
        # dataflow must NOT be identical
        module = Module()
        f1 = module.create_function("f1", ty.function_type(ty.I32, [ty.I32, ty.I32]))
        builder = IRBuilder(f1.append_block("entry"))
        a1 = builder.add(f1.arguments[0], f1.arguments[1])
        builder.ret(builder.add(a1, f1.arguments[0]))
        f2 = module.create_function("f2", ty.function_type(ty.I32, [ty.I32, ty.I32]))
        builder = IRBuilder(f2.append_block("entry"))
        a2 = builder.add(f2.arguments[0], f2.arguments[1])
        builder.ret(builder.add(a2, f2.arguments[1]))
        assert not functions_identical(f1, f2)


class TestIdenticalPass:
    def test_folds_identical_clones(self):
        module = Module()
        base = make_binary_chain_function(module, "base", ["add", "mul"])
        clones = [clone_function(module, base, f"copy{i}") for i in range(3)]
        make_caller(module, "main", [base] + clones)
        before = run_function(module, "main", [5])
        report = IdenticalFunctionMergingPass().run(module)
        assert report.merge_count == 3
        verify_or_raise(module)
        assert run_function(module, "main", [5]) == before
        # the duplicates were internal and uncalled after retargeting
        assert module.get_function("copy0") is None

    def test_ignores_non_identical_functions(self):
        module = Module()
        f1 = make_binary_chain_function(module, "a", ["add"])
        f2 = make_binary_chain_function(module, "b", ["sub"])
        make_caller(module, "main", [f1, f2])
        report = IdenticalFunctionMergingPass().run(module)
        assert report.merge_count == 0

    def test_external_duplicate_becomes_thunk(self):
        module = Module()
        base = make_binary_chain_function(module, "base", ["add", "mul"])
        dup = clone_function(module, base, "dup")
        dup.linkage = "external"
        make_caller(module, "main", [base, dup])
        before = run_function(module, "main", [4])
        report = IdenticalFunctionMergingPass().run(module)
        assert report.merge_count == 1
        thunk = module.get_function("dup")
        assert thunk is not None and thunk.instruction_count() == 2
        verify_or_raise(module)
        assert run_function(module, "main", [4]) == before

    def test_no_merges_reported_for_empty_module(self):
        assert IdenticalFunctionMergingPass().run(Module()).merge_count == 0


class RebuildPerFoldPass(IdenticalFunctionMergingPass):
    """Reference semantics: each fold rebuilds the whole call graph to find
    the duplicate's call sites, so no incremental bookkeeping is trusted."""

    def _fold(self, module, graph, representative, duplicate):
        graph.rebuild()
        for site in graph.direct_call_sites(duplicate):
            site.set_operand(0, representative)
        deletable = (duplicate.can_be_deleted()
                     and not graph.is_address_taken(duplicate) and not duplicate.users)
        if deletable:
            module.remove_function(duplicate)
            return
        duplicate.drop_body()
        block = duplicate.append_block("thunk")
        builder = IRBuilder(block)
        call = builder.call(representative, list(duplicate.arguments))
        if duplicate.return_type.is_void:
            builder.ret_void()
        else:
            builder.ret(call)


class GraphCheckingPass(IdenticalFunctionMergingPass):
    """The pass under test, checking after every fold that the maintained
    call graph equals a from-scratch build, and that every function not yet
    used as a representative still lists its call sites in module order."""

    def __init__(self):
        super().__init__()
        self.representatives = set()
        self.folds = 0

    def _fold(self, module, graph, representative, duplicate):
        self.representatives.add(representative.name)
        super()._fold(module, graph, representative, duplicate)
        self.folds += 1
        assert_matches_rebuild(graph, module)
        fresh = CallGraph(module)
        for function in module.functions:
            if function.name in self.representatives:
                continue
            assert ([id(s) for s in graph.direct_call_sites(function)]
                    == [id(s) for s in fresh.direct_call_sites(function)])


def user_order(module):
    """Every function's users as (function, block, position) locations, in
    ``users`` order: redirecting call sites in a different order would
    reorder a representative's users without changing the printed IR."""
    def location(inst):
        block = inst.parent
        return (block.parent.name, block.parent.blocks.index(block),
                block.instructions.index(inst))
    return {function.name: [location(user) for user in function.users]
            for function in module.functions}


def make_wrapper(module, name, callee, constant):
    """internal int name(int a, int b) { return callee(a, b) + constant; }"""
    function = module.create_function(
        name, ty.function_type(ty.I32, [ty.I32, ty.I32]), linkage="internal",
        arg_names=["a", "b"])
    builder = IRBuilder(function.append_block("entry"))
    call = builder.call(callee, list(function.arguments))
    builder.ret(builder.add(call, vals.const_int(constant)))
    return function


def make_apply(module):
    """int apply(int (*f)(int, int), int x) { return f(x, 1); }"""
    pointer = ty.pointer(ty.function_type(ty.I32, [ty.I32, ty.I32]))
    function = module.create_function(
        "apply", ty.function_type(ty.I32, [pointer, ty.I32]), arg_names=["f", "x"])
    builder = IRBuilder(function.append_block("entry"))
    builder.ret(builder.call(function.arguments[0],
                             [function.arguments[1], vals.const_int(1)]))
    return function


def take_address(module, name, target, how, apply=None):
    """An external function that takes ``target``'s address, either by
    storing it to a stack slot or by passing it to ``apply``."""
    function = module.create_function(
        name, ty.function_type(ty.I32, [ty.I32]), linkage="external", arg_names=["x"])
    builder = IRBuilder(function.append_block("entry"))
    if how == "stored":
        builder.store(target, builder.alloca(target.type))
        builder.ret(function.arguments[0])
    else:
        builder.ret(builder.call(apply, [target, function.arguments[0]]))
    return function


def build_fold_module(seed, leaf_families=3, wrapper_families=3):
    """A seeded module of clone families for the Identical pass.

    Leaf families are clones of binary-chain functions.  Each wrapper family
    calls members of one earlier family (leaf or wrapper) chosen at random,
    so its members only become identical once that family's duplicates were
    folded and their call sites redirected.  Some duplicates are external
    (they become thunks) and some internal ones have their address taken by
    a store or by being passed to a call (they become thunks too).
    """
    rng = random.Random(seed)
    module = Module(f"fold_{seed}")
    apply = make_apply(module)
    opcodes = ["add", "sub", "mul", "xor", "and", "or"]
    families = []
    for index in range(leaf_families):
        base = make_binary_chain_function(
            module, f"leaf{index}", [rng.choice(opcodes) for _ in range(rng.randint(1, 3))],
            constant=index + 2)
        families.append([base] + [clone_function(module, base, f"leaf{index}_dup{i}")
                                  for i in range(rng.randint(1, 3))])
    for index in range(wrapper_families):
        callees = rng.choice(families)
        constant = rng.randint(1, 4)
        families.append([make_wrapper(module, f"wrap{index}_{i}", rng.choice(callees), constant)
                         for i in range(rng.randint(2, 4))])
    takers = 0
    for family in families:
        for duplicate in family[1:]:
            roll = rng.random()
            if roll < 0.2:
                duplicate.linkage = "external"
            elif roll < 0.45:
                how = rng.choice(["stored", "argument"])
                take_address(module, f"take{takers}", duplicate, how, apply)
                takers += 1
    make_caller(module, "main", [rng.choice(family) for family in families
                                 for _ in range(2)])
    return module


class TestIncrementalFoldOracle:
    """The pass keeps one call graph exact across folds, and decides exactly
    what the rebuild-per-fold reference decides."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_rebuild_per_fold_reference(self, seed):
        reference_module = build_fold_module(seed)
        reference = RebuildPerFoldPass().run(reference_module)
        module = build_fold_module(seed)
        checked = GraphCheckingPass()
        report = checked.run(module)
        assert report.records and report.records == reference.records
        assert checked.folds == report.merge_count
        assert module_to_str(module) == module_to_str(reference_module)
        assert user_order(module) == user_order(reference_module)
        verify_or_raise(module)
        engine = MergeEngine(exploration_threshold=2)
        assert (engine.run(module).decision_keys()
                == MergeEngine(exploration_threshold=2).run(reference_module).decision_keys())

    def test_modules_cover_every_fold_disposition(self):
        # wrappers fold only after their callees did; duplicates end up
        # deleted, as external thunks and as address-taken internal thunks
        seen = set()
        for seed in range(12):
            module = build_fold_module(seed)
            report = IdenticalFunctionMergingPass().run(module)
            for name in (n for record in report.records for n in record.folded):
                kind = "wrap" if name.startswith("wrap") else "leaf"
                thunk = module.get_function(name)
                if thunk is None:
                    seen.add((kind, "deleted"))
                else:
                    seen.add((kind, f"{thunk.linkage} thunk"))
        assert {("wrap", "deleted"), ("leaf", "deleted"), ("wrap", "external thunk"),
                ("leaf", "external thunk"), ("wrap", "internal thunk"),
                ("leaf", "internal thunk")} <= seen


def count_graph_builds(monkeypatch):
    """Every ``CallGraph`` built from now on, in build order."""
    builds = []
    rebuild = CallGraph.rebuild
    monkeypatch.setattr(CallGraph, "rebuild",
                        lambda graph: builds.append(graph) or rebuild(graph))
    return builds


def clone_pair_module(families):
    """``families`` base functions, each with one identical copy."""
    module = Module()
    callees = []
    for index in range(families):
        base = make_binary_chain_function(module, f"base{index}", ["add"] * (index + 1))
        callees += [base, clone_function(module, base, f"copy{index}")]
    make_caller(module, "main", callees)
    return module


def test_one_call_graph_build_per_run(monkeypatch):
    families = 8
    module = clone_pair_module(families)
    calls = count_graph_builds(monkeypatch)
    report = IdenticalFunctionMergingPass().run(module)
    assert report.merge_count == families
    assert len(calls) == 1


def test_the_one_graph_serves_every_fold(monkeypatch):
    # GraphCheckingPass builds two fresh graphs per fold to compare against
    module = clone_pair_module(5)
    builds = count_graph_builds(monkeypatch)
    folded_with = []

    class Recording(GraphCheckingPass):
        def _fold(self, module, graph, representative, duplicate):
            folded_with.append(graph)
            super()._fold(module, graph, representative, duplicate)

    report = Recording().run(module)
    assert report.merge_count == 5
    assert len(builds) == 1 + 2 * report.merge_count
    assert all(graph is builds[0] for graph in folded_with)


def test_no_call_graph_without_a_fold(monkeypatch):
    # "f1" and "f2" share a structural hash bucket but differ in a constant
    module = Module()
    functions = [make_binary_chain_function(module, "f0", ["add", "mul"]),
                 make_binary_chain_function(module, "f1", ["sub"], constant=3),
                 make_binary_chain_function(module, "f2", ["sub"], constant=4)]
    make_caller(module, "main", functions)
    assert structural_hash(functions[1]) == structural_hash(functions[2])
    builds = count_graph_builds(monkeypatch)
    report = IdenticalFunctionMergingPass().run(module)
    assert report.merge_count == 0
    assert builds == []


class TestFoldDispositions:
    def test_address_taken_internal_duplicate_stays_a_thunk(self):
        module = Module()
        apply = make_apply(module)
        base = make_binary_chain_function(module, "base", ["add", "mul"])
        passed = clone_function(module, base, "passed")
        stored = clone_function(module, base, "stored")
        take_address(module, "take_passed", passed, "argument", apply)
        take_address(module, "take_stored", stored, "stored")
        make_caller(module, "main", [base, passed, stored,
                                     module.get_function("take_passed")])
        before = run_function(module, "main", [6])
        report = IdenticalFunctionMergingPass().run(module)
        assert report.records == [IdenticalMergeRecord("base", ["passed", "stored"])]
        for name in ("passed", "stored"):
            thunk = module.get_function(name)
            assert thunk is not None and thunk.instruction_count() == 2
            assert thunk.blocks[0].instructions[0].operands[0] is base
        verify_or_raise(module)
        assert run_function(module, "main", [6]) == before

    def test_duplicate_whose_only_caller_is_a_duplicate_is_deleted(self):
        module = Module()
        b0 = make_binary_chain_function(module, "b0", ["sub", "xor"])
        b1 = clone_function(module, b0, "b1")
        a0 = make_wrapper(module, "a0", b0, 5)
        make_wrapper(module, "a1", b1, 5)
        make_caller(module, "main", [a0, module.get_function("a1")])
        before = run_function(module, "main", [9])
        report = IdenticalFunctionMergingPass().run(module)
        assert report.records == [IdenticalMergeRecord("b0", ["b1"]),
                                  IdenticalMergeRecord("a0", ["a1"])]
        assert module.get_function("b1") is None
        assert module.get_function("a1") is None
        verify_or_raise(module)
        assert run_function(module, "main", [9]) == before
