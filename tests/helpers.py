"""Shared helpers for the test suite: small IR factories and semantic
comparison utilities built on the interpreter."""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro.ir import IRBuilder, Module
from repro.ir import types as ty
from repro.ir import values as vals
from repro.ir.callgraph import CallGraph
from repro.ir.function import Function
from repro.interp import Interpreter, standard_externals
from repro.workloads import FamilySpec, FunctionSpec, make_family


def assert_matches_rebuild(graph: CallGraph, module: Module) -> None:
    """An incrementally maintained call graph must equal a from-scratch
    build of the same module (edges, address-taken set, live call sites)."""
    fresh = CallGraph(module)
    assert graph.callees == fresh.callees
    assert graph.callers == fresh.callers
    assert graph.address_taken == fresh.address_taken
    for name in set(graph.call_sites) | set(fresh.call_sites):
        live = {id(s) for s in graph.call_sites.get(name, ())
                if s.parent is not None}
        assert live == {id(s) for s in fresh.call_sites.get(name, ())}


def scan_predecessors(block):
    """The all-blocks predecessor scan ``BasicBlock.predecessors`` replaced
    (every block whose terminator has ``block`` among its operands, in
    function block order): the oracle for the use-list walk."""
    if block.parent is None:
        return []
    return [other for other in block.parent.blocks
            if block in other.successors()]


def build_module(seed=7, families=4, clones=2):
    """Deterministic multi-family module population."""
    module = Module(f"sched_{seed}")
    rng = random.Random(seed)
    for index in range(families):
        spec = FunctionSpec(
            f"fam{index}",
            num_blocks=2 + (index + seed) % 3,
            instructions_per_block=4 + ((index + seed) % 4) * 2,
            call_ratio=0.3, memory_ratio=0.2,
            returns_float=bool((index + seed) % 5 == 1),
            seed=100 + 13 * seed + index)
        make_family(module, spec,
                    FamilySpec(identical=1, structural=clones, partial=1), rng)
    return module


def decisions(report):
    """A report's merges in comparable form (pair, name, rank, delta)."""
    return [(m.function1, m.function2, m.merged_name, m.rank_position, m.delta)
            for m in report.merges]


def make_binary_chain_function(module: Module, name: str, opcodes: Sequence[str],
                               constant: int = 3, linkage: str = "internal") -> Function:
    """int f(int a, int b): a chain of binary ops ending in a compare-guarded
    return (two exit blocks)."""
    function = module.create_function(
        name, ty.function_type(ty.I32, [ty.I32, ty.I32]),
        linkage=linkage, arg_names=["a", "b"])
    entry = function.append_block("entry")
    builder = IRBuilder(entry)
    value = function.arguments[0]
    for opcode in opcodes:
        value = builder.binary(opcode, value, function.arguments[1])
    value = builder.mul(value, vals.const_int(constant))
    positive = function.append_block("positive")
    negative = function.append_block("negative")
    condition = builder.icmp("sgt", value, vals.const_int(0))
    builder.cond_br(condition, positive, negative)
    IRBuilder(positive).ret(value)
    negative_builder = IRBuilder(negative)
    negated = negative_builder.sub(vals.const_int(0), value)
    negative_builder.ret(negated)
    return function


def make_accumulator_function(module: Module, name: str, iterations_param: bool = True,
                              step_opcode: str = "add") -> Function:
    """int f(int n): a counted loop accumulating into a memory slot."""
    function = module.create_function(
        name, ty.function_type(ty.I32, [ty.I32]), arg_names=["n"])
    entry = function.append_block("entry")
    builder = IRBuilder(entry)
    total_slot = builder.alloca(ty.I32, "total")
    index_slot = builder.alloca(ty.I32, "i")
    builder.store(vals.const_int(0), total_slot)
    builder.store(vals.const_int(0), index_slot)
    cond = function.append_block("cond")
    body = function.append_block("body")
    exit_block = function.append_block("exit")
    builder.br(cond)

    cond_builder = IRBuilder(cond)
    index = cond_builder.load(index_slot)
    in_range = cond_builder.icmp("slt", index, function.arguments[0])
    cond_builder.cond_br(in_range, body, exit_block)

    body_builder = IRBuilder(body)
    index_value = body_builder.load(index_slot)
    total_value = body_builder.load(total_slot)
    stepped = body_builder.binary(step_opcode, total_value, index_value)
    body_builder.store(stepped, total_slot)
    next_index = body_builder.add(index_value, vals.const_int(1))
    body_builder.store(next_index, index_slot)
    body_builder.br(cond)

    exit_builder = IRBuilder(exit_block)
    exit_builder.ret(exit_builder.load(total_slot))
    return function


def make_caller(module: Module, name: str, callees: Sequence[Function],
                linkage: str = "external") -> Function:
    """int caller(int x): calls each callee once (with x and constants) and
    sums the integer results."""
    function = module.create_function(
        name, ty.function_type(ty.I32, [ty.I32]), linkage=linkage, arg_names=["x"])
    entry = function.append_block("entry")
    builder = IRBuilder(entry)
    total: vals.Value = function.arguments[0]
    for callee in callees:
        args: List[vals.Value] = []
        for want in callee.function_type.param_types:
            if want == ty.I32:
                args.append(total if total.type == ty.I32 else vals.const_int(2))
            elif want.is_integer:
                args.append(vals.ConstantInt(want, 3))
            elif want.is_float:
                args.append(vals.ConstantFloat(want, 1.5))
            elif want.is_pointer:
                args.append(vals.ConstantNull(want))
            else:
                args.append(vals.undef(want))
        call = builder.call(callee, args)
        if call.type == ty.I32:
            total = builder.add(total, call)
    builder.ret(total)
    return function


def run_function(module: Module, name: str, args: Sequence[object],
                 externals: Optional[Dict] = None) -> object:
    interpreter = Interpreter(module, externals or standard_externals())
    return interpreter.run(name, args)


def results_match(reference, candidate, bits: int = 32) -> bool:
    """Compare interpreter results, treating integers modulo 2**bits."""
    if isinstance(reference, float) or isinstance(candidate, float):
        if reference is None or candidate is None:
            return reference == candidate
        return abs(float(reference) - float(candidate)) < 1e-9
    if reference is None or candidate is None:
        return reference == candidate
    mask = (1 << bits) - 1
    return (int(reference) & mask) == (int(candidate) & mask)


def assert_semantically_equivalent(module_before: Module, module_after: Module,
                                   entry: str, inputs: Sequence[Sequence[object]],
                                   externals: Optional[Dict] = None) -> None:
    """Run ``entry`` on both modules for every input vector and require
    identical results."""
    for args in inputs:
        reference = run_function(module_before, entry, args, externals)
        candidate = run_function(module_after, entry, args, externals)
        assert results_match(reference, candidate), (
            f"{entry}{tuple(args)}: expected {reference!r}, got {candidate!r}")
