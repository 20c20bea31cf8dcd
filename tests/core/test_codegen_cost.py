"""The code generator's counting sink against the IR it would build.

``merge_cost`` runs the same decision walk as ``merge_functions`` but emits
into a sink that only adds up target costs.  These tests require it to
agree exactly with ``estimate_profit(merge_functions(...))`` - merged size,
merged parameter count, ``delta`` and whether ``CodegenError`` is raised -
on every candidate real engine runs evaluate and on hand-built pairs that
reach each branch of the walk.
"""

import random

import pytest

from repro.analysis import AnalysisError
from repro.core import (CodegenError, MergeEngine, MergeOptions,
                        estimate_profit, evaluate_merge, merge_cost,
                        merge_functions)
from repro.core.engine import PlanningError
from repro.core.engine.stages import CodegenStage, ProfitabilityStage
from repro.ir import IRBuilder, Module
from repro.ir import types as ty
from repro.ir import values as vals
from repro.ir.callgraph import CallGraph
from repro.targets import get_target
from repro.targets.x86_64 import X86_64
from repro.workloads import (FamilySpec, FunctionSpec, add_call_sites,
                             clone_function, make_family)
from repro.workloads.mibench import build_mibench_benchmark
from repro.workloads.spec2006 import build_spec_benchmark

from tests.core.test_codegen import (landing_pad_module,
                                     unaligned_landing_blocks)
from tests.helpers import build_module, make_binary_chain_function

TARGETS = [X86_64, get_target("arm-thumb")]


def assert_cost_exact(f1, f2, target, alignment=None, options=None,
                      call_graph=None):
    """Cost ``f1``/``f2`` both ways; return the built result (or None when
    both raise ``CodegenError``)."""
    try:
        counted = merge_cost(f1, f2, target, options, alignment)
    except CodegenError:
        with pytest.raises(CodegenError):
            merge_functions(f1, f2, options, alignment)
        return None
    result = merge_functions(f1, f2, options, alignment)
    expected = estimate_profit(result, target, call_graph)
    assert counted == (expected.size_merged, len(result.merged.arguments))
    evaluation = evaluate_merge(f1, f2, *counted, target, call_graph)
    assert evaluation == expected
    assert evaluation.delta == expected.delta
    return result


def opcodes_of(result):
    return [inst.opcode for inst in result.merged.instructions()]


# ---------------------------------------------------------------------------
# every candidate of real engine runs
# ---------------------------------------------------------------------------

def _clones_module(seed=5, families=4):
    """A tiny clone-family stress module with a driver calling every member."""
    module = Module("clones")
    rng = random.Random(seed)
    members = []
    for index in range(families):
        spec = FunctionSpec(f"fam{index}", num_blocks=3, instructions_per_block=8,
                            call_ratio=0.2, memory_ratio=0.2,
                            seed=31 * seed + index)
        members.extend(make_family(
            module, spec, FamilySpec(identical=1, structural=2, partial=2), rng))
    add_call_sites(module, members, rng)
    return module


MODULES = {
    "462.libquantum": lambda: build_spec_benchmark(
        "462.libquantum", scale=0.05, cap=40).module,
    "445.gobmk": lambda: build_spec_benchmark("445.gobmk", scale=0.02, cap=40).module,
    "401.bzip2": lambda: build_spec_benchmark("401.bzip2", scale=0.02, cap=30).module,
    "429.mcf": lambda: build_spec_benchmark("429.mcf", scale=0.05, cap=30).module,
    "458.sjeng": lambda: build_spec_benchmark("458.sjeng", scale=0.02, cap=30).module,
    "stringsearch": lambda: build_mibench_benchmark("stringsearch").module,
    "bitcount": lambda: build_mibench_benchmark("bitcount").module,
    "CRC32": lambda: build_mibench_benchmark("CRC32").module,
    "sha": lambda: build_mibench_benchmark("sha").module,
    "clones": _clones_module,
    "random-5": lambda: build_module(5, 3),
    "random-7": lambda: build_module(7, 4),
}


def engine_candidates(monkeypatch, module, threshold):
    """Run the engine on ``module``, checking every candidate it costs
    against the built merge; returns how many were evaluated."""
    real_generate = CodegenStage.generate
    real_evaluate = ProfitabilityStage.evaluate
    built = {}
    seen = {"evaluated": 0, "failures": 0}

    def generate(stage, f1, f2, alignment):
        try:
            cost = real_generate(stage, f1, f2, alignment)
        except CodegenError:
            with pytest.raises(CodegenError):
                merge_functions(f1, f2, stage.options, alignment)
            seen["failures"] += 1
            raise
        built[(f1.name, f2.name)] = merge_functions(f1, f2, stage.options,
                                                    alignment)
        return cost

    def evaluate(stage, f1, f2, cost, call_graph):
        evaluation = real_evaluate(stage, f1, f2, cost, call_graph)
        result = built.pop((f1.name, f2.name))
        expected = estimate_profit(result, stage.target, call_graph,
                                   stage.allow_deletion)
        assert cost == (expected.size_merged, len(result.merged.arguments))
        assert evaluation == expected
        assert evaluation.delta == expected.delta
        result.merged.drop_body()
        seen["evaluated"] += 1
        return evaluation

    monkeypatch.setattr(CodegenStage, "generate", generate)
    monkeypatch.setattr(ProfitabilityStage, "evaluate", evaluate)
    report = MergeEngine(exploration_threshold=threshold).run(module)
    assert seen["evaluated"] + seen["failures"] == report.candidates_evaluated
    return seen["evaluated"]


@pytest.mark.parametrize("threshold", [1, 2])
@pytest.mark.parametrize("name", sorted(MODULES))
def test_counting_sink_matches_codegen_on_engine_candidates(monkeypatch, name,
                                                            threshold):
    assert engine_candidates(monkeypatch, MODULES[name](), threshold) > 0


# ---------------------------------------------------------------------------
# hand-built pairs, one per branch of the walk
# ---------------------------------------------------------------------------

def _function(module, name, return_type, param_types, body):
    function = module.create_function(
        name, ty.function_type(return_type, param_types))
    body(function, IRBuilder(function.append_block("entry")))
    return function


def identical_bodies(module):
    f1 = make_binary_chain_function(module, "orig", ["add", "mul"])
    return f1, clone_function(module, f1, "copy")


def differing_constants(module):
    return (make_binary_chain_function(module, "three", ["add"], constant=3),
            make_binary_chain_function(module, "nine", ["add"], constant=9))


def pointer_operands(module):
    sink = module.create_function(
        "sink", ty.function_type(ty.VOID, [ty.pointer(ty.I8)]),
        linkage="external")

    def body(pointee):
        def build(function, builder):
            raw = builder.bitcast(function.arguments[0], ty.pointer(ty.I8))
            builder.call(sink, [raw])
            typed = builder.bitcast(raw, ty.pointer(pointee))
            if pointee == ty.FLOAT:
                builder.store(vals.ConstantFloat(ty.FLOAT, 1.5), typed)
            builder.ret_void()
        return build

    return (_function(module, "ints", ty.VOID, [ty.pointer(ty.I32)], body(ty.I32)),
            _function(module, "floats", ty.VOID, [ty.pointer(ty.FLOAT)],
                      body(ty.FLOAT)))


def narrow_and_wide_returns(module):
    def narrow(function, builder):
        builder.ret(builder.add(function.arguments[0], vals.const_int(1)))

    def wide(function, builder):
        builder.ret(builder.add(function.arguments[0], vals.const_int(1, 64)))

    return (_function(module, "narrow", ty.I32, [ty.I32], narrow),
            _function(module, "wide", ty.I64, [ty.I64], wide))


def void_and_value_returns(module):
    def quiet(function, builder):
        builder.store(function.arguments[0], builder.alloca(ty.I32))
        builder.ret_void()

    def loud(function, builder):
        slot = builder.alloca(ty.I32)
        builder.store(function.arguments[0], slot)
        builder.ret(builder.load(slot))

    return (_function(module, "quiet", ty.VOID, [ty.I32], quiet),
            _function(module, "loud", ty.I32, [ty.I32], loud))


def commutative_swap(module):
    def ordered(function, builder):
        builder.ret(builder.add(function.arguments[0], function.arguments[1]))

    def swapped(function, builder):
        builder.ret(builder.add(function.arguments[1], function.arguments[0]))

    return (_function(module, "x", ty.I32, [ty.I32, ty.I32], ordered),
            _function(module, "y", ty.I32, [ty.I32, ty.I32], swapped))


def switches(module):
    def build(name, cases):
        function = module.create_function(
            name, ty.function_type(ty.I32, [ty.I32]))
        entry = function.append_block("entry")
        targets = [function.append_block(f"case{i}") for i in range(len(cases))]
        default = function.append_block("default")
        IRBuilder(entry).switch(function.arguments[0], default, [
            (vals.const_int(value), block) for value, block in zip(cases, targets)])
        for index, block in enumerate(targets):
            IRBuilder(block).ret(vals.const_int(10 * (index + 1)))
        IRBuilder(default).ret(vals.const_int(0))
        return function

    return build("sw1", [1, 2, 3]), build("sw2", [4, 5, 6])


PAIRS = [identical_bodies, differing_constants, pointer_operands,
         narrow_and_wide_returns, void_and_value_returns, commutative_swap,
         switches]


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.name)
@pytest.mark.parametrize("make_pair", PAIRS, ids=lambda f: f.__name__)
def test_counting_sink_matches_codegen_on_hand_built_pairs(make_pair, target):
    module = Module()
    f1, f2 = make_pair(module)
    for options in (MergeOptions(),
                    MergeOptions(smart_parameter_pairing=False),
                    MergeOptions(smart_parameter_pairing=False,
                                 reorder_commutative=False)):
        assert assert_cost_exact(f1, f2, target, options=options,
                                 call_graph=CallGraph(module)) is not None


def test_hand_built_pairs_reach_their_branches():
    """Each pair above exercises the part of the walk it is named after."""
    def built(make_pair, **options):
        return merge_functions(*make_pair(Module()), MergeOptions(**options))

    assert built(identical_bodies).func_id is None
    assert "select" in opcodes_of(built(differing_constants))
    assert "bitcast" in opcodes_of(built(pointer_operands))
    assert "zext" in opcodes_of(built(narrow_and_wide_returns))
    loud = built(void_and_value_returns)
    assert any(inst.opcode == "ret" and isinstance(inst.operands[0], vals.UndefValue)
               for inst in loud.merged.instructions())
    # positional parameter pairing leaves the swap to operand reordering
    assert "select" not in opcodes_of(built(commutative_swap,
                                            smart_parameter_pairing=False))
    assert "select" in opcodes_of(built(commutative_swap,
                                        smart_parameter_pairing=False,
                                        reorder_commutative=False))
    assert opcodes_of(built(switches)).count("switch") == 1


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.name)
def test_counting_sink_matches_router_and_landing_pad_hoist(target):
    module, f1, f2, landing1, landing2 = landing_pad_module()
    alignment = unaligned_landing_blocks(f1, f2, landing1, landing2)
    result = assert_cost_exact(f1, f2, target, alignment=alignment,
                               call_graph=CallGraph(module))
    assert opcodes_of(result).count("landingpad") == 1


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.name)
def test_counting_sink_raises_where_codegen_raises(target):
    module = Module()
    f1 = _function(module, "first", ty.I32, [ty.I32],
                   lambda f, b: b.ret(f.arguments[0]))
    f2 = _function(module, "second", ty.I32, [ty.I32],
                   lambda f, b: b.ret(f.arguments[0]))
    # an instruction after the terminator: no block left to live in
    IRBuilder(f1.blocks[0]).add(f1.arguments[0], vals.const_int(1))
    with pytest.raises(CodegenError, match="dangling instruction"):
        merge_cost(f1, f2, target)
    assert assert_cost_exact(f1, f2, target) is None

    donor = _function(module, "donor", ty.I32, [ty.I32],
                      lambda f, b: b.ret(b.add(f.arguments[0], vals.const_int(1))))
    foreign = donor.blocks[0].instructions[0]
    f3 = _function(module, "third", ty.I32, [ty.I32], lambda f, b: b.ret(foreign))
    with pytest.raises(CodegenError, match="never mapped during pass 1"):
        merge_cost(f3, f2, target)
    assert assert_cost_exact(f3, f2, target) is None


def test_failed_build_releases_uses_of_the_originals():
    module = Module()
    f1 = _function(module, "first", ty.I32, [ty.I32],
                   lambda f, b: b.ret(f.arguments[0]))
    f2 = _function(module, "second", ty.I32, [ty.I32],
                   lambda f, b: b.ret(f.arguments[0]))
    IRBuilder(f1.blocks[0]).add(f1.arguments[0], vals.const_int(1))
    users_before = list(f1.arguments[0].users)
    with pytest.raises(CodegenError):
        merge_functions(f1, f2)
    assert f1.arguments[0].users == users_before


# ---------------------------------------------------------------------------
# the engine builds only winners, and the sanitizer checks the rest
# ---------------------------------------------------------------------------

def test_engine_builds_only_the_committed_merges():
    engine = MergeEngine(exploration_threshold=2)
    report = engine.run(build_module(7, 4))
    stats = report.stage_stats["codegen"]
    assert report.merge_count >= 1
    assert stats["materialized"] == report.merge_count
    assert report.candidates_evaluated > stats["materialized"]


def test_sanitizer_cross_checks_every_counted_candidate():
    engine = MergeEngine(exploration_threshold=2, sanitize=True)
    report = engine.run(build_module(7, 4))
    assert report.merge_count >= 1
    checks = report.scheduler_stats["sanitize_runs"]
    assert checks >= report.candidates_evaluated


def test_sanitizer_rejects_a_wrong_count(monkeypatch):
    real_generate = CodegenStage.generate

    def off_by_one(stage, f1, f2, alignment):
        size, params = real_generate(stage, f1, f2, alignment)
        return size + 1, params

    monkeypatch.setattr(CodegenStage, "generate", off_by_one)
    with pytest.raises(PlanningError) as failure:
        MergeEngine(exploration_threshold=1, sanitize=True).run(build_module(7, 4))
    cause = failure.value.__cause__
    assert isinstance(cause, AnalysisError)
    assert [d.rule for d in cause.diagnostics] == ["sanitizer.cost-divergence"]
