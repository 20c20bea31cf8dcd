"""Merged-function fingerprints: engine-vs-reference decision parity.

The engine fingerprints every committed merge by one scan of the merged
body after the commit, as :class:`ReferenceMergingPass` does.  These tests
pin decision parity with the reference pass on the module shapes where the
merged body changes during the commit or feeds later merges: randomized
clone families, a merged body that calls one of its own originals, and
callers whose call sites a commit rewrites before they merge themselves -
plus the SPEC and MiBench models and oracle mode.  They also check that
the scan happens after the commit and once per merge.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (Fingerprint, MergeEngine, MergeOptions,
                        ReferenceMergingPass, merge_functions)
from repro.core.engine.stages import FingerprintStage
from repro.ir import IRBuilder, Module
from repro.ir import types as ty
from repro.ir import values as vals
from repro.ir.instructions import Call
from repro.workloads import FamilySpec, FunctionSpec, make_family
from repro.workloads.mibench import build_mibench_benchmark, mibench_benchmark_names
from repro.workloads.spec2006 import build_spec_benchmark, spec_benchmark_names


def build_module(seed=7, families=4, clones=2):
    module = Module(f"fp_{seed}")
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


def build_selfcall_module():
    # both originals directly call original ``a``, so the merged body keeps
    # a *direct* call to ``a``; committing the merge deletes ``a`` and
    # redirects that call site inside the merged body itself
    module = Module("selfcall")

    def chain(name, callee=None):
        fn = module.create_function(name, ty.function_type(ty.I32, [ty.I32]))
        builder = IRBuilder(fn.append_block("entry"))
        value = builder.binary("add", fn.arguments[0], vals.const_int(1))
        value = builder.call(callee if callee is not None else fn, [value])
        value = builder.binary("mul", value, vals.const_int(3))
        builder.ret(value)
        return fn

    a = chain("a")          # self-recursive
    chain("b", callee=a)    # calls a too: the call columns match
    return module


def build_caller_rewrite_module():
    # commit 1 merges the leaves and rewrites the callers' call sites
    # (wider argument lists, func_id constants); commit 2 then merges the
    # rewritten callers
    module = Module("callers")
    rng = random.Random(2)
    callee_spec = FunctionSpec("leaf", num_blocks=2,
                               instructions_per_block=5, seed=21)
    make_family(module, callee_spec, FamilySpec(structural=1), rng)
    leaf = module.get_function("leaf")

    def caller(name):
        fn = module.create_function(name, ty.function_type(ty.I32, [ty.I32]))
        builder = IRBuilder(fn.append_block("entry"))
        value = builder.binary("add", fn.arguments[0], vals.const_int(1))
        args = [vals.undef(a.type) for a in leaf.arguments]
        call = builder.call(leaf, args)
        keep = (call if call.type == ty.I32 else value)
        builder.ret(builder.binary("xor", value, keep))
        return fn

    # names sort after "leaf*": the leaves merge first, rewriting these
    caller("z1")
    caller("z2")
    return module


def decisions(report):
    return [(m.function1, m.function2, m.merged_name, m.rank_position, m.delta)
            for m in report.merges]


def engine_and_reference(build, threshold, **options):
    engine = MergeEngine(exploration_threshold=threshold,
                         **options).run(build())
    reference = ReferenceMergingPass(exploration_threshold=threshold,
                                     **options).run(build())
    assert decisions(engine) == decisions(reference)
    return engine


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6))
def test_randomized_families_match_reference(seed, families):
    engine_and_reference(lambda: build_module(seed, families), threshold=2)


def test_merged_body_calling_its_own_original_matches_reference():
    report = engine_and_reference(build_selfcall_module, threshold=1)
    assert report.merge_count == 1


def test_rewritten_callers_merge_like_reference():
    report = engine_and_reference(build_caller_rewrite_module, threshold=3)
    merged_pairs = {(m.function1, m.function2) for m in report.merges}
    assert ("leaf", "leaf_struct0") in merged_pairs
    assert ("z1", "z2") in merged_pairs


@pytest.mark.parametrize("workload", spec_benchmark_names()[:4])
def test_spec_workloads_match_reference(workload):
    engine_and_reference(
        lambda: build_spec_benchmark(workload, scale=0.02, seed=3).module,
        threshold=2)


@pytest.mark.parametrize("workload", mibench_benchmark_names()[:4])
def test_mibench_workloads_match_reference(workload):
    engine_and_reference(
        lambda: build_mibench_benchmark(workload, scale=0.02, seed=3).module,
        threshold=2)


def test_oracle_mode_matches_reference():
    report = engine_and_reference(lambda: build_module(3), threshold=1,
                                  oracle=True)
    assert report.merge_count >= 1


# -- when and how often the merged body is scanned ----------------------------

@pytest.fixture
def merged_scans(monkeypatch):
    """Record, for every ``add_merged`` call, the merged function, the
    names the module defines then, and the callees its body names then."""
    scans = []
    add_merged = FingerprintStage.add_merged

    def recording(stage, function):
        module = function.module
        defined = ({f.name for f in module.defined_functions()}
                   if module is not None else set())
        callees = {getattr(inst.callee, "name", None)
                   for inst in function.instructions()
                   if isinstance(inst, Call)}
        scans.append((function, defined, callees))
        return add_merged(stage, function)

    monkeypatch.setattr(FingerprintStage, "add_merged", recording)
    return scans


def test_merged_body_is_fingerprinted_after_the_commit(merged_scans):
    report = MergeEngine(exploration_threshold=1).run(build_selfcall_module())
    assert report.merge_count == 1
    [(merged, defined, callees)] = merged_scans
    assert merged.name == report.merges[0].merged_name
    # the commit already deleted the originals and redirected the merged
    # body's own call to ``a``
    assert merged.name in defined
    assert not {"a", "b"} & defined
    assert not {"a", "b"} & callees


def test_each_function_is_scanned_once(merged_scans):
    report = MergeEngine(exploration_threshold=2).run(build_module(3))
    assert report.merge_count >= 1
    assert [f.name for f, _, _ in merged_scans] == \
        [m.merged_name for m in report.merges]
    assert report.stage_stats["fingerprint"]["functions"] == \
        report.functions_considered + report.merge_count


def test_merged_fingerprint_counts_codegen_selects():
    # two chains differing in one constant operand force a select (plus its
    # i1 func_id operand) that neither original has; the scan must see it
    module = Module("selects")

    def chain(name, const):
        fn = module.create_function(name, ty.function_type(ty.I32, [ty.I32]))
        builder = IRBuilder(fn.append_block("entry"))
        value = builder.binary("add", fn.arguments[0], vals.const_int(const))
        value = builder.binary("mul", value, vals.const_int(3))
        builder.ret(value)
        return fn

    f1, f2 = chain("a", 1), chain("b", 2)
    fp1 = Fingerprint.of(f1)
    result = merge_functions(f1, f2, MergeOptions())
    fp = Fingerprint.of(result.merged)
    assert fp1.opcode_freq.get("select", 0) == 0
    assert fp.opcode_freq.get("select", 0) >= 1
    assert fp.size > fp1.size
    assert fp.function_name == result.merged.name
