"""Tests for incremental merged-function fingerprints.

``Fingerprint.of_merged`` composes the originals' fingerprints with the
alignment columns and the codegen-recorded delta; the engine uses it for
every committed merge instead of rescanning the merged body.  The contract
is *element-wise equality* with ``Fingerprint.of`` - checked here after
every commit across the tier-1 workload generators (synthetic families,
SPEC and MiBench models), plus decision parity with the rescan path and the
rescan fallback for self-referential merges.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (Fingerprint, FunctionMergingPass, MergeEngine,
                        MergeOptions, ReferenceMergingPass, merge_functions)
from repro.core.engine import AlignmentCache
from repro.core.fingerprint import FingerprintDelta
from repro.ir import IRBuilder, Module
from repro.ir import types as ty
from repro.ir import values as vals
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


def decisions(report):
    return [(m.function1, m.function2, m.merged_name, m.rank_position, m.delta)
            for m in report.merges]


def assert_fingerprints_equal(fp: Fingerprint, fresh: Fingerprint):
    assert fp.opcode_freq == fresh.opcode_freq
    assert fp.type_freq == fresh.type_freq
    assert fp.size == fresh.size
    assert fp.opcode_total == fresh.opcode_total
    assert fp.type_total == fresh.type_total


# -- of_merged equals a rescan, on every commit of every workload -------------

class TestOfMergedEqualsRescan:
    """``verify_fingerprints=True`` makes the engine raise on the first
    divergence, so a clean run *is* the element-wise assertion."""

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 6))
    def test_randomized_families(self, seed, families):
        report = FunctionMergingPass(
            exploration_threshold=2,
            verify_fingerprints=True).run(build_module(seed, families))
        stats = report.stage_stats["fingerprint"]
        assert stats.get("incremental", 0) + stats.get("rescans", 0) == \
            report.merge_count

    @pytest.mark.parametrize("workload", spec_benchmark_names()[:4])
    def test_spec_workloads(self, workload):
        module = build_spec_benchmark(workload, scale=0.02, seed=3).module
        FunctionMergingPass(exploration_threshold=2,
                            verify_fingerprints=True).run(module)

    @pytest.mark.parametrize("workload", mibench_benchmark_names()[:4])
    def test_mibench_workloads(self, workload):
        module = build_mibench_benchmark(workload, scale=0.02, seed=3).module
        FunctionMergingPass(exploration_threshold=2,
                            verify_fingerprints=True).run(module)

    def test_oracle_mode(self):
        FunctionMergingPass(oracle=True,
                            verify_fingerprints=True).run(build_module(3))

    def test_with_caller_owned_cache(self):
        # the second run's alignments come back rehydrated from the cache;
        # merged fingerprints composed from them must still match rescans
        cache = AlignmentCache()
        for _ in range(2):
            FunctionMergingPass(exploration_threshold=2, alignment_cache=cache,
                                verify_fingerprints=True).run(build_module(5, 6))
        assert cache.hits > 0


def test_of_merged_matches_rescan_for_direct_merge():
    """Unit-level check without the engine: merge one pair directly."""
    module = Module("direct")
    rng = random.Random(1)
    spec = FunctionSpec("f", num_blocks=3, instructions_per_block=6,
                        call_ratio=0.2, memory_ratio=0.3, seed=11)
    make_family(module, spec, FamilySpec(structural=1), rng)
    functions = [f for f in module.defined_functions()]
    f1 = next(f for f in functions if f.name == "f")
    f2 = next(f for f in functions if f.name == "f_struct0")
    fp1, fp2 = Fingerprint.of(f1), Fingerprint.of(f2)
    result = merge_functions(f1, f2, MergeOptions())
    fp = Fingerprint.of_merged(result.alignment, fp1, fp2,
                               result.fingerprint_delta,
                               name=result.merged.name)
    assert_fingerprints_equal(fp, Fingerprint.of(result.merged))
    assert fp.function_name == result.merged.name


def test_delta_records_codegen_extras():
    # two near-identical chains with one differing constant operand force a
    # select; the delta must carry it (plus its i1 func_id operand)
    module = Module("delta")

    def chain(name, const):
        fn = module.create_function(name, ty.function_type(ty.I32, [ty.I32]))
        builder = IRBuilder(fn.append_block("entry"))
        value = fn.arguments[0]
        value = builder.binary("add", value, vals.const_int(const))
        value = builder.binary("mul", value, vals.const_int(3))
        builder.ret(value)
        return fn

    f1, f2 = chain("a", 1), chain("b", 2)
    result = merge_functions(f1, f2, MergeOptions())
    delta = result.fingerprint_delta
    assert isinstance(delta, FingerprintDelta)
    assert delta.opcode_freq.get("select", 0) >= 1
    assert delta.size >= 1
    fp = Fingerprint.of_merged(result.alignment, Fingerprint.of(f1),
                               Fingerprint.of(f2), delta)
    assert_fingerprints_equal(fp, Fingerprint.of(result.merged))


# -- parity and the rescan fallback -------------------------------------------

class TestEngineIntegration:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_decisions_identical_with_and_without_incremental(self, seed):
        # the reference pass fingerprints every merged function by rescan
        incremental = FunctionMergingPass(exploration_threshold=2).run(
            build_module(seed))
        rescan = ReferenceMergingPass(exploration_threshold=2).run(
            build_module(seed))
        assert decisions(incremental) == decisions(rescan)

    def test_incremental_is_the_default_and_used(self):
        report = FunctionMergingPass(exploration_threshold=2).run(
            build_module(3))
        assert report.merge_count >= 1
        stats = report.stage_stats["fingerprint"]
        assert stats.get("incremental", 0) >= 1

    def test_rescan_fallback_when_merged_calls_its_own_original(self):
        # both originals directly call original ``a``, so the merged body
        # keeps a *direct* call to ``a``; committing the merge deletes ``a``
        # and redirects that call site inside the merged body itself - the
        # alignment no longer describes the body and the engine must rescan
        module = Module("selfcall")

        def chain(name, callee=None):
            fn = module.create_function(name,
                                        ty.function_type(ty.I32, [ty.I32]))
            builder = IRBuilder(fn.append_block("entry"))
            value = builder.binary("add", fn.arguments[0], vals.const_int(1))
            value = builder.call(callee if callee is not None else fn, [value])
            value = builder.binary("mul", value, vals.const_int(3))
            builder.ret(value)
            return fn

        a = chain("a")          # self-recursive
        chain("b", callee=a)    # calls a too: the call columns match
        engine = MergeEngine(exploration_threshold=1, verify_fingerprints=True)
        report = engine.run(module)
        assert report.merge_count == 1
        assert report.merges[0].merged_name in \
            [f.name for f in module.defined_functions()]
        stats = report.stage_stats["fingerprint"]
        assert stats.get("rescans", 0) >= 1

    def test_live_fingerprints_refresh_after_caller_rewrites(self):
        # commit 1 merges the leaves and rewrites the callers' call sites
        # (wider argument lists, func_id constants); commit 2 then merges
        # the callers, whose of_merged must compose *refreshed* live
        # fingerprints - verify_fingerprints throws on a stale one
        module = Module("callers")
        rng = random.Random(2)
        callee_spec = FunctionSpec("leaf", num_blocks=2,
                                   instructions_per_block=5, seed=21)
        make_family(module, callee_spec, FamilySpec(structural=1), rng)
        leaf = module.get_function("leaf")

        def caller(name):
            fn = module.create_function(name,
                                        ty.function_type(ty.I32, [ty.I32]))
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
        report = FunctionMergingPass(exploration_threshold=3,
                                     verify_fingerprints=True).run(module)
        merged_pairs = {(m.function1, m.function2) for m in report.merges}
        assert ("leaf", "leaf_struct0") in merged_pairs
        assert ("z1", "z2") in merged_pairs
        stats = report.stage_stats["fingerprint"]
        assert stats.get("live_refreshed", 0) >= 1
