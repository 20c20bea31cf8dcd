"""Tests for the staged MergeEngine: pipeline structure, parity with the
reference pass and the integer equivalence keys backing the fast alignment
kernel."""

import random

from repro.core import (EquivalenceKeyInterner, FunctionMergingPass,
                        MergeEngine, ReferenceMergingPass, entries_equivalent,
                        linearize, linearize_with_keys)
from repro.core.engine import STAGES
from repro.ir import Module, verify_or_raise
from repro.passes.reg2mem import demote_phis
from repro.workloads import (FamilySpec, FunctionSpec, clone_function,
                             make_family, mutate_constants, mutate_opcodes)

from tests.helpers import make_binary_chain_function, make_caller


def _module_with_families(num_families=2, clones_per_family=2, seed=5):
    module = Module("families")
    rng = random.Random(seed)
    functions = []
    for family in range(num_families):
        opcodes = [["add", "mul", "add"], ["sub", "xor", "add", "mul"]][family % 2]
        base = make_binary_chain_function(module, f"base{family}", opcodes,
                                          constant=family + 2)
        functions.append(base)
        for index in range(clones_per_family):
            sibling = clone_function(module, base, f"base{family}_v{index}")
            mutate_constants(sibling, rng, 0.4)
            if index % 2:
                mutate_opcodes(sibling, rng, 0.2)
            functions.append(sibling)
    make_caller(module, "main", functions)
    return module, functions


def _generated_module(seed=3):
    module = Module("gen")
    rng = random.Random(seed)
    spec = FunctionSpec("g", num_blocks=3, instructions_per_block=8,
                        call_ratio=0.3, memory_ratio=0.3, seed=seed)
    make_family(module, spec, FamilySpec(identical=1, structural=2, partial=1), rng)
    return module


def _decisions(report):
    return [(m.function1, m.function2, m.merged_name, m.rank_position, m.delta)
            for m in report.merges]


class TestEquivalenceKeys:
    def test_keys_faithful_to_predicate_on_generated_module(self):
        module = _generated_module()
        interner = EquivalenceKeyInterner()
        keyed_entries = []
        for function in module.defined_functions():
            demote_phis(function)
            lin = linearize_with_keys(function, "rpo", interner)
            assert len(lin.keys) == len(lin.entries)
            keyed_entries.extend(zip(lin.entries, lin.keys))
        for entry_a, key_a in keyed_entries:
            for entry_b, key_b in keyed_entries:
                assert entries_equivalent(entry_a, entry_b) == (key_a == key_b)

    def test_interner_is_shared_across_functions(self):
        module = _module_with_families()[0]
        interner = EquivalenceKeyInterner()
        functions = list(module.defined_functions())
        lin_a = linearize_with_keys(functions[0], "rpo", interner)
        lin_b = linearize_with_keys(functions[1], "rpo", interner)
        # identical opcode chains across clones share equivalence classes
        assert set(lin_a.keys) & set(lin_b.keys)

    def test_default_interner_created_on_demand(self):
        module = _module_with_families()[0]
        function = next(iter(module.defined_functions()))
        lin = linearize_with_keys(function)
        assert len(lin.keys) == len(linearize(function))


class TestEnginePipeline:
    def test_stage_pipeline_order(self):
        engine = MergeEngine()
        names = [stage.name for stage in engine.stages]
        assert names == ["preprocess", "fingerprint", "candidate-search",
                         "linearize", "align", "codegen", "profitability",
                         "commit"]

    def test_stage_stats_recorded(self):
        module, _ = _module_with_families()
        engine = MergeEngine(exploration_threshold=2)
        report = engine.run(module)
        assert report.merge_count >= 1
        stats = report.stage_stats
        assert set(stats) == {s.name for s in engine.stages}
        assert stats["align"]["seconds"] > 0.0
        assert stats["align"]["keyed"] >= 1
        assert stats["candidate-search"]["calls"] >= 1
        # the pair-score memo's counters, once per query; the second of
        # two family members visits the pair the first one scored
        assert stats["candidate-search"]["pairs_scored"] >= 1
        assert stats["candidate-search"]["pair_memo_hits"] >= 1
        assert stats["commit"]["merges"] == report.merge_count
        # legacy buckets still exactly the Figure-13 stages
        assert set(report.stage_times) == set(STAGES)

    def test_report_reset_between_runs(self):
        # threshold=1 leaves no spare ranking slots: any fingerprint leaked
        # from the first run would displace the sole candidate of the second
        engine = MergeEngine(exploration_threshold=1)
        module1, _ = _module_with_families(num_families=3)
        first = engine.run(module1)
        module2, _ = _module_with_families(num_families=3)
        second = engine.run(module2)
        fresh = MergeEngine(exploration_threshold=1).run(
            _module_with_families(num_families=3)[0])
        assert _decisions(first) == _decisions(second) == _decisions(fresh)
        assert second.stage_stats["commit"]["merges"] == second.merge_count

    def test_pass_is_the_engine(self):
        assert FunctionMergingPass is MergeEngine
        pass_ = FunctionMergingPass(exploration_threshold=2)
        assert pass_.name == "func-merging"
        assert pass_.exploration_threshold == 2
        assert pass_.oracle is False


class TestStrategyParity:
    """The engine (indexed search, keyed kernels, incremental commits) makes
    the merge decisions of the reference pass (linear ranking, predicate
    alignment, a call-graph rebuild per commit)."""

    #: The reference pass first, then the engine with its defaults.
    DRIVERS = (ReferenceMergingPass, FunctionMergingPass)

    def _run(self, driver, threshold=2, oracle=False):
        module, _ = _module_with_families(num_families=3)
        report = driver(exploration_threshold=threshold,
                        oracle=oracle).run(module)
        verify_or_raise(module)
        return _decisions(report)

    def test_all_strategies_agree(self):
        reference = self._run(ReferenceMergingPass)
        assert reference  # at least one merge so the comparison means something
        assert self._run(FunctionMergingPass) == reference

    def test_strategies_agree_under_oracle(self):
        assert (self._run(FunctionMergingPass, oracle=True)
                == self._run(ReferenceMergingPass, oracle=True))

    def test_caller_caches_invalidated_after_call_site_rewrite(self):
        # Regression: apply_merge rewrites call sites inside *caller*
        # functions; their cached linearizations (and the equivalence keys
        # frozen into them) must be invalidated.  With stale keys the keyed
        # kernel used to match a mutated 'call e1' entry against a fresh
        # 'call __merged_e1_e2' and crash in codegen.
        from repro.ir import IRBuilder
        from repro.ir import types as ty
        from repro.ir import values as vals

        def build():
            module = Module("stale_callers")

            def chain(name, opcodes, callee=None):
                fn = module.create_function(name, ty.function_type(ty.I32, [ty.I32]))
                builder = IRBuilder(fn.append_block("entry"))
                value = fn.arguments[0]
                for op in opcodes:
                    value = builder.binary(op, value, vals.const_int(3))
                if callee is not None:
                    value = builder.call(callee, [value])
                builder.ret(value)
                return fn

            shared = ["add", "mul", "add", "xor", "sub", "add"]
            e1 = chain("e1", shared)
            chain("e2", shared)
            # a1/d: same opcode multiset, different order (fingerprint ties,
            # unprofitable alignment caches a1 before e1+e2 merges); m2 is
            # identical to a1 and is evaluated after the rewrite
            chain("a1", ["add", "sub", "mul", "xor"], e1)
            chain("d", ["xor", "mul", "sub", "add"], e1)
            chain("m2", ["add", "sub", "mul", "xor"], e1)
            return module

        decisions = []
        for driver in self.DRIVERS:
            module = build()
            report = driver(exploration_threshold=1).run(module)
            verify_or_raise(module)
            decisions.append(_decisions(report))
        assert all(d == decisions[0] for d in decisions[1:])
        # the callers merge too once their rewritten bodies are re-linearized
        merged_pairs = {(d[0], d[1]) for d in decisions[0]}
        assert ("e1", "e2") in merged_pairs
        assert ("m2", "a1") in merged_pairs

    def test_generated_module_parity(self):
        decisions = []
        for driver in self.DRIVERS:
            module = _generated_module()
            report = driver(exploration_threshold=3).run(module)
            verify_or_raise(module)
            decisions.append(_decisions(report))
        assert all(d == decisions[0] for d in decisions[1:])
