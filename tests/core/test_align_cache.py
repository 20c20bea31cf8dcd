"""Tests for the content-addressed alignment cache.

Covers the serialization round-trip (ops <-> entries), LRU bookkeeping,
content addressing across distinct functions, the invalidation story (a
rewritten function gets a fresh linearization whose digest can never hit a
stale entry), the engine-level stats surfaced in
``MergeReport.scheduler_stats``, decision parity with the cache off, and
that the default (cold) paths never compute a cache key.
"""

import random

import pytest

from repro.core import (FunctionMergingPass, MergeEngine, ModuleEdit,
                        ScoringScheme)
from repro.core.alignment import (needleman_wunsch_keyed, ops_string,
                                  result_from_ops)
from repro.core.engine.align_cache import AlignmentCache
from repro.core.engine.stages import AlignmentStage, LinearizeStage
from repro.ir import IRBuilder, Module
from repro.ir import types as ty
from repro.ir import values as vals
from repro.workloads import FamilySpec, FunctionSpec, make_family
from tests import helpers


def build_module(seed=7, families=5):
    module = Module(f"cache_{seed}")
    rng = random.Random(seed)
    for index in range(families):
        spec = FunctionSpec(
            f"fam{index}",
            num_blocks=2 + (index + seed) % 3,
            instructions_per_block=4 + ((index + seed) % 4) * 2,
            call_ratio=0.3, memory_ratio=0.2,
            seed=100 + 13 * seed + index)
        # two identical clones: after the first identical pair merges, the
        # merged function (same body content) re-aligns against the second
        # clone - a content-addressed hit even in a serial, conflict-free run
        make_family(module, spec,
                    FamilySpec(identical=2, structural=2, partial=1), rng)
    return module


def decisions(report):
    return [(m.function1, m.function2, m.merged_name, m.rank_position, m.delta)
            for m in report.merges]


def entry_pairs(result):
    return [(e.left, e.right) for e in result.entries]


def make_chain(module, name, opcodes):
    fn = module.create_function(name, ty.function_type(ty.I32, [ty.I32]))
    builder = IRBuilder(fn.append_block("entry"))
    value = fn.arguments[0]
    for op in opcodes:
        value = builder.binary(op, value, vals.const_int(3))
    builder.ret(value)
    return fn


# -- serialization round trip -------------------------------------------------

def test_ops_rehydrate_round_trip():
    seq1, seq2 = "ABCAD", "ABDAX"
    keys1, keys2 = [ord(c) for c in seq1], [ord(c) for c in seq2]
    result = needleman_wunsch_keyed(seq1, seq2, keys1, keys2)
    ops = ops_string(result.entries)
    assert set(ops) <= {"m", "l", "r"}
    back = result_from_ops(ops, result.score, seq1, seq2)
    assert back.score == result.score
    assert entry_pairs(back) == entry_pairs(result)


def test_rehydrate_rejects_mismatched_sequences():
    with pytest.raises(ValueError, match="does not cover"):
        result_from_ops("ml", 1, "ABC", "A")


# -- LRU bookkeeping ----------------------------------------------------------

def test_lru_eviction_and_stats():
    cache = AlignmentCache(capacity=2)
    cache.put(("a",), "mmm", 3)
    cache.put(("b",), "ml", 1)
    assert cache.get(("a",)) == ("mmm", 3)   # refreshes 'a'
    cache.put(("c",), "r", -1)               # evicts 'b' (LRU)
    assert cache.get(("b",)) is None
    assert cache.get(("a",)) is not None
    assert cache.get(("c",)) is not None
    assert cache.evictions == 1
    stats = cache.stats_dict()
    assert stats["align_cache_hits"] == 3
    assert stats["align_cache_misses"] == 1
    assert stats["align_cache_entries"] == 2
    assert stats["align_cache_bytes"] > 0
    cache.clear()
    assert len(cache) == 0 and cache.hits == 0 and cache.stats_dict()[
        "align_cache_bytes"] == 0


# -- stage-level behaviour ----------------------------------------------------

class TestAlignmentStageCache:
    def setup_method(self):
        self.module = Module("stage_cache")
        self.linearize = LinearizeStage()
        self.cache = AlignmentCache()
        self.stage = AlignmentStage(cache=self.cache)
        self.plain = AlignmentStage()

    def lin(self, fn):
        return self.linearize.get(fn)

    def test_repeat_alignment_hits_and_is_bit_identical(self):
        f = make_chain(self.module, "f", ["add", "mul", "xor", "sub"])
        g = make_chain(self.module, "g", ["add", "mul", "shl", "sub"])
        lf, lg = self.lin(f), self.lin(g)
        first = self.stage.align_pair(lf, lg)
        assert self.cache.misses == 1 and self.cache.hits == 0
        second = self.stage.align_pair(lf, lg)
        assert self.cache.hits == 1
        want = self.plain.align_pair(lf, lg)
        for got in (first, second):
            assert got.score == want.score
            assert entry_pairs(got) == entry_pairs(want)

    def test_content_addressing_hits_across_distinct_functions(self):
        # h is a textual clone of f: different function, same key sequence
        f = make_chain(self.module, "f", ["add", "mul", "xor", "sub"])
        h = make_chain(self.module, "h", ["add", "mul", "xor", "sub"])
        g = make_chain(self.module, "g", ["add", "mul", "shl", "sub"])
        assert self.lin(f).content_digest() == self.lin(h).content_digest()
        self.stage.align_pair(self.lin(f), self.lin(g))
        result = self.stage.align_pair(self.lin(h), self.lin(g))
        assert self.cache.hits == 1
        want = self.plain.align_pair(self.lin(h), self.lin(g))
        assert entry_pairs(result) == entry_pairs(want)

    def test_rewritten_function_cannot_hit_stale_entry(self):
        # the invalidation contract: after a commit rewrites a function,
        # LinearizeStage.invalidate drops its linearization; the fresh one
        # has a different digest, so the old cache entry is unreachable
        f = make_chain(self.module, "f", ["add", "mul", "xor", "sub"])
        g = make_chain(self.module, "g", ["add", "mul", "shl", "sub"])
        self.stage.align_pair(self.lin(f), self.lin(g))
        old_digest = self.lin(f).content_digest()

        # rewrite f's body (what apply_merge does to callers) + invalidate
        block = f.entry_block
        builder = IRBuilder(block)
        ret = block.instructions[-1]
        block.remove(ret)
        extra = builder.binary("or", f.arguments[0], vals.const_int(7))
        block.append(ret)
        self.linearize.invalidate("f")

        fresh = self.lin(f)
        assert fresh.content_digest() != old_digest
        result = self.stage.align_pair(fresh, self.lin(g))
        assert self.cache.hits == 0 and self.cache.misses == 2
        want = self.plain.align_pair(fresh, self.lin(g))
        assert result.score == want.score
        assert entry_pairs(result) == entry_pairs(want)
        assert any(e.left is not None and e.left.is_instruction
                   and e.left.value is extra for e in result.entries)

    def test_scoring_scheme_is_part_of_the_key(self):
        f = make_chain(self.module, "f", ["add", "mul"])
        g = make_chain(self.module, "g", ["add", "shl"])
        other = AlignmentStage(scoring=ScoringScheme(match=2, mismatch=-3,
                                                     gap=-2),
                               cache=self.cache)
        self.stage.align_pair(self.lin(f), self.lin(g))
        other.align_pair(self.lin(f), self.lin(g))
        assert self.cache.hits == 0 and self.cache.misses == 2


# -- engine-level behaviour ---------------------------------------------------

class TestEngineCache:
    def test_stats_surface_in_scheduler_stats(self):
        report = FunctionMergingPass(
            exploration_threshold=2,
            alignment_cache=AlignmentCache()).run(build_module())
        stats = report.scheduler_stats
        for key in ("align_cache_hits", "align_cache_misses",
                    "align_cache_bytes", "align_cache_entries",
                    "align_cache_evictions"):
            assert key in stats
        assert stats["align_cache_misses"] > 0
        # families contain identical clones -> content hits even serially
        assert stats["align_cache_hits"] > 0

    def test_cache_can_be_disabled(self):
        # disabled is the default: no cache to consult
        engine = MergeEngine(exploration_threshold=2)
        assert engine.align_cache is None
        report = engine.run(build_module())
        assert engine.align_cache is None
        assert "align_cache_hits" not in report.scheduler_stats

    def test_capacity_knob(self):
        engine = MergeEngine(alignment_cache=AlignmentCache(7))
        assert engine.align_cache.capacity == 7

    def test_decisions_identical_with_and_without_cache(self):
        for seed in (3, 9, 42):
            with_cache = FunctionMergingPass(
                exploration_threshold=2,
                alignment_cache=AlignmentCache()).run(build_module(seed))
            without = FunctionMergingPass(
                exploration_threshold=2).run(build_module(seed))
            assert decisions(with_cache) == decisions(without)

    def test_caller_owned_cache_is_never_cleared(self):
        cache = AlignmentCache()
        engine = MergeEngine(exploration_threshold=2, alignment_cache=cache)
        assert engine.alignment_cache_resident
        first = engine.run(build_module(5))
        entries = len(cache)
        second = engine.run(build_module(5))
        assert entries > 0 and len(cache) == entries
        assert decisions(second) == decisions(first)
        # the repeat run finds every alignment it asks for
        assert (second.scheduler_stats["align_cache_misses"]
                == first.scheduler_stats["align_cache_misses"])


# -- cold paths compute no cache keys ---------------------------------------

@pytest.fixture
def digest_calls(monkeypatch):
    """Count ``LinearizedFunction.canonical_digest`` calls."""
    from repro.core.linearizer import LinearizedFunction
    calls = []
    original = LinearizedFunction.canonical_digest

    def counting(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(LinearizedFunction, "canonical_digest", counting)
    return calls


class TestColdPathsComputeNoDigests:
    """A cold compile never repeats an alignment, so it must not pay for
    cache keys: no ``canonical_digest`` call on any default path, with
    decisions equal to the cached configuration."""

    SEEDS = (3, 8)

    def test_default_compile_module(self, digest_calls):
        from repro.evaluation import compile_module
        for seed in self.SEEDS:
            result = compile_module(helpers.build_module(seed), "fmsa",
                                    threshold=2)
            assert result.merge_report.merge_count > 0
        assert digest_calls == []

    def test_default_engine_run_matches_cached(self, digest_calls):
        for seed in self.SEEDS:
            before = len(digest_calls)
            cold = MergeEngine(exploration_threshold=2).run(
                helpers.build_module(seed))
            assert len(digest_calls) == before, seed
            cached = MergeEngine(exploration_threshold=2,
                                 alignment_cache=AlignmentCache()).run(
                helpers.build_module(seed))
            assert cold.merge_count > 0
            assert cold.decision_keys() == cached.decision_keys()
            assert "align_cache_hits" not in cold.scheduler_stats
        assert digest_calls  # the counter sees the cached runs' keys

    def test_default_session_open_and_update(self, digest_calls):
        from repro.evaluation.pipeline import open_compile_session
        from repro.ir.clone import clone_function_detached
        donor = helpers.build_module(11).defined_functions()[0]
        with open_compile_session(helpers.build_module(3),
                                  threshold=2) as session:
            session.update([ModuleEdit.add(
                clone_function_detached(donor, name="added_fn"))])
            session.update([ModuleEdit.remove("added_fn")])
            assert session.report.merge_count > 0
        assert digest_calls == []
