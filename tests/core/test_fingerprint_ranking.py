"""Tests for fingerprints, the UB similarity estimate and candidate ranking."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (CandidateRanker, Fingerprint, IndexedCandidateSearcher,
                        fingerprint_module, similarity)
from repro.ir import Module
from repro.ir import types as ty
from repro.workloads import clone_function

from tests.helpers import make_accumulator_function, make_binary_chain_function


def _module_with_functions():
    module = Module()
    add_like = make_binary_chain_function(module, "add_like", ["add", "add"])
    sub_like = make_binary_chain_function(module, "sub_like", ["add", "sub"])
    loop = make_accumulator_function(module, "loop")
    return module, add_like, sub_like, loop


class TestFingerprint:
    def test_opcode_frequencies_counted(self):
        module, add_like, _, _ = _module_with_functions()
        fp = Fingerprint.of(add_like)
        assert fp.opcode_freq["add"] == 2
        assert fp.opcode_freq["ret"] == 2
        assert fp.size == add_like.instruction_count()

    def test_type_frequencies_include_operands(self):
        module, add_like, _, _ = _module_with_functions()
        fp = Fingerprint.of(add_like)
        assert fp.type_freq[("int", 32)] > 0

    def test_identical_functions_score_half(self):
        module, add_like, _, _ = _module_with_functions()
        clone = clone_function(module, add_like, "add_clone")
        assert similarity(Fingerprint.of(add_like), Fingerprint.of(clone)) == pytest.approx(0.5)

    def test_similarity_is_symmetric_and_bounded(self):
        module, add_like, sub_like, loop = _module_with_functions()
        fps = [Fingerprint.of(f) for f in (add_like, sub_like, loop)]
        for a in fps:
            for b in fps:
                s = similarity(a, b)
                assert 0.0 <= s <= 0.5
                assert s == pytest.approx(similarity(b, a))

    def test_similar_functions_rank_above_dissimilar(self):
        module, add_like, sub_like, loop = _module_with_functions()
        fp = Fingerprint.of(add_like)
        assert similarity(fp, Fingerprint.of(sub_like)) > similarity(fp, Fingerprint.of(loop))

    def test_fingerprint_module_keys_by_name(self):
        module, *_ = _module_with_functions()
        table = fingerprint_module(module.defined_functions())
        assert set(table) == {"add_like", "sub_like", "loop"}

    def test_disjoint_functions_score_zero(self):
        module = Module()
        int_fn = make_binary_chain_function(module, "ints", ["add"])
        # a function with completely different opcodes and types
        other = module.create_function("floats", ty.function_type(ty.DOUBLE, [ty.DOUBLE]))
        from repro.ir import IRBuilder
        from repro.ir import values as vals
        builder = IRBuilder(other.append_block("entry"))
        builder.ret(builder.fadd(other.arguments[0], vals.const_float(1.0)))
        score = similarity(Fingerprint.of(int_fn), Fingerprint.of(other))
        assert score < 0.2


class TestUpperBoundFormula:
    @settings(max_examples=50, deadline=None)
    @given(st.dictionaries(st.sampled_from("abcdef"), st.integers(1, 20), max_size=6),
           st.dictionaries(st.sampled_from("abcdef"), st.integers(1, 20), max_size=6))
    def test_upper_bound_range_and_symmetry(self, freq1, freq2):
        from collections import Counter

        from repro.core.fingerprint import _upper_bound
        a, b = Counter(freq1), Counter(freq2)
        ub = _upper_bound(a, b)
        assert 0.0 <= ub <= 0.5
        assert ub == pytest.approx(_upper_bound(b, a))

    def test_identical_multisets_give_exactly_half(self):
        from collections import Counter

        from repro.core.fingerprint import _upper_bound
        counts = Counter({"add": 3, "mul": 2})
        assert _upper_bound(counts, counts) == pytest.approx(0.5)


class TestRanker:
    def test_top_candidate_is_most_similar(self):
        module, add_like, sub_like, loop = _module_with_functions()
        clone = clone_function(module, add_like, "add_clone")
        ranker = CandidateRanker(exploration_threshold=3)
        ranker.add_functions(module.defined_functions())
        candidates = ranker.rank_candidates("add_like")
        assert candidates[0].function_name == "add_clone"
        assert candidates[0].position == 1
        assert candidates[0].score == pytest.approx(0.5)

    def test_threshold_limits_candidates(self):
        module, *_ = _module_with_functions()
        ranker = CandidateRanker(exploration_threshold=1)
        ranker.add_functions(module.defined_functions())
        assert len(ranker.rank_candidates("add_like")) == 1
        # limit=0 means oracle: every other function is ranked
        assert len(ranker.rank_candidates("add_like", limit=0)) == 2

    def test_remove_function_excludes_it(self):
        module, *_ = _module_with_functions()
        ranker = CandidateRanker(exploration_threshold=5)
        ranker.add_functions(module.defined_functions())
        ranker.remove_function("sub_like")
        names = [c.function_name for c in ranker.rank_candidates("add_like")]
        assert "sub_like" not in names
        assert "sub_like" not in ranker

    def test_positions_are_sequential(self):
        module, *_ = _module_with_functions()
        ranker = CandidateRanker(exploration_threshold=5)
        ranker.add_functions(module.defined_functions())
        positions = [c.position for c in ranker.rank_candidates("loop")]
        assert positions == list(range(1, len(positions) + 1))

    def test_unknown_function_returns_empty(self):
        ranker = CandidateRanker()
        assert ranker.rank_candidates("nope") == []

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            CandidateRanker(exploration_threshold=0)

    def test_ranker_length_and_known_functions(self):
        module, *_ = _module_with_functions()
        ranker = CandidateRanker()
        ranker.add_functions(module.defined_functions())
        assert len(ranker) == 3
        assert ranker.known_functions() == ["add_like", "loop", "sub_like"]


# -- indexed searcher: exact parity with the linear ranker -------------------

#: Small alphabets and count ranges so hypothesis hits plenty of score ties,
#: which is where heap/ordering behaviour could plausibly diverge.
fingerprint_sets = st.lists(
    st.tuples(st.dictionaries(st.sampled_from("abcdef"), st.integers(1, 4), max_size=4),
              st.dictionaries(st.sampled_from("wxyz"), st.integers(1, 4), max_size=3)),
    min_size=1, max_size=12)


def _ranked_tuples(searcher, name, limit):
    return [(c.function_name, c.score, c.position)
            for c in searcher.rank_candidates(name, limit)]


class TestIndexedSearcherParity:
    @settings(max_examples=120, deadline=None)
    @given(fingerprint_sets, st.sampled_from([None, 0, 1, 2, 5]),
           st.integers(1, 4))
    def test_identical_topt_to_linear_ranker(self, raw, limit, threshold):
        linear = CandidateRanker(exploration_threshold=threshold)
        indexed = IndexedCandidateSearcher(exploration_threshold=threshold)
        for i, (opcodes, types) in enumerate(raw):
            fp = Fingerprint(f"f{i}", Counter(opcodes), Counter(types),
                             sum(opcodes.values()))
            linear.add_fingerprint(fp)
            indexed.add_fingerprint(fp)
        for i in range(len(raw)):
            assert (_ranked_tuples(indexed, f"f{i}", limit)
                    == _ranked_tuples(linear, f"f{i}", limit))

    @settings(max_examples=60, deadline=None)
    @given(fingerprint_sets, st.lists(st.integers(0, 11), max_size=4))
    def test_parity_survives_removals(self, raw, removals):
        linear = CandidateRanker(exploration_threshold=3)
        indexed = IndexedCandidateSearcher(exploration_threshold=3)
        for i, (opcodes, types) in enumerate(raw):
            fp = Fingerprint(f"f{i}", Counter(opcodes), Counter(types),
                             sum(opcodes.values()))
            linear.add_fingerprint(fp)
            indexed.add_fingerprint(fp)
        for index in removals:
            linear.remove_function(f"f{index}")
            indexed.remove_function(f"f{index}")
        assert indexed.known_functions() == linear.known_functions()
        for name in linear.known_functions():
            assert (_ranked_tuples(indexed, name, None)
                    == _ranked_tuples(linear, name, None))

    def test_parity_on_real_module(self):
        module, add_like, sub_like, loop = _module_with_functions()
        clone = clone_function(module, add_like, "add_clone")
        linear = CandidateRanker(exploration_threshold=3)
        indexed = IndexedCandidateSearcher(exploration_threshold=3)
        linear.add_functions(module.defined_functions())
        indexed.add_functions(module.defined_functions())
        for name in linear.known_functions():
            for limit in (None, 0, 1, 10):
                assert (_ranked_tuples(indexed, name, limit)
                        == _ranked_tuples(linear, name, limit))

    def test_container_protocol(self):
        module, *_ = _module_with_functions()
        indexed = IndexedCandidateSearcher()
        indexed.add_functions(module.defined_functions())
        assert len(indexed) == 3
        assert "add_like" in indexed
        assert indexed.known_functions() == ["add_like", "loop", "sub_like"]
        assert indexed.rank_candidates("nope") == []

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            IndexedCandidateSearcher(exploration_threshold=0)


class TestOracleModeParity:
    """`limit=0` (the oracle's unrestricted ranking) parity between the
    indexed searcher and the linear ranker, including the
    `minimum_similarity < 0` full-scan path and score-tie ordering - the
    untested edges of the "exact parity" contract."""

    @settings(max_examples=100, deadline=None)
    @given(fingerprint_sets, st.sampled_from([0.0, -1.0, -0.5]))
    def test_unrestricted_ranking_parity(self, raw, minimum):
        linear = CandidateRanker(exploration_threshold=1,
                                 minimum_similarity=minimum)
        indexed = IndexedCandidateSearcher(exploration_threshold=1,
                                           minimum_similarity=minimum)
        for i, (opcodes, types) in enumerate(raw):
            fp = Fingerprint(f"f{i}", Counter(opcodes), Counter(types),
                             sum(opcodes.values()))
            linear.add_fingerprint(fp)
            indexed.add_fingerprint(fp)
        for i in range(len(raw)):
            assert (_ranked_tuples(indexed, f"f{i}", 0)
                    == _ranked_tuples(linear, f"f{i}", 0))

    def test_negative_minimum_returns_every_other_function(self):
        # the full-scan path: zero-similarity candidates (no shared opcode
        # or type feature, hence absent from every shared posting) must
        # still be returned, in the same order, with the same 0.0 scores
        disjoint = [Fingerprint("a", Counter("xy"), Counter({"w": 1}), 2),
                    Fingerprint("b", Counter("pq"), Counter({"v": 2}), 2),
                    Fingerprint("c", Counter("mn"), Counter({"u": 1}), 2)]
        linear = CandidateRanker(minimum_similarity=-1.0)
        indexed = IndexedCandidateSearcher(minimum_similarity=-1.0)
        for fp in disjoint:
            linear.add_fingerprint(fp)
            indexed.add_fingerprint(fp)
        for name in "abc":
            got = _ranked_tuples(indexed, name, 0)
            assert got == _ranked_tuples(linear, name, 0)
            assert len(got) == 2
            assert all(score == 0.0 for _, score, _ in got)
        # the default minimum (0.0) filters them out in both
        assert IndexedCandidateSearcher().rank_candidates("a") == []

    def test_score_ties_order_by_name_in_both(self):
        # four identical fingerprints: every candidate scores exactly the
        # same, so ordering is decided purely by the name tie-break
        linear = CandidateRanker(exploration_threshold=2)
        indexed = IndexedCandidateSearcher(exploration_threshold=2)
        for name in ("delta", "alpha", "charlie", "bravo"):
            fp = Fingerprint(name, Counter("aab"), Counter({"t": 3}), 3)
            linear.add_fingerprint(fp)
            indexed.add_fingerprint(fp)
        for limit in (0, 1, 2, None):
            got = _ranked_tuples(indexed, "charlie", limit)
            assert got == _ranked_tuples(linear, "charlie", limit)
        full = _ranked_tuples(indexed, "charlie", 0)
        assert [name for name, _, _ in full] == ["alpha", "bravo", "delta"]
        assert [position for _, _, position in full] == [1, 2, 3]


class TestChurnAndRestore:
    """Searcher state under add/remove churn, overwrites and order-restoring
    re-adds: the size tracks the live functions, and every ranking equals
    the linear ranker's over the same live fingerprints in the same
    iteration order."""

    @staticmethod
    def _fingerprint(index, salt=0):
        # few features and small counts: plenty of score ties, so the
        # iteration order decides which tied candidate a full heap keeps
        return Fingerprint(f"churn{index}",
                           Counter({f"op{(index + salt) % 7}": 1 + index % 3,
                                    f"op{(index + 1) % 7}": 1}),
                           Counter({f"ty{index % 5}": 1}),
                           2 + index % 3)

    @staticmethod
    def _assert_rankings_match(searcher, linear):
        assert searcher.known_functions() == linear.known_functions()
        for name in linear.known_functions():
            for limit in (None, 0, 2):
                assert (_ranked_tuples(searcher, name, limit)
                        == _ranked_tuples(linear, name, limit)), (name, limit)

    def test_churn_keeps_length_equal_to_live_functions(self):
        searcher = IndexedCandidateSearcher(exploration_threshold=2)
        linear = CandidateRanker(exploration_threshold=2)
        live = set()
        for index in range(300):
            fp = self._fingerprint(index)
            searcher.add_fingerprint(fp)
            linear.add_fingerprint(fp)
            live.add(fp.function_name)
            if index >= 8:
                for ranker in (searcher, linear):
                    ranker.remove_function(f"churn{index - 8}")
                live.discard(f"churn{index - 8}")
            searcher.remove_function("never-added")
            assert len(searcher) == len(live)
        assert set(searcher.known_functions()) == live
        self._assert_rankings_match(searcher, linear)
        for name in list(live):
            searcher.remove_function(name)
        assert len(searcher) == 0
        assert searcher.known_functions() == []

    def test_overwrite_keeps_its_position(self):
        searcher = IndexedCandidateSearcher(exploration_threshold=3)
        linear = CandidateRanker(exploration_threshold=3)
        for index in range(6):
            for ranker in (searcher, linear):
                ranker.add_fingerprint(self._fingerprint(index))
        orders = [searcher.order_of(f"churn{i}") for i in range(6)]
        for index in (4, 1):
            fp = self._fingerprint(index, salt=3)
            searcher.add_fingerprint(fp)
            linear.add_fingerprint(fp)
        assert [searcher.order_of(f"churn{i}") for i in range(6)] == orders
        assert len(searcher) == 6
        self._assert_rankings_match(searcher, linear)

    def test_restore_with_order_ranks_like_a_cold_ranker(self):
        # two distinct shapes only: every query has tied candidates, and
        # with t=2 the first tied ones in iteration order win the heap
        fingerprints = [Fingerprint(f"churn{index}",
                                    Counter({"add": 1 + index % 2, "ret": 1}),
                                    Counter({"i32": 2}), 2 + index % 2)
                        for index in range(10)]
        searcher = IndexedCandidateSearcher(exploration_threshold=2)
        for fp in fingerprints:
            searcher.add_fingerprint(fp)
        # consume three functions, then put them back at their old spots in
        # a different order; a later fresh add goes after all of them
        consumed = {i: searcher.order_of(f"churn{i}") for i in (2, 7, 5)}
        for index in consumed:
            searcher.remove_function(f"churn{index}")
        for index in (5, 2, 7):
            searcher.add_fingerprint(fingerprints[index], order=consumed[index])
        extra = self._fingerprint(10)
        searcher.add_fingerprint(extra)
        assert searcher.order_of("churn10") == 10
        cold = CandidateRanker(exploration_threshold=2)
        for fp in fingerprints + [extra]:
            cold.add_fingerprint(fp)
        self._assert_rankings_match(searcher, cold)


class TestPairScoreMemo:
    """The searcher's pair-score memo under index churn: every ranking
    equals a linear ranker's over the live fingerprints in the searcher's
    iteration order, however the memo was filled and swept."""

    #: few tiny contents: names share them, and scores tie constantly
    contents = st.lists(
        st.tuples(st.dictionaries(st.sampled_from("abc"), st.integers(1, 3),
                                  max_size=3),
                  st.dictionaries(st.sampled_from("xy"), st.integers(1, 3),
                                  max_size=2)),
        min_size=1, max_size=5)
    steps = st.lists(
        st.tuples(st.sampled_from(("add", "remove", "restore", "sweep",
                                   "query")),
                  st.integers(0, 5), st.integers(0, 4),
                  st.sampled_from((None, 0, 1, 2, 3))),
        max_size=40)

    @settings(max_examples=150, deadline=None)
    @given(contents, steps, st.integers(1, 3), st.sampled_from((0.0, -1.0)))
    def test_rankings_match_the_linear_ranker_under_churn(
            self, contents, steps, threshold, minimum):
        searcher = IndexedCandidateSearcher(exploration_threshold=threshold,
                                            minimum_similarity=minimum)
        live = {}      # name -> fingerprint
        orders = {}    # name -> iteration position (kept after removal)
        next_order = 0

        def fingerprint(name, index):
            opcodes, types = contents[index % len(contents)]
            return Fingerprint(name, Counter(opcodes), Counter(types),
                               sum(opcodes.values()))

        def check(name, limit):
            linear = CandidateRanker(exploration_threshold=threshold,
                                     minimum_similarity=minimum)
            for other in sorted(live, key=orders.get):
                linear.add_fingerprint(live[other])
            assert (_ranked_tuples(searcher, name, limit)
                    == _ranked_tuples(linear, name, limit)), (name, limit)

        for kind, name_index, content_index, limit in steps:
            name = f"f{name_index}"
            if kind == "add":
                # a fresh name takes the next position, an overwrite keeps
                # its own; either way the name may now share a content
                fp = fingerprint(name, content_index)
                searcher.add_fingerprint(fp)
                if name not in live:
                    orders[name] = next_order
                    next_order += 1
                live[name] = fp
            elif kind == "remove":
                searcher.remove_function(name)
                live.pop(name, None)
            elif kind == "restore" and name in orders:
                # a session rollback: a consumed name comes back at its old
                # position, possibly with the content it had before
                fp = fingerprint(name, content_index)
                searcher.add_fingerprint(fp, order=orders[name])
                next_order = max(next_order, orders[name] + 1)
                live[name] = fp
            elif kind == "sweep":
                searcher.sweep_memo()
            elif kind == "query" and name in live:
                check(name, limit)
            assert [searcher.order_of(n) for n in sorted(live)] \
                == [orders[n] for n in sorted(live)]
        for name in live:
            for limit in (None, 0, 1, 3):
                check(name, limit)

    def test_one_content_under_several_names_is_scored_once(self):
        searcher = IndexedCandidateSearcher()
        for name in ("a", "b", "c"):
            searcher.add_fingerprint(
                Fingerprint(name, Counter("aab"), Counter("xy"), 3))
        searcher.add_fingerprint(
            Fingerprint("d", Counter("abb"), Counter("xy"), 3))
        searcher.rank_candidates("a", 0)
        # a-b scores the shared content with itself, a-c reuses it
        assert (searcher.pairs_scored, searcher.pair_memo_hits) == (2, 1)
        searcher.rank_candidates("b", 0)
        searcher.rank_candidates("d", 0)
        assert (searcher.pairs_scored, searcher.pair_memo_hits) == (2, 7)

    def test_sweep_drops_a_dead_content_one_epoch_later(self):
        searcher = IndexedCandidateSearcher(exploration_threshold=2)
        for name, ops in (("a", "aab"), ("b", "abb"), ("c", "abc")):
            searcher.add_fingerprint(
                Fingerprint(name, Counter(ops), Counter("xy"), 3))
        searcher.rank_candidates("a", 0)
        searcher.remove_function("c")
        searcher.sweep_memo()  # released in this epoch: kept one more
        searcher.rank_candidates("a", 0)
        assert searcher.pairs_scored == 2
        searcher.sweep_memo()  # dead for a whole epoch: dropped
        searcher.add_fingerprint(
            Fingerprint("c", Counter("abc"), Counter("xy"), 3))
        searcher.rank_candidates("a", 0)
        assert searcher.pairs_scored == 3  # a-c is scored again
