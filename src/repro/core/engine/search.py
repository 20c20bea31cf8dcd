"""Exact candidate search (the engine's fast Section-IV stage).

:class:`CandidateRanker` answers a top-``t`` query by scoring every known
fingerprint against the query with :func:`~repro.core.fingerprint.similarity`
over ``Counter`` multisets.  The searcher visits the same candidates - every
other known function, in the ranker's iteration order - but makes each visit
cheap:

* **sorted-vector fingerprints** - the opcode/type multisets as parallel
  ``(feature id, count)`` arrays sorted by interned feature id - so an exact
  similarity is a two-pointer merge over ints instead of hash probes;
* a **pair-score memo** keyed by interned fingerprint *content* (the two
  vectors): a pair of contents is scored once, however many queries, names
  or session replays visit it, for as long as both contents are remembered
  (a pair first cut short by the early exit may be completed once later;
  see :class:`_Content`);
* an **early-exit similarity bound**: ``min(|a|,|b|) / (|a|+|b|)`` per
  feature kind upper-bounds the UB formula using only the cached multiset
  cardinalities, letting an unscored candidate be discarded (or the
  type-side merge be skipped) before any intersection work when it provably
  cannot beat the current t-th best score.

There is deliberately no inverted index in front of the scan: every
function shares ``ret`` and some type with every other, so on the benchmark
workloads an index over opcode and type features pruned 0 of the 254,916
candidates on ``clones`` (0 of 24,666 on ``suite``), while its posting-set
unions cost about a third of the search time.

The searcher reproduces :class:`CandidateRanker` results *exactly* - same
candidates, same scores, same order, same tie behaviour - because it visits
candidates in the ranker's iteration order (fingerprint insertion order)
and applies the identical bounded-heap policy; the bounds only skip
candidates that provably cannot enter the heap, and a memoised score is the
bit-identical float the merge would compute again.
"""

from __future__ import annotations

import heapq
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ...ir.function import Function
from ..fingerprint import Fingerprint
from ..ranking import RankedCandidate


class _Content:
    """One interned fingerprint content: sorted vectors, cardinalities and
    the content's row of the pair-score memo.

    ``row`` maps a partner content to the pair's score.  A value ``>= 0``
    is the exact similarity (counts are positive, so exact scores are); a
    negative value ``-u`` records only the opcode-side upper bound ``u > 0``
    at which an early exit stopped, which can still answer "cannot beat
    this floor" but is never used as a score.  Every entry is written to
    both partners' rows (similarity is symmetric to the last bit: min
    counts and integer denominators), so a content's row also lists every
    row that holds an entry for it.
    """

    __slots__ = ("key", "op_ids", "op_counts", "ty_ids", "ty_counts",
                 "op_total", "ty_total", "row", "refs", "epoch")

    def __init__(self, key: tuple):
        self.key = key
        op_vec, ty_vec = key
        self.op_ids = [fid for fid, _ in op_vec]
        self.op_counts = [count for _, count in op_vec]
        self.ty_ids = [fid for fid, _ in ty_vec]
        self.ty_counts = [count for _, count in ty_vec]
        self.op_total = sum(self.op_counts)
        self.ty_total = sum(self.ty_counts)
        self.row: Dict["_Content", float] = {}
        #: indexed names currently holding this content
        self.refs = 0
        #: the last memo epoch in which an entry took or dropped it
        self.epoch = 0


class _IndexedFingerprint:
    """One indexed name: its content plus its insertion order."""

    __slots__ = ("name", "order", "content")

    def __init__(self, name: str, order: int, content: _Content):
        self.name = name
        self.order = order
        self.content = content


_order = attrgetter("order")


def shared_count(ids1: List[int], counts1: List[int],
                 ids2: List[int], counts2: List[int]) -> int:
    """Two-pointer merge of two sorted ``(id, count)`` vectors: the sum of
    the smaller count over the shared ids."""
    i = j = shared = 0
    n1, n2 = len(ids1), len(ids2)
    while i < n1 and j < n2:
        a, b = ids1[i], ids2[j]
        if a == b:
            c1, c2 = counts1[i], counts2[j]
            shared += c1 if c1 < c2 else c2
            i += 1
            j += 1
        elif a < b:
            i += 1
        else:
            j += 1
    return shared


class IndexedCandidateSearcher:
    """Drop-in replacement for :class:`CandidateRanker` over sorted-vector
    fingerprints.  Exact: returns identical top-``t`` rankings.

    The pair-score memo lives as long as the index: :meth:`clear` (every
    engine run) drops it, and :meth:`sweep_memo` drops the scores of
    contents no indexed name has taken or dropped since the previous sweep.
    A session sweeps after every update, so a dead content outlives its
    last use by at most one update; a cold run sweeps after every commit.
    The memo takes no lock: a searcher belongs to one engine, and an engine
    is driven by one thread at a time.
    """

    def __init__(self, exploration_threshold: int = 1,
                 minimum_similarity: float = 0.0):
        if exploration_threshold < 1:
            raise ValueError("exploration threshold must be >= 1")
        self.exploration_threshold = exploration_threshold
        self.minimum_similarity = minimum_similarity
        self._entries: Dict[str, _IndexedFingerprint] = {}
        self._op_feature_ids: Dict[object, int] = {}
        self._ty_feature_ids: Dict[object, int] = {}
        self._contents: Dict[tuple, _Content] = {}
        # contents whose last holder left; swept by sweep_memo()
        self._released: Set[_Content] = set()
        self._epoch = 0
        self._next_order = 0
        # every entry in iteration order; None until the next query after
        # an index change
        self._ordered: Optional[List[_IndexedFingerprint]] = None
        #: Pairs scored by a two-pointer merge / candidates answered from
        #: the memo, over the searcher's lifetime (the candidate-search
        #: stage reports them per run).
        self.pairs_scored = 0
        self.pair_memo_hits = 0

    # -- index maintenance ---------------------------------------------------
    def _vector(self, freq, feature_ids: Dict[object, int]) -> Tuple[Tuple[int, int], ...]:
        vec = []
        for feature, count in freq.items():
            fid = feature_ids.get(feature)
            if fid is None:
                fid = feature_ids[feature] = len(feature_ids)
            vec.append((fid, count))
        vec.sort()
        return tuple(vec)

    def _intern(self, fp: Fingerprint) -> _Content:
        key = (self._vector(fp.opcode_freq, self._op_feature_ids),
               self._vector(fp.type_freq, self._ty_feature_ids))
        content = self._contents.get(key)
        if content is None:
            content = self._contents[key] = _Content(key)
        return content

    def _release(self, entry: _IndexedFingerprint) -> None:
        content = entry.content
        content.refs -= 1
        content.epoch = self._epoch
        if not content.refs:
            self._released.add(content)

    def add_function(self, function: Function) -> None:
        self.add_fingerprint(Fingerprint.of(function))

    def add_functions(self, functions: Iterable[Function]) -> None:
        for function in functions:
            self.add_function(function)

    def add_fingerprint(self, fp: Fingerprint,
                        order: Optional[int] = None) -> None:
        """Index ``fp``.  ``order`` restores an explicit iteration position
        (used by engine sessions to put a previously-consumed function back at
        its original spot); without it a fresh position is assigned.  When the
        name is already indexed the existing position always wins (dict
        semantics of the linear ranker: overwriting keeps the original
        iteration position)."""
        name = fp.function_name
        existing = self._entries.get(name)
        if existing is not None:
            order = existing.order
            self._release(existing)
        elif order is None:
            order = self._next_order
            self._next_order += 1
        else:
            self._next_order = max(self._next_order, order + 1)
        content = self._intern(fp)
        content.refs += 1
        content.epoch = self._epoch
        self._entries[name] = _IndexedFingerprint(name, order, content)
        self._ordered = None

    def remove_function(self, name: str) -> None:
        entry = self._entries.pop(name, None)
        if entry is not None:
            self._release(entry)
            self._ordered = None

    def clear(self) -> None:
        """Forget every fingerprint and memoised score (fresh state per
        engine run)."""
        self._entries.clear()
        self._op_feature_ids.clear()
        self._ty_feature_ids.clear()
        self._contents.clear()
        self._released.clear()
        self._next_order = 0
        self._ordered = None

    def sweep_memo(self) -> None:
        """Close one memo epoch: drop every content that no indexed name
        has taken or dropped since the previous sweep, with its row and its
        entries in its partners' rows.

        A session sweeps once per update, so a content it rolls back and
        replays (a restored source, a merged function that recurs) keeps
        its scores; a cold run sweeps once per commit, since it never
        brings a consumed function back.
        """
        epoch = self._epoch
        recent: Set[_Content] = set()
        for content in self._released:
            if content.refs:
                continue  # taken again: no longer released
            if content.epoch == epoch:
                recent.add(content)  # released in this epoch: keep one more
                continue
            del self._contents[content.key]
            for partner in content.row:
                if partner is not content:
                    partner.row.pop(content, None)
        self._released = recent
        self._epoch = epoch + 1

    def order_of(self, name: str) -> Optional[int]:
        """Iteration position of an indexed fingerprint (session bookkeeping:
        recorded before consumption so a restore can hand it back to
        :meth:`add_fingerprint`)."""
        entry = self._entries.get(name)
        return None if entry is None else entry.order

    def known_functions(self) -> List[str]:
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    # -- queries ----------------------------------------------------------------
    def rank_candidates(self, name: str,
                        limit: Optional[int] = None) -> List[RankedCandidate]:
        """Top merge candidates for ``name``; same contract and same results
        as :meth:`CandidateRanker.rank_candidates`.

        A candidate is skipped exactly when its score cannot beat ``floor``
        (the minimum similarity, or the t-th best score once the heap is
        full), which is what the ranker's heap policy amounts to.
        """
        entry = self._entries.get(name)
        if entry is None:
            return []
        if limit is None:
            limit = self.exploration_threshold
        ordered = self._ordered
        if ordered is None:
            ordered = self._ordered = sorted(self._entries.values(), key=_order)
        content = entry.content
        row = content.row
        op_ids, op_counts = content.op_ids, content.op_counts
        ty_ids, ty_counts = content.ty_ids, content.ty_counts
        op_total, ty_total = content.op_total, content.ty_total
        floor = self.minimum_similarity
        full = False
        heap: List[Tuple[float, str]] = []
        scored = hits = 0
        for other in ordered:
            if other is entry:
                continue
            theirs = other.content
            score = row.get(theirs)
            if score is not None and score >= 0.0:
                hits += 1
            else:
                op_denominator = op_total + theirs.op_total
                ty_denominator = ty_total + theirs.ty_total
                if not op_denominator or not ty_denominator:
                    score = 0.0  # a featureless side: the ranker's score
                elif score is not None and -score <= floor:
                    hits += 1  # the stored op-side bound already fails
                    continue
                else:
                    # cardinality bound: shared counts never exceed the
                    # smaller multiset
                    other_op, other_ty = theirs.op_total, theirs.ty_total
                    if ((op_total if op_total < other_op else other_op)
                            / op_denominator <= floor
                            or (ty_total if ty_total < other_ty else other_ty)
                            / ty_denominator <= floor):
                        continue
                    scored += 1
                    if score is None:
                        score = shared_count(op_ids, op_counts, theirs.op_ids,
                                             theirs.op_counts) / op_denominator
                        if 0.0 < score <= floor:
                            # early exit: min(op, ty) <= op <= floor
                            row[theirs] = theirs.row[content] = -score
                            continue
                    else:
                        score = -score
                    if score > 0.0:
                        ty_score = shared_count(ty_ids, ty_counts, theirs.ty_ids,
                                                theirs.ty_counts) / ty_denominator
                        if ty_score < score:
                            score = ty_score
                    row[theirs] = theirs.row[content] = score
            if score <= floor:
                continue
            if full:
                heapq.heapreplace(heap, (score, other.name))
                floor = heap[0][0]
            else:
                heapq.heappush(heap, (score, other.name))
                if len(heap) == limit:
                    full = True
                    floor = heap[0][0]
        self.pairs_scored += scored
        self.pair_memo_hits += hits
        ordered_heap = sorted(heap, key=lambda item: (-item[0], item[1]))
        return [RankedCandidate(n, s, i + 1)
                for i, (s, n) in enumerate(ordered_heap)]
