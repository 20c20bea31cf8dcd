"""Exact candidate search (the engine's fast Section-IV stage).

:class:`CandidateRanker` answers a top-``t`` query by scoring every known
fingerprint against the query with :func:`~repro.core.fingerprint.similarity`
over ``Counter`` multisets.  The searcher visits the same candidates - every
other known function, in the ranker's iteration order - but makes each visit
cheap:

* **sorted-vector fingerprints** - the opcode/type multisets as parallel
  ``(feature id, count)`` arrays sorted by interned feature id - so an exact
  similarity is a two-pointer merge over ints instead of hash probes;
* an **early-exit similarity bound**: ``min(|a|,|b|) / (|a|+|b|)`` per
  feature kind upper-bounds the UB formula using only the cached multiset
  cardinalities, letting a candidate be discarded (or the type-side merge be
  skipped) before any intersection work when it provably cannot beat the
  current t-th best score.

There is deliberately no inverted index in front of the scan: every
function shares ``ret`` and some type with every other, so on the benchmark
workloads an index over opcode and type features pruned 0 of the 254,916
candidates on ``clones`` (0 of 24,666 on ``suite``), while its posting-set
unions cost about a third of the search time.

The searcher reproduces :class:`CandidateRanker` results *exactly* - same
candidates, same scores, same order, same tie behaviour - because it visits
candidates in the ranker's iteration order (fingerprint insertion order)
and applies the identical bounded-heap policy; the bounds only skip
candidates that provably cannot enter the heap.
"""

from __future__ import annotations

import heapq
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Tuple

from ...ir.function import Function
from ..fingerprint import Fingerprint
from ..ranking import RankedCandidate


class _IndexedFingerprint:
    """Sorted-vector view of one fingerprint plus its insertion order."""

    __slots__ = ("name", "order", "op_ids", "op_counts", "ty_ids", "ty_counts",
                 "op_total", "ty_total")

    def __init__(self, name: str, order: int,
                 op_vec: List[Tuple[int, int]], ty_vec: List[Tuple[int, int]],
                 op_total: int, ty_total: int):
        self.name = name
        self.order = order
        self.op_ids = [fid for fid, _ in op_vec]
        self.op_counts = [count for _, count in op_vec]
        self.ty_ids = [fid for fid, _ in ty_vec]
        self.ty_counts = [count for _, count in ty_vec]
        self.op_total = op_total
        self.ty_total = ty_total


_order = attrgetter("order")


def _shared_count(ids1: List[int], counts1: List[int],
                  ids2: List[int], counts2: List[int]) -> int:
    """Two-pointer merge: sum of min counts over the shared feature ids."""
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
    fingerprints.  Exact: returns identical top-``t`` rankings."""

    def __init__(self, exploration_threshold: int = 1,
                 minimum_similarity: float = 0.0):
        if exploration_threshold < 1:
            raise ValueError("exploration threshold must be >= 1")
        self.exploration_threshold = exploration_threshold
        self.minimum_similarity = minimum_similarity
        self._entries: Dict[str, _IndexedFingerprint] = {}
        self._op_feature_ids: Dict[object, int] = {}
        self._ty_feature_ids: Dict[object, int] = {}
        self._next_order = 0

    # -- index maintenance ---------------------------------------------------
    def _vector(self, freq, feature_ids: Dict[object, int]) -> List[Tuple[int, int]]:
        vec = []
        for feature, count in freq.items():
            fid = feature_ids.get(feature)
            if fid is None:
                fid = feature_ids[feature] = len(feature_ids)
            vec.append((fid, count))
        vec.sort()
        return vec

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
        elif order is None:
            order = self._next_order
            self._next_order += 1
        else:
            self._next_order = max(self._next_order, order + 1)
        entry = _IndexedFingerprint(
            name, order,
            self._vector(fp.opcode_freq, self._op_feature_ids),
            self._vector(fp.type_freq, self._ty_feature_ids),
            fp.opcode_total, fp.type_total)
        self._entries[name] = entry

    def remove_function(self, name: str) -> None:
        self._entries.pop(name, None)

    def clear(self) -> None:
        """Forget every fingerprint (fresh state per engine run)."""
        self._entries.clear()
        self._op_feature_ids.clear()
        self._ty_feature_ids.clear()
        self._next_order = 0

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
    def _candidates(self, entry: _IndexedFingerprint) -> List[_IndexedFingerprint]:
        """Every other function, in the linear ranker's iteration
        (insertion) order."""
        ordered = [other for other in self._entries.values() if other is not entry]
        ordered.sort(key=_order)
        return ordered

    def _bound(self, a: _IndexedFingerprint, b: _IndexedFingerprint) -> float:
        """Cardinality-only upper bound on ``similarity``: shared counts can
        never exceed the smaller multiset."""
        op_denominator = a.op_total + b.op_total
        ty_denominator = a.ty_total + b.ty_total
        if op_denominator == 0 or ty_denominator == 0:
            return 0.0
        op_bound = min(a.op_total, b.op_total) / op_denominator
        ty_bound = min(a.ty_total, b.ty_total) / ty_denominator
        return op_bound if op_bound < ty_bound else ty_bound

    def _similarity(self, a: _IndexedFingerprint, b: _IndexedFingerprint,
                    cutoff: float) -> float:
        """Exact similarity, or any value <= ``cutoff`` once the opcode-side
        upper bound proves the exact score cannot exceed ``cutoff``."""
        op_denominator = a.op_total + b.op_total
        ty_denominator = a.ty_total + b.ty_total
        if op_denominator == 0 or ty_denominator == 0:
            return 0.0
        op_ub = _shared_count(a.op_ids, a.op_counts, b.op_ids, b.op_counts) / op_denominator
        if op_ub <= cutoff:
            return op_ub  # early exit: min(op_ub, ty_ub) <= op_ub <= cutoff
        ty_ub = _shared_count(a.ty_ids, a.ty_counts, b.ty_ids, b.ty_counts) / ty_denominator
        return op_ub if op_ub < ty_ub else ty_ub

    def rank_candidates(self, name: str,
                        limit: Optional[int] = None) -> List[RankedCandidate]:
        """Top merge candidates for ``name``; same contract and same results
        as :meth:`CandidateRanker.rank_candidates`."""
        entry = self._entries.get(name)
        if entry is None:
            return []
        if limit is None:
            limit = self.exploration_threshold
        minimum = self.minimum_similarity
        heap: List[Tuple[float, str]] = []
        for other in self._candidates(entry):
            full = bool(limit) and len(heap) >= limit
            floor = heap[0][0] if full else minimum
            if self._bound(entry, other) <= floor:
                continue
            score = self._similarity(entry, other, floor)
            if score <= minimum:
                continue
            if full:
                if score > heap[0][0]:
                    heapq.heapreplace(heap, (score, other.name))
            else:
                heapq.heappush(heap, (score, other.name))
        ordered = sorted(heap, key=lambda item: (-item[0], item[1]))
        return [RankedCandidate(n, s, i + 1) for i, (s, n) in enumerate(ordered)]

