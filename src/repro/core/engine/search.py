"""Indexed candidate search (the engine's fast Section-IV stage).

:class:`CandidateRanker` answers a top-``t`` query by scanning every known
fingerprint - an O(N) scan per worklist pop, O(N²) over a run.  The indexed
searcher keeps three extra structures so the scan collapses to the handful of
plausible candidates:

* an **inverted index** from fingerprint features (opcodes, type keys) to the
  functions containing them: only functions sharing at least one opcode *and*
  one type feature with the query can score above zero, so all others are
  never visited;
* **sorted-vector fingerprints** - the opcode/type multisets as parallel
  ``(feature id, count)`` arrays sorted by interned feature id - so an exact
  similarity is a two-pointer merge over ints instead of hash probes;
* an **early-exit similarity bound**: ``min(|a|,|b|) / (|a|+|b|)`` per
  feature kind upper-bounds the UB formula using only the cached multiset
  cardinalities, letting a candidate be discarded (or the type-side merge be
  skipped) before any intersection work when it provably cannot beat the
  current t-th best score.

The searcher reproduces :class:`CandidateRanker` results *exactly* - same
candidates, same scores, same order, same tie behaviour - because it visits
the surviving candidates in the ranker's iteration order (fingerprint
insertion order) and applies the identical bounded-heap policy; the pruning
only removes candidates that provably cannot enter the heap.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Set, Tuple

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
    """Drop-in replacement for :class:`CandidateRanker` backed by an
    inverted feature index.  Exact: returns identical top-``t`` rankings."""

    def __init__(self, exploration_threshold: int = 1,
                 minimum_similarity: float = 0.0):
        if exploration_threshold < 1:
            raise ValueError("exploration threshold must be >= 1")
        self.exploration_threshold = exploration_threshold
        self.minimum_similarity = minimum_similarity
        self._entries: Dict[str, _IndexedFingerprint] = {}
        self._op_feature_ids: Dict[object, int] = {}
        self._ty_feature_ids: Dict[object, int] = {}
        self._op_postings: Dict[int, Set[str]] = {}
        self._ty_postings: Dict[int, Set[str]] = {}
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
            self._unindex(existing)
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
        for fid in entry.op_ids:
            self._op_postings.setdefault(fid, set()).add(name)
        for fid in entry.ty_ids:
            self._ty_postings.setdefault(fid, set()).add(name)

    def _unindex(self, entry: _IndexedFingerprint) -> None:
        # drop posting sets that become empty: a long add/remove churn must
        # not leave one dead set per feature ever seen behind
        for fid in entry.op_ids:
            postings = self._op_postings.get(fid)
            if postings is not None:
                postings.discard(entry.name)
                if not postings:
                    del self._op_postings[fid]
        for fid in entry.ty_ids:
            postings = self._ty_postings.get(fid)
            if postings is not None:
                postings.discard(entry.name)
                if not postings:
                    del self._ty_postings[fid]

    def remove_function(self, name: str) -> None:
        entry = self._entries.pop(name, None)
        if entry is not None:
            self._unindex(entry)

    def clear(self) -> None:
        """Forget every fingerprint and posting (fresh state per engine run)."""
        self._entries.clear()
        self._op_feature_ids.clear()
        self._ty_feature_ids.clear()
        self._op_postings.clear()
        self._ty_postings.clear()
        self._next_order = 0

    def order_of(self, name: str) -> Optional[int]:
        """Iteration position of an indexed fingerprint (session bookkeeping:
        recorded before consumption so a restore can hand it back to
        :meth:`add_fingerprint`)."""
        entry = self._entries.get(name)
        return None if entry is None else entry.order

    def features_of(self, fp: Fingerprint) -> Tuple[frozenset, frozenset]:
        """Interned ``(opcode feature ids, type feature ids)`` of ``fp``.

        Unseen features are interned on the fly (consistent with a later
        ``add_fingerprint`` of the same fingerprint); interning extra ids
        never changes scores or candidate order, only internal numbering.
        """
        op_vec = self._vector(fp.opcode_freq, self._op_feature_ids)
        ty_vec = self._vector(fp.type_freq, self._ty_feature_ids)
        return (frozenset(fid for fid, _ in op_vec),
                frozenset(fid for fid, _ in ty_vec))

    def entry_overlaps(self, name: str, op_ids: frozenset,
                       ty_ids: frozenset) -> bool:
        """True when the indexed entry for ``name`` shares at least one opcode
        feature *and* one type feature with the given feature-id sets — the
        precondition for any fingerprint carrying those features to enter or
        leave the entry's candidate set.  Unknown names report ``True``
        (conservative)."""
        entry = self._entries.get(name)
        if entry is None:
            return True
        return (not op_ids.isdisjoint(entry.op_ids)
                and not ty_ids.isdisjoint(entry.ty_ids))

    def known_functions(self) -> List[str]:
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    # -- queries ----------------------------------------------------------------
    def _candidates(self, entry: _IndexedFingerprint) -> List[_IndexedFingerprint]:
        """Functions that could score above zero against ``entry``, in the
        linear ranker's iteration (insertion) order."""
        if self.minimum_similarity < 0:
            names: Iterable[str] = (n for n in self._entries if n != entry.name)
        else:
            op_hits: Set[str] = set()
            for fid in entry.op_ids:
                op_hits.update(self._op_postings.get(fid, ()))
            ty_hits: Set[str] = set()
            for fid in entry.ty_ids:
                ty_hits.update(self._ty_postings.get(fid, ()))
            op_hits &= ty_hits
            op_hits.discard(entry.name)
            names = op_hits
        ordered = [self._entries[name] for name in names]
        ordered.sort(key=lambda e: e.order)
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

