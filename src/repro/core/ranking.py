"""Candidate ranking (Section IV).

For every function the ranker produces the top-``t`` most promising merge
partners according to the fingerprint similarity estimate, using a bounded
priority queue so that the per-function cost is O(N log t) over N candidate
functions.  The exploration threshold ``t`` is the knob evaluated in the
paper (t = 1, 5, 10, plus the exhaustive "oracle").

:class:`CandidateRanker` is the straightforward linear scan that the
reference pass (:mod:`repro.core.reference`) ranks with; the merge engine's
:class:`repro.core.engine.IndexedCandidateSearcher` answers the same queries
with identical results from an inverted feature index.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Tuple

from ..ir.function import Function
from .fingerprint import Fingerprint, similarity


class RankedCandidate:
    """A candidate partner with its similarity estimate and rank position."""

    __slots__ = ("function_name", "score", "position")

    def __init__(self, function_name: str, score: float, position: int = 0):
        self.function_name = function_name
        self.score = score
        self.position = position

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RankedCandidate {self.function_name} s={self.score:.3f} #{self.position}>"


class CandidateRanker:
    """Maintains fingerprints for the current set of mergeable functions and
    answers top-``t`` candidate queries."""

    def __init__(self, exploration_threshold: int = 1,
                 minimum_similarity: float = 0.0):
        if exploration_threshold < 1:
            raise ValueError("exploration threshold must be >= 1")
        self.exploration_threshold = exploration_threshold
        #: Candidates whose similarity estimate falls at or below this value
        #: are never proposed (a 0.0 estimate means no opcode or no type in
        #: common, which can never merge profitably).
        self.minimum_similarity = minimum_similarity
        self._fingerprints: Dict[str, Fingerprint] = {}

    # -- fingerprint cache maintenance ---------------------------------------
    def add_function(self, function: Function) -> None:
        self.add_fingerprint(Fingerprint.of(function))

    def add_fingerprint(self, fingerprint: Fingerprint) -> None:
        """Register a precomputed fingerprint (used by tests and benches)."""
        self._fingerprints[fingerprint.function_name] = fingerprint

    def add_functions(self, functions: Iterable[Function]) -> None:
        for function in functions:
            self.add_function(function)

    def remove_function(self, name: str) -> None:
        self._fingerprints.pop(name, None)

    def clear(self) -> None:
        """Forget every fingerprint (the engine clears searchers per run)."""
        self._fingerprints.clear()

    def known_functions(self) -> List[str]:
        return sorted(self._fingerprints)

    def fingerprint(self, name: str) -> Optional[Fingerprint]:
        return self._fingerprints.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._fingerprints

    def __len__(self) -> int:
        return len(self._fingerprints)

    # -- queries ----------------------------------------------------------------
    def rank_candidates(self, name: str,
                        limit: Optional[int] = None) -> List[RankedCandidate]:
        """Return the top candidates for merging with function ``name``,
        ordered from most to least similar.

        ``limit`` overrides the exploration threshold (``None`` keeps it);
        pass ``limit=0`` for the unrestricted (oracle) ranking containing
        every other function.
        """
        fp = self._fingerprints.get(name)
        if fp is None:
            return []
        if limit is None:
            limit = self.exploration_threshold
        heap: List[Tuple[float, str]] = []
        for other_name, other_fp in self._fingerprints.items():
            if other_name == name:
                continue
            score = similarity(fp, other_fp)
            if score <= self.minimum_similarity:
                continue
            if limit and len(heap) >= limit:
                if score > heap[0][0]:
                    heapq.heapreplace(heap, (score, other_name))
            else:
                heapq.heappush(heap, (score, other_name))
        ordered = sorted(heap, key=lambda item: (-item[0], item[1]))
        return [RankedCandidate(n, s, i + 1) for i, (s, n) in enumerate(ordered)]
