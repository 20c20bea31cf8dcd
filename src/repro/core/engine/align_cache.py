"""Content-addressed alignment cache.

:class:`AlignmentCache` memoises alignments by **content**, not by function
name: the key is ``(digest(keys1), digest(keys2), scoring)``, where the
digests come from :meth:`LinearizedFunction.canonical_digest` (a BLAKE2b
hash of the *structural* equivalence-key sequence, independent of any
interner's id assignment).  The kernel is deliberately **not** part of the
key: every keyed kernel (pure, native) is bit-identical by
construction, so an entry computed by one kernel satisfies a lookup from
any other.  When a commit rewrites a function, its fresh linearization has
different keys, hence a different digest: a stale body can never satisfy a
lookup, so there is nothing to invalidate by name.

A key costs more to compute than the DP a hit skips, so the engine uses a
cache only when its caller hands one in to share across runs.  No
production path does: compiles and sessions run without one and never
compute a digest.

What is stored is not the :class:`~repro.core.alignment.AlignmentResult`
itself - its entries reference the concrete ``LinearEntry`` objects of one
specific function pair - but the *shape* of the alignment: the score plus a
compact ``m``/``l``/``r`` op string (match / left-gap / right-gap per
column).  Rehydrating the ops against the requesting pair's entry lists
reproduces exactly the entries the kernel would have produced, because the
keyed DP depends only on the key sequences and the scoring scheme.

The cache is a bounded LRU and thread-safe: engines that share one cache
across threads serialize on one lock (the critical sections are dict ops).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

#: Rough per-entry bookkeeping cost (two 16-byte digests, the scoring key
#: parts, dict/OrderedDict slots) used for the ``bytes`` stat.
_ENTRY_OVERHEAD = 160


class AlignmentCache:
    """Bounded, thread-safe LRU of alignment shapes keyed by content."""

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("alignment cache capacity must be >= 1")
        self.capacity = capacity
        self._data: "OrderedDict[tuple, Tuple[str, int]]" = OrderedDict()
        self._lock = threading.Lock()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: tuple) -> Optional[Tuple[str, int]]:
        """The cached ``(ops, score)`` for ``key``, or None (counted)."""
        with self._lock:
            value = self._data.get(key)
            if value is None:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: tuple, ops: str, score: int) -> None:
        with self._lock:
            existing = self._data.pop(key, None)
            if existing is not None:
                self._bytes -= len(existing[0]) + _ENTRY_OVERHEAD
            self._data[key] = (ops, score)
            self._bytes += len(ops) + _ENTRY_OVERHEAD
            while len(self._data) > self.capacity:
                _, (old_ops, _) = self._data.popitem(last=False)
                self._bytes -= len(old_ops) + _ENTRY_OVERHEAD
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._data.clear()
            self._bytes = 0
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def stats_dict(self, prefix: str = "align_cache_") -> Dict[str, int]:
        """Counters for ``MergeReport.scheduler_stats``."""
        with self._lock:
            return {
                prefix + "hits": self.hits,
                prefix + "misses": self.misses,
                prefix + "evictions": self.evictions,
                prefix + "entries": len(self._data),
                prefix + "bytes": self._bytes,
            }
