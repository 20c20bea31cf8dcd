"""Content-addressed alignment cache.

Aligning the same pair of linearizations twice is pure waste, and the
plan/commit scheduler does it structurally: a conflicted plan is discarded
and replanned against the same (unchanged) candidate bodies, and a requeued
worklist entry re-evaluates candidates an earlier batch already aligned.
Function families make it worse - identical clones produce *identical key
sequences*, so textually different function pairs keep asking for the very
same DP.

:class:`AlignmentCache` memoises alignments by **content**, not by function
name: the key is ``(digest(keys1), digest(keys2), scoring)``, where the
digests come from :meth:`LinearizedFunction.canonical_digest` (a BLAKE2b
hash of the *structural* equivalence-key sequence, independent of any
interner's id assignment).  The kernel is deliberately **not** part of the
key: every keyed kernel (pure, NumPy, native) is bit-identical by
construction, so an entry computed by one kernel satisfies a lookup from
any other.  Two consequences fall out:

* **Invalidation is automatic.**  When a commit rewrites a function,
  ``LinearizeStage.invalidate`` drops its cached linearization; the fresh
  linearization has different keys, hence a different digest, hence a
  different cache key.  A stale body can never satisfy a lookup - there is
  nothing to invalidate by name.
* **Hits transfer across functions.**  Any pair whose key sequences match a
  previously aligned pair hits the cache, even if the functions themselves
  have never met.

What is stored is not the :class:`~repro.core.alignment.AlignmentResult`
itself - its entries reference the concrete ``LinearEntry`` objects of one
specific function pair - but the *shape* of the alignment: the score plus a
compact ``m``/``l``/``r`` op string (match / left-gap / right-gap per
column).  Rehydrating the ops against the requesting pair's entry lists
reproduces exactly the entries the kernel would have produced, because the
keyed DP (every kernel: pure, NumPy, native - all bit-identical by
construction) depends only on the key sequences and the scoring scheme.

The cache is a bounded LRU and thread-safe: a long-lived host (the merge
daemon) shares one cache between concurrent requests behind one lock (the
critical sections are dict ops, orders of magnitude cheaper than the DP
they save).

Because canonical digests are interner-independent, entries are also valid
**across runs**: :meth:`AlignmentCache.save` writes a versioned, checksummed
JSON snapshot and :meth:`AlignmentCache.load` warm-starts a cache from one.
A corrupt, truncated or version-mismatched snapshot degrades to a cold
cache with a warning - never an exception - so a shared cache file can
never break a build.  Hits satisfied by snapshot-loaded entries are counted
separately (``cross_run_hits``) so warm-start effectiveness is observable
in ``MergeReport.scheduler_stats``.

Two policies keep a *shared, long-lived* snapshot healthy:

* **Advisory file locking.**  ``save`` is read-merge-write; without mutual
  exclusion two processes saving concurrently each merge against the same
  on-disk state and the second atomic replace silently drops the first
  writer's new entries.  Both ``save`` and ``load`` therefore take an
  advisory lock on a ``<path>.lock`` sidecar (``fcntl.flock`` on POSIX, a
  ``msvcrt.locking`` shim on Windows), making concurrent merges lose
  nothing.  Where no locking primitive exists the code degrades to the old
  atomic-replace behaviour with a warning.
* **Generational compaction.**  The snapshot carries a generation counter,
  bumped on every load, and each entry remembers the last generation that
  referenced (hit or recomputed) it.  Entries untouched for
  ``max_generations`` consecutive generations are dropped at save time, so
  a snapshot shared across evolving workloads stops accumulating dead
  entries forever.  Aging only affects what the snapshot retains - never
  what a run computes.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import warnings
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from ...resilience import degradation_event, fault_triggered
from ..alignment import (AlignedEntry, AlignmentResult, ops_string,
                         result_from_ops)

#: Rough per-entry bookkeeping cost (two 16-byte digests, the scoring key
#: parts, dict/OrderedDict slots) used for the ``bytes`` stat.
_ENTRY_OVERHEAD = 160

#: On-disk snapshot format marker and version.  Bump the version whenever
#: the entry layout or the key derivation changes; older snapshots are then
#: rejected (with a warning) instead of silently misinterpreted - except
#: versions listed in :data:`READABLE_VERSIONS`, which parse compatibly.
SNAPSHOT_FORMAT = "repro-align-cache"
SNAPSHOT_VERSION = 3

#: Snapshot versions :meth:`AlignmentCache.load` still understands.
#: Version 1 rows lack the per-entry generation; they load as generation 0.
#: Version 2 rows carry the raw op string inline; version 3 stores each
#: *distinct* op string once, run-length packed, in a shared table that
#: rows index into - clone families produce many entries with the same
#: shape, so the table collapses the snapshot's dominant redundancy.
READABLE_VERSIONS = (1, 2, SNAPSHOT_VERSION)

#: Environment knob naming a shared snapshot file: engines without an
#: explicit ``alignment_cache_path`` load it before each run and save back
#: after, so every module of an evaluation suite warm-starts from one cache.
ALIGN_CACHE_ENV = "REPRO_ALIGN_CACHE"

#: Environment knob for the default generational-compaction horizon.
ALIGN_CACHE_MAX_GEN_ENV = "REPRO_ALIGN_CACHE_MAX_GEN"

#: Default compaction horizon: snapshot entries not referenced for this
#: many consecutive generations (one generation = one load of the shared
#: snapshot) are aged out at save time.
DEFAULT_MAX_GENERATIONS = 32


def resolve_max_generations(value: Optional[int]) -> Optional[int]:
    """Resolve the compaction horizon: the explicit value, then the
    ``REPRO_ALIGN_CACHE_MAX_GEN`` environment variable, then the default;
    zero or negative disables aging (returns None)."""
    if value is None:
        raw = os.environ.get(ALIGN_CACHE_MAX_GEN_ENV, "").strip()
        if raw:
            try:
                value = int(raw)
            except ValueError:
                warnings.warn(
                    f"ignoring non-integer {ALIGN_CACHE_MAX_GEN_ENV}={raw!r}",
                    RuntimeWarning, stacklevel=2)
        if value is None:
            value = DEFAULT_MAX_GENERATIONS
    return value if value > 0 else None


def _warn_unlocked(reason: str, shared: bool) -> None:
    """Degrading to unlocked operation only matters (and only warns) on the
    write path: an unlocked *read* of an atomically-replaced file is safe,
    it is concurrent read-merge-write saves that lose entries."""
    if not shared:
        warnings.warn(f"{reason}; concurrent alignment-cache snapshot "
                      f"writers may lose entries", RuntimeWarning,
                      stacklevel=4)


@contextmanager
def _snapshot_lock(path: str, shared: bool = False):
    """Advisory lock on ``path``'s sidecar lock file.

    Yields True while holding the lock, False when no locking primitive is
    available, the lock file cannot be created, or the lock call itself
    fails (e.g. ``flock`` raising ENOLCK on a filesystem without lock
    support) - degrading, with a warning on the write path, to the
    unlocked atomic-replace behaviour, which can lose entries to
    concurrent writers but never corrupts the snapshot and never raises.
    The sidecar is deliberately separate from the snapshot: ``os.replace``
    on the snapshot itself would leave a lock taken on a dead inode.
    """
    handle = None
    locked_via = None
    try:
        try:
            handle = open(path + ".lock", "a+b")
        except OSError as error:
            _warn_unlocked(f"cannot create alignment-cache lock file "
                           f"{path + '.lock'!r} ({error})", shared)
            yield False
            return
        try:
            import fcntl
        except ImportError:
            fcntl = None
        if fcntl is not None:
            try:
                fcntl.flock(handle.fileno(),
                            fcntl.LOCK_SH if shared else fcntl.LOCK_EX)
            except OSError as error:
                _warn_unlocked(f"cannot lock {path + '.lock'!r} ({error})",
                               shared)
                yield False
                return
            locked_via = "fcntl"
            yield True
            return
        try:
            import msvcrt
        except ImportError:
            _warn_unlocked("no advisory file locking available (neither "
                           "fcntl nor msvcrt)", shared)
            yield False
            return
        # msvcrt has no shared locks; exclusive-lock the first byte for
        # readers and writers alike
        try:
            handle.seek(0)
            msvcrt.locking(handle.fileno(), msvcrt.LK_LOCK, 1)
        except OSError as error:
            # LK_LOCK gives up after ~10s of contention rather than
            # waiting forever; proceeding unlocked beats crashing the run
            _warn_unlocked(f"cannot lock {path + '.lock'!r} ({error})",
                           shared)
            yield False
            return
        locked_via = "msvcrt"
        yield True
    finally:
        if handle is not None:
            if locked_via == "msvcrt":
                import msvcrt
                try:
                    handle.seek(0)
                    msvcrt.locking(handle.fileno(), msvcrt.LK_UNLCK, 1)
                except OSError:
                    pass
            # fcntl locks release on close
            handle.close()


def _entries_checksum(entries: List[list]) -> str:
    """BLAKE2b checksum of the snapshot's entry list (canonical JSON)."""
    payload = json.dumps(entries, separators=(",", ":"), sort_keys=True)
    return hashlib.blake2b(payload.encode("ascii"), digest_size=16).hexdigest()


class _SnapshotError(ValueError):
    """A snapshot file exists but cannot be trusted (the reason says why)."""


def pack_ops(ops: str) -> str:
    """Run-length encode an ``m``/``l``/``r`` op string.

    ``"mmmllr"`` packs to ``"3m2lr"``; the count prefix is omitted for
    single ops, so packing never grows a string.  Near-identical pairs -
    the profitable ones, hence the ones a long-lived snapshot accumulates -
    are dominated by long ``m`` runs and pack down dramatically.
    """
    if not ops:
        return ""
    out = []
    run_char = ops[0]
    run = 1
    for char in ops[1:]:
        if char == run_char:
            run += 1
        else:
            out.append(f"{run}{run_char}" if run > 1 else run_char)
            run_char = char
            run = 1
    out.append(f"{run}{run_char}" if run > 1 else run_char)
    return "".join(out)


def unpack_ops(packed: str) -> str:
    """Inverse of :func:`pack_ops`; raises ValueError on malformed input."""
    out = []
    count = 0
    for char in packed:
        if char in "123456789" or (char == "0" and count):
            count = count * 10 + int(char)
        elif char in "mlr":
            out.append(char * (count if count else 1))
            count = 0
        else:
            raise ValueError(f"bad character {char!r} in packed op string")
    if count:
        raise ValueError("packed op string ends with a dangling count")
    return "".join(out)


def ops_of(entries: List[AlignedEntry]) -> str:
    """Serialize alignment entries to the compact op string (alias of
    :func:`repro.core.alignment.ops_string`, kept for call sites that think
    in cache terms)."""
    return ops_string(entries)


def rehydrate(ops: str, score: int, seq1, seq2) -> AlignmentResult:
    """Rebuild an :class:`AlignmentResult` for a concrete pair from ops
    (alias of :func:`repro.core.alignment.result_from_ops`, kept for call
    sites that think in cache terms)."""
    return result_from_ops(ops, score, seq1, seq2)


class AlignmentCache:
    """Bounded, thread-safe LRU of alignment shapes keyed by content."""

    def __init__(self, capacity: int = 4096,
                 max_generations: Optional[int] = None, *,
                 autosave_path: Optional[str] = None,
                 save_every_n_puts: int = 64,
                 autosave_interval: Optional[float] = None):
        if capacity < 1:
            raise ValueError("alignment cache capacity must be >= 1")
        self.capacity = capacity
        self.max_generations = resolve_max_generations(max_generations)
        self._data: "OrderedDict[tuple, Tuple[str, int]]" = OrderedDict()
        self._lock = threading.Lock()
        self._bytes = 0
        # -- debounced autosave (see enable_autosave) --
        self._autosave_path: Optional[str] = None
        self._autosave_every: Optional[int] = None
        self._autosave_interval: Optional[float] = None
        self._autosave_pending = 0
        self._autosave_last = 0.0
        #: serializes the actual disk write so put() triggers never stack
        #: concurrent save() calls behind the advisory file lock
        self._autosave_guard = threading.Lock()
        self.autosaves = 0
        #: Keys whose entries came from a snapshot (not computed this run);
        #: hits against them are counted as ``cross_run_hits`` too.
        self._persisted: set = set()
        #: Current snapshot generation (the loaded snapshot's counter + 1;
        #: 0 for a cache that never loaded) and the last generation each
        #: held key was referenced in - the compaction bookkeeping.
        self._generation = 0
        self._gens: Dict[tuple, int] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.cross_run_hits = 0
        #: Graceful-degradation transitions (``degradation_event`` dicts):
        #: a corrupt/unreadable snapshot degrading the warm start to cold,
        #: a failed save leaving the run unpersisted.
        self.degradations: List[dict] = []
        if autosave_path is not None:
            self.enable_autosave(autosave_path,
                                 every_puts=save_every_n_puts,
                                 interval_seconds=autosave_interval)

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
            self._gens[key] = self._generation
            self.hits += 1
            if key in self._persisted:
                self.cross_run_hits += 1
            return value

    def contains(self, key: tuple) -> bool:
        """Whether ``key`` is held, *without* counting a hit or miss,
        touching the LRU order or refreshing the entry's generation - the
        offload's dispatch filter, which must not skew the stats the
        planning lookups produce."""
        with self._lock:
            return key in self._data

    def put(self, key: tuple, ops: str, score: int) -> None:
        due = False
        with self._lock:
            self._put_locked(key, ops, score)
            if self._autosave_path is not None:
                self._autosave_pending += 1
                due = (self._autosave_every is not None
                       and self._autosave_pending >= self._autosave_every)
        if due:
            # outside self._lock: the snapshot write must not stall
            # concurrent get()/put() calls
            self.autosave_flush()

    def _put_locked(self, key: tuple, ops: str, score: int) -> None:
        existing = self._data.pop(key, None)
        if existing is not None:
            self._bytes -= len(existing[0]) + _ENTRY_OVERHEAD
        self._persisted.discard(key)  # computed (again) this run
        self._data[key] = (ops, score)
        self._gens[key] = self._generation
        self._bytes += len(ops) + _ENTRY_OVERHEAD
        while len(self._data) > self.capacity:
            old_key, (old_ops, _) = self._data.popitem(last=False)
            self._persisted.discard(old_key)
            self._gens.pop(old_key, None)
            self._bytes -= len(old_ops) + _ENTRY_OVERHEAD
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry and reset the counters (fresh per engine run)."""
        with self._lock:
            self._data.clear()
            self._persisted.clear()
            self._gens.clear()
            self._generation = 0
            self._bytes = 0
            self._autosave_pending = 0  # the entries it counted are gone
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.cross_run_hits = 0
            self.degradations = []

    def stats_dict(self, prefix: str = "align_cache_") -> Dict[str, int]:
        """Counters for ``MergeReport.scheduler_stats``."""
        with self._lock:
            return {
                prefix + "hits": self.hits,
                prefix + "misses": self.misses,
                prefix + "cross_run_hits": self.cross_run_hits,
                prefix + "evictions": self.evictions,
                prefix + "entries": len(self._data),
                prefix + "persisted_entries": len(self._persisted),
                prefix + "bytes": self._bytes,
                prefix + "generation": self._generation,
                prefix + "autosaves": self.autosaves,
                prefix + "degradations": len(self.degradations),
            }

    # -- debounced autosave --------------------------------------------------
    def enable_autosave(self, path: str, *,
                        every_puts: Optional[int] = 64,
                        interval_seconds: Optional[float] = None) -> None:
        """Bound how much a crash can lose: persist to ``path`` after every
        ``every_puts`` new entries and/or (via :meth:`autosave_flush` calls
        from a host's ticker) every ``interval_seconds``.

        Autosaves reuse :meth:`save` - read-merge-write under the advisory
        file lock - so they compose with other processes sharing the
        snapshot.  The disk write happens outside the entry lock and is
        serialized by a dedicated guard; a put() that finds a save already
        in flight simply leaves its pending count for the next trigger.
        Pass ``every_puts=None`` for purely time/flush-driven saves.
        """
        with self._lock:
            self._autosave_path = path
            self._autosave_every = (max(1, int(every_puts))
                                    if every_puts is not None else None)
            self._autosave_interval = (float(interval_seconds)
                                       if interval_seconds is not None
                                       else None)
            self._autosave_pending = 0
            self._autosave_last = time.monotonic()

    def disable_autosave(self) -> None:
        """Stop autosaving (pending entries stay resident; callers wanting
        them persisted should :meth:`autosave_flush` with ``force=True``
        first, as the daemon's shutdown path does)."""
        with self._lock:
            self._autosave_path = None
            self._autosave_pending = 0

    def autosave_flush(self, force: bool = False) -> bool:
        """Persist pending autosave entries if a trigger is due.

        Returns True when a snapshot was written.  With ``force=False`` the
        flush happens only when the put-count or time threshold is met (the
        daemon's background ticker calls this); ``force=True`` flushes any
        pending entries unconditionally (the shutdown path).
        """
        with self._lock:
            path = self._autosave_path
            pending = self._autosave_pending
            if path is None or pending == 0:
                return False
            now = time.monotonic()
            due = (force
                   or (self._autosave_every is not None
                       and pending >= self._autosave_every)
                   or (self._autosave_interval is not None
                       and now - self._autosave_last
                       >= self._autosave_interval))
            if not due:
                return False
            self._autosave_pending = 0
            self._autosave_last = now
        if not self._autosave_guard.acquire(blocking=False):
            # a save is already in flight; hand the count back so the next
            # trigger retries (the entries themselves are still resident)
            with self._lock:
                self._autosave_pending += pending
            return False
        try:
            saved = self.save(path)
        finally:
            self._autosave_guard.release()
        if saved:
            with self._lock:
                self.autosaves += 1
        return saved

    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    # -- cross-run persistence ----------------------------------------------
    @staticmethod
    def _encode_key(key: tuple) -> Optional[list]:
        """Snapshot row for one in-memory key, or None if not serializable
        (custom keys injected by tests keep working, they just don't
        persist)."""
        if len(key) != 3:
            return None
        digest1, digest2, scoring = key
        if not (isinstance(digest1, bytes) and isinstance(digest2, bytes)
                and isinstance(scoring, tuple) and len(scoring) == 3
                and all(isinstance(part, int) for part in scoring)):
            return None
        return [digest1.hex(), digest2.hex(), list(scoring)]

    @staticmethod
    def _decode_key(row) -> tuple:
        """Inverse of :meth:`_encode_key`; raises ValueError on bad rows."""
        digest1, digest2, scoring = row
        if not (isinstance(digest1, str) and isinstance(digest2, str)
                and isinstance(scoring, list) and len(scoring) == 3
                and all(isinstance(part, int) and not isinstance(part, bool)
                        for part in scoring)):
            raise ValueError("malformed snapshot key")
        return (bytes.fromhex(digest1), bytes.fromhex(digest2),
                tuple(scoring))

    def save(self, path: str) -> bool:
        """Merge this cache's serializable entries into a snapshot file.

        Entries already on disk that this cache no longer holds (typically
        because the LRU evicted them under capacity pressure) are kept, so
        a snapshot shared across the modules of a suite *accumulates*
        alignments instead of shrinking to whatever the last run's LRU
        happened to retain; an unreadable or corrupt existing file is
        simply replaced.  Entries whose last-referenced generation is more
        than ``max_generations`` loads old are aged out (see the module
        docstring).  The read-merge-write cycle runs under an advisory
        file lock, so concurrent writers sharing one snapshot merge instead
        of overwriting each other; the snapshot is format-tagged, versioned
        and checksummed, and the write itself still goes through a
        temporary file and an atomic rename so readers (locked or not)
        never observe a torn file.  Failures (unwritable path, full disk)
        warn and return False instead of raising - persistence is an
        optimization, never a correctness requirement.
        """
        with _snapshot_lock(path):
            return self._save_locked(path)

    def _save_locked(self, path: str) -> bool:
        try:
            on_disk_generation, on_disk = self._parse_snapshot(path)
        except (_SnapshotError, OSError, ValueError):
            on_disk_generation, on_disk = 0, []  # being overwritten anyway
        merged: "OrderedDict[tuple, Tuple[str, int, int]]" = OrderedDict(
            (key, (ops, score, gen)) for key, ops, score, gen in on_disk)
        with self._lock:
            # a writer that never load()ed this snapshot (its own clock is
            # 0) must not rewind the shared generation counter - that would
            # stretch every entry's aging horizon by a full clock restart
            generation = max(self._generation, on_disk_generation)
            for key, (ops, score) in self._data.items():
                if self._encode_key(key) is not None:
                    previous = merged.pop(key, None)
                    local_gen = self._gens.get(key, self._generation)
                    # entries referenced on this run's (possibly rewound)
                    # local clock are *current* on the shared clock too
                    gen = (generation if local_gen >= self._generation
                           else local_gen)
                    if previous is not None:
                        gen = max(gen, previous[2])
                    merged[key] = (ops, score, gen)  # this run's entries newest
        if self.max_generations is not None:
            horizon = generation - self.max_generations
            merged = OrderedDict(
                (key, value) for key, value in merged.items()
                if value[2] >= horizon)
        # v3 layout: rows index into a table of distinct packed op strings,
        # so clone families (many pairs, one alignment shape) store each
        # shape exactly once
        ops_table: List[str] = []
        ops_index: Dict[str, int] = {}
        entries = []
        for key, (ops, score, gen) in merged.items():
            packed = pack_ops(ops)
            index = ops_index.get(packed)
            if index is None:
                index = len(ops_table)
                ops_index[packed] = index
                ops_table.append(packed)
            entries.append(self._encode_key(key) + [index, score, gen])
        snapshot = {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "generation": generation,
            "ops": ops_table,
            "entries": entries,
            "checksum": _entries_checksum([ops_table, entries]),
        }
        data = json.dumps(snapshot, separators=(",", ":"))
        tmp_path = f"{path}.tmp.{os.getpid()}"
        if fault_triggered("cache.snapshot_torn_write"):
            # simulate a crash mid-write: half the payload lands in the temp
            # file, the atomic rename never happens.  The previous snapshot
            # at ``path`` must survive untouched (what the torn-write test
            # asserts), and the stray temp file must be harmless litter.
            try:
                with open(tmp_path, "w") as handle:
                    handle.write(data[:len(data) // 2])
            except OSError:
                pass
            self.degradations.append(degradation_event(
                "cache", "persistent", "unsaved",
                "cache.snapshot_torn_write"))
            return False
        try:
            if fault_triggered("cache.snapshot_io"):
                raise OSError("injected fault at 'cache.snapshot_io'")
            with open(tmp_path, "w") as handle:
                handle.write(data)
                # flush + fsync before the rename: on a crash right after
                # os.replace the new file's *contents* must already be
                # durable, otherwise some filesystems can persist the rename
                # but not the data, leaving a truncated "committed" snapshot
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
        except OSError as error:
            warnings.warn(f"could not save alignment-cache snapshot to "
                          f"{path!r}: {error}", RuntimeWarning, stacklevel=2)
            self.degradations.append(degradation_event(
                "cache", "persistent", "unsaved", str(error)))
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            return False
        return True

    def _parse_snapshot(self, path: str) -> Tuple[int, List[tuple]]:
        """Parse a snapshot file into its generation counter plus
        ``(key, ops, score, generation)`` tuples.

        Raises FileNotFoundError for a missing file, OSError/ValueError for
        an unreadable one and :class:`_SnapshotError` (whose message names
        the reason) for a file that parses but cannot be trusted.
        """
        with open(path, "r") as handle:
            snapshot = json.load(handle)
        if not isinstance(snapshot, dict) \
                or snapshot.get("format") != SNAPSHOT_FORMAT:
            raise _SnapshotError("not an alignment-cache snapshot")
        version = snapshot.get("version")
        if version not in READABLE_VERSIONS:
            raise _SnapshotError(
                f"format version {version!r} does not match "
                f"{SNAPSHOT_VERSION} (stale file?)")
        entries = snapshot.get("entries")
        if not isinstance(entries, list):
            raise _SnapshotError("malformed entry table")
        ops_table: Optional[list] = None
        if version >= 3:
            ops_table = snapshot.get("ops")
            if not (isinstance(ops_table, list)
                    and all(isinstance(item, str) for item in ops_table)):
                raise _SnapshotError("malformed ops table")
            checksummed = [ops_table, entries]
        else:
            checksummed = entries
        if snapshot.get("checksum") != _entries_checksum(checksummed):
            raise _SnapshotError(
                "checksum mismatch (truncated or corrupted file)")
        generation = snapshot.get("generation", 0)
        if not (isinstance(generation, int)
                and not isinstance(generation, bool) and generation >= 0):
            raise _SnapshotError("malformed generation counter")
        decoded = []
        try:
            for row in entries:
                key = self._decode_key(row[:3])
                if version >= 3:
                    index, score = row[3], row[4]
                    if not (isinstance(index, int)
                            and not isinstance(index, bool)
                            and 0 <= index < len(ops_table)):
                        raise ValueError("ops-table index out of range")
                    ops = unpack_ops(ops_table[index])
                else:
                    ops, score = row[3], row[4]
                gen = row[5] if version >= 2 else 0
                if not (isinstance(ops, str) and set(ops) <= {"m", "l", "r"}
                        and isinstance(score, int)
                        and not isinstance(score, bool)
                        and isinstance(gen, int)
                        and not isinstance(gen, bool)):
                    raise ValueError("malformed snapshot entry")
                decoded.append((key, ops, score, gen))
        except (ValueError, IndexError, TypeError) as error:
            raise _SnapshotError(f"malformed entry ({error})") from error
        return generation, decoded

    def load(self, path: str) -> int:
        """Warm-start the cache from a snapshot written by :meth:`save`.

        Returns the number of entries loaded.  Bumps the cache's generation
        to one past the snapshot's (every load is one generation of the
        compaction clock).  Reading happens under a shared advisory lock so
        a concurrent writer's read-merge-write cannot interleave.  Every
        failure mode - missing file, unreadable file, malformed JSON, wrong
        format tag, version mismatch, checksum mismatch, malformed entries
        - degrades to a cold cache with a warning (except a simply-missing
        file, which is the normal first run of a fresh cache path and stays
        silent).
        """
        if not os.path.exists(path):
            # the normal first run of a fresh cache path: stay silent and,
            # as importantly, do not litter a ``.lock`` sidecar next to a
            # snapshot nobody ever wrote (read-only callers included)
            return 0
        try:
            if fault_triggered("cache.snapshot_io"):
                raise OSError("injected fault at 'cache.snapshot_io'")
            with _snapshot_lock(path, shared=True):
                generation, decoded = self._parse_snapshot(path)
        except FileNotFoundError:
            return 0
        except _SnapshotError as error:
            warnings.warn(f"ignoring alignment-cache snapshot {path!r}: "
                          f"{error}", RuntimeWarning, stacklevel=2)
            self.degradations.append(degradation_event(
                "cache", "warm", "cold", str(error)))
            return 0
        except (OSError, ValueError) as error:
            warnings.warn(f"ignoring unreadable alignment-cache snapshot "
                          f"{path!r}: {error}", RuntimeWarning, stacklevel=2)
            self.degradations.append(degradation_event(
                "cache", "warm", "cold", str(error)))
            return 0

        with self._lock:
            self._generation = generation + 1
            # newest-first so the LRU keeps the most recently stored entries
            # when the snapshot exceeds the capacity
            for key, ops, score, gen in decoded[-self.capacity:]:
                self._put_locked(key, ops, score)
                self._gens[key] = gen  # referenced when *hit*, not on load
                self._persisted.add(key)
        return min(len(decoded), self.capacity)
