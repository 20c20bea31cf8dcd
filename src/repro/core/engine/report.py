"""Merge reports (moved here from ``repro.core.pass_``, which re-exports).

:class:`MergeReport` keeps its original shape - ``stage_times`` holds the six
Figure-13 buckets of the paper - and additionally carries the engine's
fine-grained per-stage statistics in ``stage_stats``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


#: Stage names used in the timing breakdown, matching Figure 13 of the paper.
STAGES = ("fingerprinting", "ranking", "linearization", "alignment",
          "codegen", "updating_calls")


@dataclass
class MergeRecord:
    """One committed merge operation."""

    function1: str
    function2: str
    merged_name: str
    rank_position: int
    delta: int
    size_before: int
    size_after: int
    dispositions: List[str] = field(default_factory=list)
    #: Static instruction counts of the originals and the merged function,
    #: plus the number of extra instructions (selects / func_id branches /
    #: thunk calls) the merge introduces on executed paths.  Used by the
    #: runtime-overhead model (Figure 14).
    original_sizes: tuple = (0, 0)
    merged_size: int = 0
    extra_dynamic_ops: int = 0


@dataclass
class MergeReport:
    """Result of running the merging pass/engine over one module."""

    merges: List[MergeRecord] = field(default_factory=list)
    stage_times: Dict[str, float] = field(default_factory=dict)
    candidates_evaluated: int = 0
    functions_considered: int = 0
    codegen_failures: int = 0
    excluded_hot_functions: int = 0
    #: Candidates skipped by the oracle's profit-bound pruning (their best
    #: case provably could not beat the best profitable merge found so far).
    candidates_pruned: int = 0
    #: Worklist entries whose function was consumed (or removed) between
    #: enqueue and commit, counted so that dropped work stays visible.
    stale_entries: int = 0
    #: Run-level counters: ``stale_entries``, the alignment kernel's
    #: ``degradations``, the sanitizer's ``sanitize_*`` counters when it
    #: runs, plus the content-addressed alignment cache's
    #: ``align_cache_hits`` / ``align_cache_misses`` /
    #: ``align_cache_evictions`` / ``align_cache_entries`` /
    #: ``align_cache_bytes`` when the engine has a (caller-owned) cache.
    scheduler_stats: Dict[str, int] = field(default_factory=dict)
    #: Fine-grained engine statistics, keyed by pipeline-stage name; each
    #: value holds at least ``seconds`` and ``calls`` plus stage-specific
    #: counters (e.g. candidates pruned, alignment-cache hits).
    stage_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def merge_count(self) -> int:
        return len(self.merges)

    @property
    def rank_positions(self) -> List[int]:
        return [m.rank_position for m in self.merges]

    @property
    def total_time(self) -> float:
        return sum(self.stage_times.values())

    def record_key(self, record: MergeRecord) -> tuple:
        """Comparable identity of one committed merge (used by session
        divergence detection and by bit-identity tests)."""
        return (record.function1, record.function2, record.merged_name,
                record.rank_position, record.delta, record.size_before,
                record.size_after, tuple(record.dispositions),
                tuple(record.original_sizes), record.merged_size,
                record.extra_dynamic_ops)

    def decision_keys(self) -> List[tuple]:
        """All committed merges in commit order, in comparable form."""
        return [self.record_key(record) for record in self.merges]

    def summary(self) -> str:
        lines = [f"function-merging report: {self.merge_count} merge(s), "
                 f"{self.candidates_evaluated} candidate(s) evaluated"]
        for merge in self.merges:
            lines.append(f"  {merge.function1} + {merge.function2} -> {merge.merged_name} "
                         f"(rank #{merge.rank_position}, delta {merge.delta})")
        times = ", ".join(f"{stage}: {self.stage_times.get(stage, 0.0) * 1000:.1f}ms"
                          for stage in STAGES)
        lines.append(f"  stage times: {times}")
        lines.append(f"  stale worklist entries: {self.stale_entries}")
        return "\n".join(lines)


@dataclass
class SessionUpdateReport:
    """What one :meth:`MergeSession.update` did, as a *delta* against the
    session's previous state — the metering view a sustained-traffic caller
    wants, instead of a full-module report per edit.

    ``merges_added`` are merges committed this update that the previous
    state did not have; ``merges_retired`` are previous merges (comparable
    :meth:`MergeReport.record_key` form) no longer justified after the
    edits; ``merges_kept`` counts decisions carried over unchanged.  The
    session's full-module :class:`MergeReport` for the *current* state stays
    available as :attr:`MergeSession.report`.
    """

    edits: int = 0
    #: Worklist entries planned fresh this update vs satisfied from the
    #: previous update's memoized plans.
    functions_replanned: int = 0
    plans_reused: int = 0
    merges_added: List[MergeRecord] = field(default_factory=list)
    merges_retired: List[tuple] = field(default_factory=list)
    merges_kept: int = 0
    #: Candidate pairs actually evaluated by fresh planning this update
    #: (memoized plans contribute nothing here).
    candidates_evaluated: int = 0
    #: Linearize-stage cache traffic during this update: hits are functions
    #: whose linearizations survived from previous updates untouched.
    linearize_hits: int = 0
    linearize_misses: int = 0
    #: Names whose fingerprints/plans the edits (and their ripples through
    #: the call graph and previous decisions) invalidated.
    dirty_functions: int = 0
    update_seconds: float = 0.0
    scheduler_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def merges_changed(self) -> int:
        return len(self.merges_added) + len(self.merges_retired)

    @property
    def plan_reuse_rate(self) -> float:
        total = self.functions_replanned + self.plans_reused
        return self.plans_reused / total if total else 0.0

    @property
    def linearize_reuse_rate(self) -> float:
        total = self.linearize_hits + self.linearize_misses
        return self.linearize_hits / total if total else 0.0

    def summary(self) -> str:
        return (f"session update: {self.edits} edit(s), "
                f"{len(self.merges_added)} merge(s) added, "
                f"{len(self.merges_retired)} retired, "
                f"{self.merges_kept} kept; "
                f"{self.functions_replanned} replanned / "
                f"{self.plans_reused} reused "
                f"({self.plan_reuse_rate:.0%} plan reuse, "
                f"{self.linearize_reuse_rate:.0%} linearization reuse) "
                f"in {self.update_seconds * 1000:.1f}ms")
