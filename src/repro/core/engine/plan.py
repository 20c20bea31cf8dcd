"""Plan objects for the plan/commit merge scheduler.

Every stage of the merge pipeline before *commit* is read-only: fingerprint
lookups, candidate search, linearization, alignment, code generation and
profitability analysis inspect the module but never mutate it.  A
:class:`MergePlan` captures the complete outcome of that read-only prefix for
one worklist entry - the candidate list the search returned, every pair that
was evaluated, and the profitable merge (if any) ready to commit - so entries
can be *planned* in batches and *committed* serially.

A plan is valid only against the module state it was computed from.  The
committer decides validity with :class:`CommitEvents`: each committed merge
publishes the set of functions it consumed, rewrote or re-linked, and a later
plan that touched any of them (or whose candidate ranking the fingerprint
index no longer reproduces) is requeued for replanning.  Plans whose inputs
are untouched commit as-is; the scheduler is therefore bit-identical to the
serial engine regardless of batch size or executor (property-tested).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Tuple

from ..codegen import MergeResult
from ..profitability import MergeEvaluation
from ..ranking import RankedCandidate


@dataclass
class PlanDecision:
    """The profitable merge a plan wants to commit."""

    candidate: RankedCandidate
    result: MergeResult
    evaluation: MergeEvaluation


@dataclass
class MergePlan:
    """Immutable outcome of evaluating one worklist entry (read-only stages).

    ``candidate_key`` snapshots the ranked candidate list as comparable
    tuples; the committer re-runs the (cheap) candidate query at commit time
    and requeues the plan when the ranking is no longer reproduced.
    ``evaluated`` lists every function pair whose linearization / codegen /
    profitability result the decision rests on, in evaluation order.
    """

    name: str
    limit: int
    candidates: List[RankedCandidate] = field(default_factory=list)
    evaluated: List[Tuple[str, str]] = field(default_factory=list)
    decision: Optional[PlanDecision] = None
    candidates_evaluated: int = 0
    codegen_failures: int = 0
    candidates_pruned: int = 0

    @property
    def candidate_key(self) -> Tuple[Tuple[str, float, int], ...]:
        return tuple((c.function_name, c.score, c.position)
                     for c in self.candidates)

    def depends_on(self, dirty: FrozenSet[str]) -> bool:
        """True when any function this plan evaluated was touched since."""
        for name1, name2 in self.evaluated:
            if name1 in dirty or name2 in dirty:
                return True
        return False

    def discard(self) -> None:
        """Drop the planned merged function's body (uses into the module)."""
        if self.decision is not None:
            self.decision.result.merged.drop_body()
            self.decision = None


@dataclass(frozen=True)
class PendingAlignment:
    """One alignment DP the hydrate step wants computed out-of-process.

    Produced by the engine's batch hydration
    (:meth:`~repro.core.engine.engine.MergeEngine.prefetch_alignment_tasks`)
    for every candidate pair of a batch whose shape is not already in the
    alignment cache: ``entry`` is the worklist entry that first requested
    the pair (error attribution), ``key`` the alignment-cache key the
    result lands under, and ``task`` the picklable pure-data
    :class:`~repro.core.engine.offload.AlignmentTask` a worker solves.
    """

    entry: str
    key: tuple
    task: object


@dataclass(frozen=True)
class CommitEvents:
    """What one committed merge touched - the scheduler's conflict set.

    * ``consumed``: the two original functions (no longer available).
    * ``merged_name``: the new function spliced into the module.
    * ``rewritten_callers``: functions whose bodies changed because a direct
      call site of a deleted original was redirected (stale linearizations).
    * ``touched_callees``: functions whose caller sets / direct call sites
      changed (the originals' old bodies dropped their calls, the merged
      function carries the clones) - their profitability inputs moved.
    """

    consumed: Tuple[str, str]
    merged_name: str
    rewritten_callers: Tuple[str, ...] = ()
    touched_callees: Tuple[str, ...] = ()

    @property
    def dirty(self) -> FrozenSet[str]:
        return frozenset(self.consumed) | {self.merged_name} \
            | frozenset(self.rewritten_callers) | frozenset(self.touched_callees)
