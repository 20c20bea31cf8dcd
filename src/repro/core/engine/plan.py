"""Plan objects of the merge engine's worklist loop.

Every stage of the merge pipeline before *commit* is read-only: fingerprint
lookups, candidate search, linearization, alignment, code generation and
profitability analysis inspect the module but never mutate it.  A
:class:`MergePlan` captures the complete outcome of that read-only prefix for
one worklist entry - the candidate list the search returned, the candidate
counters, and the profitable merge (if any) ready to commit.

Each committed merge publishes :class:`CommitEvents`: the set of functions
it consumed, rewrote or re-linked.  An incremental
:class:`~repro.core.engine.session.MergeSession` keeps plans and events
across updates and replays a previous plan only while none of the
functions it rests on is in such a set.
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
    """Outcome of evaluating one worklist entry (read-only stages).

    ``candidate_key`` snapshots the ranked candidate list as comparable
    tuples; a session re-runs the (cheap) candidate query and replays a
    memoized plan only when the ranking is still reproduced.
    """

    name: str
    limit: int
    candidates: List[RankedCandidate] = field(default_factory=list)
    decision: Optional[PlanDecision] = None
    candidates_evaluated: int = 0
    codegen_failures: int = 0
    candidates_pruned: int = 0

    @property
    def candidate_key(self) -> Tuple[Tuple[str, float, int], ...]:
        return tuple((c.function_name, c.score, c.position)
                     for c in self.candidates)


@dataclass(frozen=True)
class CommitEvents:
    """What one committed merge touched - a session's invalidation set.

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
