"""Staged merge engine: the pipeline that is ``FunctionMergingPass``.

Public API:

* :class:`MergeEngine` — the function-merging pass as a staged driver
  (fingerprint → candidate search → linearize → align → codegen →
  profitability → commit), whose
  :meth:`~MergeEngine.drain` is the paper's serial worklist loop;
  :class:`PlanningError` names the worklist entry a plan callback failed on.
* :class:`MergePlan` / :class:`CommitEvents` — the plan objects and the
  commit-side invalidation events a session's plan memo is built from.
* :class:`MergeSession` / :class:`ModuleEdit` / :func:`apply_edit` — the
  incremental session: a long-lived engine over one module that accepts
  edits and replans only the affected slice, bit-identical to a cold rerun
  (:mod:`repro.core.engine.session`).
* :class:`IndexedCandidateSearcher` — exact candidate search over every
  other function (sorted-vector fingerprints + early-exit bounds).
* :class:`ProfitBoundIndex` — sound per-pair profit upper bounds used to
  prune oracle-mode candidate evaluation.
* The stage classes and :class:`StageStats`, for building custom pipelines
  and reading per-stage statistics.
* :class:`MergeReport` / :class:`MergeRecord` / :data:`STAGES` — the report
  types (re-exported by :mod:`repro.core.pass_` for backward compatibility).
"""

from .align_cache import AlignmentCache
from .base import Stage, StageStats
from .engine import MergeEngine, PlanningError
from .plan import CommitEvents, MergePlan, PlanDecision
from .prune import ProfitBoundIndex
from .report import STAGES, MergeRecord, MergeReport, SessionUpdateReport
from .search import IndexedCandidateSearcher
from .session import (DirtySet, MergeSession, ModuleEdit, PlanRecord,
                      apply_edit)
from .stages import (AlignmentStage, CandidateSearchStage, CodegenStage,
                     CommitStage, FingerprintStage, LinearizeStage,
                     PreprocessStage, ProfitabilityStage)

__all__ = [
    "AlignmentCache",
    "MergeEngine", "PlanningError",
    "MergePlan", "PlanDecision", "CommitEvents",
    "ProfitBoundIndex",
    "Stage", "StageStats",
    "STAGES", "MergeRecord", "MergeReport", "SessionUpdateReport",
    "MergeSession", "ModuleEdit", "DirtySet", "PlanRecord", "apply_edit",
    "IndexedCandidateSearcher",
    "AlignmentStage", "CandidateSearchStage", "CodegenStage", "CommitStage",
    "FingerprintStage", "LinearizeStage", "PreprocessStage",
    "ProfitabilityStage",
]
