"""Staged merge engine: pluggable pipeline behind ``FunctionMergingPass``.

Public API:

* :class:`MergeEngine` — the staged driver (fingerprint → candidate search →
  linearize → align → codegen → profitability → commit).
* :class:`MergeScheduler` / :func:`make_executor` — the plan/commit driver:
  batched read-only planning (serial, or the process-offload executor via
  ``jobs=``/``executor=``) plus a conflict-checked serial
  committer; bit-identical to the serial loop.
* :class:`AlignmentTask` / :class:`ProcessExecutor` — the out-of-process
  alignment offload: the DP as picklable pure data behind the executor
  seam (:mod:`repro.core.engine.offload`).
* :class:`MergePlan` / :class:`CommitEvents` — the immutable plan objects and
  the commit-side invalidation events the conflict rules are built from.
* :class:`MergeSession` / :class:`ModuleEdit` / :func:`apply_edit` — the
  incremental session: a long-lived engine over one module that accepts
  edits and replans only the affected slice, bit-identical to a cold rerun
  (:mod:`repro.core.engine.session`).
* :class:`IndexedCandidateSearcher` — exact indexed candidate search
  (inverted feature index + early-exit bounds).
* :class:`ProfitBoundIndex` — sound per-pair profit upper bounds used to
  prune oracle-mode candidate evaluation.
* The stage classes and :class:`StageStats`, for building custom pipelines
  and reading per-stage statistics.
* :class:`MergeReport` / :class:`MergeRecord` / :data:`STAGES` — the report
  types (re-exported by :mod:`repro.core.pass_` for backward compatibility).
"""

from .align_cache import ALIGN_CACHE_ENV, ALIGN_CACHE_MAX_GEN_ENV, AlignmentCache
from .base import Stage, StageStats
from .engine import MergeEngine
from .offload import (AlignmentTask, AlignmentTaskGroup, ProcessExecutor,
                      TaskFailure, TaskResult, solve_alignment_group,
                      solve_alignment_task)
from .plan import CommitEvents, MergePlan, PendingAlignment, PlanDecision
from .prune import ProfitBoundIndex
from .report import STAGES, MergeRecord, MergeReport, SessionUpdateReport
from .scheduler import (ENGINE_EXECUTOR_ENV, EXECUTORS, AdaptiveBatchSizer,
                        MergeScheduler, PlanExecutor, PlanningError,
                        SerialExecutor, make_executor)
from .search import IndexedCandidateSearcher
from .session import (DirtySet, MergeSession, ModuleEdit, PlanRecord,
                      apply_edit)
from .stages import (AlignmentStage, CandidateSearchStage, CodegenStage,
                     CommitStage, FingerprintStage, LinearizeStage,
                     PreprocessStage, ProfitabilityStage)

__all__ = [
    "ALIGN_CACHE_ENV", "ALIGN_CACHE_MAX_GEN_ENV", "AlignmentCache",
    "MergeEngine",
    "MergeScheduler", "PlanExecutor", "PlanningError", "SerialExecutor",
    "ProcessExecutor", "EXECUTORS", "ENGINE_EXECUTOR_ENV",
    "AdaptiveBatchSizer", "make_executor",
    "AlignmentTask", "AlignmentTaskGroup", "TaskResult", "TaskFailure",
    "solve_alignment_task", "solve_alignment_group",
    "MergePlan", "PlanDecision", "CommitEvents", "PendingAlignment",
    "ProfitBoundIndex",
    "Stage", "StageStats",
    "STAGES", "MergeRecord", "MergeReport", "SessionUpdateReport",
    "MergeSession", "ModuleEdit", "DirtySet", "PlanRecord", "apply_edit",
    "IndexedCandidateSearcher",
    "AlignmentStage", "CandidateSearchStage", "CodegenStage", "CommitStage",
    "FingerprintStage", "LinearizeStage", "PreprocessStage",
    "ProfitabilityStage",
]
