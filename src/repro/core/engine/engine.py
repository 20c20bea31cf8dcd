"""The staged merge engine (the driver behind ``FunctionMergingPass``).

:class:`MergeEngine` runs the paper's exploration framework (Figure 7) as an
explicit pipeline of strategy stages::

    fingerprint -> candidate search -> linearize -> align
                -> codegen -> profitability -> commit

Each stage is a small object (see :mod:`repro.core.engine.stages`) with its
own statistics.  Candidate search runs on the inverted-index searcher (exact
top-``t``, no O(N²) scan), alignment on the integer-key kernels (per-cell int
compares instead of the structural equivalence predicate), commits maintain
the call graph incrementally and merged functions are fingerprinted from
their alignment columns instead of by rescanning.  The paper's plain loop -
linear ranking, predicate alignment, a call-graph rebuild and a fingerprint
rescan per commit - lives on as
:class:`~repro.core.reference.ReferenceMergingPass`, the oracle the engine is
tested against and the driver the paper-figure harness times.

Since the plan/commit refactor the driver itself is split in two: every
stage before commit is *read-only* and runs inside
:meth:`MergeEngine.plan_entry`, which evaluates one worklist entry into an
immutable :class:`~repro.core.engine.plan.MergePlan`; only
:meth:`MergeEngine.commit_plan` mutates the module (incrementally - no full
call-graph rebuilds).  The :class:`~repro.core.engine.scheduler.MergeScheduler`
batches entries, plans them through a pluggable executor (``jobs=`` selects
the process offload) and commits serially with conflict detection.  Merge
*decisions* are identical to the reference pass in every configuration -
kernel, job count, batch size - only the time spent reaching them changes.
"""

from __future__ import annotations

import os
import weakref
from collections import deque
from typing import Callable, Dict, List, Optional, Union

from ...analysis.sanitizer import Sanitizer
from ...ir.callgraph import CallGraph
from ...resilience import (FaultPlan, ResilienceError, RetryPolicy,
                           install_fault_plan, maybe_install_env_plan)
from ...ir.function import Function
from ...ir.module import Module
from ...targets.cost_model import TargetCostModel
from ...targets.x86_64 import X86_64
from ..codegen import CodegenError, MergeOptions
from ..fingerprint import Fingerprint
from .align_cache import ALIGN_CACHE_ENV, AlignmentCache
from .base import Stage
from .offload import AlignmentTask
from .plan import CommitEvents, MergePlan, PendingAlignment, PlanDecision
from .prune import ProfitBoundIndex
from .report import STAGES, MergeRecord, MergeReport
from .scheduler import (ENGINE_EXECUTOR_ENV, MergeScheduler, PlanExecutor,
                        PlanningError, make_executor)
from .search import IndexedCandidateSearcher
from .stages import (AlignmentStage, CandidateSearchStage, CodegenStage,
                     CommitStage, FingerprintStage, LinearizeStage,
                     PreprocessStage, ProfitabilityStage)


def _default_jobs() -> int:
    """Default job count, overridable via ``REPRO_ENGINE_JOBS`` (used by the
    CI matrix legs that run the whole suite through the process offload)."""
    try:
        return max(1, int(os.environ.get("REPRO_ENGINE_JOBS", "1")))
    except ValueError:
        return 1


def _env_flag(name: str) -> bool:
    value = os.environ.get(name, "")
    return value.strip().lower() not in ("", "0", "false", "no", "off")


class MergeEngine:
    """Function Merging by Sequence Alignment as a staged pipeline."""

    def __init__(self, target: Optional[TargetCostModel] = None,
                 exploration_threshold: int = 1,
                 oracle: bool = False,
                 options: Optional[MergeOptions] = None,
                 allow_deletion: bool = True,
                 hot_function_filter: Optional[Callable[[Function], bool]] = None,
                 minimum_function_size: int = 1,
                 alignment_kernel: Optional[str] = None,
                 alignment_cache: Union[bool, int, AlignmentCache] = True,
                 alignment_cache_path: Optional[str] = None,
                 alignment_cache_max_generations: Optional[int] = None,
                 alignment_cache_resident: bool = False,
                 jobs: Optional[int] = None,
                 executor: Union[str, PlanExecutor] = "auto",
                 batch_size: Optional[int] = None,
                 adaptive_batch: bool = False,
                 verify_fingerprints: Optional[bool] = None,
                 sanitize: Optional[bool] = None,
                 sanitizer: Optional["Sanitizer"] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 retry_policy: Optional[RetryPolicy] = None):
        """Create the engine.

        Args:
            target: code-size cost model (defaults to x86-64).
            exploration_threshold: how many ranked candidates to evaluate per
                function before giving up (the paper's ``t``).
            oracle: evaluate *all* candidates and commit the best profitable
                one - the exhaustive strategy the paper uses as an upper
                bound.  Candidates whose profit upper bound (see
                :class:`ProfitBoundIndex`) provably cannot beat the best
                profitable merge found so far are skipped, not evaluated;
                decisions are those of the unpruned search.
            options: code-generation options (also selects the alignment
                algorithm and scoring scheme).
            allow_deletion: permit deleting originals whose call sites can
                all be redirected.
            hot_function_filter: optional predicate; functions for which it
                returns True are excluded from merging (profile-guided mode
                used in Section V-D to protect hot code).
            minimum_function_size: functions with fewer instructions are not
                considered (they cannot possibly yield a profit).
            alignment_kernel: alignment algorithm override - any
                ``ALGORITHMS`` name (``"nw-numpy"`` selects the vectorized
                NumPy backend, ``"nw-native"`` the C extension) or
                ``"auto"``.  When
                None, the ``REPRO_ALIGN_KERNEL`` environment variable is
                consulted, then ``options.alignment_algorithm``.  Every
                kernel produces bit-identical alignments and therefore
                bit-identical merge decisions.
            alignment_cache: memoise keyed alignments by linearization
                content (default).  Pass an int to bound the LRU at that
                many entries, ``False`` to disable, or a pre-built
                :class:`AlignmentCache` instance to share one cache across
                engines (the merge daemon's resident cache).  Hit/miss/bytes
                counters land in ``MergeReport.scheduler_stats``.
            alignment_cache_path: snapshot file for cross-run cache
                persistence.  When set (or via the ``REPRO_ALIGN_CACHE``
                environment variable), every :meth:`run` warm-starts the
                alignment cache from the snapshot and saves the union back
                afterwards, so repeated runs - and every module of an
                evaluation suite sharing one path - skip alignments any
                earlier run already computed.  Keys are canonical
                (interner-independent) content digests, so warm entries are
                bit-identical to recomputation; a corrupt or
                version-mismatched snapshot degrades to a cold cache with a
                warning.  Cross-run hits are surfaced as
                ``align_cache_cross_run_hits`` in
                ``MergeReport.scheduler_stats``.
            alignment_cache_max_generations: age out persisted snapshot
                entries not referenced for this many consecutive
                load/save generations (default: the
                ``REPRO_ALIGN_CACHE_MAX_GEN`` environment variable, then
                32); ``0`` or a negative value disables aging.  Only
                affects what a long-lived shared snapshot retains, never
                what a run computes.
            alignment_cache_resident: the cache belongs to a long-lived
                owner (the merge daemon): :meth:`run` neither clears it nor
                does the per-run snapshot load/save round-trip - the owner
                loads once at boot and saves on its own schedule (debounced
                autosave + final save at shutdown).  Content addressing
                keeps warm entries bit-identical to recomputation, so
                decisions are unchanged; only the cold-start work
                disappears.  Stats counters accumulate across runs.
            jobs: worker processes of the alignment offload (default:
                ``REPRO_ENGINE_JOBS`` or 1).  Merge decisions are identical
                for every value.
            executor: plan executor kind - ``"auto"`` (the
                ``REPRO_ENGINE_EXECUTOR`` environment variable if set, else
                serial for jobs<=1 and the process offload otherwise),
                ``"serial"``, ``"process"``, or a pre-built
                :class:`PlanExecutor` instance (build it with
                ``keep_alive=True`` and back-to-back runs reuse the same
                live worker pool; the caller then owns the explicit
                ``close()``).  The process
                executor keeps planning in this process but offloads the
                alignment DPs to a worker pool as pure data (canonical key
                bytes).  Merge decisions are identical for every executor.
            batch_size: worklist entries planned per batch (default: 1 for
                the serial executor, ``jobs * 4`` otherwise, at least 4
                when alignment is offloaded).
            adaptive_batch: retune the batch size between rounds from the
                observed conflict/replan rate (multiplicative
                increase/decrease, bounded, deterministic in the stats
                stream; the trace lands in
                ``scheduler_stats["batch_size_trace"]``).  Decisions are
                identical either way - adaptivity only
                changes how much planning work conflicts throw away.
            verify_fingerprints: each merged function's fingerprint is
                computed from the alignment columns plus the codegen delta
                (:meth:`Fingerprint.of_merged`) instead of rescanning the new
                body; with this flag every such fingerprint is cross-checked
                against a from-scratch ``Fingerprint.of`` after each commit
                (defaults to the ``REPRO_VERIFY_FINGERPRINTS`` environment
                variable; the test suite turns it on).
            sanitize: run the static-analysis sanitizer (verifier v2 + the
                merge-correctness linter, :mod:`repro.analysis`) at stage
                boundaries: after every committed merge and at the end of
                each run.  A violation raises
                :class:`~repro.analysis.AnalysisError` - a sanitizer
                finding is always an engine bug, never a property of the
                input.  Defaults to the ``REPRO_SANITIZE`` environment
                variable.  Decisions are bit-identical with the sanitizer
                on or off; the counters land in
                ``MergeReport.scheduler_stats`` (``sanitize_runs``,
                ``sanitize_violations``, ``sanitize_wall_seconds``).
            sanitizer: inject a pre-built
                :class:`~repro.analysis.Sanitizer` (the daemon shares one
                across warm passes so its ``stats`` response can aggregate
                the counters); implies ``sanitize=True``.
            fault_plan: install this :class:`~repro.resilience.FaultPlan`
                process-wide (deterministic fault injection at the named
                sites of :data:`~repro.resilience.FAULT_SITES`).  When
                None, the ``REPRO_FAULTS`` environment variable is
                consulted once per process.  With no plan every fault
                point reduces to a single ``is None`` check.
            retry_policy: how offloaded alignment work is retried, deadlined
                and degraded (see :class:`~repro.resilience.RetryPolicy`).
                Defaults to the ``REPRO_RETRY_*`` / ``REPRO_TASK_DEADLINE``
                environment knobs over the conservative single-attempt
                policy, which preserves the historical failure behaviour
                exactly.  Retries and the in-process fallback are
                bit-identical - alignment tasks are pure data - so the
                policy can never change merge decisions, only whether a
                faulting run completes.
        """
        self.target = target or X86_64
        self.exploration_threshold = max(1, exploration_threshold)
        self.oracle = oracle
        self.options = options or MergeOptions()
        self.allow_deletion = allow_deletion
        self.hot_function_filter = hot_function_filter
        self.minimum_function_size = minimum_function_size
        self.jobs = _default_jobs() if jobs is None else max(1, int(jobs))
        if executor == "auto" and not isinstance(executor, PlanExecutor):
            env_kind = os.environ.get(ENGINE_EXECUTOR_ENV, "").strip()
            if env_kind:
                executor = env_kind
        self.executor_kind = executor
        self.batch_size = batch_size
        self.adaptive_batch = adaptive_batch
        if verify_fingerprints is None:
            verify_fingerprints = _env_flag("REPRO_VERIFY_FINGERPRINTS")
        self.verify_fingerprints = verify_fingerprints
        if sanitizer is not None:
            self.sanitizer: Optional[Sanitizer] = sanitizer
        else:
            if sanitize is None:
                sanitize = _env_flag("REPRO_SANITIZE")
            self.sanitizer = Sanitizer() if sanitize else None
        if fault_plan is not None:
            install_fault_plan(fault_plan)
        else:
            maybe_install_env_plan()
        self.retry_policy = (retry_policy if retry_policy is not None
                             else RetryPolicy.from_env())
        # engine-lifetime record of executor-side degradations (executors
        # are per-run; see collect_degradations)
        self._executor_degradations: List[dict] = []
        self._executor_degradation_marks: \
            "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

        self.searcher = IndexedCandidateSearcher(self.exploration_threshold)
        self.profit_bounds = ProfitBoundIndex(self.target) if oracle else None

        if isinstance(alignment_cache, AlignmentCache):
            self.align_cache: Optional[AlignmentCache] = alignment_cache
        elif alignment_cache is True:
            self.align_cache = AlignmentCache(
                max_generations=alignment_cache_max_generations)
        elif alignment_cache:
            self.align_cache = AlignmentCache(
                int(alignment_cache),
                max_generations=alignment_cache_max_generations)
        else:
            self.align_cache = None
        self.alignment_cache_resident = bool(alignment_cache_resident)
        if alignment_cache_path is None:
            alignment_cache_path = os.environ.get(
                ALIGN_CACHE_ENV, "").strip() or None
        self.alignment_cache_path = alignment_cache_path

        self.preprocess = PreprocessStage()
        self.fingerprint = FingerprintStage(self.searcher, self.profit_bounds)
        self.candidate_search = CandidateSearchStage(self.searcher)
        self.linearize = LinearizeStage(self.options.traversal)
        self.alignment = AlignmentStage(self.options.scoring,
                                        self.options.alignment_algorithm,
                                        kernel=alignment_kernel,
                                        cache=self.align_cache)
        self.codegen = CodegenStage(self.options)
        self.profitability = ProfitabilityStage(self.target, allow_deletion)
        self.commit = CommitStage(allow_deletion)

        #: The pipeline, in execution order.
        self.stages: List[Stage] = [
            self.preprocess, self.fingerprint, self.candidate_search,
            self.linearize, self.alignment, self.codegen, self.profitability,
            self.commit,
        ]

        # per-run state (set up by run(), consumed by plan/commit callbacks)
        self._module: Optional[Module] = None
        self._call_graph: Optional[CallGraph] = None
        self._available: set = set()
        self._worklist: deque = deque()
        self._report: Optional[MergeReport] = None
        # candidate rankings computed by the hydrate step, handed to the
        # finish-plan step of the same batch: name -> (fingerprint index
        # generation, limit, ranked candidates).  Entries are only reused
        # while the generation matches, so a reused ranking is bit-identical
        # to the re-query it replaces.
        self._rank_cache: Dict[str, tuple] = {}

    # -- helpers ---------------------------------------------------------------
    def _eligible(self, function: Function) -> bool:
        if function.is_declaration:
            return False
        if function.instruction_count() < self.minimum_function_size:
            return False
        return True

    def stage_stats(self) -> Dict[str, Dict[str, float]]:
        """Fine-grained statistics of every pipeline stage (last run)."""
        return {stage.name: stage.stats.as_dict() for stage in self.stages}

    def _legacy_stage_times(self) -> Dict[str, float]:
        """Aggregate stage seconds into the paper's Figure-13 buckets."""
        times = {stage: 0.0 for stage in STAGES}
        for stage in self.stages:
            if stage.legacy_stage is not None:
                times[stage.legacy_stage] += stage.stats.seconds
        return times

    # -- planning (read-only pipeline prefix) -----------------------------------
    def plan_entry(self, name: str) -> Optional[MergePlan]:
        """Evaluate one worklist entry without mutating the module.

        Runs candidate search, linearization, alignment, code generation and
        profitability for the entry's ranked candidates - stopping at the
        first profitable one (or, under oracle, keeping the best of all) -
        and packages the outcome as an immutable plan.  Returns ``None``
        when the entry is stale (consumed or removed since it was enqueued).
        Read-only, so a batch of entries can be planned before any of
        them commits.
        """
        if name not in self._available:
            return None
        module = self._module
        function1 = module.get_function(name)
        if function1 is None:
            return None

        limit = 0 if self.oracle else self.exploration_threshold
        cached = self._rank_cache.pop(name, None)
        if (cached is not None and cached[0] == self.fingerprint.generation
                and cached[1] == limit):
            # the hydrate step already ranked this entry against the same
            # index generation: reuse its candidates instead of re-querying
            candidates = cached[2]
            self.candidate_search.stats.bump("candidates", len(candidates))
            self.candidate_search.stats.bump("rank_reuse_hits")
        else:
            candidates = self.candidate_search.query(name, limit)
        plan = MergePlan(name=name, limit=limit, candidates=candidates)

        best: Optional[PlanDecision] = None
        for candidate in candidates:
            if candidate.function_name not in self._available:
                continue
            function2 = module.get_function(candidate.function_name)
            if function2 is None:
                continue
            if self.profit_bounds is not None:
                floor = best.evaluation.delta if best is not None else 0
                bound = self.profit_bounds.delta_bound(
                    name, candidate.function_name, floor)
                if bound is not None and bound <= floor:
                    plan.candidates_pruned += 1
                    continue
            plan.candidates_evaluated += 1
            plan.evaluated.append((name, candidate.function_name))

            lin1 = self.linearize.get(function1)
            lin2 = self.linearize.get(function2)
            alignment = self.alignment.align_pair(lin1, lin2)
            try:
                result = self.codegen.generate(function1, function2, alignment)
                evaluation = self.profitability.evaluate(result, self._call_graph)
            except CodegenError:
                plan.codegen_failures += 1
                continue

            if evaluation.profitable:
                if self.oracle:
                    if best is None or evaluation.delta > best.evaluation.delta:
                        if best is not None:
                            best.result.merged.drop_body()
                        best = PlanDecision(candidate, result, evaluation)
                    else:
                        result.merged.drop_body()
                    continue
                best = PlanDecision(candidate, result, evaluation)
                break
            result.merged.drop_body()

        plan.decision = best
        return plan

    def _merged_fingerprint(self, result, applied, fp_merged) -> Fingerprint:
        """Fingerprint for the just-committed merged function.

        Incremental (the pre-commit :meth:`Fingerprint.of_merged` result),
        falling back to a body rescan when the commit rewrote the merged
        body itself (it called one of its own originals, so ``apply_merge``
        widened call sites inside it and the alignment no longer describes
        the body).
        """
        merged = result.merged
        if merged.name in applied.rewritten_callers:
            self.fingerprint.stats.bump("rescans")
            return Fingerprint.of(merged)
        fp = fp_merged
        fp.function_name = merged.name  # apply_merge made the name unique
        self.fingerprint.stats.bump("incremental")
        if self.verify_fingerprints:
            fresh = Fingerprint.of(merged)
            if (fp.opcode_freq != fresh.opcode_freq
                    or fp.type_freq != fresh.type_freq
                    or fp.size != fresh.size):
                raise AssertionError(
                    f"incremental fingerprint of {merged.name} diverged from "
                    f"rescan: opcodes {fp.opcode_freq - fresh.opcode_freq} / "
                    f"{fresh.opcode_freq - fp.opcode_freq}, types "
                    f"{fp.type_freq - fresh.type_freq} / "
                    f"{fresh.type_freq - fp.type_freq}, size "
                    f"{fp.size} != {fresh.size}")
        return fp

    def _query_key(self, name: str, limit: int) -> tuple:
        """The current candidate ranking of ``name`` in comparable form
        (the committer's fingerprint-change conflict check)."""
        return tuple((c.function_name, c.score, c.position)
                     for c in self.candidate_search.query(name, limit))

    def _plan_content_key(self, name: str) -> Optional[bytes]:
        """Canonical content digest of an entry's body - the scheduler's
        cache-aware grouping key.  Uses (and warms) the linearize stage's
        per-function cache, so this never duplicates planner work; returns
        None for stale entries, which the scheduler treats as unique."""
        if name not in self._available:
            return None
        function = self._module.get_function(name)
        if function is None:
            return None
        return self.linearize.get(function).canonical_digest()

    # -- alignment offload (hydrate + result absorption) -------------------------
    def prefetch_alignment_tasks(self, names: List[str]
                                 ) -> List[PendingAlignment]:
        """Hydrate one batch: the alignment shapes its plans will ask for
        that the cache does not already hold, as pure-data tasks.

        Read-only, like planning itself: candidate rankings come from the
        (idempotent) searcher, linearizations from the linearize stage's
        cache (warming it for the finish-plan step).  Each entry's ranking
        is stashed - keyed by the fingerprint index generation - and handed
        to the finish-plan step, which reuses it instead of re-querying as
        long as no commit has moved the generation on (surfaced as
        ``rank_reuse_hits``; the committer's conflict check still re-queries
        through :meth:`_query_key`).  Pairs are deduplicated
        by cache key across the batch - clone families request each distinct
        DP once - and pairs already cached are skipped entirely, so warm
        runs dispatch nothing.  In oracle mode, pairs the profit-bound index
        can already reject against a zero floor are skipped too (the floor
        only rises while planning, so such pairs are never aligned serially
        either).
        """
        if not self.alignment.uses_cache:
            return []
        cache = self.align_cache
        scoring_key = self.alignment.scoring_key
        module = self._module
        limit = 0 if self.oracle else self.exploration_threshold
        pending: List[PendingAlignment] = []
        seen: set = set()
        for name in names:
            try:
                self._hydrate_entry(name, limit, scoring_key, module, cache,
                                    seen, pending)
            except (PlanningError, ResilienceError):
                raise
            except Exception as error:
                # hydration runs the same search/linearize machinery as
                # planning; failures must name their entry just the same
                raise PlanningError(name, error) from error
        return pending

    def _hydrate_entry(self, name: str, limit: int, scoring_key: tuple,
                       module: Module, cache: AlignmentCache,
                       seen: set, pending: List[PendingAlignment]) -> None:
        if name not in self._available:
            return
        function1 = module.get_function(name)
        if function1 is None:
            return
        lin1 = None
        candidates = self.searcher.rank_candidates(name, limit)
        self._rank_cache[name] = (self.fingerprint.generation, limit,
                                  candidates)
        for candidate in candidates:
            partner = candidate.function_name
            if partner not in self._available:
                continue
            function2 = module.get_function(partner)
            if function2 is None:
                continue
            if self.profit_bounds is not None:
                bound = self.profit_bounds.delta_bound(name, partner, 0)
                if bound is not None and bound <= 0:
                    continue
            if lin1 is None:
                lin1 = self.linearize.get(function1)
            lin2 = self.linearize.get(function2)
            key = (lin1.canonical_digest(), lin2.canonical_digest(),
                   scoring_key)
            if key in seen or cache.contains(key):
                continue
            seen.add(key)
            pending.append(PendingAlignment(
                entry=name, key=key,
                task=AlignmentTask(
                    keys1=tuple(lin1.canonical_key_bytes()),
                    keys2=tuple(lin2.canonical_key_bytes()),
                    scoring=scoring_key)))

    def _store_offloaded(self, key: tuple, ops: str, score: int) -> None:
        """Land one worker-computed alignment shape in the cache (the
        finish-plan step's lookups then rehydrate it bit-identically)."""
        self.align_cache.put(key, ops, score)
        self.alignment.stats.bump("offloaded")

    def _account_offload(self, seconds: float) -> None:
        """Offload rounds are alignment time: account their wall clock to
        the alignment stage so the Figure-13 buckets stay truthful."""
        self.alignment.stats.account(seconds)

    def _absorb_plan(self, plan: MergePlan) -> None:
        report = self._report
        report.candidates_evaluated += plan.candidates_evaluated
        report.codegen_failures += plan.codegen_failures
        report.candidates_pruned += plan.candidates_pruned

    def collect_degradations(self, scheduler: Optional[MergeScheduler] = None
                             ) -> List[dict]:
        """Every graceful-degradation transition the resilience layer has
        recorded, across the layers this engine owns: the scheduler's
        executor (offload pool -> in-process), the alignment stage's kernel
        ladder, and the cache's warm -> cold / persistent -> unsaved events.
        Cumulative for the lifetime of the (possibly reused) engine, like
        the resident cache's counters; lands in
        ``scheduler_stats["degradations"]`` of every report."""
        if scheduler is not None:
            # executors are (usually) per-run: absorb their events into the
            # engine-lifetime list.  The watermark keyed by the executor
            # object keeps a keep-alive pool reused across runs from being
            # double-counted.
            executor = scheduler.executor
            current = list(getattr(executor, "degradations", None) or [])
            seen = self._executor_degradation_marks.get(executor, 0)
            if len(current) > seen:
                self._executor_degradations.extend(current[seen:])
                self._executor_degradation_marks[executor] = len(current)
        events: List[dict] = list(self._executor_degradations)
        events.extend(self.alignment.degradations)
        if self.align_cache is not None:
            events.extend(self.align_cache.degradations)
        return events

    # -- commit (the only mutating step) ----------------------------------------
    def commit_plan(self, plan: MergePlan) -> CommitEvents:
        """Apply a plan's profitable merge and update all bookkeeping."""
        decision = plan.decision
        result, evaluation = decision.result, decision.evaluation
        module, call_graph = self._module, self._call_graph
        name1, name2 = result.function1.name, result.function2.name
        size_before = evaluation.size_function1 + evaluation.size_function2
        original_instruction_counts = (result.function1.instruction_count(),
                                       result.function2.instruction_count())

        # apply_merge rewrites the originals' call sites *inside their
        # callers*, so those callers' cached linearizations - and the
        # equivalence keys frozen into them - go stale too
        for original in (result.function1, result.function2):
            for caller in call_graph.callers_of(original):
                self.linearize.invalidate(caller.name)
                if self.sanitizer is not None:
                    self.sanitizer.invalidate(caller.name)

        # compute the merged fingerprint *before* the commit: applying the
        # merge thunks/rewrites the originals' bodies (a deleted original
        # even drops its operands), while of_merged composes the originals'
        # live fingerprints with the alignment - both describing exactly
        # the bodies the plan was computed against
        fp1 = self.fingerprint.live_fingerprint(result.function1)
        fp2 = self.fingerprint.live_fingerprint(result.function2)
        fp_merged = Fingerprint.of_merged(result.alignment, fp1, fp2,
                                          result.fingerprint_delta)

        applied = self.commit.apply(module, result, call_graph)

        for name in (name1, name2):
            self._available.discard(name)
            self.fingerprint.remove_function(name)
            self.linearize.invalidate(name)
            if self.sanitizer is not None:
                self.sanitizer.invalidate(name)
        for name in applied.rewritten_callers:
            self.fingerprint.invalidate_live(name)

        merged = result.merged
        if self._eligible(merged):
            self.fingerprint.add_merged(merged, self._merged_fingerprint(
                result, applied, fp_merged))
            self._available.add(merged.name)
            self._worklist.append(merged.name)

        # rewritten callers' bodies grew (wider call sites, converts); their
        # profit bounds must track the live bodies or pruning turns unsound
        self.fingerprint.refresh_profit_bounds(
            [f for f in (module.get_function(n) for n in applied.rewritten_callers
                         if n in self._available) if f is not None])

        func_id = result.func_id
        extra_ops = 0
        if func_id is not None:
            extra_ops = len([user for user in func_id.users
                             if getattr(user, "parent", None) is not None])
        extra_ops += applied.disposition.count("thunk")

        self._report.merges.append(MergeRecord(
            function1=name1, function2=name2, merged_name=applied.merged_name,
            rank_position=decision.candidate.position, delta=evaluation.delta,
            size_before=size_before,
            size_after=evaluation.size_merged + evaluation.epsilon,
            dispositions=list(applied.disposition),
            original_sizes=original_instruction_counts,
            merged_size=merged.instruction_count(),
            extra_dynamic_ops=extra_ops))

        if self.sanitizer is not None:
            self.sanitizer.after_commit(module, result, applied, call_graph)

        return CommitEvents(
            consumed=(name1, name2), merged_name=applied.merged_name,
            rewritten_callers=tuple(applied.rewritten_callers),
            touched_callees=tuple(applied.touched_callees))

    # -- main driver --------------------------------------------------------------
    def attach_run_state(self, module: Module, call_graph: CallGraph,
                         available: set, worklist: deque,
                         report: MergeReport) -> None:
        """Install the per-run state the plan/commit callbacks consume.

        ``run()`` composes this with its own cold cache setup; a
        :class:`~repro.core.engine.session.MergeSession` installs
        incrementally-maintained state here and drives the scheduler itself,
        keeping the warm caches ``run()`` would clear.
        """
        self._module = module
        self._call_graph = call_graph
        self._available = available
        self._worklist = worklist
        self._report = report

    def detach_run_state(self) -> None:
        """Drop the per-run state (and the batch-scoped ranking cache)."""
        self._module = None
        self._call_graph = None
        self._report = None
        self._rank_cache.clear()

    def make_scheduler(self, executor: Optional[PlanExecutor] = None,
                       plan: Optional[Callable[[str], Optional[MergePlan]]] = None,
                       absorb: Optional[Callable[[MergePlan], None]] = None
                       ) -> MergeScheduler:
        """Build the plan/commit scheduler for one run (call after run()'s
        state setup; exposed so tests can hook ``on_commit`` or supply a
        pre-built executor).  ``plan`` / ``absorb`` override the engine's
        own callbacks (sessions interpose plan memoization there)."""
        if executor is None:
            executor = make_executor(self.executor_kind, self.jobs,
                                     retry_policy=self.retry_policy)
        uses_cache = self.alignment.uses_cache
        return MergeScheduler(
            plan=plan if plan is not None else self.plan_entry,
            commit=self.commit_plan,
            query_key=self._query_key,
            absorb=absorb if absorb is not None else self._absorb_plan,
            executor=executor,
            batch_size=self.batch_size,
            adaptive=self.adaptive_batch,
            # cache-aware wave planning only pays off when the alignment
            # stage actually consults the cache; on the generic predicate
            # path the grouping would be pure overhead
            content_key=(self._plan_content_key if uses_cache else None),
            # ... and the same condition gates the offload: without the
            # cache there is nowhere for a worker's result to land
            prefetch=(self.prefetch_alignment_tasks if uses_cache else None),
            store=(self._store_offloaded if uses_cache else None),
            on_offload=self._account_offload)

    def run(self, module: Module,
            scheduler: Optional[MergeScheduler] = None) -> MergeReport:
        for stage in self.stages:
            stage.reset()
        self.linearize.clear()
        if self.sanitizer is not None:
            # analyses describe the previous module's bodies; a daemon's
            # shared sanitizer keeps its *counters* across runs, only the
            # per-function dataflow results are dropped
            self.sanitizer.cache.clear()
        if self.align_cache is not None and not self.alignment_cache_resident:
            # canonical content addressing keeps entries *correct* across
            # runs, but per-run stats argue for a reset; cross-run reuse
            # goes through the explicit snapshot path below instead.  A
            # *resident* cache (the daemon's) skips the whole round-trip:
            # entries stay warm in memory and its owner handles persistence.
            self.align_cache.clear()
            if (self.alignment_cache_path is not None
                    and self.alignment.uses_cache):
                self.align_cache.load(self.alignment_cache_path)
        # the original pass built a fresh ranker per run(): a reused engine
        # must not rank against the previous module's fingerprints
        self.fingerprint.clear()
        self._rank_cache.clear()
        report = MergeReport()

        self.preprocess.run(module)
        call_graph = CallGraph(module)

        excluded: set = set()
        if self.hot_function_filter is not None:
            for function in module.defined_functions():
                if self.hot_function_filter(function):
                    excluded.add(function.name)
            report.excluded_hot_functions = len(excluded)

        eligible = [f for f in module.defined_functions()
                    if self._eligible(f) and f.name not in excluded]
        self.fingerprint.add_functions(eligible)

        available = {f.name for f in eligible}
        worklist = deque(sorted(available))
        report.functions_considered = len(available)

        self.attach_run_state(module, call_graph, available, worklist, report)

        owns_scheduler = scheduler is None
        if scheduler is None:
            scheduler = self.make_scheduler()
        try:
            scheduler.run(worklist, available)
        finally:
            if owns_scheduler:
                # release, not close: a keep-alive executor (caller-owned
                # pool or the daemon's leased one) survives for the next
                # run; everything else tears down exactly as before.  The
                # failure path inside scheduler.run still closes for real.
                scheduler.release()
            self.detach_run_state()

        report.stale_entries = scheduler.stats["stale_entries"]
        report.scheduler_stats = dict(scheduler.stats)
        report.scheduler_stats["rank_reuse_hits"] = int(
            self.candidate_search.stats.counters.get("rank_reuse_hits", 0))
        if self.align_cache is not None:
            if (self.alignment_cache_path is not None
                    and self.alignment.uses_cache
                    and not self.alignment_cache_resident):
                # save() merges with the snapshot on disk, so the shared
                # file accumulates alignments across modules of a suite
                # even when this run's LRU evicted some of them.  Resident
                # caches persist on their owner's schedule instead.
                self.align_cache.save(self.alignment_cache_path)
            report.scheduler_stats.update(self.align_cache.stats_dict())
        report.scheduler_stats["degradations"] = self.collect_degradations(
            scheduler)
        if self.sanitizer is not None:
            self.sanitizer.after_run(module, call_graph)
            report.scheduler_stats.update(self.sanitizer.stats())
        report.stage_times = self._legacy_stage_times()
        report.stage_stats = self.stage_stats()
        return report
