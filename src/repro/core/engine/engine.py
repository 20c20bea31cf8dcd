"""The staged merge engine (the driver behind ``FunctionMergingPass``).

:class:`MergeEngine` runs the paper's exploration framework (Figure 7) as an
explicit pipeline of strategy stages::

    fingerprint -> candidate search -> linearize -> align
                -> codegen -> profitability -> commit

Each stage is a small object (see :mod:`repro.core.engine.stages`) with its
own statistics.  Candidate search scans every other function with the
sorted-vector searcher (exact top-``t``, early-exit bounds), alignment on
the integer-key kernels (per-cell int compares instead of the structural
equivalence predicate), codegen costs each
candidate by running the code generator's decision walk into its counting
sink - no merged body is built - and only the candidate that will be
committed is materialized as IR, commits maintain the call graph
incrementally and merged functions are fingerprinted from their alignment
columns instead of by rescanning.  The paper's plain loop -
linear ranking, predicate alignment, a call-graph rebuild and a fingerprint
rescan per commit - lives on as
:class:`~repro.core.reference.ReferenceMergingPass`, the oracle the engine is
tested against and the driver the paper-figure harness times.

The driver itself is split in two: every stage before commit is
*read-only* and runs inside :meth:`MergeEngine.plan_entry`, which evaluates
one worklist entry into a :class:`~repro.core.engine.plan.MergePlan`; only
:meth:`MergeEngine.commit_plan` mutates the module (incrementally - no full
call-graph rebuilds).  :meth:`MergeEngine.drain` is the paper's worklist
loop over the two: pop an entry, skip it if it went stale, plan it, commit
its decision.  ``run()`` and the incremental
:class:`~repro.core.engine.session.MergeSession` both drain through it.
Merge *decisions* are identical to the reference pass for every alignment
kernel; only the time spent reaching them changes.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Callable, Dict, List, Optional

from ...analysis.sanitizer import Sanitizer
from ...ir.callgraph import CallGraph
from ...resilience import (FaultPlan, ResilienceError, fault_point,
                           install_fault_plan, maybe_install_env_plan)
from ...ir.function import Function
from ...ir.module import Module
from ...targets.cost_model import TargetCostModel
from ...targets.x86_64 import X86_64
from ..codegen import CodegenError, MergeOptions, merge_functions
from ..fingerprint import Fingerprint
from .align_cache import AlignmentCache
from .base import Stage
from .plan import CommitEvents, MergePlan, PlanDecision
from .prune import ProfitBoundIndex
from .report import STAGES, MergeRecord, MergeReport
from .search import IndexedCandidateSearcher
from .stages import (AlignmentStage, CandidateSearchStage, CodegenStage,
                     CommitStage, FingerprintStage, LinearizeStage,
                     PreprocessStage, ProfitabilityStage)


def check_serial_call_shape(jobs: Optional[int], executor: str) -> None:
    """Validate the ``jobs`` / ``executor`` arguments.

    The engine plans and commits in one serial loop, so the two parameters
    select nothing.  They remain only so that callers which pin the serial
    configuration explicitly (``perfbench`` passes ``jobs=1,
    executor="serial"``) keep working; any other value raises ValueError
    instead of being silently ignored.
    """
    if jobs not in (None, 1):
        raise ValueError(f"jobs={jobs!r}: the merge engine runs serially; "
                         f"only None or 1 is accepted")
    if executor not in ("auto", "serial"):
        raise ValueError(f"executor={executor!r}: the merge engine runs "
                         f"serially; only 'auto' or 'serial' is accepted")


class PlanningError(RuntimeError):
    """A plan callback raised while evaluating one worklist entry.

    Raised in place of the original exception (which stays attached as
    ``__cause__``) so the failure names the worklist entry it belongs to.
    """

    def __init__(self, entry: str, cause: BaseException):
        super().__init__(f"planning worklist entry {entry!r} failed: "
                         f"{type(cause).__name__}: {cause}")
        self.entry = entry


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
                 alignment_cache: Optional[AlignmentCache] = None,
                 jobs: Optional[int] = None,
                 executor: str = "auto",
                 verify_fingerprints: Optional[bool] = None,
                 sanitize: Optional[bool] = None,
                 fault_plan: Optional[FaultPlan] = None):
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
                Needleman-Wunsch kernel produces bit-identical alignments
                and therefore bit-identical merge decisions;
                ``"hirschberg"`` matches their score but breaks ties
                differently, so its decisions differ.
            alignment_cache: a caller-owned :class:`AlignmentCache` to
                memoise keyed alignments in, shared across runs and
                engines.  The engine never clears a cache it was
                handed; its hit/miss/bytes counters
                accumulate and land in ``MergeReport.scheduler_stats``.
                When None (the default) the engine aligns every candidate
                pair directly: a cache key costs more than the DP a hit
                would skip, and a cold compile never hits.
            jobs, executor: accepted only as ``None``/``1`` and
                ``"auto"``/``"serial"`` (see
                :func:`check_serial_call_shape`); the engine always runs
                serially.
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
            fault_plan: install this :class:`~repro.resilience.FaultPlan`
                process-wide (deterministic fault injection at the named
                sites of :data:`~repro.resilience.FAULT_SITES`).  When
                None, the ``REPRO_FAULTS`` environment variable is
                consulted once per process.  With no plan every fault
                point reduces to a single ``is None`` check.
        """
        check_serial_call_shape(jobs, executor)
        self.target = target or X86_64
        self.exploration_threshold = max(1, exploration_threshold)
        self.oracle = oracle
        self.options = options or MergeOptions()
        self.allow_deletion = allow_deletion
        self.hot_function_filter = hot_function_filter
        self.minimum_function_size = minimum_function_size
        if verify_fingerprints is None:
            verify_fingerprints = _env_flag("REPRO_VERIFY_FINGERPRINTS")
        self.verify_fingerprints = verify_fingerprints
        if sanitize is None:
            sanitize = _env_flag("REPRO_SANITIZE")
        self.sanitizer: Optional[Sanitizer] = Sanitizer() if sanitize else None
        if fault_plan is not None:
            install_fault_plan(fault_plan)
        else:
            maybe_install_env_plan()

        self.searcher = IndexedCandidateSearcher(self.exploration_threshold)
        self.profit_bounds = ProfitBoundIndex(self.target) if oracle else None

        # only a caller-owned cache is ever attached; it stays for the
        # engine's lifetime and no run clears it
        self.align_cache: Optional[AlignmentCache] = alignment_cache

        self.preprocess = PreprocessStage()
        self.fingerprint = FingerprintStage(self.searcher, self.profit_bounds)
        self.candidate_search = CandidateSearchStage(self.searcher)
        self.linearize = LinearizeStage(self.options.traversal)
        self.alignment = AlignmentStage(self.options.scoring,
                                        self.options.alignment_algorithm,
                                        kernel=alignment_kernel,
                                        cache=self.align_cache)
        self.codegen = CodegenStage(self.options, self.target)
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

    # -- helpers ---------------------------------------------------------------
    @property
    def alignment_cache_resident(self) -> bool:
        """Whether a (caller-owned) cache is attached: it is never cleared
        by a run and its counters accumulate across runs."""
        return self.align_cache is not None

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
        and packages the outcome as an immutable plan.  Candidates are
        costed without building IR; only the chosen one's merged body is
        built.  Under the sanitizer every costed candidate is also built
        and the two costs are compared.  Returns ``None``
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
        candidates = self.candidate_search.query(name, limit)
        plan = MergePlan(name=name, limit=limit, candidates=candidates)

        # (evaluation, candidate, function2, alignment) of the best
        # profitable candidate so far
        best: Optional[tuple] = None
        for candidate in candidates:
            if candidate.function_name not in self._available:
                continue
            function2 = module.get_function(candidate.function_name)
            if function2 is None:
                continue
            if self.profit_bounds is not None:
                floor = best[0].delta if best is not None else 0
                bound = self.profit_bounds.delta_bound(
                    name, candidate.function_name, floor)
                if bound is not None and bound <= floor:
                    plan.candidates_pruned += 1
                    continue
            plan.candidates_evaluated += 1

            lin1 = self.linearize.get(function1)
            lin2 = self.linearize.get(function2)
            alignment = self.alignment.align_pair(lin1, lin2)
            try:
                cost = self.codegen.generate(function1, function2, alignment)
            except CodegenError:
                cost = None
            if self.sanitizer is not None:
                self._check_counted_cost(function1, function2, alignment, cost)
            if cost is None:
                plan.codegen_failures += 1
                continue
            evaluation = self.profitability.evaluate(function1, function2, cost,
                                                     self._call_graph)
            if evaluation.profitable:
                if best is None or evaluation.delta > best[0].delta:
                    best = (evaluation, candidate, function2, alignment)
                if not self.oracle:
                    break

        if best is not None:
            # the winner is the only candidate whose merged body is built
            evaluation, candidate, function2, alignment = best
            result = self.codegen.materialize(function1, function2, alignment)
            plan.decision = PlanDecision(candidate, result, evaluation)
        return plan

    def _check_counted_cost(self, function1: Function, function2: Function,
                            alignment, cost) -> None:
        """Sanitizer cross-check: the counting walk's cost (``None`` for a
        ``CodegenError``) must equal the cost of the body the IR sink
        builds for the same alignment."""
        try:
            result = merge_functions(function1, function2,
                                     self.codegen.options, alignment)
        except CodegenError:
            built = None
        else:
            built = (self.target.function_cost(result.merged),
                     len(result.merged.arguments))
            result.merged.drop_body()
        self.sanitizer.check_merge_cost(function1.name, function2.name,
                                        cost, built)

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
        """The current candidate ranking of ``name`` in the comparable form
        of :attr:`MergePlan.candidate_key` (a session's memo check)."""
        return tuple((c.function_name, c.score, c.position)
                     for c in self.candidate_search.query(name, limit))

    def _absorb_plan(self, plan: MergePlan) -> None:
        report = self._report
        report.candidates_evaluated += plan.candidates_evaluated
        report.codegen_failures += plan.codegen_failures
        report.candidates_pruned += plan.candidates_pruned

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
        """Install the per-run state :meth:`drain` consumes.

        ``run()`` composes this with its own cold cache setup; a
        :class:`~repro.core.engine.session.MergeSession` installs
        incrementally-maintained state here and drains it itself, keeping
        the warm caches ``run()`` would clear.
        """
        self._module = module
        self._call_graph = call_graph
        self._available = available
        self._worklist = worklist
        self._report = report

    def detach_run_state(self) -> None:
        """Drop the per-run state."""
        self._module = None
        self._call_graph = None
        self._report = None

    def drain(self, plan: Optional[Callable[[str], Optional[MergePlan]]] = None,
              absorb: Optional[Callable[[MergePlan], None]] = None,
              on_commit: Optional[Callable[[MergePlan, CommitEvents], None]]
              = None) -> int:
        """Run the exploration loop (the paper's Figure 7) until the
        attached worklist is empty; returns the number of stale entries.

        Each popped entry whose function was consumed (or removed) since it
        was enqueued is counted as stale and skipped.  Any other entry is
        planned (``plan``, default :meth:`plan_entry`), its counters are
        absorbed into the report (``absorb``, default: the plan's
        evaluated/failed/pruned counts), and a plan with a decision is
        committed, after which ``on_commit(plan, events)`` is called.  A
        plan callback that raises is re-raised as :class:`PlanningError`
        naming the entry; a :class:`~repro.resilience.ResilienceError`
        passes through unwrapped.
        """
        plan = plan if plan is not None else self.plan_entry
        absorb = absorb if absorb is not None else self._absorb_plan
        worklist, available = self._worklist, self._available
        stale = 0
        while worklist:
            name = worklist.popleft()
            if name not in available:
                stale += 1
                continue
            try:
                fault_point("scheduler.plan_fail")
                merge_plan = plan(name)
            except (PlanningError, ResilienceError):
                raise
            except Exception as error:
                raise PlanningError(name, error) from error
            if merge_plan is None:
                stale += 1
                continue
            absorb(merge_plan)
            if merge_plan.decision is None:
                continue
            events = self.commit_plan(merge_plan)
            if on_commit is not None:
                on_commit(merge_plan, events)
        return stale

    def finish_report(self, report: MergeReport, stale_entries: int) -> None:
        """Fill the run-level fields of ``report`` once the worklist has
        drained (call while the run state is still attached)."""
        report.stale_entries = stale_entries
        stats = report.scheduler_stats = {"stale_entries": stale_entries}
        if self.align_cache is not None:
            stats.update(self.align_cache.stats_dict())
        stats["degradations"] = list(self.alignment.degradations)
        if self.sanitizer is not None:
            self.sanitizer.after_run(self._module, self._call_graph)
            stats.update(self.sanitizer.stats())
        report.stage_times = self._legacy_stage_times()
        report.stage_stats = self.stage_stats()

    def run(self, module: Module,
            on_commit: Optional[Callable[[MergePlan, CommitEvents], None]]
            = None) -> MergeReport:
        """Merge ``module`` in place and report what was merged.

        ``on_commit`` is called after every committed merge with the plan
        and its :class:`CommitEvents` (tests use it to cross-check the
        incremental bookkeeping against from-scratch rebuilds)."""
        for stage in self.stages:
            stage.reset()
        self.linearize.clear()
        if self.sanitizer is not None:
            # analyses describe the previous module's bodies; the
            # counters accumulate across runs, only the per-function
            # dataflow results are dropped
            self.sanitizer.cache.clear()
        # the original pass built a fresh ranker per run(): a reused engine
        # must not rank against the previous module's fingerprints
        self.fingerprint.clear()
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

        searcher = self.searcher

        def after_commit(plan: MergePlan, events: CommitEvents) -> None:
            searcher.sweep_memo()  # consumed contents never come back
            if on_commit is not None:
                on_commit(plan, events)

        self.attach_run_state(module, call_graph, available, worklist, report)
        try:
            stale = self.drain(on_commit=after_commit)
            self.finish_report(report, stale)
        finally:
            self.detach_run_state()
        return report
