"""Incremental engine sessions: delta-driven replanning for edit-recompile
workloads.

A :class:`MergeSession` wraps a warm :class:`~repro.core.engine.engine.MergeEngine`
around one module for the whole lifetime of an edit-recompile loop (a JIT
tier, an IDE plugin, a watch-mode build).  Instead of rerunning the full
pipeline after every source change, callers describe the change as
:class:`ModuleEdit`\\ s and the session replans only the slice of the merge
space the edits (and their ripples) actually invalidated::

    session = MergeSession(MergeEngine(exploration_threshold=2), module)
    ...
    delta = session.update([ModuleEdit.replace(new_body),
                            ModuleEdit.add(helper)])
    print(delta.summary())        # merges added/retired/kept, reuse rates
    print(session.report.merge_count)   # full-module view, like run()

The contract is strict: after every :meth:`update`, the session's committed
merge decisions - and the observable engine state (call graph, fingerprint
index, report counters) - are **bit-identical to a cold ``engine.run()`` on
the edited module** (property-tested over random edit scripts in
``tests/core/test_session.py``).  What changes is only how much work the
update does.

How it works
------------

* **Shadow module.**  At open the session snapshots every function into a
  detached *shadow* clone (post phi-demotion, so the shadow is exactly what
  the pipeline consumes).  Merges mutate only the working module; the shadow
  stays pristine, so any merge can be rolled back by transplanting the
  original body back into the *same* working ``Function`` object (object
  identity is preserved - existing call-site operands stay valid).
* **Rollback + replay.**  ``update()`` first rolls the working module back
  to pure source state (undoing every previous merge in reverse commit
  order), applies the edits to shadow and working side, then *replays* the
  merge exploration through the engine's ordinary worklist loop
  (:meth:`~repro.core.engine.engine.MergeEngine.drain`).  Replay is where
  the incrementality lives: worklist entries whose previous plan provably
  still stands are answered from a :class:`PlanRecord` memo instead of
  re-running linearization / alignment / codegen / profitability.
* **DirtySet.**  Edits contribute their function plus every function the old
  and new bodies referenced (callees *and* address-taken references - both
  feed profitability); diverged or vanished commits contribute their
  :class:`~repro.core.engine.plan.CommitEvents` footprint, cascading through
  chains of dependent merges.  A memoized plan is reused only when its entry
  and all of its ranked candidates are clean **and** the fingerprint index
  still reproduces its exact candidate ranking.  That re-query costs about
  50 µs on perfbench's ``edits`` module (~150 functions, 2 vCPUs), where
  the searcher's pair-score memo answers nearly every candidate; without
  the memo it cost ~440 µs, 28% of update time.
  Plans that committed a merge are always re-planned fresh - their codegen
  result must be rebuilt against the live module anyway.
* **Warm caches.**  The engine's linearize cache is *not* cleared between
  updates (its keys are body tokens, so stale reuse is structurally
  impossible): untouched functions keep their linearizations.  Neither is
  a caller-owned alignment cache, when the engine has one; a default
  session has none and aligns replanned pairs directly (computing a cache
  key costs more than the DP).

Failure recovery
----------------

A mid-replay crash (a planner bug, an injected fault) leaves the module
with a *partial* commit list.  The session tracks commits live, keeps the
dirty set of the failed attempt, and only swaps its memo tables on success -
so the next ``update()`` (even with no edits) rolls the partial state back
and replays to a consistent, cold-identical result.

Caveats
-------

* Rollback restores consumed functions at their original ranking positions
  (the indexed searcher's ``add_fingerprint(fp, order=...)`` / ``order_of``);
  otherwise replayed decisions could diverge from a cold run.
* ``hot_function_filter`` must be a pure function of the IR it is given: the
  session re-evaluates it for added/replaced functions only.
* A caller-owned alignment cache is shared, never cleared: its counters in
  ``scheduler_stats`` accumulate across updates and sessions.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

from ...ir.callgraph import CallGraph
from ...ir.clone import transplant_body
from ...resilience import fault_point
from ...ir.function import Function
from ...ir.module import Module
from ...passes.reg2mem import demote_phis
from ..fingerprint import Fingerprint
from ..ranking import RankedCandidate
from .engine import MergeEngine
from .plan import CommitEvents, MergePlan
from .report import MergeReport, SessionUpdateReport


# ---------------------------------------------------------------------------
# Edits
# ---------------------------------------------------------------------------

#: Edit kinds accepted by :meth:`MergeSession.update`.
EDIT_KINDS = ("add", "remove", "replace")


@dataclass(frozen=True)
class ModuleEdit:
    """One source-level change to a module.

    * ``add``: introduce a new function (``function`` is cloned in; the
      name must not exist yet).
    * ``remove``: delete the named function (callers keep their - now
      dangling - references, exactly as a cold build of the edited source
      would).
    * ``replace``: swap the named function's body for ``function``'s
      (signatures must match; the existing ``Function`` object keeps its
      identity so call sites stay valid).
    """

    kind: str
    name: str
    function: Optional[Function] = None

    def __post_init__(self):
        if self.kind not in EDIT_KINDS:
            raise ValueError(f"unknown edit kind {self.kind!r}; "
                             f"expected one of {EDIT_KINDS}")
        if self.kind in ("add", "replace") and self.function is None:
            raise ValueError(f"{self.kind!r} edit needs a function")

    @classmethod
    def add(cls, function: Function) -> "ModuleEdit":
        return cls("add", function.name, function)

    @classmethod
    def remove(cls, name: str) -> "ModuleEdit":
        return cls("remove", name)

    @classmethod
    def replace(cls, function: Function) -> "ModuleEdit":
        return cls("replace", function.name, function)


def apply_edit(module: Module, edit: ModuleEdit) -> Function:
    """Apply one edit to a plain module (no call-graph or index upkeep).

    This is the *reference semantics* of an edit: the session applies it to
    its shadow module, and tests/benchmarks apply the same edits to a fresh
    module to build the cold-rerun comparison state.  Added/replaced bodies
    are deep-copied in (operands remapped to the module's same-named
    functions; unresolvable references kept as-is) and phi-demoted, matching
    what the engine's preprocess stage would have done at ingest.
    """
    def resolve(fn: Function):
        return module.get_function(fn.name)

    if edit.kind == "add":
        if module.get_function(edit.name) is not None:
            raise ValueError(f"add: function {edit.name!r} already exists")
        source = edit.function
        # two-step clone (shell first, then body) so self-recursive calls
        # resolve to the clone itself rather than the foreign original
        clone = Function(source.name, source.function_type, module=None,
                         linkage=source.linkage,
                         arg_names=[arg.name for arg in source.arguments])
        clone.address_taken = source.address_taken
        clone.profile = source.profile
        clone.merged_from = source.merged_from
        module.add_function(clone)
        if source.blocks:
            transplant_body(source, clone, resolve)
        else:
            clone._next_temp_id = source._next_temp_id
        demote_phis(clone)
        return clone

    existing = module.get_function(edit.name)
    if existing is None:
        raise ValueError(f"{edit.kind}: function {edit.name!r} does not exist")
    if edit.kind == "remove":
        module.remove_function(existing)
        return existing
    # replace: body-only swap into the existing object (transplant_body
    # raises on signature mismatch); linkage/profile/flags are retained
    transplant_body(edit.function, existing, resolve)
    demote_phis(existing)
    return existing


def _referenced_functions(function: Function) -> Set[str]:
    """Names of every ``Function`` a body references - direct callees *and*
    address-taken operands (both feed profitability of the referenced
    function, so an edit dirties all of them)."""
    names: Set[str] = set()
    for inst in function.instructions():
        for op in inst.operands:
            if isinstance(op, Function):
                names.add(op.name)
    return names


# ---------------------------------------------------------------------------
# Dirty tracking + plan memos
# ---------------------------------------------------------------------------

class DirtySet:
    """Names whose merge-relevant state changed since the previous update's
    plans were recorded.  Membership gates plan-memo reuse; the set survives
    a failed update (its records were not swapped either) and resets only
    when an update completes."""

    __slots__ = ("names",)

    def __init__(self):
        self.names: Set[str] = set()

    def add(self, name: str) -> None:
        self.names.add(name)

    def update(self, names: Iterable[str]) -> None:
        self.names.update(names)

    def clear(self) -> None:
        self.names.clear()

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self):
        return iter(self.names)


@dataclass
class PlanRecord:
    """Memo of one absorbed plan from the previous update's replay.

    Holds no IR references (candidates are plain ranked tuples), so records
    can be retained across module mutations.  ``decision_key`` / ``events``
    are set when the plan committed a merge; decision records are never
    replayed from the memo (codegen must rebuild against the live module)
    but their events drive divergence cascades and rollback.
    """

    name: str
    limit: int
    candidates: List[RankedCandidate]
    candidate_key: tuple
    candidates_evaluated: int = 0
    codegen_failures: int = 0
    candidates_pruned: int = 0
    decision_key: Optional[tuple] = None
    events: Optional[CommitEvents] = None

    def reconstruct(self) -> MergePlan:
        """A fresh decisionless plan equivalent to the recorded one."""
        plan = MergePlan(name=self.name, limit=self.limit,
                         candidates=list(self.candidates),
                         candidates_evaluated=self.candidates_evaluated,
                         codegen_failures=self.codegen_failures,
                         candidates_pruned=self.candidates_pruned)
        plan._session_memo = True  # type: ignore[attr-defined]
        return plan


# ---------------------------------------------------------------------------
# The session
# ---------------------------------------------------------------------------

class MergeSession:
    """Long-lived incremental merging over one module (see module docstring).

    Usable as a context manager; a closed session rejects further updates.
    The initial exploration runs in the constructor: ``session.report`` is
    immediately equivalent to ``engine.run(module)``.
    """

    def __init__(self, engine: MergeEngine, module: Module):
        self.engine = engine
        self.module = module
        self.updates = 0
        self.closed = False
        self.report: Optional[MergeReport] = None
        self.last_update: Optional[SessionUpdateReport] = None
        self._open()

    # -- lifecycle --------------------------------------------------------------
    def _open(self) -> None:
        engine = self.engine
        module = self.module
        for stage in engine.stages:
            stage.reset()
        engine.linearize.clear()
        if engine.sanitizer is not None:
            engine.sanitizer.cache.clear()
        engine.fingerprint.clear()

        engine.preprocess.run(module)

        # shadow ingestion must precede the CallGraph build: rebuild() sets
        # the sticky per-function address_taken flags, and the shadow must
        # capture the *pristine* construction-time flags so a later resync
        # can reproduce what a cold run on the edited module would compute
        self._shadow = Module(f"{module.name}.shadow")
        self._shadow_to_working: Dict[int, Function] = {}
        # removed shadow functions must stay alive: the map above is keyed
        # by object id, and live shadow bodies may still hold dangling
        # references to them (which rollback must remap to the equally
        # dangling working-side object, exactly as a cold build dangles)
        self._shadow_graveyard: List[Function] = []
        self._ingest_shadow()

        self.graph = CallGraph(module)

        # hot-function exclusion (mirrors run(); the filter must be pure -
        # it is re-evaluated only for added/replaced functions)
        self._excluded: Set[str] = set()
        # fingerprints + searcher ranking positions of the *source* state;
        # rollback restores exactly these.  Orders are dictionary positions
        # (not compacted): only relative order matters to the searcher, and
        # position-based orders stay correct when a later edit makes a
        # previously-ineligible function eligible at its original slot.
        self._source_fps: Dict[str, Fingerprint] = {}
        self._base_order: Dict[str, int] = {}
        functions = module.functions
        for position, function in enumerate(functions):
            self._base_order[function.name] = position
        self._position_counter = len(functions)
        for function in functions:
            self._index_if_eligible(function, self._base_order[function.name])

        # memo state (one epoch = one successful update)
        self._records: Dict[str, PlanRecord] = {}
        self._record_commits: List[PlanRecord] = []
        #: live commit list mirroring the module's current merge state -
        #: survives failed updates with partial commits, so rollback always
        #: sees exactly what was applied
        self._commits: List[PlanRecord] = []
        self._dirty = DirtySet()
        self._spoiled: Set[int] = set()

        report, update_report = self._replay(edit_count=0)
        self.report = report
        self.last_update = update_report

    def close(self) -> None:
        """Close the session.  Idempotent; a closed session rejects further
        :meth:`update` calls."""
        self.closed = True

    def __enter__(self) -> "MergeSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- shadow -----------------------------------------------------------------
    def _ingest_shadow(self) -> None:
        """Two-phase pristine snapshot: shells (so mutually-recursive bodies
        can resolve), then bodies."""
        working_to_shadow: Dict[int, Function] = {}
        pairs = []
        for fn in self.module.functions:
            shell = Function(fn.name, fn.function_type, module=None,
                             linkage=fn.linkage,
                             arg_names=[arg.name for arg in fn.arguments])
            shell.address_taken = fn.address_taken
            shell.profile = fn.profile
            shell.merged_from = fn.merged_from
            self._shadow.add_function(shell)
            working_to_shadow[id(fn)] = shell
            self._shadow_to_working[id(shell)] = fn
            pairs.append((fn, shell))
        for fn, shell in pairs:
            if fn.blocks:
                transplant_body(fn, shell,
                                lambda f: working_to_shadow.get(id(f)))
            else:
                shell._next_temp_id = fn._next_temp_id

    def _working_resolver(self, fn: Function):
        """Shadow-side ``Function`` operand -> working-side object (foreign
        references resolve to None and are kept as-is)."""
        return self._shadow_to_working.get(id(fn))

    # -- indexing ---------------------------------------------------------------
    def _index_if_eligible(self, function: Function, order: int) -> None:
        engine = self.engine
        if function.is_declaration:
            return
        if (engine.hot_function_filter is not None
                and engine.hot_function_filter(function)):
            self._excluded.add(function.name)
            return
        fp = Fingerprint.of(function)
        engine.fingerprint.restore_function(function, fp, order=order)
        self._source_fps[function.name] = fp

    def _unindex(self, name: str) -> None:
        if self._source_fps.pop(name, None) is not None:
            self.engine.fingerprint.remove_function(name)

    # -- the update protocol ----------------------------------------------------
    def update(self, edits: Iterable[ModuleEdit]) -> SessionUpdateReport:
        """Apply the edits and re-merge, replanning only the affected slice.

        Raises before touching anything if the edit script is invalid
        (duplicate add, missing remove/replace target, replace signature
        mismatch).  On success returns the :class:`SessionUpdateReport`
        delta; ``self.report`` then holds the full-module report,
        bit-identical to a cold ``engine.run()`` on the edited module.
        """
        if self.closed:
            raise RuntimeError("MergeSession is closed")
        edits = list(edits)
        self._validate(edits)
        start = time.perf_counter()
        for stage in self.engine.stages:
            stage.reset()  # per-update stats; caches are preserved
        self._rollback()
        for edit in edits:
            self._apply_one_edit(edit)
        self._prune_phantom_nodes()
        self._resync_address_taken()
        report, update_report = self._replay(edit_count=len(edits))
        update_report.update_seconds = time.perf_counter() - start
        self.report = report
        self.last_update = update_report
        self.updates += 1
        return update_report

    def _validate(self, edits: List[ModuleEdit]) -> None:
        """Check the whole script against the simulated post-edit name/type
        space before mutating anything."""
        types = {fn.name: fn.function_type for fn in self._shadow.functions}
        for edit in edits:
            if not isinstance(edit, ModuleEdit):
                raise TypeError(f"expected ModuleEdit, got {type(edit).__name__}")
            if edit.kind == "add":
                if edit.name in types:
                    raise ValueError(
                        f"add: function {edit.name!r} already exists")
                types[edit.name] = edit.function.function_type
            elif edit.kind == "remove":
                if edit.name not in types:
                    raise ValueError(
                        f"remove: function {edit.name!r} does not exist")
                del types[edit.name]
            else:
                existing = types.get(edit.name)
                if existing is None:
                    raise ValueError(
                        f"replace: function {edit.name!r} does not exist")
                if edit.function.function_type != existing:
                    raise ValueError(
                        f"replace: signature mismatch for {edit.name!r} "
                        f"({edit.function.function_type} vs {existing})")

    # -- rollback ---------------------------------------------------------------
    def _rollback(self) -> None:
        """Undo every applied merge, restoring the exact source state
        (bodies, call graph, fingerprint index, ranking orders)."""
        if not self._commits:
            return
        engine, module, graph = self.engine, self.module, self.graph
        merged_names = [rec.events.merged_name for rec in self._commits]
        merged_set = set(merged_names)

        # 1. remove merged functions, newest first: a chain-merge's body may
        #    reference an earlier merged function, and unregistering it
        #    while the earlier one's node still exists keeps the refcounted
        #    edges exact
        for name in reversed(merged_names):
            fn = module.get_function(name)
            if fn is not None:  # consumed-and-deleted by a later merge
                graph.remove_function(fn)
                module.remove_function(fn)
            engine.fingerprint.remove_function(name)
            engine.linearize.invalidate(name)

        # 2. restore every source function a commit touched (consumed
        #    originals - thunked or deleted - and rewritten callers)
        restore: Set[str] = set()
        for rec in self._commits:
            restore.update(rec.events.consumed)
            restore.update(rec.events.rewritten_callers)
        restore -= merged_set
        for name in sorted(restore):
            source = self._shadow.get_function(name)
            working = module.get_function(name)
            if working is not None:
                graph.unregister_body(working)
                transplant_body(source, working, self._working_resolver)
                graph.register_body(working)
            else:
                # deleted original: Module.remove_function dropped only the
                # body - the object (and every operand referencing it) is
                # intact, so re-adding it revalidates those references
                working = self._shadow_to_working[id(source)]
                module.add_function(working)
                transplant_body(source, working, self._working_resolver)
                graph.add_function(working)
            engine.linearize.invalidate(name)
            if name in self._source_fps:  # else not indexed (hot)
                engine.fingerprint.restore_function(
                    working, self._source_fps[name],
                    order=self._base_order[name])
        if engine.sanitizer is not None:
            for name in merged_names:
                engine.sanitizer.invalidate(name)
            for name in restore:
                engine.sanitizer.invalidate(name)
            # the transplants must restore the exact pre-merge bodies: every
            # touched function re-verifies and prints bit-identically to its
            # shadow copy
            engine.sanitizer.after_rollback(self.module, self._shadow,
                                            sorted(restore))
        self._commits = []

    # -- edits ------------------------------------------------------------------
    def _apply_one_edit(self, edit: ModuleEdit) -> None:
        engine, module, graph = self.engine, self.module, self.graph
        name = edit.name
        self._dirty.add(name)

        if edit.kind == "remove":
            working = module.get_function(name)
            self._dirty.update(_referenced_functions(working))
            shadow_fn = self._shadow.get_function(name)
            self._shadow.remove_function(shadow_fn)
            # graph-aware removal: detach the callers' dangling references
            # around the node removal so refcounts land exactly where a
            # from-scratch rebuild of the post-edit module would put them
            callers = [module.get_function(c)
                       for c in sorted(graph.callers.get(name, set()))
                       if c != name]
            callers = [fn for fn in callers if fn is not None]
            for fn in callers:
                graph.unregister_body(fn)
            graph.remove_function(working)
            module.remove_function(working)
            for fn in callers:
                graph.register_body(fn)
            self._unindex(name)
            engine.linearize.invalidate(name)
            self._base_order.pop(name, None)
            self._excluded.discard(name)
            # keep the (now dangling) shadow->working pair alive: bodies on
            # either side may still reference the removed objects, and a
            # rollback transplant must map one dangling reference onto the
            # other.  A later same-name add gets fresh objects on both sides.
            self._shadow_graveyard.append(shadow_fn)
            return

        if edit.kind == "add":
            self._dirty.update(_referenced_functions(edit.function))
            shadow_fn = apply_edit(self._shadow, edit)
            working = Function(shadow_fn.name, shadow_fn.function_type,
                               module=None, linkage=shadow_fn.linkage,
                               arg_names=[a.name for a in shadow_fn.arguments])
            working.address_taken = shadow_fn.address_taken
            working.profile = shadow_fn.profile
            working.merged_from = shadow_fn.merged_from
            # map before transplant so self-recursion resolves to `working`
            self._shadow_to_working[id(shadow_fn)] = working
            module.add_function(working)
            if shadow_fn.blocks:
                transplant_body(shadow_fn, working, self._working_resolver)
            else:
                working._next_temp_id = shadow_fn._next_temp_id
            graph.add_function(working)
            order = self._base_order[name] = self._position_counter
            self._position_counter += 1
            self._index_if_eligible(working, order)
            return

        # replace
        working = module.get_function(name)
        self._dirty.update(_referenced_functions(working))       # old body
        self._dirty.update(_referenced_functions(edit.function))  # new body
        shadow_fn = apply_edit(self._shadow, edit)
        graph.unregister_body(working)
        transplant_body(shadow_fn, working, self._working_resolver)
        graph.register_body(working)
        engine.linearize.invalidate(name)
        self._unindex(name)
        self._excluded.discard(name)
        self._index_if_eligible(working, self._base_order[name])

    def _prune_phantom_nodes(self) -> None:
        """Drop call-graph entries for names that are neither module members
        nor referenced anywhere (edit-driven unregisters can leave empty
        refcounted husks that a from-scratch rebuild would not create)."""
        graph = self.graph
        present = {fn.name for fn in self.module.functions}
        for name in (set(graph.callees) | set(graph.callers)
                     | set(graph.call_sites)):
            if name in present:
                continue
            if graph.callees.get(name) or graph.callers.get(name):
                continue
            if any(site.parent is not None
                   for site in graph.call_sites.get(name, ())):
                continue
            graph.callees.pop(name, None)
            graph.callers.pop(name, None)
            graph.call_sites.pop(name, None)

    def _resync_address_taken(self) -> None:
        """Recompute the sticky per-function flags exactly as a cold
        ``CallGraph`` build over the edited module would: the pristine
        construction-time flag (held by the shadow) OR-ed with being
        currently address-taken."""
        taken = self.graph.address_taken
        for fn in self.module.functions:
            shadow_fn = self._shadow.get_function(fn.name)
            base = shadow_fn.address_taken if shadow_fn is not None \
                else fn.address_taken
            fn.address_taken = base or (fn.name in taken)

    # -- replay -----------------------------------------------------------------
    def _spoil(self, rec: Optional[PlanRecord]) -> None:
        """A previous-epoch record can no longer replay: everything its
        commit touched is dirty, and the commits that consumed its merged
        function (or that it consumed) cascade."""
        if rec is None or id(rec) in self._spoiled:
            return
        self._spoiled.add(id(rec))
        if rec.events is None:
            return
        self._dirty.update(rec.events.dirty)
        self._spoil(self._old_records.get(rec.events.merged_name))
        for name in rec.events.consumed:
            self._spoil(self._old_records.get(name))

    def _replay(self, edit_count: int) -> tuple:
        engine = self.engine
        available = set(self._source_fps)
        worklist = deque(sorted(available))
        report = MergeReport()
        report.functions_considered = len(available)
        report.excluded_hot_functions = len(self._excluded)

        self._old_records = self._records
        self._current_limit = 0 if engine.oracle else engine.exploration_threshold

        # pre-replay spoiling: previous commits whose entry no longer exists
        # in the worklist universe can never replay.  Merged-function
        # entries are exempt here - they are never in the start set; their
        # fate cascades from the commit that creates (or fails to create)
        # them.
        old_merged = {rec.events.merged_name for rec in self._record_commits}
        for rec in self._record_commits:
            if rec.name not in available and rec.name not in old_merged:
                self._spoil(rec)

        self._new_records: Dict[str, PlanRecord] = {}
        self._commits = []
        self._kept_ids: Set[int] = set()
        self._counters = {"reused": 0, "fresh": 0, "kept": 0,
                          "memo_evaluated": 0}
        self._merges_added: List = []

        engine.attach_run_state(self.module, self.graph, available, worklist,
                                report)
        try:
            stale = engine.drain(plan=self._plan_with_memo,
                                 absorb=self._absorb,
                                 on_commit=self._on_commit)
            engine.finish_report(report, stale)
        finally:
            # on failure: partial commits stay in self._commits (rollback
            # input), the dirty set is kept, and the record epoch is NOT
            # swapped - the next update replans everything still in doubt
            engine.detach_run_state()
            # pair scores of contents this update never held go; those it
            # rolled back and replayed stay warm for the next update
            engine.searcher.sweep_memo()

        lin = engine.linearize.stats.counters
        linearize_hits = int(lin.get("cache_hits", 0))
        linearize_misses = int(lin.get("linearized", 0))
        report.scheduler_stats["linearize_cache_hits"] = linearize_hits
        report.scheduler_stats["linearize_cache_misses"] = linearize_misses
        report.scheduler_stats["linearize_stale_evicted"] = int(
            lin.get("stale_evicted", 0))
        report.scheduler_stats["plans_reused"] = self._counters["reused"]
        report.scheduler_stats["functions_replanned"] = self._counters["fresh"]

        retired = [rec.decision_key for rec in self._record_commits
                   if id(rec) not in self._kept_ids]
        update_report = SessionUpdateReport(
            edits=edit_count,
            functions_replanned=self._counters["fresh"],
            plans_reused=self._counters["reused"],
            merges_added=list(self._merges_added),
            merges_retired=retired,
            merges_kept=self._counters["kept"],
            candidates_evaluated=(report.candidates_evaluated
                                  - self._counters["memo_evaluated"]),
            linearize_hits=linearize_hits,
            linearize_misses=linearize_misses,
            dirty_functions=len(self._dirty),
            scheduler_stats=dict(report.scheduler_stats))

        # success: swap the memo epoch and reset the dirty horizon
        self._records = self._new_records
        self._record_commits = list(self._commits)
        self._dirty.clear()
        self._spoiled.clear()
        self._old_records = self._records
        return report, update_report

    # -- drain-loop callbacks ---------------------------------------------------
    def _plan_with_memo(self, name: str) -> Optional[MergePlan]:
        """The drain loop's plan callback: answer from the previous epoch's
        record when it provably still stands, else plan fresh.

        Reuse conditions (all required):

        * the record was decisionless (committed merges are always replanned
          - their codegen result must exist against the live module);
        * the entry and *every ranked candidate* are clean (not just the
          evaluated ones: in oracle mode a candidate skipped by the profit
          bound was never evaluated, yet a rewritten body could un-prune
          it);
        * the exploration limit is unchanged;
        * the fingerprint index reproduces the recorded candidate ranking
          exactly (a re-query the pair-score memo answers).

        Reads (never writes) the dirty set and the old records; they change
        only in the absorb and commit callbacks.
        """
        # injected replay failure: surfaces exactly like a planner bug mid-
        # replay, leaving partial commits for the next update's rollback
        # (the recovery path the failure-recovery tests pin down)
        fault_point("session.replay_fail")
        rec = self._old_records.get(name)
        if (rec is not None and rec.decision_key is None
                and rec.limit == self._current_limit
                and name not in self._dirty
                and not any(c.function_name in self._dirty
                            for c in rec.candidates)
                and self.engine._query_key(name, rec.limit) == rec.candidate_key):
            return rec.reconstruct()
        return self.engine.plan_entry(name)

    def _absorb(self, plan: MergePlan) -> None:
        self.engine._absorb_plan(plan)
        if getattr(plan, "_session_memo", False):
            self._counters["reused"] += 1
            # the reconstructed counters flow into the full-module report
            # (cold parity); the update report's delta view excludes them
            self._counters["memo_evaluated"] += plan.candidates_evaluated
        else:
            self._counters["fresh"] += 1
        rec = PlanRecord(
            name=plan.name, limit=plan.limit,
            candidates=list(plan.candidates),
            candidate_key=plan.candidate_key,
            candidates_evaluated=plan.candidates_evaluated,
            codegen_failures=plan.codegen_failures,
            candidates_pruned=plan.candidates_pruned)
        self._new_records[plan.name] = rec
        if plan.decision is None:
            old = self._old_records.get(plan.name)
            if old is not None and old.decision_key is not None:
                # the previous epoch merged here, this one does not
                self._spoil(old)

    def _on_commit(self, plan: MergePlan, events: CommitEvents) -> None:
        report = self.engine._report
        record = report.merges[-1]
        key = report.record_key(record)
        rec = self._new_records[plan.name]
        rec.decision_key = key
        rec.events = events
        self._commits.append(rec)

        old = self._old_records.get(plan.name)
        kept = (old is not None and old.decision_key == key
                and old.events == events)
        if kept:
            self._counters["kept"] += 1
            self._kept_ids.add(id(old))
        else:
            self._merges_added.append(record)
            if old is not None and old.decision_key is not None:
                self._spoil(old)
            # state the old epoch never saw: everything this commit touched
            self._dirty.update(events.dirty)
        # eager vanish-spoiling: entries consumed now can never replay their
        # own previous-epoch commits.  Doing it here, at commit time, spares
        # replay the late discovery (a consumed entry later pops stale).
        for consumed in events.consumed:
            if kept and consumed == plan.name:
                continue
            self._spoil(self._old_records.get(consumed))
