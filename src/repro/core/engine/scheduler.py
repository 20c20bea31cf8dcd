"""Plan/commit scheduling of the merge engine's worklist.

The serial exploration loop interleaves read-only candidate evaluation with
module mutation.  :class:`MergeScheduler` splits the two: it pops a *batch*
of worklist entries, computes a :class:`~repro.core.engine.plan.MergePlan`
for each through a pluggable :class:`PlanExecutor` (serial by default, the
process offload behind the ``jobs=`` knob), then a serial *committer* walks
the batch in worklist order and either

* counts the entry as **stale** when its function was consumed between
  enqueue and commit (the serial engine silently skipped these),
* **commits** the plan when no earlier commit touched its inputs,
* or **requeues** the entry - discarding the plan and replanning it
  immediately against the current module state - when a conflict is
  detected.

A plan conflicts when an earlier commit consumed, rewrote or re-linked any
function the plan evaluated (``CommitEvents.dirty``), or when the
fingerprint index no longer reproduces the plan's candidate ranking (the
re-query costs microseconds against the indexed searcher).  Because every
batch is committed in worklist order and conflicted entries are replanned
in place before the walk continues, the sequence of committed merges is
**bit-identical to the serial engine** for every batch size and executor
(property-tested in ``tests/core/test_scheduler.py``).

Whole *plans* can never cross a process boundary - they carry live
references into the module's IR objects (the merged function's instructions
point at the very ``Function``/``Value`` objects the committer must mutate),
and pickling one would sever that identity.  The alignment DP inside a plan
is different: over canonical equivalence-key bytes it is pure data (see
:mod:`repro.core.engine.offload`).  The ``"process"`` executor therefore
splits the batch into a *hydrate -> align -> finish-plan* pipeline: the
scheduler first asks the engine which alignment shapes the batch will need
(``prefetch``), ships the ones the cache does not already hold to a process
pool as :class:`~repro.core.engine.offload.AlignmentTask` chunks, stores the
shapes back into the content-addressed cache (``store``), and only then
plans the batch - serially, in-process, through the unchanged pipeline,
whose alignment lookups now all hit.

When ``adaptive=True`` the scheduler additionally retunes its batch size
between rounds (:class:`AdaptiveBatchSizer`): high observed conflict/replan
rates shrink the batch multiplicatively (conflicted plans are wasted work),
sustained low-conflict full batches grow it back (keep the executor's
workers fed).  The controller is deterministic in the observed stats
stream, and batch size never affects decisions - only how much planning is
thrown away - so adaptivity cannot change merge results either.  The sizes
chosen land in ``stats["batch_size_trace"]``.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Dict, List, Optional, Union

from ...resilience import ResilienceError, RetryPolicy, fault_point
from .plan import CommitEvents, MergePlan, PendingAlignment

#: Environment knob selecting the plan executor for engines that leave
#: ``executor="auto"`` (the CI matrix leg runs the whole suite through the
#: process offload this way).  Accepts any :data:`EXECUTORS` name.
ENGINE_EXECUTOR_ENV = "REPRO_ENGINE_EXECUTOR"


class PlanningError(RuntimeError):
    """A planner callback raised while evaluating one worklist entry.

    Raised in place of the original exception (which stays attached as
    ``__cause__``) so the failure names the worklist entry it belongs to -
    otherwise a batched traceback, or an offloaded alignment task failing in
    a worker process, gives no hint which of the batched entries blew up.
    """

    def __init__(self, entry: str, cause: BaseException):
        super().__init__(f"planning worklist entry {entry!r} failed: "
                         f"{type(cause).__name__}: {cause}")
        self.entry = entry


class PlanExecutor:
    """Strategy interface: map the planner over one batch of entries.

    Executors that can additionally solve pure-data alignment tasks out of
    process set ``offloads_alignment = True`` and implement ``run_tasks``
    (see :class:`~repro.core.engine.offload.ProcessExecutor`); the
    scheduler then prefixes each batch with the offloaded align phase.

    Lifecycle: the end-of-run teardown paths call :meth:`release`, which
    closes the executor unless it was built with ``keep_alive=True`` - a
    keep-alive executor survives ``engine.run()`` so back-to-back runs in
    one process reuse the same worker pool, and its owner must eventually
    call :meth:`close` explicitly.  Failure paths always :meth:`close` for
    real (the pool may be broken), so long-lived owners (``MergeSession``,
    the merge daemon) probe ``closed`` and build or lease a fresh executor
    before the next run.
    """

    jobs = 1
    offloads_alignment = False
    #: When True, :meth:`release` keeps the worker pool alive across runs;
    #: only an explicit :meth:`close` tears it down.
    keep_alive = False
    #: Set by ``close()``.  Long-lived owners (``MergeSession``, the merge
    #: daemon's warm context) probe this to detect that a failed
    #: ``scheduler.run`` tore the pool down and a fresh executor must be
    #: built before the next run.
    closed = False

    def map(self, fn: Callable[[str], Optional[MergePlan]],
            names: List[str]) -> List[Optional[MergePlan]]:
        raise NotImplementedError

    def close(self) -> None:
        self.closed = True

    def release(self) -> None:
        """End-of-run teardown: close unless this executor is keep-alive."""
        if not self.keep_alive:
            self.close()


class SerialExecutor(PlanExecutor):
    """Plans entries one after another on the calling thread."""

    def map(self, fn, names):
        return [fn(name) for name in names]


def _make_process_executor(jobs: int,
                           retry_policy: Optional[RetryPolicy] = None
                           ) -> PlanExecutor:
    """Registry thunk: the process executor lives in the offload module
    (which imports this one), so it is resolved lazily."""
    from .offload import ProcessExecutor
    return ProcessExecutor(jobs, retry_policy=retry_policy)


#: Executor kinds selectable by name.  ``"process"`` plans in the main
#: process but offloads the alignment DPs to a worker pool as pure data.
EXECUTORS = {
    "serial": SerialExecutor,
    "process": _make_process_executor,
}


def make_executor(kind: Union[str, PlanExecutor] = "auto",
                  jobs: int = 1,
                  retry_policy: Optional[RetryPolicy] = None) -> PlanExecutor:
    """Instantiate a plan executor.  ``"auto"`` picks serial for ``jobs<=1``
    and the process offload otherwise.  A pre-built :class:`PlanExecutor`
    instance passes through unchanged - the caller-owned-pool seam: build
    one ``ProcessExecutor(jobs, keep_alive=True)``, hand it to every run,
    and the end-of-run :meth:`PlanExecutor.release` leaves its workers
    alive for the next one.  ``retry_policy`` reaches the process executor,
    which retries offloaded work; the serial executor needs none."""
    if isinstance(kind, PlanExecutor):
        return kind
    if kind == "auto":
        kind = "serial" if jobs <= 1 else "process"
    try:
        factory = EXECUTORS[kind]
    except KeyError:
        raise ValueError(f"unknown plan executor {kind!r}; "
                         f"available: {sorted(EXECUTORS)} (or 'auto')") from None
    if factory is SerialExecutor:
        return SerialExecutor()
    return factory(jobs, retry_policy=retry_policy)


class AdaptiveBatchSizer:
    """Deterministic bounded multiplicative batch-size control.

    After every batch the scheduler reports how many entries it planned and
    how many of their plans were conflict-discarded; the sizer answers with
    the next batch size:

    * conflict rate above ``HIGH``: **halve** - most of the batch's planning
      was thrown away, so plan less speculatively against stale state;
    * conflict rate at or below ``LOW`` *and* the batch was full (the
      executor's occupancy signal - a partial batch means the worklist, not
      the batch size, was the limit): **double** - conflicts are rare, keep
      every worker fed;
    * otherwise hold.

    Bounds: never below ``jobs`` (an undersized batch idles workers), never
    above ``ceiling`` (8x the starting size; re-planning an enormous batch
    on one conflict spike is the failure mode this exists to avoid).  The
    next size is a pure function of the observed ``(planned, conflicts)``
    stream, so identical runs produce identical traces - and batch size
    never affects merge decisions, only wasted planning work.
    """

    LOW = 0.05
    HIGH = 0.25

    def __init__(self, initial: int, jobs: int):
        self.floor = max(1, int(jobs))
        self.ceiling = max(int(initial), self.floor) * 8
        self.size = min(max(int(initial), self.floor), self.ceiling)

    def after_batch(self, planned: int, conflicts: int) -> int:
        """Observe one batch; return the size for the next one."""
        if planned > 0:
            rate = conflicts / planned
            if rate > self.HIGH:
                self.size = max(self.floor, self.size // 2)
            elif rate <= self.LOW and planned >= self.size:
                self.size = min(self.ceiling, self.size * 2)
        return self.size


class MergeScheduler:
    """Batched plan/commit driver over the engine's worklist.

    The scheduler owns no pipeline state of its own; it orchestrates the
    engine's stages through three callbacks supplied by
    :class:`~repro.core.engine.engine.MergeEngine`:

    * ``plan`` - evaluate one entry read-only, returning a plan (or None
      when the entry is stale);
    * ``commit`` - apply a plan's decision to the module, returning the
      :class:`CommitEvents` describing what it touched;
    * ``query_key`` - the current candidate ranking of an entry, in the
      plan's comparable ``candidate_key`` form;
    * ``absorb`` - account an *accepted* plan's counters (candidates
      evaluated, codegen failures, prunes) into the report.  Discarded
      plans - stale entries and conflict-requeued work - are never
      absorbed, so the reported counters match the serial engine exactly.
    * ``content_key`` (optional) - a stable content address for an entry's
      function body (the engine supplies the linearization's canonical
      digest).  When present, the scheduler plans **cache-aware**: batch
      entries whose content duplicates an earlier entry in the same batch
      are planned in a second wave, after the first wave has populated the
      alignment cache, so duplicate candidate pairs run the DP once and the
      duplicates hit.  Planning is read-only and both waves see the same
      module state, so decisions are unchanged; only the plan order within
      the batch moves, never the commit order.
    """

    def __init__(self, plan: Callable[[str], Optional[MergePlan]],
                 commit: Callable[[MergePlan], CommitEvents],
                 query_key: Callable[[str, int], tuple],
                 absorb: Callable[[MergePlan], None],
                 executor: PlanExecutor,
                 batch_size: Optional[int] = None,
                 content_key: Optional[Callable[[str], Optional[bytes]]] = None,
                 prefetch: Optional[Callable[[List[str]],
                                             List[PendingAlignment]]] = None,
                 store: Optional[Callable[[tuple, str, int], None]] = None,
                 adaptive: bool = False,
                 on_offload: Optional[Callable[[float], None]] = None):
        self.plan = plan
        self.commit = commit
        self.query_key = query_key
        self.absorb = absorb
        self.executor = executor
        self.content_key = content_key
        self.prefetch = prefetch
        self.store = store
        self.on_offload = on_offload
        self._offloading = (executor.offloads_alignment
                            and prefetch is not None and store is not None)
        if batch_size is None:
            if self._offloading:
                # the offload amortizes dispatch over the batch; even one
                # worker wants a few entries per round
                batch_size = max(4, executor.jobs * 4)
            else:
                batch_size = 1 if executor.jobs <= 1 else executor.jobs * 4
        self.batch_size = max(1, batch_size)
        self._sizer = (AdaptiveBatchSizer(self.batch_size, executor.jobs)
                       if adaptive else None)
        self.stats: Dict[str, int] = {
            "jobs": executor.jobs,
            "batch_size": self.batch_size,
            "batches": 0,
            "planned": 0,
            "committed": 0,
            "stale_entries": 0,
            "conflicts": 0,
            "replans": 0,
            "wasted_evaluations": 0,
            "content_dup_deferred": 0,
            "offload_tasks": 0,
            "offload_rounds": 0,
            "offload_bytes_saved": 0,
            "offload_wall_seconds": 0.0,
            "offload_worker_seconds": 0.0,
            "offload_retries": 0,
            "offload_pool_recycles": 0,
            "offload_deadline_timeouts": 0,
            "offload_inprocess_fallbacks": 0,
            "plan_wall_seconds": 0.0,
            "batch_size_trace": [],
        }
        #: Called after every commit with (plan, events) - used by tests to
        #: cross-check incremental state against from-scratch rebuilds.
        self.on_commit: Optional[Callable[[MergePlan, CommitEvents], None]] = None

    # -- conflict detection ------------------------------------------------------
    def _plan_valid(self, plan: MergePlan, dirty: frozenset) -> bool:
        if plan.depends_on(dirty):
            return False
        # the index changed (every commit removes two fingerprints and may
        # add one): the plan stands only if it still reproduces the ranking
        return self.query_key(plan.name, plan.limit) == plan.candidate_key

    # -- planning ----------------------------------------------------------------
    def _plan_one(self, name: str) -> Optional[MergePlan]:
        """Plan one entry, naming the entry on failure (a bare exception
        escaping a batch would not say which entry it came from).
        :class:`~repro.resilience.ResilienceError` passes through unwrapped
        - planning is deterministic, so an injected plan failure is a typed
        abort, never retried."""
        try:
            fault_point("scheduler.plan_fail")
            return self.plan(name)
        except (PlanningError, ResilienceError):
            raise
        except Exception as error:
            raise PlanningError(name, error) from error

    def _plan_batch(self, batch: List[str]) -> List[Optional[MergePlan]]:
        """Plan a batch, cache-aware when a ``content_key`` is available:
        entries whose body content duplicates an earlier entry of the batch
        are deferred to a second wave so their alignments hit the cache
        entries the first wave just computed."""
        if self.content_key is None or len(batch) == 1:
            return self.executor.map(self._plan_one, batch)
        seen: set = set()
        leaders: List[int] = []
        followers: List[int] = []
        for index, name in enumerate(batch):
            key = self.content_key(name)
            if key is not None and key in seen:
                followers.append(index)
            else:
                if key is not None:
                    seen.add(key)
                leaders.append(index)
        if not followers:
            return self.executor.map(self._plan_one, batch)
        self.stats["content_dup_deferred"] += len(followers)
        plans: List[Optional[MergePlan]] = [None] * len(batch)
        for wave in (leaders, followers):
            wave_plans = self.executor.map(self._plan_one,
                                           [batch[i] for i in wave])
            for index, plan in zip(wave, wave_plans):
                plans[index] = plan
        return plans

    # -- offloaded alignment (the hydrate -> align prefix) -----------------------
    def _offload_batch(self, batch: List[str]) -> None:
        """Compute the batch's missing alignment shapes on the executor's
        worker pool and store them into the alignment cache, so the
        finish-plan step's (unchanged) pipeline runs DP-free.

        Pure prefetching: a task failure aborts planning (wrapped as
        :class:`PlanningError` naming the requesting entry), but a stored
        result can never change a decision - cached shapes are bit-identical
        to recomputation by the cache's construction.
        """
        pending = self.prefetch(batch)
        if not pending:
            return
        start = time.perf_counter()
        try:
            results, worker_seconds = self.executor.run_tasks(
                [p.task for p in pending])
        except (PlanningError, ResilienceError):
            # a ResilienceError already names its fault site and task; the
            # chaos contract needs it to surface unwrapped
            self._absorb_offload_counters()
            raise
        except Exception as error:
            self._absorb_offload_counters()
            index = getattr(error, "task_index", 0)
            entry = pending[min(index, len(pending) - 1)].entry
            raise PlanningError(entry, error) from error
        wall = time.perf_counter() - start
        for request, result in zip(pending, results):
            self.store(request.key, result.ops, result.score)
        stats = self.stats
        stats["offload_tasks"] += len(pending)
        stats["offload_rounds"] += 1
        stats["offload_bytes_saved"] = getattr(self.executor,
                                               "offload_bytes_saved", 0)
        stats["offload_wall_seconds"] += wall
        stats["offload_worker_seconds"] += worker_seconds
        self._absorb_offload_counters()
        if self.on_offload is not None:
            self.on_offload(wall)

    def _absorb_offload_counters(self) -> None:
        """Mirror the executor's resilience counters into the stats dict
        (cumulative on the executor; the stats show the current values)."""
        executor = self.executor
        for key in ("offload_retries", "offload_pool_recycles",
                    "offload_deadline_timeouts",
                    "offload_inprocess_fallbacks"):
            self.stats[key] = getattr(executor, key, 0)

    # -- driver ------------------------------------------------------------------
    def run(self, worklist: deque, available: set) -> None:
        """Drive plan/commit batches until the worklist drains.

        Any failure - a planner exception, an offload worker crash - shuts
        the executor's pool down before propagating, so no branch can leak
        worker processes even when the scheduler's owner does not
        reach its own ``close()`` path.
        """
        try:
            self._run(worklist, available)
        except BaseException:
            self.close()
            raise

    def _run(self, worklist: deque, available: set) -> None:
        stats = self.stats
        while worklist:
            batch: List[str] = []
            while worklist and len(batch) < self.batch_size:
                batch.append(worklist.popleft())

            plan_start = time.perf_counter()
            if self._offloading:
                self._offload_batch(batch)
            if len(batch) == 1:
                plans = [self._plan_one(batch[0])]
            else:
                plans = self._plan_batch(batch)
            # wall clock of the whole planning phase, offload included; the
            # per-stage seconds cover only the in-process stages
            stats["plan_wall_seconds"] += time.perf_counter() - plan_start
            stats["batches"] += 1
            stats["planned"] += len(batch)
            conflicts_before = stats["conflicts"]

            dirty: frozenset = frozenset()
            commits_in_batch = 0
            for name, plan in zip(batch, plans):
                if plan is None or name not in available:
                    # consumed (or otherwise removed) between enqueue and
                    # commit - the serial engine silently dropped these
                    stats["stale_entries"] += 1
                    if plan is not None:
                        stats["wasted_evaluations"] += plan.candidates_evaluated
                        plan.discard()
                    continue
                if commits_in_batch and not self._plan_valid(plan, dirty):
                    stats["conflicts"] += 1
                    stats["wasted_evaluations"] += plan.candidates_evaluated
                    plan.discard()
                    plan = self._plan_one(name)  # requeue: replan against
                    stats["replans"] += 1        # the current module state
                    if plan is None:
                        stats["stale_entries"] += 1
                        continue
                self.absorb(plan)
                if plan.decision is None:
                    continue
                events = self.commit(plan)
                commits_in_batch += 1
                stats["committed"] += 1
                dirty = dirty | events.dirty
                if self.on_commit is not None:
                    self.on_commit(plan, events)

            if self._sizer is not None:
                self.batch_size = self._sizer.after_batch(
                    len(batch), stats["conflicts"] - conflicts_before)
                stats["batch_size_trace"].append(self.batch_size)

    def close(self) -> None:
        """Tear the executor's pool down unconditionally (the failure path:
        the pool may be broken, and keep-alive must not leak a dead one)."""
        self.executor.close()

    def release(self) -> None:
        """End-of-run teardown: keep-alive executors survive for the next
        run, everything else closes (see :meth:`PlanExecutor.release`)."""
        self.executor.release()
