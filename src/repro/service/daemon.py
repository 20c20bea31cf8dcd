"""Merge-as-a-service: the warm-engine daemon.

Every ``compile_module`` call in a cold process pays the same fixed costs
before the first alignment runs: spawn a fresh worker pool (the
``"process"`` executor forks on first dispatch), build the merge pass and
its searcher.  For edit-recompile traffic - many small requests against
similar modules - those costs dominate (the compile-time setting of the
paper's Figs. 12-13).  The daemon hoists all of them into one long-lived
**warm engine context**:

* a **persistent worker pool**: one keep-alive
  :class:`~repro.core.engine.offload.ProcessExecutor` (or the serial
  executor), *leased* to every request and surviving each run's
  end-of-run :meth:`~repro.core.engine.scheduler.PlanExecutor.release`;
  failure paths still close the pool for real, and the next lease detects
  ``closed`` and rebuilds - that is the pool-recycling story for killed
  workers;
* a **resident** :class:`~repro.core.engine.AlignmentCache`, handed to
  every warm pass and session and never cleared between requests (an
  engine never clears a cache it was given), so a repeated module's
  alignments are served from memory;
* **warm merge passes**: one :class:`FunctionMergingPass` per distinct
  option signature, constructed once and reused (warm requests skip pass +
  searcher construction entirely);
* a **result cache**: module payloads are regenerative (the payload
  rebuilds a bit-identical module) and merge decisions deterministic, so a
  compile response is a pure function of ``(module payload, options)`` -
  identical requests are answered from an LRU of recorded responses
  (``result_cache_size``) without touching the engine, the ccache tier
  above the engine-level warmth and the daemon's headline latency win.

Concurrency: requests are served by :class:`ThreadingHTTPServer` (thread
per connection) behind a bounded admission semaphore - when
``queue_limit`` requests are already in flight, new work is rejected with
``busy`` (HTTP 429) instead of queueing unboundedly.  ``compile_module``
requests serialize on the warm context's engine lock (one engine, one run
at a time); sessions each own their engine and serialize only per session,
so concurrent clients can drive separate sessions in parallel.  All of
them share the leased pool (``ProcessPoolExecutor`` submits are
thread-safe) and the thread-safe resident cache.

Decisions are bit-identical to the daemon-less path by construction: the
daemon routes through the very same :func:`repro.evaluation.pipeline
.compile_module` / :func:`open_compile_session` code, merely injecting its
warm pass / resident cache / leased executor through their seams - there
is no second merge path to diverge.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from ..analysis.sanitizer import Sanitizer
from ..core.codegen import MergeOptions
from ..core.engine import AlignmentCache, PlanningError, make_executor
from ..core.pass_ import FunctionMergingPass
from ..evaluation.pipeline import compile_module, open_compile_session
from ..resilience import CLOSED, CircuitBreaker, degradation_event, fault_triggered
from . import protocol
from .protocol import ProtocolError

#: Options a request's ``options`` object may set, with defaults.  The
#: tuple of values (in this order) keys the warm-pass cache.
REQUEST_OPTIONS = (
    ("technique", "fmsa"),
    ("threshold", 1),
    ("oracle", False),
    ("run_identical_first", True),
)


@dataclass
class DaemonConfig:
    """Knobs of one daemon instance (see ``repro-served --help``)."""

    host: str = "127.0.0.1"
    port: int = 0                     # 0: ephemeral, read MergeDaemon.address
    unix_socket: Optional[str] = None  # unix path instead of TCP
    executor: str = "auto"            # plan executor kind for all requests
    jobs: Optional[int] = None        # worker count (None: engine default)
    worker_kernel: str = "auto"       # process-pool alignment kernel
    queue_limit: int = 8              # in-flight work requests before 429
    max_sessions: int = 32            # concurrent open sessions before 429
    session_ttl: float = 300.0        # idle seconds before eviction
    tick_seconds: float = 1.0         # idle-session eviction ticker period
    recycle_after: int = 0            # recycle pool after N requests (0: off)
    max_payload_bytes: int = protocol.DEFAULT_MAX_PAYLOAD_BYTES
    cache_capacity: int = 65536
    result_cache_size: int = 64       # memoized compile responses (0: off)
    target: str = "x86-64"
    #: Run the static-analysis sanitizer (verifier v2 + merge linter) on
    #: every warm pass and session; violations are *recorded* (not raised)
    #: and surface as ``sanitize_*`` counters in the ``stats`` response so
    #: deployments can alert on them.  ``None``: the ``REPRO_SANITIZE``
    #: environment variable.
    sanitize: Optional[bool] = None
    #: Per-request socket timeout (seconds): a client that stalls sending
    #: its body or reading its response is dropped - its handler thread is
    #: reclaimed - and counted in the ``request_timeouts`` stat.  0: off.
    request_timeout: float = 30.0
    #: Circuit breaker: after this many *consecutive* internal failures the
    #: daemon sheds work requests with ``unavailable`` (503 + Retry-After)
    #: instead of burning worker slots, admitting one probe per
    #: ``breaker_reset_seconds`` window until a probe succeeds.  0: off.
    breaker_threshold: int = 3
    breaker_reset_seconds: float = 5.0
    #: Executor degradation ladder: after this many consecutive worker-pool
    #: failures the warm context steps the executor down one tier
    #: (process -> serial) instead of rebuilding the same broken
    #: pool forever; a successful request resets the count.  0: off.
    degrade_after_failures: int = 3


class WarmContext:
    """The daemon's warm engine state: resident cache, leased keep-alive
    executor, warm merge passes, and the counters behind ``/stats``."""

    def __init__(self, config: DaemonConfig):
        self.config = config
        self._lock = threading.Lock()
        self.cache = AlignmentCache(capacity=config.cache_capacity)
        self._executor = None
        self.pool_spawn_seconds = 0.0
        sanitize = config.sanitize
        if sanitize is None:
            sanitize = os.environ.get("REPRO_SANITIZE", "").strip().lower() \
                not in ("", "0", "false", "no", "off")
        #: One shared recording sanitizer for every warm pass and session:
        #: a violation must never kill a service request, but the counters
        #: aggregate daemon-wide and land in the ``stats`` response.
        self.sanitizer = Sanitizer(mode="record") if sanitize else None
        self._passes: Dict[tuple, FunctionMergingPass] = {}
        self.engine_lock = threading.Lock()
        self.counters: Dict[str, int] = {
            "pool_recycles": 0,
            "pool_builds": 0,
            "warm_requests": 0,
            "cold_requests": 0,
        }
        self._requests_since_recycle = 0
        self._inflight = 0
        #: Executor degradation ladder (process -> serial): the
        #: tier future leases build, stepped down by repeated worker-pool
        #: failures.  Decisions are executor-invariant, so a degraded
        #: daemon answers identically - only slower.
        self.executor_kind: str = config.executor
        self.degradations: list = []
        self._consecutive_failures = 0

    # -- executor leasing --------------------------------------------------
    def lease_executor(self):
        """A live keep-alive executor; rebuilt (and counted as a recycle)
        when a failure path closed the previous pool.  Sessions receive
        this method as their executor factory."""
        with self._lock:
            if self._executor is None or self._executor.closed:
                start = time.perf_counter()
                executor = make_executor(self.executor_kind,
                                         self._resolve_jobs())
                # keep_alive is an attribute contract on PlanExecutor, so a
                # post-construction set covers every executor kind alike
                executor.keep_alive = True
                self.pool_spawn_seconds = time.perf_counter() - start
                if self._executor is not None:
                    self.counters["pool_recycles"] += 1
                self.counters["pool_builds"] += 1
                self._executor = executor
            return self._executor

    def _resolve_jobs(self) -> int:
        if self.config.jobs is not None:
            return max(1, int(self.config.jobs))
        return max(1, (os.cpu_count() or 2) - 1)

    def note_request_begin(self) -> None:
        with self._lock:
            self._inflight += 1

    def note_request_done(self) -> None:
        """Bookkeeping after a work request: graceful pool recycling after
        ``recycle_after`` requests, deferred while other requests are still
        in flight (a recycle closes the shared pool; the next lease
        rebuilds it)."""
        recycle = self.config.recycle_after
        with self._lock:
            self._inflight -= 1
            self._requests_since_recycle += 1
            if (recycle > 0 and self._inflight == 0
                    and self._requests_since_recycle >= recycle):
                self._requests_since_recycle = 0
                if self._executor is not None and not self._executor.closed:
                    self._executor.close()

    #: Next-lower executor tier ("auto" resolves to the process pool for
    #: jobs>1, so it degrades the same way).
    _LADDER = {"auto": "serial", "process": "serial"}

    def note_worker_failure(self) -> None:
        """A run died on a broken pool: make sure the dead executor is
        really closed so the next lease rebuilds it, and - after
        ``degrade_after_failures`` consecutive failures - step the ladder
        down one tier rather than rebuild the same broken pool forever."""
        with self._lock:
            if self._executor is not None and not self._executor.closed:
                self._executor.close()
            self._consecutive_failures += 1
            limit = self.config.degrade_after_failures
            if limit <= 0 or self._consecutive_failures < limit:
                return
            lower = self._LADDER.get(self.executor_kind)
            if lower is None:  # already at the bottom (serial)
                return
            self.degradations.append(degradation_event(
                "service-executor", self.executor_kind, lower,
                f"{self._consecutive_failures} consecutive worker failures"))
            self.executor_kind = lower
            self._consecutive_failures = 0

    def note_run_success(self) -> None:
        """A work request completed: the pool is healthy, reset the
        consecutive-failure count (the ladder only reacts to streaks)."""
        with self._lock:
            self._consecutive_failures = 0

    def current_executor_kind(self) -> str:
        with self._lock:
            return self.executor_kind

    def degradation_snapshot(self) -> list:
        with self._lock:
            return list(self.degradations)

    # -- warm passes -------------------------------------------------------
    def warm_pass(self, signature: tuple) -> Tuple[bool, FunctionMergingPass]:
        """The merge pass for one option signature; ``(warm, pass)`` where
        ``warm`` says it already existed.  Built passes carry the resident
        cache and are reused for every later request with the same options
        - the searcher/stage construction cost is paid once."""
        with self._lock:
            pass_ = self._passes.get(signature)
            if pass_ is not None:
                return True, pass_
        options = dict(zip((name for name, _ in REQUEST_OPTIONS), signature))
        pass_ = FunctionMergingPass(
            exploration_threshold=options["threshold"],
            oracle=options["oracle"],
            options=MergeOptions(),
            alignment_cache=self.cache,
            jobs=self._resolve_jobs(),
            executor=self.config.executor,
            sanitize=self.sanitizer is not None,
            sanitizer=self.sanitizer)
        with self._lock:
            self._passes[signature] = pass_
        return False, pass_

    def executor_stats(self) -> dict:
        with self._lock:
            executor = self._executor
            kind = self.executor_kind
        stats = {"executor_live": bool(executor is not None
                                       and not executor.closed),
                 "executor_kind": kind}
        if executor is not None and hasattr(executor, "worker_pids") \
                and not executor.closed:
            try:
                stats["worker_pids"] = executor.worker_pids()
            except Exception:
                stats["worker_pids"] = []
        return stats

    def close(self) -> None:
        """Final teardown: shut the shared pool down for real."""
        with self._lock:
            if self._executor is not None and not self._executor.closed:
                self._executor.close()
            self._executor = None


@dataclass
class _SessionEntry:
    session: object
    lock: threading.Lock = field(default_factory=threading.Lock)
    created: float = field(default_factory=time.monotonic)
    last_used: float = field(default_factory=time.monotonic)


class MergeDaemon:
    """The long-lived merge service (see the module docstring).

    ``start()`` binds the socket and serves on a background thread;
    ``serve_forever()`` serves on the calling thread (the CLI path).  Both
    are shut down by ``shutdown()``.
    """

    def __init__(self, config: Optional[DaemonConfig] = None):
        self.config = config or DaemonConfig()
        self.context = WarmContext(self.config)
        self.started = time.monotonic()
        self._admission = threading.BoundedSemaphore(
            max(1, self.config.queue_limit))
        self.breaker = CircuitBreaker(
            threshold=self.config.breaker_threshold,
            reset_seconds=self.config.breaker_reset_seconds)
        self._sessions: Dict[str, _SessionEntry] = {}
        self._sessions_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._stats: Dict[str, int] = {
            "requests_total": 0,
            "busy_rejections": 0,
            "errors": 0,
            "client_disconnects": 0,
            "sessions_opened": 0,
            "sessions_closed": 0,
            "sessions_evicted": 0,
            "result_cache_hits": 0,
            "request_timeouts": 0,
            "breaker_rejections": 0,
        }
        self._result_cache: "OrderedDict[str, dict]" = OrderedDict()
        self._result_cache_lock = threading.Lock()
        for method in protocol.METHODS:
            self._stats[f"requests_{method}"] = 0
        self._server = self._build_server()
        self._serve_thread: Optional[threading.Thread] = None
        self._ticker: Optional[threading.Thread] = None
        self._stopping = threading.Event()

    # -- server plumbing ---------------------------------------------------
    def _build_server(self):
        handler = _make_handler(self)
        if self.config.unix_socket:
            path = self.config.unix_socket

            class UnixHTTPServer(ThreadingHTTPServer):
                address_family = socket.AF_UNIX
                daemon_threads = True

                def server_bind(self):
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
                    self.socket.bind(path)

                def get_request(self):
                    request, _ = self.socket.accept()
                    # handlers expect a (host, port)-shaped client address
                    return request, ("local", 0)

            return UnixHTTPServer(path, handler)
        server = ThreadingHTTPServer((self.config.host, self.config.port),
                                     handler)
        server.daemon_threads = True
        return server

    @property
    def address(self) -> str:
        """Connectable address: ``host:port`` or the unix-socket path."""
        if self.config.unix_socket:
            return self.config.unix_socket
        host, port = self._server.server_address[:2]
        return f"{host}:{port}"

    def start(self) -> "MergeDaemon":
        self._serve_thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.1},
            name="merge-daemon", daemon=True)
        self._serve_thread.start()
        self._start_ticker()
        return self

    def serve_forever(self) -> None:
        self._start_ticker()
        try:
            self._server.serve_forever(poll_interval=0.1)
        finally:
            self.shutdown()

    def _start_ticker(self) -> None:
        if self._ticker is not None:
            return
        self._ticker = threading.Thread(target=self._tick_loop,
                                        name="merge-daemon-ticker",
                                        daemon=True)
        self._ticker.start()

    def _tick_loop(self) -> None:
        """Background housekeeping: idle-session eviction."""
        while not self._stopping.wait(self.config.tick_seconds):
            self._evict_idle_sessions()

    def _evict_idle_sessions(self) -> None:
        horizon = time.monotonic() - self.config.session_ttl
        stale = []
        with self._sessions_lock:
            for sid, entry in list(self._sessions.items()):
                if entry.last_used < horizon:
                    stale.append((sid, self._sessions.pop(sid)))
        for _, entry in stale:
            with entry.lock:  # let an in-flight update finish first
                entry.session.close()
        if stale:
            with self._stats_lock:
                self._stats["sessions_evicted"] += len(stale)

    def shutdown(self) -> None:
        if self._stopping.is_set():
            return
        self._stopping.set()
        self._server.shutdown()
        self._server.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5)
        with self._sessions_lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for entry in sessions:
            with entry.lock:
                entry.session.close()
        self.context.close()
        if self.config.unix_socket:
            try:
                os.unlink(self.config.unix_socket)
            except OSError:
                pass

    # -- request handling --------------------------------------------------
    def handle(self, method: str, payload: dict) -> dict:
        """Dispatch one parsed request; raises :class:`ProtocolError` for
        everything the protocol can express."""
        with self._stats_lock:
            self._stats["requests_total"] += 1
            self._stats[f"requests_{method}"] += 1
        if method == "health":
            breaker_state = self.breaker.state
            return {"ok": True, "uptime_seconds":
                    round(time.monotonic() - self.started, 3),
                    "degraded": (breaker_state != CLOSED
                                 or bool(self.context.degradation_snapshot())),
                    "breaker": breaker_state,
                    "executor_kind": self.context.current_executor_kind()}
        if method == "stats":
            return self.stats()
        # work methods: circuit breaker first (shed while the engine keeps
        # failing, with a Retry-After hint), then bounded admission
        if not self.breaker.allow():
            with self._stats_lock:
                self._stats["breaker_rejections"] += 1
            raise ProtocolError(
                "unavailable",
                "circuit breaker is open after repeated internal failures; "
                "retry later", retry_after=self.breaker.retry_after())
        if not self._admission.acquire(blocking=False):
            with self._stats_lock:
                self._stats["busy_rejections"] += 1
            raise ProtocolError(
                "busy", f"daemon is at its in-flight request limit "
                f"({self.config.queue_limit}); retry later")
        self.context.note_request_begin()
        try:
            try:
                if method == "compile_module":
                    result = self._handle_compile(payload)
                elif method == "open_session":
                    result = self._handle_open_session(payload)
                elif method == "session_update":
                    result = self._handle_session_update(payload)
                elif method == "close_session":
                    result = self._handle_close_session(payload)
                else:
                    raise ProtocolError("unknown-method",
                                        f"unknown method {method!r}")
            except ProtocolError as error:
                # only the daemon's own failures trip the breaker; client
                # mistakes (bad-request, unknown-session, ...) never do
                if error.code == "internal":
                    self.breaker.record_failure()
                raise
            except Exception:
                self.breaker.record_failure()
                raise
            self.breaker.record_success()
            self.context.note_run_success()
            return result
        finally:
            self.context.note_request_done()
            self._admission.release()

    @staticmethod
    def _parse_options(payload) -> tuple:
        options = payload.get("options", {})
        if options is None:
            options = {}
        if not isinstance(options, dict):
            raise ProtocolError("bad-request", "'options' must be an object")
        unknown = set(options) - {name for name, _ in REQUEST_OPTIONS}
        if unknown:
            raise ProtocolError("bad-request",
                                f"unknown options: {sorted(unknown)}")
        signature = []
        for name, default in REQUEST_OPTIONS:
            value = options.get(name, default)
            if not isinstance(value, type(default)) \
                    or isinstance(value, bool) != isinstance(default, bool):
                raise ProtocolError("bad-request",
                                    f"option {name!r} has a bad type")
            signature.append(value)
        return tuple(signature)

    def _result_cache_key(self, module_payload, signature) -> Optional[str]:
        """Canonical key of one compile request, or None when the request
        is not memoizable.  Module payloads are *regenerative* - the same
        payload rebuilds a bit-identical module - and merge decisions are
        deterministic, so a compile response is a pure function of
        ``(module payload, options, daemon target)``: identical requests
        can be answered from memory without touching the engine at all
        (the warmest request of all)."""
        if self.config.result_cache_size <= 0:
            return None
        try:
            return json.dumps({"module": module_payload,
                               "options": list(signature)},
                              sort_keys=True, separators=(",", ":"))
        except (TypeError, ValueError):  # non-JSON payload: parse rejects it
            return None

    def _handle_compile(self, payload: dict) -> dict:
        signature = self._parse_options(payload)
        technique = signature[0]
        if technique not in ("baseline", "identical", "soa", "fmsa"):
            raise ProtocolError("bad-request",
                                f"unknown technique {technique!r}")
        started = time.perf_counter()
        module_payload = payload.get("module")
        cache_key = self._result_cache_key(module_payload, signature)
        if cache_key is not None:
            with self._result_cache_lock:
                stored = self._result_cache.get(cache_key)
                if stored is not None:
                    self._result_cache.move_to_end(cache_key)
            if stored is not None:
                with self._stats_lock:
                    self._stats["result_cache_hits"] += 1
                with self.context._lock:
                    self.context.counters["warm_requests"] += 1
                response = dict(stored)
                response["warm"] = True
                response["result_cache_hit"] = True
                return response
        for attempt in (0, 1):
            # decode fresh per attempt: a failed run leaves the module
            # partially merged, and the payload regenerates it exactly
            module = protocol.build_module(module_payload)
            decode_seconds = time.perf_counter() - started
            try:
                with self.context.engine_lock:
                    warm, merge_pass = self.context.warm_pass(signature)
                    executor = self.context.lease_executor()
                    merge_pass.engine.executor_kind = executor
                    sanitizer = self.context.sanitizer
                    violations_before = (sanitizer.violations
                                         if sanitizer is not None else 0)
                    compile_start = time.perf_counter()
                    result = compile_module(
                        module, technique,
                        target=self.config.target,
                        threshold=signature[1], oracle=signature[2],
                        run_identical_first=signature[3],
                        merge_pass=merge_pass)
                    compile_seconds = time.perf_counter() - compile_start
                break
            except PlanningError:
                # a worker died mid-run; the scheduler closed the pool.
                # Recycle and retry once on a fresh pool + pristine module.
                self.context.note_worker_failure()
                if attempt:
                    raise ProtocolError(
                        "internal", "merge failed twice on a broken worker "
                        "pool; giving up on this request")
        with self.context._lock:
            key = "warm_requests" if warm else "cold_requests"
            self.context.counters[key] += 1
        report = result.merge_report
        decisions = (protocol.jsonable_decisions(report.decision_keys())
                     if report is not None else [])
        response = {
            "benchmark": result.benchmark,
            "technique": result.technique,
            "merge_count": result.merge_count,
            "size_baseline": result.size_baseline,
            "size_after": result.size_after,
            "reduction_percent": result.reduction_percent,
            "decisions": decisions,
            "warm": warm,
            "result_cache_hit": False,
            "sanitize_violations": (self.context.sanitizer.violations
                                    - violations_before
                                    if self.context.sanitizer is not None
                                    else None),
            "timings": {
                "decode_seconds": round(decode_seconds, 6),
                "compile_seconds": round(compile_seconds, 6),
                "merge_seconds": round(result.merge_time, 6),
            },
        }
        if cache_key is not None:
            # the stored dict is never mutated (hits return a copy), so a
            # shallow store is safe
            with self._result_cache_lock:
                self._result_cache[cache_key] = response
                self._result_cache.move_to_end(cache_key)
                while len(self._result_cache) > self.config.result_cache_size:
                    self._result_cache.popitem(last=False)
        return response

    def _handle_open_session(self, payload: dict) -> dict:
        signature = self._parse_options(payload)
        if signature[0] != "fmsa":
            raise ProtocolError("bad-request",
                                "sessions support only technique 'fmsa'")
        with self._sessions_lock:
            if len(self._sessions) >= self.config.max_sessions:
                with self._stats_lock:
                    self._stats["busy_rejections"] += 1
                raise ProtocolError(
                    "busy", f"daemon is at its session limit "
                    f"({self.config.max_sessions}); close one or retry later")
        module_payload = payload.get("module")
        for attempt in (0, 1):
            module = protocol.build_module(module_payload)
            try:
                session = open_compile_session(
                    module,
                    target=self.config.target,
                    threshold=signature[1], oracle=signature[2],
                    jobs=self.context._resolve_jobs(),
                    alignment_cache=self.context.cache,
                    session_executor=self.context.lease_executor,
                    sanitize=self.context.sanitizer is not None,
                    sanitizer=self.context.sanitizer)
                break
            except PlanningError:
                self.context.note_worker_failure()
                if attempt:
                    raise ProtocolError(
                        "internal", "session open failed twice on a broken "
                        "worker pool; giving up on this request")
        sid = uuid.uuid4().hex
        with self._sessions_lock:
            self._sessions[sid] = _SessionEntry(session=session)
        with self._stats_lock:
            self._stats["sessions_opened"] += 1
        return {
            "session": sid,
            "merge_count": session.report.merge_count,
            "decisions": protocol.jsonable_decisions(
                session.report.decision_keys()),
        }

    def _session_entry(self, payload: dict) -> Tuple[str, _SessionEntry]:
        sid = payload.get("session")
        if not isinstance(sid, str):
            raise ProtocolError("bad-request", "missing 'session' id")
        with self._sessions_lock:
            entry = self._sessions.get(sid)
        if entry is None:
            raise ProtocolError("unknown-session",
                                f"no open session {sid!r} (closed, evicted "
                                f"or never opened)")
        return sid, entry

    def _handle_session_update(self, payload: dict) -> dict:
        sid, entry = self._session_entry(payload)
        edits = protocol.build_edits(payload.get("edits", []))
        with entry.lock:
            entry.last_used = time.monotonic()
            session = entry.session
            try:
                try:
                    update = session.update(edits)
                except PlanningError:
                    # the replay died on a broken pool: the session's next
                    # update rolls the partial state back and replays; its
                    # executor factory leases the recycled pool.  The edits
                    # were already absorbed by the failed attempt.
                    self.context.note_worker_failure()
                    update = session.update([])
            except (ValueError, TypeError) as error:
                raise ProtocolError("bad-request",
                                    f"invalid edit script: {error}")
            entry.last_used = time.monotonic()
            return {
                "session": sid,
                "edits": update.edits,
                "merge_count": session.report.merge_count,
                "functions_replanned": update.functions_replanned,
                "plans_reused": update.plans_reused,
                "merges_kept": update.merges_kept,
                "update_seconds": round(update.update_seconds, 6),
                "decisions": protocol.jsonable_decisions(
                    session.report.decision_keys()),
            }

    def _handle_close_session(self, payload: dict) -> dict:
        sid, entry = self._session_entry(payload)
        with self._sessions_lock:
            self._sessions.pop(sid, None)
        with entry.lock:
            entry.session.close()
        with self._stats_lock:
            self._stats["sessions_closed"] += 1
        return {"session": sid, "closed": True}

    def note_client_disconnect(self) -> None:
        with self._stats_lock:
            self._stats["client_disconnects"] += 1

    def note_request_timeout(self) -> None:
        """A client stalled past ``request_timeout`` (or the wire died on a
        timeout): the handler thread was reclaimed, count it."""
        with self._stats_lock:
            self._stats["request_timeouts"] += 1

    def note_error(self) -> None:
        with self._stats_lock:
            self._stats["errors"] += 1

    def stats(self) -> dict:
        with self._stats_lock:
            stats = dict(self._stats)
        with self._sessions_lock:
            stats["sessions_open"] = len(self._sessions)
        with self.context._lock:
            stats.update(self.context.counters)
        stats.update(self.context.executor_stats())
        stats.update(self.context.cache.stats_dict())
        stats["pool_spawn_seconds"] = round(
            self.context.pool_spawn_seconds, 6)
        stats["sanitize_enabled"] = self.context.sanitizer is not None
        if self.context.sanitizer is not None:
            stats.update(self.context.sanitizer.stats())
        stats["uptime_seconds"] = round(time.monotonic() - self.started, 3)
        stats["queue_limit"] = self.config.queue_limit
        stats["request_timeout_seconds"] = self.config.request_timeout
        stats["breaker"] = self.breaker.snapshot()
        stats["degradations"] = self.context.degradation_snapshot()
        with self._result_cache_lock:
            stats["result_cache_entries"] = len(self._result_cache)
        return stats


def _make_handler(daemon: MergeDaemon):
    """The per-daemon HTTP handler class (closure over ``daemon``)."""

    class MergeRequestHandler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-merged/1.0"

        # -- plumbing ------------------------------------------------------
        def log_message(self, format, *args):  # noqa: A002 - stdlib name
            pass  # request logging is the client's business, not stderr's

        def setup(self):
            super().setup()
            # a slow or malicious client (stalled body, unread response)
            # must not pin a handler thread forever: every socket op is
            # bounded by the per-request timeout
            timeout = daemon.config.request_timeout
            if timeout and timeout > 0:
                self.connection.settimeout(timeout)

        def _send_json(self, status: int, payload: dict,
                       retry_after: Optional[float] = None) -> None:
            body = protocol.dump_response(payload)
            try:
                if fault_triggered("service.socket_drop"):
                    raise BrokenPipeError("injected mid-response disconnect")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                if retry_after is not None:
                    self.send_header("Retry-After",
                                     str(max(1, int(retry_after))))
                self.end_headers()
                self.wfile.write(body)
            except TimeoutError:
                # the client stopped reading its response; reclaim the
                # thread and count the stall (TimeoutError is an OSError
                # subclass, so this arm must come first)
                daemon.note_request_timeout()
                self.close_connection = True
            except (BrokenPipeError, ConnectionError, OSError):
                # the client went away mid-response; the daemon's own state
                # is already consistent - just account and carry on
                daemon.note_client_disconnect()
                self.close_connection = True

        def _method(self) -> str:
            return self.path.strip("/").split("?", 1)[0]

        def _reject(self, error: ProtocolError) -> None:
            daemon.note_error()
            # a rejected request may leave an unread body on the socket
            # (e.g. too-large rejects before reading); drop the connection
            # rather than let keep-alive misparse the leftovers
            self.close_connection = True
            self._send_json(error.status, error.to_payload(),
                            retry_after=error.retry_after)

        # -- verbs ---------------------------------------------------------
        def do_GET(self):
            method = self._method()
            if method not in ("stats", "health"):
                self._reject(ProtocolError(
                    "unknown-method",
                    f"GET serves only /stats and /health, not {self.path!r}"))
                return
            try:
                self._send_json(200, daemon.handle(method, {}))
            except ProtocolError as error:
                self._reject(error)
            except Exception as error:  # pragma: no cover - last resort
                self._reject(ProtocolError("internal",
                                           f"{type(error).__name__}: {error}"))

        def do_POST(self):
            method = self._method()
            if method not in protocol.METHODS:
                self._reject(ProtocolError("unknown-method",
                                           f"unknown method {self.path!r}"))
                return
            raw_length = self.headers.get("Content-Length")
            try:
                length = int(raw_length) if raw_length is not None else None
            except ValueError:
                self._reject(ProtocolError("bad-request",
                                           "bad Content-Length header"))
                return
            try:
                protocol.check_payload_size(
                    length, daemon.config.max_payload_bytes)
                try:
                    if fault_triggered("service.slow_client"):
                        raise TimeoutError("injected header-then-stall client")
                    body = self.rfile.read(length)
                except TimeoutError:
                    # headers arrived but the body stalled past the
                    # per-request timeout (TimeoutError before OSError:
                    # it is a subclass)
                    daemon.note_request_timeout()
                    self.close_connection = True
                    return
                except (ConnectionError, OSError):
                    daemon.note_client_disconnect()
                    self.close_connection = True
                    return
                if len(body) < length:  # client vanished mid-body
                    daemon.note_client_disconnect()
                    self.close_connection = True
                    return
                payload = protocol.parse_request(body)
                self._send_json(200, daemon.handle(method, payload))
            except ProtocolError as error:
                self._reject(error)
            except Exception as error:  # pragma: no cover - last resort
                self._reject(ProtocolError("internal",
                                           f"{type(error).__name__}: {error}"))

    return MergeRequestHandler
