"""Merge-as-a-service: a long-lived daemon around one warm merge engine.

Public API:

* :class:`MergeDaemon` / :class:`DaemonConfig` — the service itself: a
  stdlib HTTP/unix-socket server owning a warm engine context (resident
  alignment cache, warm merge passes, memoized responses), bounded-queue
  backpressure, a circuit breaker and concurrent TTL-evicted
  :class:`~repro.core.engine.MergeSession`\\ s (:mod:`repro.service.daemon`).
* :class:`ServiceClient` / :class:`ServiceError` — the matching client
  (:mod:`repro.service.client`).
* :mod:`repro.service.protocol` — the JSON wire protocol: regenerative
  module payloads, edit scripts, error codes.
* ``repro-served`` / ``repro-client`` console scripts
  (:mod:`repro.service.cli`).

Warm requests skip pass and searcher construction, and repeated
modules are aligned from the resident cache;
decisions stay bit-identical to direct ``compile_module`` calls because
the daemon routes through the same pipeline seams rather than a second
merge path (``benchmarks/ci_service.py`` enforces both properties).
"""

from .client import ServiceClient, ServiceError
from .daemon import DaemonConfig, MergeDaemon, WarmContext
from .protocol import (ERROR_STATUS, METHODS, ProtocolError, build_edits,
                       build_module, jsonable_decisions)

__all__ = [
    "MergeDaemon", "DaemonConfig", "WarmContext",
    "ServiceClient", "ServiceError",
    "ProtocolError", "ERROR_STATUS", "METHODS",
    "build_module", "build_edits", "jsonable_decisions",
]
