"""Concurrent multi-session service layer over one shared database.

This package is the step from "one BridgeScope per database user" (the
paper's deployment unit) to a front-end that serves many concurrent
agent sessions against one shared, durable :class:`~repro.minidb.Database`
— the same decomposition production DBMS front-ends use:

* :class:`SessionManager` — session lifecycle: authenticate against the
  database's roles, hand each session its own BridgeScope toolkit
  (per-user privileges, per-session transactions), expire idle sessions.
* :class:`LockManager` — table-level shared/exclusive locks with FIFO
  fairness, upgrade support, timeouts, and wait-for-graph deadlock
  detection; acquired by the executor per statement, held to transaction
  end (strict 2PL ⇒ serializable at table granularity).
* :class:`Dispatcher` — threaded worker pool with a bounded admission
  queue (backpressure) and per-session FIFO ordering; executes
  ``ToolCall``s and resolves futures with ``ToolResult``s; with one
  worker it serializes every request.
* :class:`ServiceMetrics` — active sessions, queue depth, lock waits,
  deadlocks, p50/p95 latency.
"""

from .dispatcher import (
    Dispatcher,
    PendingResult,
    ServiceOverloaded,
)
from .locks import EXCLUSIVE, SHARED, LockManager
from .metrics import ServiceMetrics
from .retry import (
    RetryPolicy,
    is_retryable_error,
    retryable_result,
    run_with_retries,
)
from .sessions import ServiceSession, SessionError, SessionManager

__all__ = [
    "Dispatcher",
    "PendingResult",
    "ServiceOverloaded",
    "LockManager",
    "SHARED",
    "EXCLUSIVE",
    "ServiceMetrics",
    "SessionManager",
    "ServiceSession",
    "SessionError",
    "RetryPolicy",
    "run_with_retries",
    "retryable_result",
    "is_retryable_error",
]
