"""Request scheduling: a threaded worker pool over the session manager.

The :class:`Dispatcher` is the service front door: clients submit
``(session token, ToolCall)`` pairs and receive
:class:`~repro.mcp.ToolResult`\\ s. Scheduling guarantees, in order of
importance:

* **Per-session FIFO.** Requests of one session run in submission order,
  one at a time — a session is a conversation with transaction state, so
  reordering (or overlapping) its statements would be nonsense. Different
  sessions run concurrently up to the worker count.
* **Bounded admission with backpressure.** The queue holds at most
  ``queue_limit`` requests across all sessions. ``submit`` blocks up to
  ``admission_timeout_s`` for space and then raises
  :class:`ServiceOverloaded` — the caller sheds load instead of the
  server accumulating it.
* **Failure containment.** A request that raises (rather than returning
  an error ToolResult, which BridgeScope already does for tool-level
  failures) resolves its future with an error result carrying the
  exception class name; workers never die. Retryable engine errors
  (deadlock victim, lock timeout) are marked ``retryable`` in the result
  metadata so agent clients know to re-issue the transaction.

The scheduling structure is a ready-queue of session tokens: a session is
*ready* when it has pending requests and no worker is executing it.
Workers pull a token, run exactly one request, then requeue the token if
more arrived meanwhile — O(1) per hand-off, no scanning, and fair across
sessions (round-robin through the ready queue).

Each hand-off wakes its sleeper with one lock release: the ready queue is
a C ``queue.SimpleQueue``, and a :class:`PendingResult` parks its waiters
on one bare lock. (``queue.Queue`` and ``threading.Event`` wait on a
Python ``Condition``: a fresh waiter lock per wait and a second acquire
after the wake-up.) Only admission, which rarely blocks, waits on a
``Condition``.

``Dispatcher(workers=1)`` runs one request at a time: the serialized
baseline (one handler in flight, never two).
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from typing import Callable

from ..mcp import ToolCall, ToolResult
from .metrics import ServiceMetrics
from .sessions import ServiceSession, SessionError, SessionManager

#: executes one request; swap-in point for tests that hold a request in
#: flight (the default just runs the session's toolkit)
Handler = Callable[[ServiceSession, ToolCall], ToolResult]


class ServiceOverloaded(Exception):
    """Admission queue full: the service is shedding load (backpressure)."""


class PendingResult:
    """Future for one submitted request.

    Waiters park on one bare lock, held from creation until the request
    resolves: ``_resolve`` releases it once, and each ``result`` call
    acquires it and releases it again for the next waiter.
    """

    def __init__(self, session_token: str, call: ToolCall):
        self.session_token = session_token
        self.call = call
        #: submit time: the latency histogram runs from here
        self.submitted = time.perf_counter()
        self._result: ToolResult | None = None
        self._parked = threading.Lock()
        self._parked.acquire()

    def done(self) -> bool:
        return self._result is not None

    def result(self, timeout: float | None = None) -> ToolResult:
        if not self._parked.acquire(timeout=-1 if timeout is None else timeout):
            raise TimeoutError(
                f"request {self.call.tool!r} not finished within {timeout}s"
            )
        self._parked.release()
        assert self._result is not None
        return self._result

    def _resolve(self, result: ToolResult) -> None:
        self._result = result
        self._parked.release()


def _default_handler(session: ServiceSession, call: ToolCall) -> ToolResult:
    return session.call(call)


#: error codes a client should react to by re-issuing the transaction —
#: the engine classes carry ``retryable = True``, but tool servers fold
#: exceptions into ToolResults by class *name*, so the dispatcher maps
#: the names back
_RETRYABLE_CODES = frozenset({"DeadlockError", "LockTimeoutError"})

#: error codes meaning the backing storage went fail-stop: the request
#: failed because the engine refuses writes, i.e. the service is now
#: degraded to read-only (NOT retryable — re-issuing cannot succeed)
_STORAGE_CODES = frozenset({"StorageFailedError"})


def _mark_retryable(result: ToolResult) -> ToolResult:
    if result.is_error and result.error_code in _RETRYABLE_CODES:
        result.metadata["retryable"] = True
    return result


def _error_result(exc: BaseException) -> ToolResult:
    result = ToolResult.error(str(exc), code=type(exc).__name__)
    if getattr(exc, "retryable", False):
        result.metadata["retryable"] = True
    return result


class Dispatcher:
    """Threaded request scheduler with per-session FIFO ordering."""

    def __init__(
        self,
        manager: SessionManager,
        workers: int = 4,
        queue_limit: int = 64,
        admission_timeout_s: float = 5.0,
        handler: Handler | None = None,
        metrics: ServiceMetrics | None = None,
    ):
        if workers < 1:
            raise ValueError("need at least one worker")
        self.manager = manager
        self.queue_limit = queue_limit
        self.admission_timeout_s = admission_timeout_s
        self.handler = handler or _default_handler
        self.metrics = metrics or ServiceMetrics()
        self.metrics.attach_sessions(manager)
        self.metrics.attach_locks(manager.lock_manager)
        self.metrics.attach_engine(manager.db.engine)
        # re-export the service surface through the database's unified
        # registry (idempotent per prefix; last dispatcher wins)
        manager.db.metrics.attach_source("service", self.metrics.metric_samples)

        self._mutex = threading.Lock()
        self._space = threading.Condition(self._mutex)
        #: token -> FIFO of (request, session) not yet executed
        #: guarded by self._mutex
        self._pending: dict[str, deque[tuple[PendingResult, ServiceSession]]] = {}
        #: sessions with pending work and no active worker
        self._ready: "queue.SimpleQueue[str | None]" = queue.SimpleQueue()
        self._queued = 0  #: guarded by self._mutex
        self._closed = False  #: guarded by self._mutex
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"dispatcher-{n}", daemon=True
            )
            for n in range(workers)
        ]
        for worker in self._workers:
            worker.start()

    # -------------------------------------------------------------- submit

    def submit(self, token: str, call: ToolCall) -> PendingResult:
        """Enqueue one request; returns a future.

        Authenticates the token first (so dead sessions fail fast, not
        from a worker), then waits up to ``admission_timeout_s`` for
        queue space before raising :class:`ServiceOverloaded`.
        """
        if self._closed:  # staticcheck: ignore[guarded-by] — racy fail-fast read; the admission critical section below re-checks under the mutex
            self.metrics.record_rejected()
            raise ServiceOverloaded("dispatcher is shut down")
        session = self.manager.authenticate(token)
        request = PendingResult(token, call)
        deadline = time.monotonic() + self.admission_timeout_s
        with self._space:
            while self._queued >= self.queue_limit:
                if self._closed:
                    self.metrics.record_rejected()
                    raise ServiceOverloaded("dispatcher is shut down")
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self.metrics.record_rejected()
                    raise ServiceOverloaded(
                        f"admission queue full ({self.queue_limit} requests); "
                        "retry with backoff"
                    )
                self._space.wait(remaining)
            # re-check under the mutex: a close() racing with admission
            # must not let a request slip into _pending after the workers
            # exited and leftovers were flushed (its future would hang)
            if self._closed:
                self.metrics.record_rejected()
                raise ServiceOverloaded("dispatcher is shut down")
            self._queued += 1
            bucket = self._pending.get(token)
            if bucket is None:
                # no pending work and no active worker: becomes ready now
                self._pending[token] = deque([(request, session)])
                self._ready.put(token)
            else:
                # worker active or already ready: just extend its FIFO
                bucket.append((request, session))
            self.metrics.record_submitted(self._queued)
        return request

    def call(
        self, token: str, call: ToolCall, timeout: float | None = 60.0
    ) -> ToolResult:
        """Submit and wait: the synchronous client convenience."""
        return self.submit(token, call).result(timeout)

    # -------------------------------------------------------------- workers

    def _worker_loop(self) -> None:
        while True:
            token = self._ready.get()
            if token is None:  # shutdown sentinel
                return
            with self._mutex:
                bucket = self._pending.get(token)
                if not bucket:
                    # session's requests were all flushed (shutdown race)
                    self._pending.pop(token, None)
                    continue
                request, session = bucket.popleft()
            try:
                result = _mark_retryable(self.handler(session, request.call))
            except BaseException as exc:  # staticcheck: ignore[broad-except] — worker must survive anything the handler raises; _error_result folds it into an error ToolResult for the waiting client
                result = _error_result(exc)
            latency = time.perf_counter() - request.submitted
            with self._space:
                bucket = self._pending.get(token)
                if bucket:
                    # more requests arrived while we ran: stay scheduled
                    self._ready.put(token)
                else:
                    self._pending.pop(token, None)
                # clamp: a worker outliving close()'s join timeout lands
                # here after the flush already zeroed the counter
                self._queued = max(0, self._queued - 1)
                self._space.notify()
                self.metrics.record_completed(
                    latency,
                    self._queued,
                    is_error=result.is_error,
                    retryable=bool(result.metadata.get("retryable")),
                )
            if result.is_error and result.error_code in _STORAGE_CODES:
                # panic mode observed: the service is degraded read-only
                self.metrics.record_storage_error()
            request._resolve(result)

    # ------------------------------------------------------------ lifecycle

    def close(self, drain: bool = True, timeout_s: float = 30.0) -> None:
        """Stop the workers; with ``drain`` wait for queued work first."""
        with self._space:
            if self._closed:
                return
            if drain:
                deadline = time.monotonic() + timeout_s
                while self._queued > 0 and time.monotonic() < deadline:
                    self._space.wait(0.05)
            # set under the mutex so submit()'s admission critical section
            # observes it, and wake admission-blocked submitters so they
            # fail fast instead of sleeping out their full timeout
            self._closed = True
            self._space.notify_all()
        for _ in self._workers:
            self._ready.put(None)
        for worker in self._workers:
            worker.join(timeout=timeout_s)
        # fail any request that never ran; _closed is set, so no new
        # request can join _pending after this flush
        with self._space:
            leftovers = [
                request
                for bucket in self._pending.values()
                for request, _ in bucket
            ]
            self._pending.clear()
            # the flushed requests will never be worker-completed, so the
            # depth gauge must not report them queued forever
            self._queued = 0
        for request in leftovers:
            request._resolve(
                ToolResult.error("dispatcher shut down", code="ServiceShutdown")
            )

    def queue_depth(self) -> int:
        with self._mutex:
            return self._queued
