"""Service observability: counters, gauges, and latency percentiles.

One :class:`ServiceMetrics` instance is shared by the dispatcher, the
session manager, and (read-only) the lock manager. Counters and gauges sit
behind a single mutex; latencies go into a shared
:class:`repro.obs.metrics.Histogram` (fixed log-scale buckets), so service
and engine latencies use one quantile implementation, memory stays constant
under sustained traffic, and the ``snapshot()`` keys stay flat and
backward-compatible (``p50_latency_s``/``p95_latency_s`` now read bucket
upper bounds instead of exact windowed samples).
"""

from __future__ import annotations

import threading
from typing import Any

from ..obs.metrics import MetricsRegistry


class ServiceMetrics:
    """Thread-safe metrics surface for the multi-session service layer."""

    def __init__(self, registry: MetricsRegistry | None = None):
        self._mutex = threading.Lock()
        #: instrument registry; callers may pass a shared one (e.g. the
        #: database's) so service latencies appear in its text exposition
        self.registry = registry or MetricsRegistry()
        self._latency = self.registry.histogram(
            "service_request_latency_seconds",
            "end-to-end request latency (submit to completion)",
        )
        #: guarded by self._mutex
        self.counters = {
            "submitted": 0,
            "completed": 0,
            "errors": 0,
            "rejected": 0,
            "retryable_errors": 0,
            "storage_errors": 0,
        }
        #: latched true on the first storage failure: the backing engine
        #: went fail-stop, the service is degraded to read-only (also
        #: reflected live from the engine via :meth:`attach_engine`)
        #: guarded by self._mutex
        self._degraded = False
        #: current dispatcher queue depth (gauge, set by the dispatcher)
        #: guarded by self._mutex
        self.queue_depth = 0
        self.max_queue_depth = 0  #: guarded by self._mutex
        #: wired by the session manager / dispatcher at construction
        self._session_source: Any | None = None
        self._lock_source: Any | None = None
        self._engine_source: Any | None = None

    # -------------------------------------------------------------- wiring

    def attach_sessions(self, manager: Any) -> None:
        """Source of the ``active_sessions`` gauge (a SessionManager)."""
        self._session_source = manager

    def attach_locks(self, lock_manager: Any) -> None:
        """Source of lock-wait/deadlock counters (a LockManager)."""
        self._lock_source = lock_manager

    def attach_engine(self, engine: Any) -> None:
        """Source of the ``degraded`` flag's live half (a StorageEngine):
        a panicked engine means degraded read-only service even before
        any request has observed the failure."""
        self._engine_source = engine

    # ------------------------------------------------------------ recording

    def record_submitted(self, queue_depth: int) -> None:
        with self._mutex:
            self.counters["submitted"] += 1
            self.queue_depth = queue_depth
            self.max_queue_depth = max(self.max_queue_depth, queue_depth)

    def record_completed(
        self, latency_s: float, queue_depth: int,
        is_error: bool = False, retryable: bool = False,
    ) -> None:
        with self._mutex:
            self.counters["completed"] += 1
            if is_error:
                self.counters["errors"] += 1
            if retryable:
                self.counters["retryable_errors"] += 1
            self.queue_depth = queue_depth
        self._latency.observe(latency_s)  # histogram has its own lock

    def record_rejected(self) -> None:
        with self._mutex:
            self.counters["rejected"] += 1

    def record_storage_error(self) -> None:
        """One request hit the fail-stop engine (StorageFailedError):
        count it and latch the service as degraded."""
        with self._mutex:
            self.counters["storage_errors"] += 1
            self._degraded = True

    # ------------------------------------------------------------- reading

    def snapshot(self) -> dict[str, Any]:
        """One coherent reading of every gauge/counter the service exposes."""
        with self._mutex:
            degraded = self._degraded
            data: dict[str, Any] = {
                **self.counters,
                "queue_depth": self.queue_depth,
                "max_queue_depth": self.max_queue_depth,
            }
        data["latency_samples"] = self._latency.count
        data["p50_latency_s"] = self._latency.quantile(0.50)
        data["p95_latency_s"] = self._latency.quantile(0.95)
        if self._engine_source is not None:
            degraded = degraded or bool(
                getattr(self._engine_source, "panicked", False)
            )
        data["degraded"] = degraded
        if self._session_source is not None:
            data["active_sessions"] = self._session_source.active_count()
        if self._lock_source is not None:
            stats = self._lock_source.stats
            data["lock_waits"] = stats["waits"]
            data["lock_timeouts"] = stats["timeouts"]
            data["deadlocks"] = stats["deadlocks"]
        return data

    def metric_samples(self) -> dict[str, float]:
        """Flat ``service_``-prefixed numeric samples for a database
        registry's collector-source interface."""
        samples: dict[str, float] = {}
        for key, value in self.snapshot().items():
            if isinstance(value, bool):
                samples[f"service_{key}"] = 1.0 if value else 0.0
            elif isinstance(value, (int, float)):
                samples[f"service_{key}"] = value
        return samples
