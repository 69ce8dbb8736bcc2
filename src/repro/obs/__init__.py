"""Unified observability layer: metrics registry, statement tracing, system views.

The package has three pillars (PR 9):

- :mod:`repro.obs.metrics` — thread-safe ``Counter``/``Gauge``/``Histogram``
  primitives behind a ``MetricsRegistry`` with Prometheus-style text
  exposition. One registry hangs off every ``Database`` and absorbs the
  previously fragmented counters (planner stats, engine WAL/checkpoint
  counters, lock-manager stats, retrieval cache stats, service metrics).
- :mod:`repro.obs.tracing` — per-statement structured traces: nested spans
  (parse → plan → lock-wait → execute → wal-flush → checkpoint-stall) with
  monotonic-clock durations, scan/join events, and retry/deadlock
  annotations, kept in a bounded ring buffer with an optional JSONL sink on
  the fault-injectable ``Filesystem`` seam.
- :mod:`repro.obs.views` — read-only virtual tables (``system.statements``,
  ``system.metrics``, ``system.locks``, ``system.sessions``) served through
  the ordinary SQL path.

The layer is zero-cost-when-dark: with ``db.observability_options`` left at
defaults the statement hot path performs one dict read and one
``threading.local`` probe, starts no trace, and every span it asks for is
one shared no-op (``tests/obs/test_tracing.py::TestDarkMode`` counts it).

Import discipline: nothing in this package imports ``repro.minidb`` at
module level (``repro.minidb.database`` imports us), so the dependency edge
stays acyclic. ``views`` duck-types the ``Database`` it is handed.
"""

from .metrics import Counter, CounterMapView, Gauge, Histogram, MetricsRegistry
from .tracing import Span, StatementTrace, StatementTracer, redact_sql
from .views import SYSTEM_VIEW_COLUMNS, is_system_relation, system_view_rows

__all__ = [
    "Counter",
    "CounterMapView",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "StatementTrace",
    "StatementTracer",
    "redact_sql",
    "SYSTEM_VIEW_COLUMNS",
    "is_system_relation",
    "system_view_rows",
]
