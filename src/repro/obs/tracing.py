"""Per-statement structured tracing.

A ``StatementTrace`` is a tree of ``Span`` nodes built while a statement
runs: ``parse`` → ``plan`` → ``lock-wait`` → ``execute`` → ``wal-flush``,
with ``checkpoint-stall``/``checkpoint`` and ``rollback`` appearing on the
paths that hit them. Durations come from ``time.perf_counter`` (monotonic),
recorded relative to statement start so span trees are self-contained.

``StatementTracer`` owns the machinery: a ``threading.local`` slot holding
the current trace (so deep engine code can attach events without plumbing a
trace argument through every call), a bounded ring buffer of finished
traces, a bounded slow-statement log, and an optional JSONL sink written
through the fault-injectable ``Filesystem`` seam.

Dark-mode contract: when tracing is off and no slow threshold is set, the
statement path never calls ``start``/``finish``; inner hooks run the same
code lit or dark — ``StatementTracer.span`` hands them the current trace's
span or, after one ``getattr`` on a thread-local, a shared no-op.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from contextlib import contextmanager, nullcontext
from typing import Any, Dict, Iterator, List, Optional

from ..faults import OS_FILESYSTEM, Filesystem


def redact_sql(sql: str) -> str:
    """Replace literal values with ``?`` so traces are safe to ship off-box.

    A tiny scanner rather than the minidb lexer: this module must not import
    ``repro.minidb`` (the database imports us), and redaction must not raise
    on malformed SQL that never parsed. String literals (with ``''``
    escapes) and numeric literals not glued to an identifier are replaced;
    quoted identifiers pass through untouched.
    """
    out: List[str] = []
    i, n = 0, len(sql)
    while i < n:
        ch = sql[i]
        if ch == "'":
            i += 1
            while i < n:
                if sql[i] == "'":
                    if i + 1 < n and sql[i + 1] == "'":
                        i += 2
                        continue
                    i += 1
                    break
                i += 1
            out.append("?")
            continue
        if ch == '"':
            j = i + 1
            while j < n and sql[j] != '"':
                j += 1
            out.append(sql[i : min(j + 1, n)])
            i = j + 1
            continue
        if ch.isdigit() and (i == 0 or not (sql[i - 1].isalnum() or sql[i - 1] in '_"')):
            j = i
            while j < n and (sql[j].isdigit() or sql[j] == "."):
                j += 1
            if j < n and sql[j] in "eE" and j + 1 < n and (
                sql[j + 1].isdigit() or sql[j + 1] in "+-"
            ):
                j += 2
                while j < n and sql[j].isdigit():
                    j += 1
            out.append("?")
            i = j
            continue
        out.append(ch)
        i += 1
    return "".join(out)


class Span:
    """One timed region inside a statement; may nest children."""

    __slots__ = ("name", "start_s", "duration_s", "meta", "children")

    def __init__(self, name: str, start_s: float, meta: Optional[Dict[str, Any]]):
        self.name = name
        self.start_s = start_s
        self.duration_s = 0.0
        self.meta = meta
        self.children: List["Span"] = []

    def to_dict(self) -> Dict[str, Any]:
        entry: Dict[str, Any] = {
            "name": self.name,
            "start_s": round(self.start_s, 9),
            "duration_s": round(self.duration_s, 9),
        }
        if self.meta:
            entry["meta"] = self.meta
        if self.children:
            entry["children"] = [child.to_dict() for child in self.children]
        return entry


class StatementTrace:
    """Span tree plus scan/join events and annotations for one statement."""

    def __init__(self, sql: str, user: str, session: Optional[str]) -> None:
        self.sql = sql
        self.user = user
        self.session = session
        self.trace_id = 0  # assigned by the tracer
        self.started_at = time.time()
        self._t0 = time.perf_counter()
        self.duration_s = 0.0
        self.status: Optional[str] = None
        self.error: Optional[str] = None
        self.error_code: Optional[str] = None
        self.retryable = False
        self.rows_returned = 0
        self.spans: List[Span] = []
        self.scans: List[Dict[str, Any]] = []
        self.joins: List[Dict[str, Any]] = []
        #: the plan a top-level SELECT ran (duck-typed: ``lines()``), and
        #: each executed plan node's event, keyed by the node itself —
        #: identity, never binding names, ties actuals to plan lines
        self.plan: Any = None
        self.actuals: Dict[Any, Dict[str, Any]] = {}
        self.annotations: Dict[str, Any] = {}
        self._stack: List[Span] = []
        self._prev: Optional["StatementTrace"] = None

    def elapsed(self) -> float:
        return time.perf_counter() - self._t0

    @contextmanager
    def span(self, name: str, **meta: Any) -> Iterator[Span]:
        node = Span(name, self.elapsed(), meta or None)
        parent = self._stack[-1] if self._stack else None
        (parent.children if parent else self.spans).append(node)
        self._stack.append(node)
        try:
            yield node
        finally:
            node.duration_s = self.elapsed() - node.start_s
            self._stack.pop()

    def close_open_spans(self) -> None:
        """Close anything left open by a non-local exit (defensive)."""
        while self._stack:
            node = self._stack.pop()
            node.duration_s = self.elapsed() - node.start_s

    def annotate(self, key: str, value: Any) -> None:
        self.annotations[key] = value

    def record_scan(
        self, node: Any, rows: int, examined: int, duration_s: float
    ) -> None:
        """One execution of a plan scan node (``binding``/``kind`` attrs)."""
        event = {
            "binding": node.binding,
            "kind": node.kind,
            "rows": rows,
            "examined": examined,
            "duration_s": duration_s,
        }
        self.scans.append(event)
        self.actuals[node] = event

    def record_join(self, node: Any, rows: int, duration_s: float) -> None:
        """One execution of a plan join node."""
        event = {
            "binding": node.right_binding,
            "strategy": node.strategy,
            "rows": rows,
            "duration_s": duration_s,
        }
        self.joins.append(event)
        self.actuals[node] = event

    def release_plan(self) -> None:
        """Drop the plan-node references once nothing will render them: a
        ringed trace must not pin the heaps and indexes its plan points at
        (a dropped table would stay alive until the ring evicts it)."""
        self.plan = None
        self.actuals = {}

    @property
    def rows_examined(self) -> int:
        return sum(event["examined"] for event in self.scans)

    @property
    def access_path(self) -> str:
        """Compact ``kind:binding`` summary of scans, e.g. ``index:t,seq:u``."""
        return ",".join(f"{e['kind']}:{e['binding']}" for e in self.scans)

    def span_seconds(self, name: str) -> float:
        """Total duration of all spans with ``name`` anywhere in the tree."""
        total = 0.0
        stack = list(self.spans)
        while stack:
            node = stack.pop()
            if node.name == name:
                total += node.duration_s
            stack.extend(node.children)
        return total

    def span_names(self) -> List[str]:
        """Depth-first span names — handy for asserting nesting in tests."""
        names: List[str] = []

        def walk(nodes: List[Span]) -> None:
            for node in nodes:
                names.append(node.name)
                walk(node.children)

        walk(self.spans)
        return names

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.trace_id,
            "started_at": self.started_at,
            "user": self.user,
            "session": self.session,
            "sql": self.sql,
            "status": self.status,
            "error": self.error,
            "error_code": self.error_code,
            "retryable": self.retryable,
            "duration_s": round(self.duration_s, 9),
            "rows_returned": self.rows_returned,
            "rows_examined": self.rows_examined,
            "access_path": self.access_path,
            "annotations": self.annotations,
            "spans": [span.to_dict() for span in self.spans],
            "scans": self.scans,
            "joins": self.joins,
        }


_NO_SPAN = nullcontext()


class StatementTracer:
    """Ring buffer + thread-local current-trace slot + JSONL sink."""

    def __init__(
        self,
        options: Dict[str, Any],
        registry=None,
        filesystem: Optional[Filesystem] = None,
        ring_size: int = 256,
        slow_log_size: int = 64,
    ) -> None:
        self.options = options  # live reference to db.observability_options
        self.registry = registry
        self.fs = filesystem or OS_FILESYSTEM
        self._mutex = threading.Lock()
        self._ring: deque = deque(maxlen=ring_size)
        self._slow: deque = deque(maxlen=slow_log_size)
        self._local = threading.local()
        self._ids = itertools.count(1)
        if registry is not None:
            self._statements = registry.counter(
                "minidb_statements_total", "statements finished under tracing"
            )
            self._errors = registry.counter(
                "minidb_statement_errors_total", "traced statements ending in error"
            )
            self._latency = registry.histogram(
                "minidb_statement_seconds", "traced statement wall time"
            )
            self._sink_errors = registry.counter(
                "minidb_trace_sink_errors_total", "JSONL sink writes that failed"
            )
        else:
            self._statements = self._errors = self._latency = self._sink_errors = None

    def configure(
        self, ring_size: Optional[int] = None, slow_log_size: Optional[int] = None
    ) -> None:
        """Resize the bounded buffers, keeping the newest entries."""
        with self._mutex:
            if ring_size is not None:
                self._ring = deque(self._ring, maxlen=ring_size)
            if slow_log_size is not None:
                self._slow = deque(self._slow, maxlen=slow_log_size)

    def current(self) -> Optional[StatementTrace]:
        return getattr(self._local, "trace", None)

    def span(self, name: str, **meta: Any):
        """A span on this thread's current trace, or a no-op context
        manager when there is none (dark mode)."""
        trace = getattr(self._local, "trace", None)
        return _NO_SPAN if trace is None else trace.span(name, **meta)

    def start(self, sql: str, user: str, session: Optional[str]) -> StatementTrace:
        if self.options.get("redact_literals"):
            sql = redact_sql(sql)
        trace = StatementTrace(sql, user, session)
        trace.trace_id = next(self._ids)
        trace._prev = self.current()
        self._local.trace = trace
        return trace

    def finish(
        self, trace: StatementTrace, status: str, error: Optional[BaseException] = None
    ) -> StatementTrace:
        trace.close_open_spans()
        trace.duration_s = trace.elapsed()
        trace.status = status
        if error is not None:
            trace.error = str(error)
            trace.error_code = getattr(error, "code", None)
            trace.retryable = bool(getattr(error, "retryable", False))
        self._local.trace = trace._prev
        if self._statements is not None:
            self._statements.inc()
            self._latency.observe(trace.duration_s)
            if error is not None:
                self._errors.inc()
        if self.options.get("tracing"):
            with self._mutex:
                self._ring.append(trace)
            sink = self.options.get("trace_sink")
            if sink:
                self._write_sink(sink, trace)
        return trace

    def probe(self) -> StatementTrace:
        """Start a throwaway trace for EXPLAIN ANALYZE event collection.

        A probe collects scan/join events exactly like a real trace but is
        never ringed, counted, or sunk; pair with :meth:`release`.
        """
        probe = StatementTrace("", user="", session=None)
        probe._prev = self.current()
        self._local.trace = probe
        return probe

    def release(self, probe: StatementTrace) -> None:
        probe.close_open_spans()
        self._local.trace = probe._prev

    def record_slow(self, entry: Dict[str, Any]) -> None:
        with self._mutex:
            self._slow.append(entry)

    def recent(self) -> List[StatementTrace]:
        """Newest-last snapshot of the finished-trace ring."""
        with self._mutex:
            return list(self._ring)

    def slow_statements(self) -> List[Dict[str, Any]]:
        with self._mutex:
            return list(self._slow)

    def _write_sink(self, path: str, trace: StatementTrace) -> None:
        line = json.dumps(trace.to_dict(), separators=(",", ":"), default=str)
        try:
            handle = self.fs.open(path, "a", encoding="utf-8")
            try:
                handle.write(line + "\n")
            finally:
                handle.close()
        except OSError:
            # The sink is best-effort observability: a full or failing disk
            # must degrade tracing, never the statement that was traced.
            if self._sink_errors is not None:
                self._sink_errors.inc()
