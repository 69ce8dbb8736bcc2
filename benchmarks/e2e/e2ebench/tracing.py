"""Spans around the program's layer boundaries, recorded from outside.

The traced run replaces public functions of the system with wrappers that
record one span per call (name, start, end, parent, call id, episode id)
and restores them afterwards. Nothing under ``src/`` knows about this.

A span name is ``<layer>/<operation>``; the layer is the module that owns
the wrapped function. *busy* is a span's duration, *self* its duration
minus the part its child spans cover. Self times partition the time the
clients spent inside tool calls, so per-layer self times plus the
``client`` residual (benchmark loop between calls) sum to traced wall time.

Spans live in one flat ``array('q')`` per thread (six slots per span, so a
few hundred thousand spans cost a few MB and no garbage-collector work)
and are analysed and written as JSONL only after the measured phase ends.
"""

from __future__ import annotations

import functools
import threading
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Iterator

clock = time.perf_counter_ns

#: slots per span in a thread buffer
_NAME, _START, _END, _PARENT, _CALL, _EPISODE, _SLOTS = 0, 1, 2, 3, 4, 5, 6

#: ``ToolServer.name`` -> layer of the tool-execution span
_SERVER_LAYERS = {
    "bridgescope.context": "core.context",
    "bridgescope.execution": "core.execution",
    "bridgescope.transaction": "core.transaction",
    "bridgescope.proxy": "core.proxy",
    "mltools": "mltools",
}


class _ThreadState:
    __slots__ = ("index", "thread", "buf", "cur", "call", "episode", "counts", "links")

    def __init__(self, index: int, thread: str):
        self.index = index
        self.thread = thread
        self.buf = array("q")
        self.cur = -1  # buffer offset of the open span, -1 at top level
        self.call = -1
        self.episode = -1
        self.counts: dict[str, int] = {}
        #: (own span offset, client thread index, client span offset) for
        #: spans that continue a request handed over from another thread
        self.links: list[tuple[int, int, int]] = []


class Tracer:
    """Thread-local span stacks over per-thread span buffers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._tls = threading.local()
        self._mutex = threading.Lock()
        self.states: list[_ThreadState] = []  #: guarded by self._mutex
        #: id(ToolCall) -> (client thread index, client span offset, call
        #: id, episode id): how a call id crosses the dispatcher hand-off
        self.handoff: dict[int, tuple[int, int, int, int]] = {}

    def name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def state(self) -> _ThreadState:
        try:
            return self._tls.state
        except AttributeError:
            with self._mutex:
                state = _ThreadState(
                    len(self.states), threading.current_thread().name
                )
                self.states.append(state)
            self._tls.state = state
            return state

    def set_call(self, call_id: int, episode_id: int) -> None:
        """Stamp the spans the calling thread records next."""
        state = self.state()
        state.call = call_id
        state.episode = episode_id

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        after: Callable[[_ThreadState, int, tuple, Any], None] | None = None,
        before: Callable[[_ThreadState, int, tuple], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` recording one span per call.

        ``before(state, offset, args)`` runs once the span is open and
        ``after(state, offset, args, result)`` once it has closed without
        raising; both are for counters and for renaming the span.
        """
        name_id = self.name_id(name)
        get_state = self.state

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            state = get_state()
            buf = state.buf
            offset = len(buf)
            parent = state.cur
            buf.extend((name_id, 0, 0, parent, state.call, state.episode))
            state.cur = offset
            if before is not None:
                before(state, offset, args)
            buf[offset + _START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                buf[offset + _END] = clock()
                state.cur = parent
            if after is not None:
                after(state, offset, args, result)
            return result

        return traced

    # ------------------------------------------------------------ analysis

    def analyse(self) -> "TraceSummary":
        """Per-name count/busy/self totals, link hand-offs, find roots."""
        names = self.names
        counts: dict[str, int] = {}
        root_ns = 0
        queue_wait_ns = 0
        spans = 0
        children: list[list[int]] = []
        linked: set[tuple[int, int]] = set()
        auth_id = self._name_ids.get("service.sessions/authenticate")
        lookup_id = self._name_ids.get("retrieval.cache/lookup")
        scan_id = self._name_ids.get("core.binding/distinct_values")
        build_id = self.name_id("retrieval.cache/build")
        for state in self.states:
            buf = state.buf
            child = [0] * (len(buf) // _SLOTS)
            for offset in range(0, len(buf), _SLOTS):
                parent = buf[offset + _PARENT]
                if parent >= 0:
                    child[parent // _SLOTS] += buf[offset + _END] - buf[offset + _START]
                    if buf[offset + _NAME] == scan_id and buf[parent + _NAME] == lookup_id:
                        # a lookup that scanned the column built a catalog
                        buf[parent + _NAME] = build_id
            children.append(child)
        totals = {name: [0, 0, 0] for name in names}  # count, busy, self
        maxima = {name: 0 for name in names}
        for state in self.states:
            for own, client_index, client_offset in state.links:
                # the handler ran on this thread for a client blocked on
                # another: the client span's children are the queue wait
                # (authenticate end -> handler start) and the handler
                client = self.states[client_index].buf
                handler_start = state.buf[own + _START]
                waited_from = client[client_offset + _START]
                first_child = client_offset + _SLOTS
                if (
                    first_child < len(client)
                    and client[first_child + _PARENT] == client_offset
                    and client[first_child + _NAME] == auth_id
                ):
                    waited_from = client[first_child + _END]
                wait = max(0, handler_start - waited_from)
                queue_wait_ns += wait
                children[client_index][client_offset // _SLOTS] += wait + (
                    state.buf[own + _END] - handler_start
                )
                linked.add((state.index, own))
        for state in self.states:
            buf = state.buf
            child = children[state.index]
            for key, value in state.counts.items():
                counts[key] = counts.get(key, 0) + value
            for offset in range(0, len(buf), _SLOTS):
                name = names[buf[offset + _NAME]]
                busy = buf[offset + _END] - buf[offset + _START]
                entry = totals[name]
                entry[0] += 1
                entry[1] += busy
                entry[2] += busy - child[offset // _SLOTS]
                if busy > maxima[name]:
                    maxima[name] = busy
                if buf[offset + _PARENT] < 0 and (state.index, offset) not in linked:
                    root_ns += busy
                spans += 1
        return TraceSummary(totals, maxima, counts, root_ns, queue_wait_ns, spans)

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span; ``id``/``parent`` are per-thread span
        numbers, ``link`` names the client span a handed-over span serves."""
        names = self.names
        with open(path, "w", encoding="utf-8") as out:
            for state in self.states:
                links = {
                    own: f'"{client}:{offset // _SLOTS}"'
                    for own, client, offset in state.links
                }
                buf = state.buf
                for offset in range(0, len(buf), _SLOTS):
                    parent = buf[offset + _PARENT]
                    out.write(
                        f'{{"thread":{state.index},"id":{offset // _SLOTS},'
                        f'"name":"{names[buf[offset + _NAME]]}",'
                        f'"start_ns":{buf[offset + _START]},'
                        f'"end_ns":{buf[offset + _END]},'
                        f'"parent":{parent // _SLOTS if parent >= 0 else "null"},'
                        f'"link":{links.get(offset, "null")},'
                        f'"call":{buf[offset + _CALL]},'
                        f'"episode":{buf[offset + _EPISODE]}}}\n'
                    )


class TraceSummary:
    """Totals over one traced phase, in nanoseconds and counts."""

    def __init__(
        self,
        totals: dict[str, list[int]],
        maxima: dict[str, int],
        counts: dict[str, int],
        root_ns: int,
        queue_wait_ns: int,
        spans: int,
    ):
        self.totals = totals
        self.maxima = maxima
        self.counts = counts
        #: time covered by top-level spans on the client threads
        self.root_ns = root_ns
        self.queue_wait_ns = queue_wait_ns
        self.spans = spans

    def calls(self, *names: str) -> int:
        return sum(self.totals.get(name, (0, 0, 0))[0] for name in names)

    def busy_ms(self, *names: str) -> float:
        return sum(self.totals.get(name, (0, 0, 0))[1] for name in names) / 1e6

    def self_ms(self, *names: str) -> float:
        return sum(self.totals.get(name, (0, 0, 0))[2] for name in names) / 1e6

    def max_ms(self, name: str) -> float:
        return self.maxima.get(name, 0) / 1e6

    def layer_self_ms(self) -> dict[str, float]:
        """Self time per layer (the part of a span name before ``/``)."""
        layers: dict[str, float] = {}
        for name, (_, _, self_ns) in self.totals.items():
            layer = name.split("/", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + self_ns / 1e6
        if self.queue_wait_ns:
            layers["service.dispatcher"] = (
                layers.get("service.dispatcher", 0.0) + self.queue_wait_ns / 1e6
            )
        return layers


# ---------------------------------------------------------------- the seams


def _bump(state: _ThreadState, key: str, amount: int) -> None:
    state.counts[key] = state.counts.get(key, 0) + amount


def _seams(tracer: Tracer) -> list[tuple[Any, str, Callable[..., Any]]]:
    """(owner, attribute, wrapper) for every class- and module-level seam."""
    from repro.core import execution, minidb_binding, proxy, verification
    from repro.mcp import registry, schema, server
    from repro.minidb import database, executor, transactions
    from repro.minidb.engines import durable
    from repro.retrieval import catalog, engine
    from repro.service import dispatcher, locks, sessions

    def plain(owner: Any, attr: str, name: str, **hooks: Any):
        return owner, attr, tracer.wrap(name, getattr(owner, attr), **hooks)

    server_ids = {
        server_name: tracer.name_id(f"{layer}/tool")
        for server_name, layer in _SERVER_LAYERS.items()
    }

    def name_tool_span(state: _ThreadState, offset: int, args: tuple) -> None:
        found = server_ids.get(args[0].name)
        if found is not None:
            state.buf[offset + _NAME] = found

    def count_tool_rows(state: _ThreadState, offset: int, args: tuple, result: Any) -> None:
        if isinstance(args[0], execution.ExecutionTools) and not result.is_error:
            _bump(state, "rows_returned", result.metadata.get("rowcount", 0))

    def count_rows_out(state: _ThreadState, offset: int, args: tuple, result: Any) -> None:
        _bump(state, "rows_out", len(result.rows) if result.rows else result.rowcount or 0)

    def register_handoff(state: _ThreadState, offset: int, args: tuple) -> None:
        tracer.handoff[id(args[2])] = (state.index, offset, state.call, state.episode)

    def drop_handoff(state: _ThreadState, offset: int, args: tuple, result: Any) -> None:
        tracer.handoff.pop(id(args[2]), None)

    original_compile = proxy.compile_transform

    def traced_compile(source: str) -> Callable[..., Any]:
        return tracer.wrap("core.proxy/transform", original_compile(source))

    seams = [
        plain(dispatcher.Dispatcher, "call", "service.dispatcher/call",
              before=register_handoff, after=drop_handoff),
        plain(sessions.SessionManager, "authenticate", "service.sessions/authenticate"),
        plain(sessions.ServiceSession, "call", "service.sessions/call"),
        plain(locks.LockManager, "acquire", "service.locks/acquire"),
        plain(registry.ToolRegistry, "call", "mcp.registry/call"),
        plain(registry.ToolRegistry, "owner_of", "mcp.registry/owner_of"),
        plain(server.ToolServer, "spec", "mcp.registry/spec"),
        plain(server.ToolServer, "call", "mcp.server/tool",
              before=name_tool_span, after=count_tool_rows),
        plain(schema.ToolSpec, "validate_args", "mcp.schema/validate_args"),
        plain(verification.SqlVerifier, "verify", "core.verification/verify"),
        plain(proxy.ProxyTool, "execute_unit", "core.proxy/unit"),
        (proxy, "compile_transform",
         tracer.wrap("core.proxy/transform", traced_compile)),
        plain(catalog.ValueCatalog, "top_k", "retrieval.catalog/top_k"),
        plain(engine.CatalogCache, "lookup", "retrieval.cache/lookup"),
        plain(database.Session, "execute", "minidb.session/execute"),
        plain(database.Database, "authorize", "minidb.authorize/authorize"),
        plain(executor.Executor, "execute", "minidb.executor/execute",
              after=count_rows_out),
        plain(transactions.TransactionManager, "commit", "minidb.transactions/commit"),
        plain(transactions.TransactionManager, "rollback", "minidb.transactions/rollback"),
        plain(durable.DurableEngine, "append_commit", "minidb.engines/append_commit"),
        plain(durable.DurableEngine, "checkpoint", "minidb.engines/checkpoint"),
    ]
    for method in ("analyze_sql", "run_sql", "retrieve_values", "distinct_values"):
        seams.append(
            plain(minidb_binding.MinidbBinding, method, f"core.binding/{method}")
        )
    # parse/analyze as imported into the two modules that call them
    for module in (database, minidb_binding):
        seams.append(plain(module, "parse", "minidb.parser/parse"))
        seams.append(plain(module, "analyze", "minidb.analysis/analyze"))
    return seams


def seam_targets() -> list[tuple[Any, str]]:
    """(owner, attribute) of every class- and module-level seam, for
    checking that a traced run restored all of them."""
    return [(owner, attr) for owner, attr, _ in _seams(Tracer())]


@contextmanager
def installed(tracer: Tracer, dispatcher: Any | None = None) -> Iterator[None]:
    """Install every wrapper; restore the originals on exit.

    ``dispatcher`` is the live :class:`repro.service.Dispatcher` of a
    workload that has one: its public ``handler`` hook is wrapped too, and
    that span is linked to the client span that submitted the call.
    """
    restore: list[tuple[Any, str, Any]] = []
    try:
        for owner, attr, wrapper in _seams(tracer):
            # vars(): the class's own function, not a bound/inherited view
            restore.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)
        if dispatcher is not None:

            def adopt_call(state: _ThreadState, offset: int, args: tuple) -> None:
                client, client_offset, call_id, episode = tracer.handoff[id(args[1])]
                state.call, state.episode = call_id, episode
                state.buf[offset + _CALL] = call_id
                state.buf[offset + _EPISODE] = episode
                state.links.append((offset, client, client_offset))

            restore.append((dispatcher, "handler", dispatcher.handler))
            dispatcher.handler = tracer.wrap(
                "service.dispatcher/handler", dispatcher.handler, before=adopt_call
            )
        yield
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
