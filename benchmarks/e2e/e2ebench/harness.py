"""The closed-loop driver: phases, latency records, metrics of one run.

One run = script every episode from the seed, build the database (several
times; ``setup_s`` is the median), play a fixed number of warm-up episodes,
then measure for ``--seconds`` (or for ``--episodes`` episodes, which makes
every count repeat exactly). Each client sends its next tool call only
after the previous one returned — agents wait for tool results. Every
end-to-end figure is taken over the whole measured phase, nothing dropped,
each stretch of it divided by the machine's speed then (:class:`Probe`).

A traced run splits the measuring time into ``TRACE_CYCLES`` cycles; in each,
the first ``REFERENCE_SHARE`` runs as usual (the untraced reference for
``trace.overhead_share``) and the rest runs with the wrappers of
:mod:`.tracing` installed. End-to-end metrics are only ever reported from
a run without wrappers.
"""

from __future__ import annotations

import gc
import math
import os
import random
import resource
import shutil
import statistics
import tempfile
import threading
import time
from array import array
from typing import Any, Callable

from repro.mcp import ToolCall, ToolResult
from repro.service import RetryPolicy, retryable_result, run_with_retries

from . import spec
from .tracing import Tracer, TraceSummary, clock, installed


class Step:
    """One scripted tool call and what must come back."""

    __slots__ = ("call", "rejected", "check")

    def __init__(
        self,
        tool: str,
        args: dict[str, Any] | None = None,
        rejected: bool = False,
        check: Callable[[ToolResult], bool] | None = None,
    ):
        self.call = ToolCall(tool, args or {})
        #: the call must come back as an error (security rejection)
        self.rejected = rejected
        #: extra predicate on an accepted result, run off the episode clock
        self.check = check


def rows_are(expected: list[tuple]) -> Callable[[ToolResult], bool]:
    return lambda result: result.metadata.get("rows") == expected


def rowcount_is(expected: int) -> Callable[[ToolResult], bool]:
    return lambda result: result.metadata.get("rowcount") == expected


class Episode:
    """A scripted sequence of tool calls an agent would make for one task."""

    __slots__ = ("kind", "steps", "effect", "prelude")

    def __init__(self, kind: str, steps: list[Step], effect: Any = None, prelude: str = ""):
        self.kind = kind
        self.steps = steps
        #: change to the shadow model once the episode has finished
        self.effect = effect
        #: SQL the database owner runs before the episode (writes beside reads)
        self.prelude = prelude


class Workload:
    """Base class: a database, its clients, their scripts and an oracle."""

    name = ""
    clients = 1
    #: episodes in one block of the script's mix (``datagen.blocks``); a
    #: time-bounded phase ends on a whole block
    block = 1
    #: whole-episode retry schedule; ``None`` plays every episode once
    retry_policy: Callable[[int], RetryPolicy] | None = None

    def __init__(self, seed: int, sizes: dict[str, int], workdir: str):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.db: Any = None
        self.bridges: list[Any] = []
        self.dispatcher: Any = None
        self._builds = 0

    def fresh_dir(self) -> str:
        self._builds += 1
        return os.path.join(self.workdir, f"db-{self._builds}")

    def build(self) -> None:
        """Schema, load, ANALYZE, checkpoint, sessions and toolkits."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def script(self, client: int) -> list[Episode]:
        raise NotImplementedError

    def send(self, client: int, call: ToolCall) -> ToolResult:
        """The client-side entry point of one tool call."""
        return self.bridges[client].call(call)

    def in_transaction(self, client: int) -> bool:
        return self.bridges[client].binding.in_transaction()

    def run_prelude(self, sql: str) -> None:
        raise NotImplementedError

    def apply(self, effect: Any) -> None:
        """Advance the shadow model by one finished episode."""

    def verify(self) -> tuple[int, list[str]]:
        """Compare the shadow model with the database: (checks, mismatches)."""
        raise NotImplementedError

    def reopen(self) -> None:
        """Recover a durable database from disk (after :meth:`close`)."""
        raise NotImplementedError

    durable = False


class Probe:
    """Times a fixed piece of reference work, to tell how fast the machine is
    running right now.

    This box's cores run at anything between their full and about 60% of
    their full speed for seconds to minutes at a time, with no steal time to
    show for it; the probe is the only sign. A client makes a pass about
    every ``spec.PROBE_INTERVAL_NS``, between two episodes, and every latency
    and the wall time of the stretch between two passes are divided by
    :func:`speed` of the two. The divisor never depends on what the
    workload itself did in the stretch, and no stretch is left out.

    A pass is two kinds of work the system does all day, because the host
    disturbs them differently: a scan over a slice of dict rows scattered
    over the heap (split a string, compare, aggregate; a quarter of the
    pass) waits for memory, and slows down when other tenants crowd the
    shared cache; a character-by-character tokeniser over some SQL texts
    (three quarters) stays in the core, and slows down when the core's other
    hardware thread is busy. The 1:3 weighting tracked the four workloads
    best on recorded runs (README, "A noisy box, and reference speed").
    """

    _KEYWORDS = frozenset("SELECT FROM WHERE AND ORDER BY DESC LIMIT".split())

    def __init__(self) -> None:
        self.rows = [
            {"id": n, "name": f"row {n} of a table", "kind": "abc"[n % 3], "day": n % 365}
            for n in range(spec.PROBE_ROWS)
        ]
        random.Random(0).shuffle(self.rows)
        self.texts = [
            "SELECT task_id, priority FROM tasks "
            f"WHERE plan_id = {n} AND status = 'pending' "
            "ORDER BY priority DESC, task_id LIMIT 5"
            for n in range(spec.PROBE_TEXTS)
        ]
        self.passes = 0

    def _scan(self) -> int:
        size = spec.PROBE_SLICE
        first = self.passes * size % (len(self.rows) - size)
        total = 0
        groups: dict[str, int] = {}
        for row in self.rows[first:first + size]:
            words = row["name"].split()
            if row["day"] > 100 and words[1].startswith("1"):
                total += len(words) + row["id"] % 7
                groups[row["kind"]] = groups.get(row["kind"], 0) + 1
        return total

    def _tokenise(self) -> int:
        count = 0
        for text in self.texts:
            tokens: list[tuple[str, Any]] = []
            at, end = 0, len(text)
            while at < end:
                char = text[at]
                if char.isspace():
                    at += 1
                elif char.isalpha():
                    stop = at + 1
                    while stop < end and (text[stop].isalnum() or text[stop] == "_"):
                        stop += 1
                    word = text[at:stop]
                    upper = word.upper()
                    tokens.append(("KW", upper) if upper in self._KEYWORDS else ("ID", word))
                    at = stop
                elif char.isdigit():
                    stop = at + 1
                    while stop < end and text[stop].isdigit():
                        stop += 1
                    tokens.append(("NUM", int(text[at:stop])))
                    at = stop
                elif char == "'":
                    stop = text.index("'", at + 1)
                    tokens.append(("STR", text[at + 1:stop]))
                    at = stop + 1
                else:
                    tokens.append(("OP", char))
                    at += 1
            count += len(tokens)
        return count

    def __call__(self) -> int:
        """Nanoseconds one pass over the work takes now. Not the fastest of
        several: whatever slows the system down slows the pass down too."""
        self.passes += 1
        began = clock()
        self._scan()
        self._tokenise()
        return clock() - began


def speed(before_ns: int, after_ns: int) -> float:
    """How much slower than ``spec.PROBE_NOMINAL_NS`` the machine ran between
    two probe passes. The constant only sets the scale (figures read like
    milliseconds of this box at its fastest); comparisons do not depend on it."""
    return (before_ns + after_ns) / 2 / spec.PROBE_NOMINAL_NS


class Recorder:
    """Latencies and outcome counts of one client in one phase."""

    def __init__(self, client: int, tools: dict[str, int], probe: Probe):
        self.client = client
        self.tools = tools  # shared tool name -> small int
        self._probe = probe
        self.call_ns = array("q")
        self.call_tool = array("b")
        self.episode_ns = array("q")
        self.episode_kind: list[str] = []
        self.calls = 0  # every tool call sent
        self.finished_calls = 0  # calls of episodes that finished
        self.bad_calls = 0  # unexpected error, or accepted but must be rejected
        self.bad_checks = 0  # result predicate did not hold
        self.exhausted = 0  # episodes that ran out of retries
        self.retries = 0
        self.backoff_ns = 0
        self.messages: list[str] = []
        self.loop_ns = 0  # time in the play loop, probing excluded
        #: probe passes: before the first episode, after the last, and
        #: between two episodes whenever ``spec.PROBE_INTERVAL_NS`` have passed
        self.pass_ns = array("q")
        self.pass_began = array("q")
        self.pass_ended = array("q")
        self.pass_calls = array("q")  # len(call_ns) when the pass ran
        self.pass_episodes = array("q")  # len(episode_ns) when the pass ran
        #: the process's high-water mark of RSS at the first pass after
        #: ``spec.RSS_AFTER_WARMUPS`` times the warm-up's episodes
        self.rss_mb: float | None = None

    def probe(self) -> None:
        self.pass_began.append(clock())
        self.pass_ns.append(self._probe())
        self.pass_ended.append(clock())
        self.pass_calls.append(len(self.call_ns))
        self.pass_episodes.append(len(self.episode_ns))

    def at_reference_speed(self) -> tuple[list[float], list[float], float]:
        """Call latencies, episode latencies and time in the play loop, each
        stretch between two probe passes divided by the speed of the two."""
        calls: list[float] = []
        episodes: list[float] = []
        loop_ns = 0.0
        for n in range(len(self.pass_ns) - 1):
            slower = speed(self.pass_ns[n], self.pass_ns[n + 1])
            calls += [
                ns / slower for ns in self.call_ns[self.pass_calls[n]:self.pass_calls[n + 1]]
            ]
            episodes += [
                ns / slower
                for ns in self.episode_ns[self.pass_episodes[n]:self.pass_episodes[n + 1]]
            ]
            loop_ns += (self.pass_began[n + 1] - self.pass_ended[n]) / slower
        return calls, episodes, loop_ns

    def fail(self, message: str) -> None:
        if len(self.messages) < 5:
            self.messages.append(message)

    @property
    def failed(self) -> int:
        return self.bad_calls + self.bad_checks + self.exhausted


def _play(
    workload: Workload,
    script: list[Episode],
    start: int,
    stop: Callable[[int], bool],
    rec: Recorder,
    tracer: Tracer | None,
    barrier: threading.Barrier | None,
) -> int:
    """Run ``script[start:]`` until ``stop(done)``; returns the next index."""
    client = rec.client
    send = workload.send
    tools = rec.tools
    sleep: Callable[[float], None] = time.sleep
    if tracer is not None:
        sleep = tracer.wrap("service.retry/backoff", time.sleep)
    policy = workload.retry_policy(client) if workload.retry_policy else None
    index = start
    episode_id = 0
    steps: list[Step] = []
    results: list[ToolResult] = []

    def attempt() -> ToolResult:
        """One pass over the current episode's steps; the first unexpected
        outcome ends it (a retryable one makes the retry loop start over)."""
        results.clear()
        for step in steps:
            call = step.call
            if tracer is not None:
                tracer.set_call(client * 1_000_000_000 + rec.calls, episode_id)
            began = clock()
            result = send(client, call)
            rec.call_ns.append(clock() - began)
            rec.call_tool.append(tools[call.tool])
            rec.calls += 1
            results.append(result)
            if result.is_error != step.rejected:
                break
        return result

    def note_retry(attempt_number: int, failure: Any) -> None:
        rec.retries += 1

    def timed_sleep(seconds: float) -> None:
        began = clock()
        sleep(seconds)
        rec.backoff_ns += clock() - began

    interval = spec.PROBE_INTERVAL_NS
    rss_after = spec.RSS_AFTER_WARMUPS * workload.sizes["warmup"]
    if barrier is not None:
        barrier.wait()
    loop_start = clock()
    rec.probe()
    while index < len(script) and not stop(index - start):
        if clock() - rec.pass_ended[-1] >= interval:
            rec.probe()
            if rec.rss_mb is None and index - start >= rss_after:
                rec.rss_mb = _max_rss_mb()
        episode = script[index]
        episode_id = index
        index += 1
        if episode.prelude:
            workload.run_prelude(episode.prelude)
        steps = episode.steps
        began = clock()
        if policy is None:
            last = attempt()
        else:
            last = run_with_retries(
                attempt,
                policy,
                retry_result=retryable_result,
                on_retry=note_retry,
                sleep=timed_sleep,
            )
        rec.episode_ns.append(clock() - began)
        rec.episode_kind.append(episode.kind)

        # verdict and result predicates run off the episode clock
        finished = (
            len(results) == len(steps) and last.is_error == steps[-1].rejected
        )
        if not finished:
            step = steps[len(results) - 1]
            if policy is not None and retryable_result(last):
                rec.exhausted += 1
                rec.fail(f"{episode.kind}: retries exhausted: {last.content}")
            else:
                rec.bad_calls += 1
                rec.fail(
                    f"{episode.kind}: {step.call.tool} "
                    f"{'accepted' if step.rejected else 'failed'}: {last.content!s:.200}"
                )
            if workload.in_transaction(client):
                send(client, ToolCall("rollback", {}))
            continue
        for step, result in zip(steps, results):
            if step.check is not None and not step.check(result):
                rec.bad_checks += 1
                rec.fail(
                    f"{episode.kind}: wrong result of {step.call.render():.160}: "
                    f"{result.content!s:.200}"
                )
        rec.finished_calls += len(steps)
        workload.apply(episode.effect)
    rec.probe()
    rec.loop_ns = clock() - loop_start - sum(rec.pass_ended) + sum(rec.pass_began)
    return index


class Phase:
    """The merged records of every client over one phase."""

    def __init__(self, recorders: list[Recorder], wall_ns: int):
        self.recorders = recorders
        self.wall_ns = wall_ns
        self.episodes = sum(len(rec.episode_ns) for rec in recorders)
        self._steady: list[tuple[list[float], list[float], float]] | None = None

    def at_reference_speed(self) -> list[tuple[list[float], list[float], float]]:
        """``Recorder.at_reference_speed`` of every recorder."""
        if self._steady is None:
            self._steady = [rec.at_reference_speed() for rec in self.recorders]
        return self._steady

    @classmethod
    def merged(cls, phases: list["Phase"]) -> "Phase":
        return cls(
            [rec for phase in phases for rec in phase.recorders],
            sum(phase.wall_ns for phase in phases),
        )

    def total(self, field: str) -> int:
        return sum(getattr(rec, field) for rec in self.recorders)

    @property
    def client_ns(self) -> int:
        return self.total("loop_ns")

    def by_tool(self) -> dict[str, list[float]]:
        names = {index: tool for tool, index in self.recorders[0].tools.items()}
        grouped: dict[str, list[float]] = {}
        for rec, (calls, _, _) in zip(self.recorders, self.at_reference_speed()):
            for ns, tool in zip(calls, rec.call_tool):
                grouped.setdefault(names[tool], []).append(ns)
        return {tool: sorted(values) for tool, values in sorted(grouped.items())}

    def by_kind(self) -> dict[str, list[float]]:
        grouped: dict[str, list[float]] = {}
        for rec, (_, episodes, _) in zip(self.recorders, self.at_reference_speed()):
            for ns, kind in zip(episodes, rec.episode_kind):
                grouped.setdefault(kind, []).append(ns)
        return grouped

    def messages(self) -> list[str]:
        return [message for rec in self.recorders for message in rec.messages]


def run_phase(
    workload: Workload,
    scripts: list[list[Episode]],
    cursors: list[int],
    tools: dict[str, int],
    probe: Probe,
    seconds: float | None,
    episodes: int | None,
    tracer: Tracer | None = None,
) -> Phase:
    """Play every client from its cursor for ``episodes`` or ``seconds``."""
    recorders = [Recorder(client, tools, probe) for client in range(workload.clients)]
    if episodes is not None:
        stop = lambda done: done >= episodes  # noqa: E731
    else:
        # whole blocks only: every run and every slice of a traced run then
        # holds every episode kind in the same proportion
        deadline = clock() + int(seconds * 1e9)
        block = workload.block
        stop = lambda done: done % block == 0 and clock() >= deadline  # noqa: E731
    began = clock()
    if workload.clients == 1:
        cursors[0] = _play(workload, scripts[0], cursors[0], stop, recorders[0], tracer, None)
    else:
        barrier = threading.Barrier(workload.clients)

        def client_main(client: int) -> None:
            cursors[client] = _play(
                workload, scripts[client], cursors[client], stop,
                recorders[client], tracer, barrier,
            )

        threads = [
            threading.Thread(target=client_main, args=(client,), name=f"client-{client}")
            for client in range(workload.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return Phase(recorders, clock() - began)


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile(ordered: list[int], share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _counters(workload: Workload) -> dict[str, float]:
    """The system's own public counters the per-layer table reads."""
    db = workload.db
    values: dict[str, float] = {f"planner.{k}": v for k, v in dict(db.planner_stats).items()}
    if db.engine.durable:
        for key in ("wal_appends", "wal_bytes", "wal_fsyncs", "checkpoints", "commits"):
            values[f"engine.{key}"] = db.engine.stats[key]
    if db.lock_manager is not None:
        for key, value in db.lock_manager.stats.items():
            values[f"locks.{key}"] = value
    if db.retrieval_cache is not None:
        for key, value in db.retrieval_cache.stats.items():
            values[f"cache.{key}"] = value
    for bridge in workload.bridges:
        stats = bridge.proxy.stats
        for key, value in (
            ("proxy.units", stats.units_executed),
            ("proxy.producer_calls", stats.producer_calls),
            ("proxy.values_routed", stats.values_routed),
            ("verifier.verified", bridge.verifier.verified),
            ("verifier.rejected", bridge.verifier.rejected),
        ):
            values[key] = values.get(key, 0) + value
    return values


def _end_to_end(setup_s: float, timed: Phase, rss_mb: float) -> dict[str, float]:
    """The gated figures, over the whole measured phase at reference speed."""
    steady = timed.at_reference_speed()
    call_ns = sorted(ns for calls, _, _ in steady for ns in calls)
    episode_ns = sorted(ns for _, episodes, _ in steady for ns in episodes)
    # the clients run side by side: the phase lasted as long as one of them
    wall_s = statistics.fmean(loop_ns for _, _, loop_ns in steady) / 1e9
    return {
        "setup_s": setup_s,
        "tool_calls_per_s": timed.total("finished_calls") / wall_s,
        "tool_call_p50_ms": percentile(call_ns, 0.50) / 1e6,
        "tool_call_p95_ms": percentile(call_ns, 0.95) / 1e6,
        "episode_p50_ms": percentile(episode_ns, 0.50) / 1e6,
        "episode_p95_ms": percentile(episode_ns, 0.95) / 1e6,
        "peak_rss_mb": rss_mb,
    }


def _overhead_share(reference: Phase, traced: Phase) -> float:
    """Extra episode time under tracing, weighting each episode kind by how
    often the traced phase ran it (the two phases see different mixes).
    Both at reference speed: the box changes speed between two slices by
    more than tracing costs."""
    untraced = {kind: statistics.fmean(ns) for kind, ns in reference.by_kind().items()}
    extra = base = 0.0
    for kind, ns in traced.by_kind().items():
        if kind in untraced:
            extra += sum(ns) - len(ns) * untraced[kind]
            base += len(ns) * untraced[kind]
    return extra / base if base else 0.0


def _per_layer(
    summary: TraceSummary,
    delta: dict[str, float],
    reference: Phase,
    traced: Phase,
    retrying: bool,
    max_queue_depth: int,
    recovery_ms: float,
) -> dict[str, float]:
    s = summary
    statements = s.calls("minidb.session/execute")
    lookups = s.calls("retrieval.cache/lookup", "retrieval.cache/build")
    hits = delta.get("cache.hits", 0) + delta.get("cache.persisted_hits", 0)
    commits = delta.get("engine.commits", 0)
    client_ms = traced.client_ns / 1e6
    values = {
        "mcp.registry.calls": s.calls("mcp.registry/call"),
        "mcp.registry.lookup_ms": s.self_ms("mcp.registry/owner_of", "mcp.registry/spec"),
        "mcp.schema.validate_ms": s.self_ms("mcp.schema/validate_args"),
        "mcp.registry.self_ms": s.self_ms("mcp.registry/call", "mcp.server/tool"),
        "core.verification.calls": s.calls("core.verification/verify"),
        "core.verification.rejected": delta.get("verifier.rejected", 0),
        "core.verification.self_ms": s.self_ms("core.verification/verify"),
        "core.execution.self_ms": s.self_ms("core.execution/tool"),
        "core.execution.rows_returned": s.counts.get("rows_returned", 0),
        "core.context.calls": s.calls("core.context/tool"),
        "core.context.self_ms": s.self_ms("core.context/tool"),
        "core.transaction.calls": s.calls("core.transaction/tool"),
        "core.transaction.self_ms": s.self_ms("core.transaction/tool"),
        "core.proxy.units": delta.get("proxy.units", 0),
        "core.proxy.producer_calls": delta.get("proxy.producer_calls", 0),
        "core.proxy.values_routed": delta.get("proxy.values_routed", 0),
        "core.proxy.self_ms": s.self_ms("core.proxy/tool", "core.proxy/unit"),
        "core.proxy.transform_ms": s.self_ms("core.proxy/transform"),
        "core.binding.self_ms": s.self_ms(
            "core.binding/analyze_sql", "core.binding/run_sql",
            "core.binding/retrieve_values", "core.binding/distinct_values",
        ),
        "minidb.parser.calls": s.calls("minidb.parser/parse"),
        "minidb.parser.busy_ms": s.busy_ms("minidb.parser/parse"),
        "minidb.parser.calls_per_statement": (
            s.calls("minidb.parser/parse") / statements if statements else 0.0
        ),
        "minidb.analysis.calls": s.calls("minidb.analysis/analyze"),
        "minidb.analysis.busy_ms": s.busy_ms("minidb.analysis/analyze"),
        "minidb.authorize.busy_ms": s.busy_ms("minidb.authorize/authorize"),
        "minidb.session.calls": statements,
        "minidb.session.self_ms": s.self_ms("minidb.session/execute"),
        "minidb.executor.calls": s.calls("minidb.executor/execute"),
        "minidb.executor.self_ms": s.self_ms("minidb.executor/execute"),
        "minidb.executor.rows_out": s.counts.get("rows_out", 0),
        "minidb.transactions.commits": s.calls("minidb.transactions/commit"),
        "minidb.transactions.rollbacks": s.calls("minidb.transactions/rollback"),
        "minidb.transactions.commit_self_ms": s.self_ms("minidb.transactions/commit"),
        "minidb.engines.wal_appends": delta.get("engine.wal_appends", 0),
        "minidb.engines.wal_bytes": delta.get("engine.wal_bytes", 0),
        "minidb.engines.wal_fsyncs": delta.get("engine.wal_fsyncs", 0),
        "minidb.engines.wal_bytes_per_commit": (
            delta.get("engine.wal_bytes", 0) / commits if commits else 0.0
        ),
        "minidb.engines.append_busy_ms": s.busy_ms("minidb.engines/append_commit"),
        "minidb.engines.checkpoints": delta.get("engine.checkpoints", 0),
        "minidb.engines.checkpoint_ms": s.busy_ms("minidb.engines/checkpoint"),
        "minidb.engines.checkpoint_stall_max_ms": s.max_ms("minidb.engines/checkpoint"),
        "minidb.engines.recovery_ms": recovery_ms,
        "service.dispatcher.calls": s.calls("service.dispatcher/call"),
        "service.dispatcher.queue_wait_ms": s.queue_wait_ns / 1e6,
        # client span minus authenticate, queue wait and handler, plus the
        # handler's own sliver around ServiceSession.call
        "service.dispatcher.handoff_self_ms": s.self_ms(
            "service.dispatcher/call", "service.dispatcher/handler"
        ),
        "service.dispatcher.max_queue_depth": max_queue_depth,
        "service.sessions.authenticate_ms": s.busy_ms("service.sessions/authenticate"),
        "service.sessions.call_self_ms": s.self_ms("service.sessions/call"),
        "service.locks.acquires": delta.get("locks.acquisitions", 0),
        "service.locks.waits": delta.get("locks.waits", 0),
        "service.locks.wait_ms": s.busy_ms("service.locks/acquire"),
        "service.locks.deadlocks": delta.get("locks.deadlocks", 0),
        "service.locks.timeouts": delta.get("locks.timeouts", 0),
        "service.locks.upgrades": delta.get("locks.upgrades", 0),
        "service.retry.retries": traced.total("retries"),
        "service.retry.backoff_ms": traced.total("backoff_ns") / 1e6,
        "service.retry.wasted_call_share": (
            1.0 - traced.total("finished_calls") / traced.total("calls")
            if retrying and traced.total("calls") else 0.0
        ),
        "retrieval.cache.lookups": lookups,
        "retrieval.cache.hits": hits,
        "retrieval.cache.misses": delta.get("cache.misses", 0),
        "retrieval.cache.rebuilds": delta.get("cache.rebuilds", 0),
        "retrieval.cache.hit_ratio": hits / lookups if lookups else 0.0,
        "retrieval.cache.rebuild_ms": s.busy_ms("retrieval.cache/build"),
        "retrieval.catalog.top_k_calls": s.calls("retrieval.catalog/top_k"),
        "retrieval.catalog.top_k_ms": s.busy_ms("retrieval.catalog/top_k"),
        "mltools.busy_ms": s.busy_ms("mltools/tool"),
        "trace.wall_ms": client_ms,
        "trace.spans": s.spans,
        "trace.overhead_share": _overhead_share(reference, traced),
        "trace.residual_share": (traced.client_ns - s.root_ns) / traced.client_ns,
    }
    for name in (
        "seq_scans", "index_scans", "range_scans", "ordered_scans",
        "topn_limits", "hash_joins", "nested_loop_joins", "batch_scans",
    ):
        values[f"minidb.planner.{name}"] = delta.get(f"planner.{name}", 0)
    return values


def _attribution(summary: TraceSummary, traced: Phase) -> list[dict[str, Any]]:
    """Self time per layer as ms and share of traced client time; the rows
    (with the ``client`` residual) sum to that time."""
    client_ms = traced.client_ns / 1e6
    layers = summary.layer_self_ms()
    layers["client"] = client_ms - summary.root_ns / 1e6
    return [
        {"layer": layer, "self_ms": ms, "share": ms / client_ms}
        for layer, ms in sorted(layers.items(), key=lambda item: -item[1])
        if ms
    ]


def _latency_table(groups: dict[str, list[int]]) -> dict[str, dict[str, float]]:
    return {
        name: {
            "samples": len(ns),
            "p50_ms": percentile(ns, 0.50) / 1e6,
            "p95_ms": percentile(ns, 0.95) / 1e6,
            "p99_ms": percentile(ns, 0.99) / 1e6,
            "max_ms": ns[-1] / 1e6,
        }
        for name, ns in groups.items()
    }


def _measure_traced(
    workload: Workload,
    play: Callable[..., Phase],
    seconds: float,
    episodes: int | None,
    spans_path: str,
) -> tuple[Phase, Phase, TraceSummary, dict[str, float], int]:
    """Alternate untraced and traced slices, so drift over the run (growing
    tables, claimed tasks) lands on both sides alike. Returns the merged
    reference and traced phases, the span totals, the deltas of the system's
    own counters over the traced slices, and the dispatcher's queue peak."""
    cycles = spec.TRACE_CYCLES
    share = spec.REFERENCE_SHARE
    tracer = Tracer()
    delta: dict[str, float] = {}
    reference: list[Phase] = []
    traced: list[Phase] = []
    for cycle in range(cycles):
        traced_episodes = reference_episodes = None
        if episodes is not None:
            traced_episodes = episodes // cycles + (cycle < episodes % cycles)
            reference_episodes = max(1, round(traced_episodes * share / (1 - share)))
        reference.append(play(seconds * share / cycles, reference_episodes))
        before = _counters(workload)
        with installed(tracer, workload.dispatcher):
            traced.append(play(seconds * (1 - share) / cycles, traced_episodes, tracer))
        for key, value in _counters(workload).items():
            delta[key] = delta.get(key, 0) + value - before.get(key, 0)
    max_queue_depth = (
        workload.dispatcher.metrics.snapshot()["max_queue_depth"]
        if workload.dispatcher is not None else 0
    )
    summary = tracer.analyse()
    tracer.write_jsonl(spans_path)
    return Phase.merged(reference), Phase.merged(traced), summary, delta, max_queue_depth


def _check(workload: Workload) -> tuple[int, list[str], float]:
    """The oracle on the live database and — for a durable one — again after
    close and recovery: (checks, mismatches, recovery ms)."""
    checks, mismatches = workload.verify()
    recovery_ms = 0.0
    if workload.durable:
        workload.close()
        began = time.perf_counter()
        workload.reopen()
        recovery_ms = (time.perf_counter() - began) * 1e3
        recovered_checks, recovered = workload.verify()
        checks += recovered_checks
        mismatches += [f"after recovery: {text}" for text in recovered]
    workload.close()
    return checks, mismatches, recovery_ms


def run(
    workload_class: type[Workload],
    seed: int,
    seconds: float,
    trace: bool,
    sizing: dict[str, Any],
    out_dir: str,
    episodes: int | None = None,
) -> dict[str, Any]:
    """One run of one workload in this process; returns its full record."""
    name = workload_class.name
    sizes = sizing[name]
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir)
    record: dict[str, Any] = {"workload": name, "seed": seed, "traced": trace}
    try:
        workload = workload_class(seed, sizes, workdir)
        scripts = [workload.script(client) for client in range(workload.clients)]
        cursors = [0] * workload.clients
        tools: dict[str, int] = {}
        for script in scripts:
            for episode in script:
                for step in episode.steps:
                    tools.setdefault(step.call.tool, len(tools))
        probe = Probe()
        # what the benchmark itself holds (generated rows, scripted calls and
        # their expected results, the probe's rows) before the system has
        # built anything
        gc.collect()
        own_rss_mb = _max_rss_mb()
        setup_s, passes = [], [probe()]
        for build in range(sizing["setups"]):
            if build:
                workload.close()
                gc.collect()  # the last build is not the next one's to hold
            began = time.perf_counter()
            workload.build()
            setup_s.append(time.perf_counter() - began)
            passes.append(probe())
        # each build at the speed of the passes before and after it
        setup_s = [
            took / speed(*passes[build:build + 2]) for build, took in enumerate(setup_s)
        ]

        def play(
            seconds: float | None, episodes: int | None, tracer: Tracer | None = None
        ) -> Phase:
            return run_phase(workload, scripts, cursors, tools, probe, seconds, episodes, tracer)

        phases = [play(None, sizes["warmup"])]
        if trace:
            reference, timed, summary, delta, max_queue_depth = _measure_traced(
                workload, play, seconds, episodes,
                os.path.join(out_dir, f"{name}.spans.jsonl"),
            )
            phases += [reference, timed]
        else:
            timed = play(seconds, episodes)
            phases.append(timed)
        if not timed.episodes:
            raise RuntimeError(
                f"{name}: the script ran out before the measured phase; "
                "raise its 'cap' in spec.py or measure fewer --episodes"
            )
        if not trace:
            # before the oracle runs: its scans would count into peak RSS
            end_rss_mb = _max_rss_mb()
            figures = _end_to_end(
                statistics.median(setup_s), timed,
                (timed.recorders[0].rss_mb or end_rss_mb) - own_rss_mb,
            )
            samples = {
                "setup": len(setup_s),
                "tool": timed.total("calls"),
                "episode": timed.episodes,
                "peak": 1,
            }
            record["end_to_end"] = {
                metric.name: {
                    "value": figures[metric.name],
                    "unit": metric.unit,
                    "samples": samples[metric.name.split("_")[0]],
                }
                for metric in spec.END_TO_END
            }
            record["own_rss_mb"] = own_rss_mb
            record["end_rss_mb"] = end_rss_mb
            # plain clock readings are the reported figures times this
            record["speed"] = statistics.median(
                speed(*rec.pass_ns[n:n + 2])
                for rec in timed.recorders for n in range(len(rec.pass_ns) - 1)
            )
            record["per_tool"] = _latency_table(timed.by_tool())
            record["per_kind"] = _latency_table(
                {kind: sorted(ns) for kind, ns in sorted(timed.by_kind().items())}
            )
        checks, mismatches, recovery_ms = _check(workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        per_layer = _per_layer(
            summary, delta, reference, timed,
            workload.retry_policy is not None, max_queue_depth, recovery_ms,
        )
        record["per_layer"] = {
            metric.name: {"value": per_layer[metric.name], "unit": metric.unit}
            for metric in spec.PER_LAYER
        }
        record["attribution"] = _attribution(summary, timed)
        record["top_layers"] = [
            row["layer"] for row in record["attribution"] if row["layer"] != "client"
        ][:3]
    record["episodes"] = {
        "warmup": phases[0].episodes,
        "timed": timed.episodes,
        "timed_calls": timed.total("calls"),
        "finished_calls": timed.total("finished_calls"),
        "scripted_per_client": len(scripts[0]),
        "script_exhausted": any(
            cursor >= len(script) for cursor, script in zip(cursors, scripts)
        ),
    }
    record["timed_wall_s"] = timed.wall_ns / 1e9
    record["attempted"] = sum(phase.total("calls") for phase in phases) + checks
    record["failed"] = sum(
        rec.failed for phase in phases for rec in phase.recorders
    ) + len(mismatches)
    record["failed_share"] = record["failed"] / record["attempted"]
    record["oracle"] = {"checks": checks, "mismatches": mismatches[:10]}
    record["failures"] = [m for phase in phases for m in phase.messages()][:10]
    record["correct"] = record["failed"] == 0
    return record
