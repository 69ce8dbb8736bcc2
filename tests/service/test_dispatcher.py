"""Dispatcher tests: ordering, concurrency, backpressure, containment."""

import threading
import time

import pytest

from repro.mcp import ToolCall, ToolResult
from repro.minidb import Database
from repro.service import Dispatcher, ServiceOverloaded, SessionManager


@pytest.fixture
def db():
    database = Database(owner="admin")
    admin = database.connect("admin")
    admin.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    admin.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
    return database


@pytest.fixture
def manager(db):
    return SessionManager(db, lock_timeout_s=5.0)


class TestExecution:
    def test_call_returns_tool_result(self, manager):
        dispatcher = Dispatcher(manager, workers=2)
        token = manager.create_session("admin").token
        result = dispatcher.call(
            token, ToolCall("select", {"sql": "SELECT v FROM t WHERE id = 1"})
        )
        assert not result.is_error
        assert result.metadata["rows"] == [(10,)]
        dispatcher.close()

    def test_unknown_token_fails_fast(self, manager):
        dispatcher = Dispatcher(manager, workers=1)
        from repro.service import SessionError

        with pytest.raises(SessionError):
            dispatcher.submit("bogus", ToolCall("select", {"sql": "SELECT 1"}))
        dispatcher.close()

    def test_handler_exception_becomes_error_result(self, manager):
        def broken(session, call):
            raise RuntimeError("boom")

        dispatcher = Dispatcher(manager, workers=1, handler=broken)
        token = manager.create_session("admin").token
        result = dispatcher.call(token, ToolCall("select", {"sql": "SELECT 1"}))
        assert result.is_error
        assert result.error_code == "RuntimeError"
        # the worker survived: a second request still executes
        result2 = dispatcher.call(token, ToolCall("select", {"sql": "SELECT 1"}))
        assert result2.is_error  # same broken handler, but it RAN
        dispatcher.close()


class TestFuture:
    """A PendingResult parks its waiters on one bare lock: each waiter
    must pass it on, and a timed-out wait must leave it usable."""

    @pytest.fixture
    def gated(self, manager):
        gate = threading.Event()

        def handler(session, call):
            gate.wait(10.0)
            return ToolResult.ok("done")

        dispatcher = Dispatcher(manager, workers=1, handler=handler)
        token = manager.create_session("admin").token
        yield dispatcher, token, gate
        gate.set()
        dispatcher.close()

    def test_timeout_then_a_later_call_succeeds(self, gated):
        dispatcher, token, gate = gated
        future = dispatcher.submit(token, ToolCall("noop", {}))
        with pytest.raises(TimeoutError):
            future.result(timeout=0.05)
        gate.set()
        assert future.result(timeout=5.0).content == "done"

    def test_every_call_and_every_waiter_gets_the_same_result(self, gated):
        dispatcher, token, gate = gated
        future = dispatcher.submit(token, ToolCall("noop", {}))
        seen = []
        waiters = [
            threading.Thread(
                target=lambda: seen.append(future.result(timeout=5.0)),
                daemon=True,
            )
            for _ in range(2)
        ]
        for waiter in waiters:
            waiter.start()
        time.sleep(0.05)  # both parked before the resolve
        gate.set()
        for waiter in waiters:
            waiter.join(timeout=10.0)
        seen.append(future.result(timeout=1.0))
        seen.append(future.result(timeout=1.0))
        assert len(seen) == 4
        assert all(result is seen[0] for result in seen)

    def test_done_flips_when_resolved(self, gated):
        dispatcher, token, gate = gated
        future = dispatcher.submit(token, ToolCall("noop", {}))
        assert not future.done()
        gate.set()
        future.result(timeout=5.0)
        assert future.done()


class TestOrdering:
    def test_per_session_fifo(self, manager):
        """One session's requests execute in submission order even with
        many workers."""
        seen = []
        guard = threading.Lock()

        def recording(session, call):
            with guard:
                seen.append(call.args["n"])
            time.sleep(0.002)
            return ToolResult.ok("done")

        dispatcher = Dispatcher(manager, workers=8, handler=recording)
        token = manager.create_session("admin").token
        futures = [
            dispatcher.submit(token, ToolCall("noop", {"n": n}))
            for n in range(50)
        ]
        for future in futures:
            future.result(timeout=30.0)
        assert seen == list(range(50))
        dispatcher.close()

    @pytest.mark.parametrize("workers", [4, 1])
    def test_sessions_run_concurrently(self, manager, workers):
        """K sessions on K workers are all in flight at once: each handler
        waits on a K-party barrier, which only opens when every one has
        arrived. One worker runs one handler at a time, so there the
        barrier can never fill, and each wait ends in its timeout."""
        sessions = 4
        in_flight = {"now": 0, "peak": 0}
        guard = threading.Lock()
        barrier = threading.Barrier(sessions, timeout=10 if workers > 1 else 0.05)

        def meeting(session, call):
            with guard:
                in_flight["now"] += 1
                in_flight["peak"] = max(in_flight["peak"], in_flight["now"])
            try:
                barrier.wait()
                met = True
            except threading.BrokenBarrierError:
                met = False
            with guard:
                in_flight["now"] -= 1
            return ToolResult.ok(met)

        dispatcher = Dispatcher(manager, workers=workers, handler=meeting)
        tokens = [manager.create_session("admin").token for _ in range(sessions)]
        futures = [
            dispatcher.submit(token, ToolCall("noop", {})) for token in tokens
        ]
        met = [future.result(timeout=30.0).content for future in futures]
        dispatcher.close()
        if workers > 1:
            assert met == [True] * sessions  # the barrier filled: all at once
            assert in_flight["peak"] == sessions
        else:
            assert met == [False] * sessions
            assert in_flight["peak"] == 1


class TestBackpressure:
    def test_admission_queue_rejects_when_full(self, manager):
        release = threading.Event()

        def stalled(session, call):
            release.wait(10.0)
            return ToolResult.ok("done")

        dispatcher = Dispatcher(
            manager,
            workers=1,
            queue_limit=2,
            admission_timeout_s=0.05,
            handler=stalled,
        )
        tokens = [manager.create_session("admin").token for _ in range(3)]
        dispatcher.submit(tokens[0], ToolCall("noop", {}))
        time.sleep(0.05)  # let the worker pick it up; queue_limit counts it
        dispatcher.submit(tokens[1], ToolCall("noop", {}))
        with pytest.raises(ServiceOverloaded):
            dispatcher.submit(tokens[2], ToolCall("noop", {}))
        assert dispatcher.metrics.snapshot()["rejected"] == 1
        release.set()
        dispatcher.close()

    def test_admission_blocks_until_space(self, manager):
        """submit waits for queue space instead of failing immediately."""
        dispatcher = Dispatcher(
            manager,
            workers=1,
            queue_limit=1,
            admission_timeout_s=10.0,
            handler=lambda s, c: (time.sleep(0.02), ToolResult.ok("ok"))[1],
        )
        token = manager.create_session("admin").token
        futures = [
            dispatcher.submit(token, ToolCall("noop", {"n": n}))
            for n in range(5)  # each submit waits for the previous to drain
        ]
        for future in futures:
            assert future.result(timeout=30.0).content == "ok"
        dispatcher.close()


class TestMetrics:
    def test_snapshot_has_service_surface(self, manager):
        dispatcher = Dispatcher(manager, workers=2)
        token = manager.create_session("admin").token
        for _ in range(5):
            dispatcher.call(token, ToolCall("select", {"sql": "SELECT 1"}))
        snapshot = dispatcher.metrics.snapshot()
        assert snapshot["submitted"] == 5
        assert snapshot["completed"] == 5
        assert snapshot["active_sessions"] == 1
        assert snapshot["p50_latency_s"] > 0
        assert snapshot["p95_latency_s"] >= snapshot["p50_latency_s"]
        assert "deadlocks" in snapshot and "lock_waits" in snapshot
        dispatcher.close()

    def test_latency_runs_from_submit(self, manager):
        """``service_request_latency_seconds`` is submit to completion:
        a request queued behind a slow one of its session records its
        wait in the queue too."""
        gate = threading.Event()

        def handler(session, call):
            if call.args["n"] == 0:
                gate.wait(10.0)
            return ToolResult.ok("done")

        dispatcher = Dispatcher(manager, workers=2, handler=handler)
        recorded = []
        record_completed = dispatcher.metrics.record_completed

        def record(latency_s, *args, **kwargs):
            recorded.append(latency_s)
            record_completed(latency_s, *args, **kwargs)

        dispatcher.metrics.record_completed = record
        token = manager.create_session("admin").token
        dispatcher.submit(token, ToolCall("noop", {"n": 0}))
        submitted = time.perf_counter()
        queued = dispatcher.submit(token, ToolCall("noop", {"n": 1}))
        time.sleep(0.1)
        waited = time.perf_counter() - submitted
        gate.set()
        queued.result(timeout=5.0)
        dispatcher.close()
        assert len(recorded) == 2
        assert recorded[1] >= waited


class TestOneWorker:
    def test_matches_threaded_results(self, db):
        calls = [
            ToolCall("select", {"sql": "SELECT v FROM t ORDER BY id"}),
            ToolCall("insert", {"sql": "INSERT INTO t VALUES (3, 30)"}),
            ToolCall("select", {"sql": "SELECT SUM(v) FROM t"}),
        ]
        outputs = {}
        for workers in (1, 4):
            database = Database(owner="admin")
            admin = database.connect("admin")
            admin.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            admin.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
            manager = SessionManager(database)
            token = manager.create_session("admin").token
            dispatcher = Dispatcher(manager, workers=workers)
            outputs[workers] = [
                dispatcher.call(token, call).render() for call in calls
            ]
            dispatcher.close()
            manager.close()
        assert outputs[1] == outputs[4]

    def test_mixed_sessions_fail_nothing_and_agree_on_one_and_many_workers(self):
        """Four users interleave point reads, an indexed slice and an
        aggregate over a shared table with inserts into, and counts of,
        their own audit table (the only one each may touch), a millisecond
        of simulated I/O before each request so the threaded run overlaps
        them: no request fails, and every session reads on four workers
        what it reads on one."""
        sessions, ops = 4, 24
        outputs = {}
        for workers in (1, sessions):
            database = Database(owner="admin")
            admin = database.connect("admin")
            admin.execute(
                "CREATE TABLE customers (id INT PRIMARY KEY, city TEXT, spend INT)"
            )
            admin.execute("CREATE INDEX idx_customers_city ON customers (city)")
            admin.execute("INSERT INTO customers VALUES " + ", ".join(
                f"({i}, 'c{i % 7}', {i % 97})" for i in range(500)
            ))
            for n in range(sessions):
                database.create_user(f"u{n}")
                admin.execute(f"CREATE TABLE audit_{n} (id INT PRIMARY KEY, note TEXT)")
                admin.execute(f"GRANT SELECT ON customers TO u{n}")
                admin.execute(f"GRANT SELECT, INSERT ON audit_{n} TO u{n}")
            manager = SessionManager(database)
            tokens = [manager.create_session(f"u{n}").token for n in range(sessions)]

            def io_then_call(session, call):
                time.sleep(0.001)
                return session.call(call)

            dispatcher = Dispatcher(
                manager, workers=workers, handler=io_then_call,
                queue_limit=sessions * ops + 1,
            )
            futures = [
                (n, dispatcher.submit(tokens[n], _mixed_call(n, op)))
                for op in range(ops)
                for n in range(sessions)
            ]
            rendered = {n: [] for n in range(sessions)}
            errors = []
            for n, future in futures:
                result = future.result(timeout=30.0)
                rendered[n].append(result.render())
                if result.is_error:
                    errors.append(rendered[n][-1])
            dispatcher.close()
            manager.close()
            assert errors == []
            outputs[workers] = rendered
        assert outputs[1] == outputs[sessions]


def _mixed_call(n, op):
    """Session ``n``'s request number ``op``: reads of the shared table,
    and an insert into its own audit table followed by a count of it."""
    kind = op % 6
    if kind < 2:
        sql = f"SELECT spend FROM customers WHERE id = {(n * 131 + op * 17) % 500}"
    elif kind == 2:
        sql = f"SELECT id FROM customers WHERE city = 'c{(n + op) % 7}' AND spend > 90"
    elif kind == 3:
        sql = f"SELECT COUNT(*), SUM(spend) FROM customers WHERE city = 'c{op % 7}'"
    elif kind == 4:
        return ToolCall("insert", {"sql": f"INSERT INTO audit_{n} VALUES ({op}, 'op {op}')"})
    else:
        sql = f"SELECT COUNT(*) FROM audit_{n}"
    return ToolCall("select", {"sql": sql})


class TestShutdown:
    def test_close_resolves_unrun_requests(self, manager):
        release = threading.Event()

        def stalled(session, call):
            release.wait(5.0)
            return ToolResult.ok("done")

        dispatcher = Dispatcher(
            manager, workers=1, queue_limit=10, handler=stalled
        )
        token = manager.create_session("admin").token
        first = dispatcher.submit(token, ToolCall("noop", {}))
        queued = [dispatcher.submit(token, ToolCall("noop", {})) for _ in range(3)]
        release.set()
        dispatcher.close(drain=False)
        # every future resolves one way or the other — nothing hangs
        for future in [first, *queued]:
            result = future.result(timeout=10.0)
            assert result.content in ("done",) or result.error_code == "ServiceShutdown"

    def test_submit_after_close_rejects(self, manager):
        dispatcher = Dispatcher(manager, workers=1)
        token = manager.create_session("admin").token
        dispatcher.close()
        with pytest.raises(ServiceOverloaded):
            dispatcher.submit(token, ToolCall("noop", {}))

    def test_close_wakes_admission_blocked_submitters(self, manager):
        """Regression: close() must notify submitters waiting for queue
        space (they fail fast instead of sleeping out their admission
        timeout), and a submit racing with close must never leave a
        future that nothing resolves."""
        release = threading.Event()

        def stalled(session, call):
            release.wait(10.0)
            return ToolResult.ok("done")

        dispatcher = Dispatcher(
            manager,
            workers=1,
            queue_limit=1,
            admission_timeout_s=30.0,
            handler=stalled,
        )
        token = manager.create_session("admin").token
        first = dispatcher.submit(token, ToolCall("noop", {}))
        outcome = {}

        def blocked_submit():
            try:
                outcome["future"] = dispatcher.submit(
                    token, ToolCall("noop", {})
                )
            except ServiceOverloaded:
                outcome["rejected"] = True

        thread = threading.Thread(target=blocked_submit, daemon=True)
        thread.start()
        time.sleep(0.1)  # let it block on admission (queue is full)
        release.set()
        dispatcher.close(drain=False)
        thread.join(timeout=5.0)  # well under the 30s admission timeout
        assert not thread.is_alive()
        assert outcome  # it either got in or was rejected — never lost
        if "future" in outcome:  # admitted in the race window: resolves
            result = outcome["future"].result(timeout=5.0)
            assert (
                result.content == "done"
                or result.error_code == "ServiceShutdown"
            )
        assert first.result(timeout=5.0).content == "done"
