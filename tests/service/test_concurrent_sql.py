"""End-to-end concurrency stress: real SQL through the threaded service.

``REPRO_STRESS_THREADS`` scales the session count (CI runs these with a
higher count than the local default to shake out scheduling races).
"""

import os
import threading
import time

import pytest

from repro.mcp import ToolCall
from repro.minidb import Database
from repro.service import (
    Dispatcher,
    RetryPolicy,
    SessionManager,
    retryable_result,
    run_with_retries,
)

STRESS_SESSIONS = int(os.environ.get("REPRO_STRESS_THREADS", "6"))


def make_db():
    db = Database(owner="admin")
    admin = db.connect("admin")
    admin.execute("CREATE TABLE counters (id INT PRIMARY KEY, val INT)")
    admin.execute("INSERT INTO counters VALUES (1, 0)")
    admin.execute("CREATE TABLE log (id INT PRIMARY KEY, who TEXT)")
    return db


def run_increments(dispatcher, manager, sessions, increments):
    """Each session commits `increments` read-modify-write transactions,
    re-issuing deadlock/timeout victims through the blessed retry
    primitive (`run_with_retries` + the result-metadata taxonomy)."""
    stats = {"committed": 0, "retries": 0, "nonretryable": 0}
    guard = threading.Lock()

    def work(index):
        token = manager.create_session("admin").token
        policy = RetryPolicy(
            max_attempts=1000, base_delay_s=0.001, max_delay_s=0.05, seed=index
        )

        def attempt():
            dispatcher.call(token, ToolCall("begin", {}))
            read = dispatcher.call(
                token,
                ToolCall("select", {"sql": "SELECT val FROM counters WHERE id = 1"}),
            )
            if read.is_error:
                # a deadlock abort already rolled the transaction back;
                # the explicit rollback is then a harmless no-op
                dispatcher.call(token, ToolCall("rollback", {}))
                return read
            value = read.metadata["rows"][0][0]
            write = dispatcher.call(
                token,
                ToolCall(
                    "update",
                    {"sql": f"UPDATE counters SET val = {value + 1} WHERE id = 1"},
                ),
            )
            if write.is_error:
                dispatcher.call(token, ToolCall("rollback", {}))
                return write
            return dispatcher.call(token, ToolCall("commit", {}))

        def note_retry(attempt_number, failure):
            with guard:
                stats["retries"] += 1

        done = 0
        while done < increments:
            result = run_with_retries(
                attempt,
                policy,
                retry_result=retryable_result,
                on_retry=note_retry,
            )
            if result.is_error:
                with guard:
                    stats["nonretryable"] += 1
                continue
            done += 1
            with guard:
                stats["committed"] += 1

    threads = [
        threading.Thread(target=work, args=(n,), daemon=True)
        for n in range(sessions)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=180.0)
    hung = [thread for thread in threads if thread.is_alive()]
    return stats, hung


class TestWriterContention:
    def test_zero_lost_updates_and_zero_hangs(self):
        """The acceptance stress: concurrent read-modify-write transactions
        on one row must serialize perfectly — every committed increment
        lands, every deadlock aborts exactly one victim retryably, and no
        session ever hangs."""
        db = make_db()
        manager = SessionManager(db, lock_timeout_s=5.0)
        dispatcher = Dispatcher(
            manager, workers=STRESS_SESSIONS, queue_limit=STRESS_SESSIONS * 4
        )
        increments = 15
        stats, hung = run_increments(
            dispatcher, manager, STRESS_SESSIONS, increments
        )
        final = db.connect("admin").scalar("SELECT val FROM counters WHERE id = 1")
        dispatcher.close()
        manager.close()

        assert not hung, f"{len(hung)} sessions hung"
        assert stats["nonretryable"] == 0, stats
        assert stats["committed"] == STRESS_SESSIONS * increments
        # THE invariant: no lost updates under S->X upgrade contention
        assert final == stats["committed"]
        # locks fully drained
        assert manager.lock_manager.waiting_count() == 0

    def test_deadlocks_were_exercised_and_detected(self):
        """With enough contention the upgrade pattern must deadlock at
        least once — and every one must have been detected (no timeouts
        needed, no hangs)."""
        db = make_db()
        manager = SessionManager(db, lock_timeout_s=30.0)
        dispatcher = Dispatcher(manager, workers=8, queue_limit=64)
        stats, hung = run_increments(dispatcher, manager, 8, 10)
        lock_stats = dict(manager.lock_manager.stats)
        dispatcher.close()
        manager.close()
        assert not hung
        assert stats["committed"] == 80
        # the 30s lock timeout never fired: detection, not timeout,
        # resolved every cycle
        assert lock_stats["timeouts"] == 0
        assert lock_stats["deadlocks"] >= 1


class TestReadersAndWriters:
    def test_readers_never_see_torn_state(self):
        """Writers move value pairs atomically (explicit transaction);
        readers locked at table level must always observe a consistent
        pair."""
        db = Database(owner="admin")
        admin = db.connect("admin")
        admin.execute("CREATE TABLE pairs (id INT PRIMARY KEY, a INT, b INT)")
        admin.execute("INSERT INTO pairs VALUES (1, 0, 0)")
        manager = SessionManager(db, lock_timeout_s=10.0)
        dispatcher = Dispatcher(manager, workers=6, queue_limit=64)

        violations = []
        stop = threading.Event()

        def writer():
            token = manager.create_session("admin").token
            for n in range(1, 31):
                while True:
                    dispatcher.call(token, ToolCall("begin", {}))
                    u1 = dispatcher.call(
                        token,
                        ToolCall("update", {"sql": f"UPDATE pairs SET a = {n} WHERE id = 1"}),
                    )
                    if u1.is_error:
                        dispatcher.call(token, ToolCall("rollback", {}))
                        continue
                    u2 = dispatcher.call(
                        token,
                        ToolCall("update", {"sql": f"UPDATE pairs SET b = {n} WHERE id = 1"}),
                    )
                    if u2.is_error:
                        dispatcher.call(token, ToolCall("rollback", {}))
                        continue
                    if not dispatcher.call(token, ToolCall("commit", {})).is_error:
                        break
            stop.set()

        def reader():
            token = manager.create_session("admin").token
            while not stop.is_set():
                result = dispatcher.call(
                    token,
                    ToolCall("select", {"sql": "SELECT a, b FROM pairs WHERE id = 1"}),
                )
                if result.is_error:
                    continue  # retryable lock error under contention
                a, b = result.metadata["rows"][0]
                if a != b:
                    violations.append((a, b))

        threads = [threading.Thread(target=writer, daemon=True)] + [
            threading.Thread(target=reader, daemon=True) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        final = db.connect("admin").query("SELECT a, b FROM pairs")[0]
        dispatcher.close()
        manager.close()
        assert violations == []
        assert final == {"a": 30, "b": 30}


class TestRetryableAborts:
    def test_lock_timeout_rolls_back_transaction(self):
        """Regression: a lock-wait timeout is surfaced as retryable, so
        it must abort the transaction like a deadlock does — otherwise a
        client retrying with BEGIN hits a nested-transaction error while
        the stale locks linger until session teardown."""
        from repro.minidb.errors import LockTimeoutError
        from repro.service import LockManager

        db = make_db()
        db.lock_manager = LockManager(timeout_s=0.1)
        blocker = db.connect("admin")
        blocker.execute("BEGIN")
        blocker.execute("UPDATE counters SET val = 1 WHERE id = 1")  # X held
        victim = db.connect("admin")
        victim.execute("BEGIN")
        with pytest.raises(LockTimeoutError):
            victim.execute("SELECT * FROM counters")  # S blocked by X
        # the timeout aborted the whole transaction and freed its locks
        assert not victim.in_transaction
        assert db.lock_manager.held_by(victim) == {}
        victim.execute("BEGIN")  # the retryable contract: BEGIN just works
        victim.execute("ROLLBACK")
        blocker.execute("ROLLBACK")

    def test_value_retrieval_respects_table_locks(self):
        """Regression: the binding's catalog-building heap scans take an
        S lock, so they block on a writer's uncommitted X instead of
        reading dirty rows (and release at scan end in autocommit)."""
        from repro.core.minidb_binding import MinidbBinding
        from repro.minidb.errors import LockTimeoutError
        from repro.service import LockManager

        db = make_db()
        db.lock_manager = LockManager(timeout_s=0.1)
        writer = db.connect("admin")
        writer.execute("BEGIN")
        writer.execute("UPDATE counters SET val = 99 WHERE id = 1")
        binding = MinidbBinding(db.connect("admin"))
        with pytest.raises(LockTimeoutError):
            binding.distinct_values("counters", "val", 10)
        writer.execute("ROLLBACK")
        assert binding.distinct_values("counters", "val", 10) == [0]
        # autocommit: the S lock does not outlive the scan
        assert db.lock_manager.held_by(binding.session) == {}


class TestSchemaResolutionUnderLocks:
    def test_blocked_dml_sees_recreated_schema(self):
        """Regression: DML resolves its table schema *after* the table
        lock is granted, so a statement that blocked behind a concurrent
        DROP + CREATE runs against the recreated table's contract — not
        the dropped schema it saw before sleeping."""
        from repro.service import LockManager

        db = Database(owner="admin")
        db.lock_manager = LockManager(timeout_s=10.0)
        admin = db.connect("admin")
        admin.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")

        ddl = db.connect("admin")
        ddl.execute("BEGIN")
        ddl.execute("DELETE FROM t")  # takes and holds X on t

        writer = db.connect("admin")
        outcome = {}

        def blocked_insert():
            try:
                # legal against the old schema (v is nullable) — must be
                # judged against whatever schema exists once the lock is
                # finally granted
                writer.execute("INSERT INTO t (id) VALUES (1)")
                outcome["error"] = None
            except Exception as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=blocked_insert, daemon=True)
        thread.start()
        time.sleep(0.2)  # let the insert park on the X lock
        assert thread.is_alive()
        ddl.execute("DROP TABLE t")
        ddl.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT NOT NULL)")
        ddl.execute("COMMIT")
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        # the recreated schema's NOT NULL constraint applied: the insert
        # was rejected instead of writing a mis-shaped row into the new heap
        assert outcome["error"] is not None
        assert db.connect("admin").scalar("SELECT COUNT(*) FROM t") == 0

    def test_blocked_select_plans_against_recreated_schema(self):
        """A SELECT block is planned only after the S locks on *all* its
        base tables are granted: a join that blocked on its second table
        behind DROP + CREATE must resolve names against the recreated
        columns. Here the recreated ``t`` gains a column ``w`` that makes
        the unqualified ``w`` ambiguous — planning from the pre-lock
        catalog would push ``w = 5`` down into ``a`` and return no rows
        instead of raising."""
        from repro.minidb import UnknownColumnError
        from repro.service import LockManager

        db = Database(owner="admin")
        db.lock_manager = LockManager(timeout_s=10.0)
        admin = db.connect("admin")
        admin.execute("CREATE TABLE a (id INT PRIMARY KEY, w INT)")
        admin.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        admin.execute("INSERT INTO a VALUES (1, 7)")
        admin.execute("INSERT INTO t VALUES (1, 1)")

        ddl = db.connect("admin")
        ddl.execute("BEGIN")
        ddl.execute("DELETE FROM t WHERE id = 999")  # X on t, no rows hit

        reader = db.connect("admin")
        outcome = {}

        def blocked_select():
            try:
                outcome["rows"] = reader.execute(
                    "SELECT a.id FROM a, t WHERE a.id = t.id AND w = 5"
                ).rows
            except Exception as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=blocked_select, daemon=True)
        thread.start()
        time.sleep(0.2)  # S on a granted; parked on t
        assert thread.is_alive()
        ddl.execute("DROP TABLE t")
        ddl.execute("CREATE TABLE t (id INT PRIMARY KEY, w INT)")
        ddl.execute("INSERT INTO t VALUES (1, 5)")
        ddl.execute("COMMIT")
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert isinstance(outcome.get("error"), UnknownColumnError), outcome
        assert "ambiguous" in str(outcome["error"])

    def test_blocked_retrieval_serves_recreated_table(self):
        """Regression: retrieve_values resolves schema/heap (and thus the
        cache fingerprint) *inside* the S lock, so a call that blocked
        behind DROP + CREATE rebuilds from the recreated heap instead of
        serving the dropped table's warm cached catalog."""
        from repro.core.minidb_binding import MinidbBinding
        from repro.service import LockManager

        db = Database(owner="admin")
        db.lock_manager = LockManager(timeout_s=10.0)
        admin = db.connect("admin")
        admin.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        admin.execute("INSERT INTO t VALUES (1, 'old_value')")
        binding = MinidbBinding(db.connect("admin"))
        warm = [v for v, _ in binding.retrieve_values("t", "v", "value", 5, 100)]
        assert warm == ["old_value"]

        writer = db.connect("admin")
        writer.execute("BEGIN")
        writer.execute("DELETE FROM t WHERE id = 999")  # X on t, no rows hit

        outcome = {}

        def blocked_retrieve():
            outcome["values"] = [
                v for v, _ in binding.retrieve_values("t", "v", "value", 5, 100)
            ]

        thread = threading.Thread(target=blocked_retrieve, daemon=True)
        thread.start()
        time.sleep(0.2)
        assert thread.is_alive()  # parked on the S lock
        writer.execute("DROP TABLE t")
        writer.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        writer.execute("INSERT INTO t VALUES (1, 'new_value')")
        writer.execute("COMMIT")
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert outcome["values"] == ["new_value"]

    def test_blocked_drop_index_if_exists_sees_concurrent_drop(self):
        """Regression: DROP INDEX re-checks existence after the lock
        grant, so losing the race to another drop yields '(absent)'
        rather than a raw KeyError from the catalog."""
        from repro.service import LockManager

        db = Database(owner="admin")
        db.lock_manager = LockManager(timeout_s=10.0)
        admin = db.connect("admin")
        admin.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        admin.execute("CREATE INDEX i ON t (v)")

        holder = db.connect("admin")
        holder.execute("BEGIN")
        holder.execute("DELETE FROM t")  # X on t

        dropper = db.connect("admin")
        outcome = {}

        def blocked_drop():
            try:
                outcome["status"] = dropper.execute("DROP INDEX IF EXISTS i").status
            except Exception as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=blocked_drop, daemon=True)
        thread.start()
        time.sleep(0.2)
        assert thread.is_alive()  # parked behind holder's X
        holder.execute("DROP INDEX i")
        holder.execute("COMMIT")
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert outcome.get("error") is None, outcome
        assert outcome["status"] == "DROP INDEX (absent)"


class TestZeroThreadFastPath:
    def test_database_without_service_has_no_lock_manager(self):
        """Tier-1 semantics: a plain Database never pays for locking."""
        db = Database(owner="admin")
        assert db.lock_manager is None
        session = db.connect("admin")
        session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        session.execute("INSERT INTO t VALUES (1)")
        assert session.scalar("SELECT COUNT(*) FROM t") == 1
