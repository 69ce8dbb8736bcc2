"""Durability under concurrency: WAL ordering, recovery, racing opens.

* ``append_commit`` serializes sequence allocation and the physical
  write, so the WAL of a multi-threaded run is strictly increasing in
  ``seq``, batch-atomic, and replays to exactly the live state;
* opens racing for one directory (even one whose ``LOCK`` names a dead
  process) get exactly one winner: the ``flock`` on ``LOCK`` is taken
  through a separate descriptor per engine.
"""

import json
import os
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minidb import Database
from repro.minidb.errors import PersistenceError
from repro.service import SessionManager


def read_wal(path):
    records = []
    with open(os.path.join(path, "wal.jsonl"), "r", encoding="utf-8") as fh:
        for line in fh:
            records.append(json.loads(line))
    return records


class TestConcurrentCommitOrdering:
    @settings(max_examples=8, deadline=None)
    @given(
        threads=st.integers(min_value=2, max_value=5),
        rows_per_thread=st.integers(min_value=3, max_value=12),
    )
    def test_wal_seq_strictly_increasing_and_recovery_matches(
        self, tmp_path_factory, threads, rows_per_thread
    ):
        """N sessions commit concurrently (each into its own table, so the
        heap traffic genuinely overlaps); the WAL must come out strictly
        sequential and batch-terminated, and a reopened database must
        equal the live one exactly."""
        path = str(
            tmp_path_factory.mktemp("wal") / f"db-{threads}-{rows_per_thread}"
        )
        db = Database.open(path, auto_checkpoint_records=0)
        admin = db.connect("admin")
        for n in range(threads):
            admin.execute(f"CREATE TABLE t{n} (id INT PRIMARY KEY, v TEXT)")
        SessionManager(db)  # installs the lock manager

        failures = []

        def writer(index):
            session = db.connect("admin")
            try:
                for row in range(rows_per_thread):
                    session.execute(
                        f"INSERT INTO t{index} VALUES ({row}, 'w{index}r{row}')"
                    )
                session.execute("BEGIN")
                session.execute(
                    f"UPDATE t{index} SET v = 'batch' WHERE id = 0"
                )
                session.execute(
                    f"INSERT INTO t{index} VALUES (10000, 'tail{index}')"
                )
                session.execute("COMMIT")
            except Exception as exc:  # pragma: no cover - diagnostic
                failures.append(exc)

        workers = [
            threading.Thread(target=writer, args=(n,), daemon=True)
            for n in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120.0)
        assert not failures
        live_state = db.snapshot()

        records = read_wal(path)
        seqs = [record["seq"] for record in records]
        # strictly increasing AND contiguous: no interleaved or lost seq
        assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))
        # every batch is commit-terminated (replayability invariant)
        assert records[-1].get("commit") is True

        db.close()
        reopened = Database.open(path)
        assert reopened.snapshot() == live_state
        # per-table row counts: all commits landed, none duplicated
        for n in range(threads):
            assert reopened.table_row_count(f"t{n}") == rows_per_thread + 1
        reopened.close()

    def test_interleaved_commit_batches_replay_whole(self, tmp_path):
        """Two sessions' explicit transactions commit back to back from
        different threads; each batch must replay atomically."""
        path = str(tmp_path / "db")
        db = Database.open(path, auto_checkpoint_records=0)
        admin = db.connect("admin")
        admin.execute("CREATE TABLE a (id INT PRIMARY KEY)")
        admin.execute("CREATE TABLE b (id INT PRIMARY KEY)")
        SessionManager(db)
        barrier = threading.Barrier(2)

        def batch(table):
            session = db.connect("admin")
            barrier.wait(timeout=30.0)
            session.execute("BEGIN")
            for n in range(20):
                session.execute(f"INSERT INTO {table} VALUES ({n})")
            session.execute("COMMIT")

        threads = [
            threading.Thread(target=batch, args=(t,), daemon=True)
            for t in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)

        records = read_wal(path)
        # a batch's records must be contiguous in the file: once a batch
        # starts, no foreign record appears until its commit marker
        current_table = None
        for record in records:
            if record["op"] != "insert":
                continue
            if current_table is None:
                current_table = record["table"]
            assert record["table"] == current_table
            if record.get("commit"):
                current_table = None
        db.close()
        reopened = Database.open(path)
        assert reopened.table_row_count("a") == 20
        assert reopened.table_row_count("b") == 20
        reopened.close()


class TestRacingOpens:
    """Opens of one directory that run at the same moment."""

    CONTENDERS = 4

    @staticmethod
    def race(path, contenders):
        """Start ``contenders`` threads that call ``Database.open(path)``
        together; return the opened databases and the refusals."""
        barrier = threading.Barrier(contenders)
        opened, refused = [], []

        def contend():
            try:
                barrier.wait(timeout=30.0)
            except threading.BrokenBarrierError:
                pass
            try:
                opened.append(Database.open(path))
            except PersistenceError as exc:
                refused.append(exc)

        threads = [
            threading.Thread(target=contend, daemon=True)
            for _ in range(contenders)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        return opened, refused

    @pytest.fixture
    def stale_dir(self, tmp_path):
        """A closed directory whose ``LOCK`` names a dead process."""
        path = str(tmp_path / "db")
        db = Database.open(path)
        db.connect("admin").execute("CREATE TABLE t (id INT PRIMARY KEY)")
        db.close()
        with open(os.path.join(path, "LOCK"), "w") as fh:
            fh.write("999999999\n")  # beyond pid_max: never a live process
        return path

    def test_racing_opens_have_a_single_winner(self, stale_dir):
        opened, refused = self.race(stale_dir, self.CONTENDERS)
        try:
            assert len(opened) == 1
            assert len(refused) == self.CONTENDERS - 1
            for exc in refused:
                assert "already open in this or another process" in str(exc)
            assert opened[0].table_row_count("t") == 0
        finally:
            for db in opened:
                db.close()

    def test_a_refused_contender_opens_once_the_winner_closes(self, stale_dir):
        opened, refused = self.race(stale_dir, self.CONTENDERS)
        assert len(opened) == 1 and refused
        winner = opened[0]
        winner.connect("admin").execute("INSERT INTO t VALUES (7)")
        winner.close()
        # the losers released their descriptors when their opens failed
        reopened = Database.open(stale_dir)
        assert [row["id"] for row in reopened.snapshot()["t"]] == [7]
        reopened.close()
