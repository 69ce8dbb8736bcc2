"""LockManager unit tests: compatibility, fairness, timeout, deadlock."""

import threading
import time

import pytest

from repro.minidb.errors import DeadlockError, LockTimeoutError
from repro.service import EXCLUSIVE, SHARED, LockManager


def spawn(fn, *args):
    thread = threading.Thread(target=fn, args=args, daemon=True)
    thread.start()
    return thread


def queued(lm, count, within_s=5.0):
    """Wait until ``count`` requests sit in ``lm``'s queues."""
    deadline = time.monotonic() + within_s
    while lm.waiting_count() < count:
        assert time.monotonic() < deadline, "waiters never queued"
        time.sleep(0.005)


class TestCompatibility:
    def test_shared_locks_coexist(self):
        lm = LockManager()
        lm.acquire("a", "t", SHARED)
        lm.acquire("b", "t", SHARED)
        assert lm.held_by("a") == {"t": "S"}
        assert lm.held_by("b") == {"t": "S"}

    def test_exclusive_excludes_everything(self):
        lm = LockManager(timeout_s=0.05)
        lm.acquire("a", "t", EXCLUSIVE)
        with pytest.raises(LockTimeoutError):
            lm.acquire("b", "t", SHARED)
        with pytest.raises(LockTimeoutError):
            lm.acquire("b", "t", EXCLUSIVE)

    def test_reentrant_and_sufficient_holds(self):
        lm = LockManager()
        lm.acquire("a", "t", EXCLUSIVE)
        lm.acquire("a", "t", EXCLUSIVE)  # re-entrant
        lm.acquire("a", "t", SHARED)  # X satisfies S
        lm.acquire("a", "t2", SHARED)
        lm.acquire("a", "t2", SHARED)
        assert lm.held_by("a") == {"t": "X", "t2": "S"}

    def test_table_names_case_insensitive(self):
        lm = LockManager(timeout_s=0.05)
        lm.acquire("a", "Orders", EXCLUSIVE)
        with pytest.raises(LockTimeoutError):
            lm.acquire("b", "orders", SHARED)

    def test_release_all_wakes_waiter(self):
        lm = LockManager(timeout_s=5.0)
        lm.acquire("a", "t", EXCLUSIVE)
        got = threading.Event()

        def waiter():
            lm.acquire("b", "t", EXCLUSIVE)
            got.set()

        thread = spawn(waiter)
        time.sleep(0.05)
        assert not got.is_set()
        lm.release_all("a")
        thread.join(timeout=5.0)
        assert got.is_set()
        assert lm.held_by("a") == {}
        assert lm.held_by("b") == {"t": "X"}


class TestFairness:
    def test_no_reader_barging_past_queued_writer(self):
        """S requests queue behind a waiting X (no writer starvation)."""
        lm = LockManager(timeout_s=5.0)
        lm.acquire("r1", "t", SHARED)
        order = []

        def writer():
            lm.acquire("w", "t", EXCLUSIVE)
            order.append("w")

        def late_reader():
            lm.acquire("r2", "t", SHARED)
            order.append("r2")

        w_thread = spawn(writer)
        time.sleep(0.05)  # writer is queued now
        r_thread = spawn(late_reader)
        time.sleep(0.05)
        # late reader must be waiting even though r1's S is compatible
        assert order == []
        lm.release_all("r1")
        w_thread.join(timeout=5.0)
        lm.release_all("w")
        r_thread.join(timeout=5.0)
        assert order == ["w", "r2"]

    def test_fifo_grant_order_for_writers(self):
        lm = LockManager(timeout_s=5.0)
        lm.acquire("holder", "t", EXCLUSIVE)
        order = []
        threads = []

        def writer(name):
            lm.acquire(name, "t", EXCLUSIVE)
            order.append(name)
            lm.release_all(name)

        for name in ("w1", "w2", "w3"):
            threads.append(spawn(writer, name))
            time.sleep(0.05)  # deterministic queue order
        lm.release_all("holder")
        for thread in threads:
            thread.join(timeout=5.0)
        assert order == ["w1", "w2", "w3"]


class TestUpgrade:
    def test_sole_holder_upgrades_in_place(self):
        lm = LockManager()
        lm.acquire("a", "t", SHARED)
        lm.acquire("a", "t", EXCLUSIVE)
        assert lm.held_by("a") == {"t": "X"}
        assert lm.stats["upgrades"] == 1

    def test_upgrade_waits_for_other_readers(self):
        lm = LockManager(timeout_s=5.0)
        lm.acquire("a", "t", SHARED)
        lm.acquire("b", "t", SHARED)
        done = threading.Event()

        def upgrader():
            lm.acquire("a", "t", EXCLUSIVE)
            done.set()

        thread = spawn(upgrader)
        time.sleep(0.05)
        assert not done.is_set()
        lm.release_all("b")
        thread.join(timeout=5.0)
        assert done.is_set()
        assert lm.held_by("a") == {"t": "X"}

    def test_upgrade_jumps_queued_writer(self):
        """An upgrade must not queue behind a stranger's X request —
        that would deadlock against our own S hold."""
        lm = LockManager(timeout_s=5.0)
        lm.acquire("a", "t", SHARED)
        order = []

        def stranger():
            lm.acquire("w", "t", EXCLUSIVE)
            order.append("w")
            lm.release_all("w")

        thread = spawn(stranger)
        time.sleep(0.05)
        lm.acquire("a", "t", EXCLUSIVE)  # upgrade goes first
        order.append("a")
        lm.release_all("a")
        thread.join(timeout=5.0)
        assert order == ["a", "w"]


class TestDeadlock:
    def test_upgrade_upgrade_deadlock_aborts_one(self):
        """The classic: two S holders both upgrade; one must die."""
        lm = LockManager(timeout_s=10.0)
        lm.acquire("a", "t", SHARED)
        lm.acquire("b", "t", SHARED)
        outcomes = {}

        def upgrade(name):
            try:
                lm.acquire(name, "t", EXCLUSIVE)
                outcomes[name] = "granted"
            except DeadlockError:
                outcomes[name] = "deadlock"
                lm.release_all(name)

        t_a = spawn(upgrade, "a")
        time.sleep(0.1)
        t_b = spawn(upgrade, "b")
        t_a.join(timeout=5.0)
        t_b.join(timeout=5.0)
        assert sorted(outcomes.values()) == ["deadlock", "granted"]
        assert lm.stats["deadlocks"] == 1

    def test_cross_table_cycle_detected(self):
        """A holds t1, B holds t2, each requests the other's table."""
        lm = LockManager(timeout_s=10.0)
        lm.acquire("a", "t1", EXCLUSIVE)
        lm.acquire("b", "t2", EXCLUSIVE)
        outcomes = {}

        def cross(name, table):
            try:
                lm.acquire(name, table, EXCLUSIVE)
                outcomes[name] = "granted"
            except DeadlockError:
                outcomes[name] = "deadlock"
                lm.release_all(name)

        t_a = spawn(cross, "a", "t2")
        time.sleep(0.1)
        t_b = spawn(cross, "b", "t1")
        t_a.join(timeout=5.0)
        t_b.join(timeout=5.0)
        assert sorted(outcomes.values()) == ["deadlock", "granted"]

    def test_deadlock_error_is_retryable(self):
        assert DeadlockError.retryable is True
        assert LockTimeoutError.retryable is True

    def test_victim_removal_promotes_follower(self):
        """Aborting a queue-front waiter must wake a grantable follower."""
        lm = LockManager(timeout_s=10.0)
        lm.acquire("a", "t", SHARED)
        lm.acquire("b", "t", SHARED)
        follower_done = threading.Event()

        def upgrade_a():
            try:
                lm.acquire("a", "t", EXCLUSIVE)
            except DeadlockError:
                lm.release_all("a")

        def upgrade_b():
            try:
                lm.acquire("b", "t", EXCLUSIVE)
            except DeadlockError:
                lm.release_all("b")

        def follower():
            lm.acquire("c", "t", SHARED)
            follower_done.set()
            lm.release_all("c")

        threads = [spawn(upgrade_a)]
        time.sleep(0.05)
        threads.append(spawn(follower))  # queues behind the upgrade
        time.sleep(0.05)
        threads.append(spawn(upgrade_b))  # closes the cycle
        for thread in threads:
            thread.join(timeout=5.0)
        lm.release_all("a")
        lm.release_all("b")
        assert follower_done.wait(timeout=5.0)


class TestParking:
    """A waiter sleeps on one bare lock that is released exactly once: by
    its grant, or by the first mark as deadlock victim."""

    def test_victim_found_by_two_searches_is_woken_once(self):
        lm = LockManager(timeout_s=10.0)
        lm.acquire("a", "t1", EXCLUSIVE)
        lm.acquire("b", "t2", EXCLUSIVE)
        outcomes = {}

        def cross(name, table):
            try:
                lm.acquire(name, table, EXCLUSIVE)
                outcomes[name] = "granted"
            except DeadlockError:
                outcomes[name] = "deadlock"
            lm.release_all(name)

        # both park in the cycle unseen: no search while they queue
        lm._abort_deadlock_victims = lambda requester: None
        threads = [spawn(cross, "a", "t2")]
        queued(lm, 1)
        threads.append(spawn(cross, "b", "t1"))
        queued(lm, 2)
        del lm._abort_deadlock_victims
        with lm._mutex:
            # two later requesters' searches, before the victim wakes
            lm._abort_deadlock_victims(requester="c")
            lm._abort_deadlock_victims(requester="d")
        for thread in threads:
            thread.join(timeout=5.0)
        assert outcomes == {"a": "granted", "b": "deadlock"}  # b: youngest
        assert lm.stats["deadlocks"] == 1

    def test_timeout_racing_a_late_grant_returns_granted(self):
        lm = LockManager(timeout_s=0.05)
        lm.acquire("a", "t", EXCLUSIVE)
        outcome = {}

        def wait_for_b():
            try:
                lm.acquire("b", "t", EXCLUSIVE)
                outcome["b"] = "granted"
            except LockTimeoutError:
                outcome["b"] = "timeout"

        thread = spawn(wait_for_b)
        queued(lm, 1)
        with lm._mutex:
            time.sleep(0.2)  # b's wait times out; it now needs the mutex
            lock = lm._tables["t"]
            del lock.holders["a"]
            del lm._held["a"]
            lm._promote("t", lock)  # the grant lands before b looks
        thread.join(timeout=5.0)
        assert outcome == {"b": "granted"}
        assert lm.held_by("b") == {"t": "X"}

    def test_no_timeout_waits_until_granted(self):
        lm = LockManager(timeout_s=None)
        lm.acquire("a", "t", EXCLUSIVE)
        outcome = {}

        def wait_for_b():
            try:
                lm.acquire("b", "t", SHARED)
                outcome["b"] = "granted"
            except Exception as exc:  # recorded for the assertion below
                outcome["b"] = exc

        thread = spawn(wait_for_b)
        queued(lm, 1)
        time.sleep(0.05)  # b is asleep, not just queued
        lm.release_all("a")
        thread.join(timeout=5.0)
        assert outcome == {"b": "granted"}


class TestTimeout:
    def test_timeout_raises_and_cleans_queue(self):
        lm = LockManager(timeout_s=0.05)
        lm.acquire("a", "t", EXCLUSIVE)
        with pytest.raises(LockTimeoutError):
            lm.acquire("b", "t", EXCLUSIVE)
        assert lm.waiting_count() == 0
        assert lm.stats["timeouts"] == 1
        # the manager is still healthy afterwards
        lm.release_all("a")
        lm.acquire("b", "t", EXCLUSIVE)

    def test_per_call_timeout_override(self):
        lm = LockManager(timeout_s=30.0)
        lm.acquire("a", "t", EXCLUSIVE)
        started = time.monotonic()
        with pytest.raises(LockTimeoutError):
            lm.acquire("b", "t", SHARED, timeout_s=0.05)
        assert time.monotonic() - started < 5.0


class TestStaleLockReferences:
    def test_abandoning_stale_lock_never_pops_the_live_one(self):
        """Regression: a woken victim can hold a reference to a
        _TableLock whose key went idle and was re-created by another
        session; abandoning its wait must not pop the NEW live lock from
        the table map (that would orphan the live holders — release_all
        could no longer find them, and fresh acquirers could grant a
        second X on a table still exclusively held)."""
        from repro.service.locks import _TableLock, _Waiter

        lm = LockManager(timeout_s=0.05)
        stale = _TableLock()
        orphan = _Waiter("victim", EXCLUSIVE)
        orphan.victim = True
        # key "t" has since been re-created: a live session holds X on it
        lm.acquire("a", "t", EXCLUSIVE)
        with lm._mutex:
            lm._abandon_wait("t", stale, orphan)
        # mutual exclusion must survive: "a" still holds X and blocks "b"
        assert lm.held_by("a") == {"t": "X"}
        with pytest.raises(LockTimeoutError):
            lm.acquire("b", "t", EXCLUSIVE)
        # and release_all still finds the holder, so the lock drains
        lm.release_all("a")
        lm.acquire("b", "t", EXCLUSIVE)
        assert lm.held_by("b") == {"t": "X"}
