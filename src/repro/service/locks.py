"""Table-level shared/exclusive lock manager with deadlock detection.

The :class:`LockManager` is the concurrency-control half of the service
layer: the executor acquires a shared (``S``) lock per table it reads and
an exclusive (``X``) lock per table it mutates, and the session releases
everything at transaction end (strict two-phase locking, so the lock
schedule is serializable at table granularity).

Design points, in the order they matter:

* **Compatibility.** ``S`` is compatible with ``S``; ``X`` is compatible
  with nothing. A holder may *upgrade* ``S`` to ``X``; the upgrade waits
  only for the *other* ``S`` holders and jumps the FIFO queue (queueing an
  upgrade behind a stranger's ``X`` request would deadlock against our own
  ``S`` hold).
* **FIFO fairness.** A request that is compatible with the current
  holders still queues behind earlier waiters (no barging), so a stream
  of readers cannot starve a queued writer.
* **Deadlock detection.** The wait-for graph is derived on demand from
  the live queue/holder state (edges: waiter -> conflicting holders and
  waiter -> conflicting earlier waiters). Every acquire that is about to
  block first searches the graph; each cycle found aborts exactly one
  victim with :class:`~repro.minidb.errors.DeadlockError` (retryable).
  The requester is preferred as victim — it is the cheapest to abort,
  having done no waiting yet — otherwise the cycle's youngest waiter is
  woken and aborted.
* **Timeout.** A bounded wait backstops anything detection cannot see
  (e.g. a lock leaked by a crashed client);
  :class:`~repro.minidb.errors.LockTimeoutError` is also retryable.

Owners are opaque hashable tokens — the service layer passes the minidb
``Session`` object itself. All state is guarded by one mutex. A blocked
acquire sleeps outside it on its waiter's own bare lock, held from the
moment it queues: the grant, or the first mark as deadlock victim,
releases that lock exactly once, so one wake-up costs one release.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Hashable, Iterable

from ..minidb.errors import DeadlockError, LockTimeoutError

#: lock modes; compatibility is S/S only
SHARED = "S"
EXCLUSIVE = "X"

_ticket = itertools.count(1)


class _Waiter:
    __slots__ = ("owner", "mode", "parked", "granted", "victim", "ticket")

    def __init__(self, owner: Hashable, mode: str):
        self.owner = owner
        self.mode = mode
        #: held until the waiter is granted or first marked victim; that
        #: one release wakes the sleeping acquire()
        self.parked = threading.Lock()
        self.parked.acquire()
        self.granted = False
        self.victim = False
        #: global arrival order — used to pick the youngest cycle member
        self.ticket = next(_ticket)


class _TableLock:
    __slots__ = ("holders", "queue")

    def __init__(self) -> None:
        #: owner -> mode ("S" or "X"); at most one owner when an X is held
        self.holders: dict[Hashable, str] = {}
        #: FIFO wait queue (upgrades are inserted at the front)
        self.queue: list[_Waiter] = []

    def idle(self) -> bool:
        return not self.holders and not self.queue


def _conflicts(a: str, b: str) -> bool:
    return a == EXCLUSIVE or b == EXCLUSIVE


class LockManager:
    """Table-level S/X locks shared by every session of one database."""

    def __init__(self, timeout_s: float = 10.0):
        self.timeout_s = timeout_s
        self._mutex = threading.Lock()
        self._tables: dict[str, _TableLock] = {}  #: guarded by self._mutex
        #: owner -> set of table keys it holds (for O(1) release_all)
        #: guarded by self._mutex
        self._held: dict[Hashable, set[str]] = {}
        #: observability for ServiceMetrics and tests
        #: guarded by self._mutex
        self.stats = {
            "acquisitions": 0,
            "waits": 0,
            "timeouts": 0,
            "deadlocks": 0,
            "upgrades": 0,
        }

    # ------------------------------------------------------------- acquire

    def acquire(
        self,
        owner: Hashable,
        table: str,
        mode: str,
        timeout_s: float | None = None,
    ) -> None:
        """Take ``mode`` on ``table`` for ``owner``; block until granted.

        Raises :class:`DeadlockError` if waiting would close a cycle this
        owner loses, :class:`LockTimeoutError` on timeout. Re-entrant:
        holding ``X`` satisfies any request, holding ``S`` satisfies
        ``S``; holding ``S`` and requesting ``X`` is an upgrade.
        """
        if mode not in (SHARED, EXCLUSIVE):
            raise ValueError(f"unknown lock mode {mode!r}")
        key = table.lower()
        deadline = timeout_s if timeout_s is not None else self.timeout_s
        with self._mutex:
            lock = self._tables.setdefault(key, _TableLock())
            held = lock.holders.get(owner)
            if held == EXCLUSIVE or held == mode:
                return  # already sufficient
            upgrade = held == SHARED and mode == EXCLUSIVE
            if self._grantable(lock, owner, mode, upgrade):
                self._grant(lock, key, owner, mode)
                if upgrade:
                    self.stats["upgrades"] += 1
                return
            waiter = _Waiter(owner, mode)
            if upgrade:
                # upgrades go first: they can never wait for the queue
                # (the queue is waiting for *their* S hold)
                lock.queue.insert(0, waiter)
                self.stats["upgrades"] += 1
            else:
                lock.queue.append(waiter)
            self.stats["waits"] += 1
            self._abort_deadlock_victims(requester=owner)
            if waiter.victim:
                self._abandon_wait(key, lock, waiter)
                self.stats["deadlocks"] += 1
                raise DeadlockError(
                    f"deadlock detected while waiting for {mode} lock on "
                    f"{table!r}; transaction aborted, retry it"
                )
        # wait outside the mutex (-1: the lock's "no timeout")
        if not waiter.parked.acquire(timeout=-1 if deadline is None else deadline):
            with self._mutex:
                if not waiter.granted:  # lost the race with a late grant
                    self._abandon_wait(key, lock, waiter)
                    self.stats["timeouts"] += 1
                    raise LockTimeoutError(
                        f"timed out after {deadline:.1f}s waiting for {mode} "
                        f"lock on {table!r}"
                    )
        with self._mutex:
            if waiter.victim:
                self._abandon_wait(key, lock, waiter)
                self.stats["deadlocks"] += 1
                raise DeadlockError(
                    f"deadlock detected while waiting for {mode} lock on "
                    f"{table!r}; transaction aborted, retry it"
                )
            assert waiter.granted

    #: requires self._mutex
    @staticmethod
    def _compatible(lock: _TableLock, owner: Hashable, mode: str) -> bool:
        """Whether ``mode`` coexists with every *other* holder of ``lock``."""
        others = [m for o, m in lock.holders.items() if o != owner]
        if mode == EXCLUSIVE:
            return not others
        return EXCLUSIVE not in others

    #: requires self._mutex
    def _grantable(
        self, lock: _TableLock, owner: Hashable, mode: str, upgrade: bool
    ) -> bool:
        if not self._compatible(lock, owner, mode):
            return False
        # FIFO: a fresh request must not barge past earlier waiters;
        # upgrades are exempt (see module docstring)
        return upgrade or not lock.queue

    #: requires self._mutex
    def _grant(
        self, lock: _TableLock, key: str, owner: Hashable, mode: str
    ) -> None:
        lock.holders[owner] = mode
        self._held.setdefault(owner, set()).add(key)
        self.stats["acquisitions"] += 1

    #: requires self._mutex
    def _discard_waiter(self, key: str, lock: _TableLock, waiter: _Waiter) -> None:
        if waiter in lock.queue:
            lock.queue.remove(waiter)
        # identity check: a woken victim may hold a stale _TableLock whose
        # key has since been re-created — popping blindly would orphan the
        # *live* lock's holders and waiters
        if lock.idle() and self._tables.get(key) is lock:
            self._tables.pop(key, None)

    #: requires self._mutex
    def _abandon_wait(self, key: str, lock: _TableLock, waiter: _Waiter) -> None:
        """Remove an aborted waiter *and* re-promote the queue: discarding
        a mid-queue waiter (deadlock victim, timeout) can make a follower
        grantable, and no release would otherwise wake it."""
        self._discard_waiter(key, lock, waiter)
        self._promote(key, lock)

    # ------------------------------------------------------------- release

    def release_all(self, owner: Hashable) -> None:
        """Drop every lock ``owner`` holds and wake newly grantable waiters.

        Called at transaction end (strict 2PL — no early release) and by
        session teardown. Unknown owners are a no-op.
        """
        with self._mutex:
            for key in self._held.pop(owner, set()):
                lock = self._tables.get(key)
                if lock is None:
                    continue
                lock.holders.pop(owner, None)
                self._promote(key, lock)

    #: requires self._mutex
    def _promote(self, key: str, lock: _TableLock) -> None:
        """Grant queued waiters from the front while compatible (FIFO)."""
        while lock.queue:
            waiter = lock.queue[0]
            if waiter.victim:
                # chosen as deadlock victim but not yet unparked: granting
                # would leak a lock its owner is about to abandon
                lock.queue.pop(0)
                continue
            if not self._compatible(lock, waiter.owner, waiter.mode):
                break
            lock.queue.pop(0)
            self._grant(lock, key, waiter.owner, waiter.mode)
            waiter.granted = True
            waiter.parked.release()
        # same identity check as _discard_waiter: never pop a live lock
        # that replaced this (possibly stale) object under the same key
        if lock.idle() and self._tables.get(key) is lock:
            self._tables.pop(key, None)

    # ---------------------------------------------------- deadlock detection

    #: requires self._mutex
    def _wait_edges(self) -> dict[Hashable, set[Hashable]]:
        """Wait-for graph derived from the live holder/queue state."""
        edges: dict[Hashable, set[Hashable]] = {}
        for lock in self._tables.values():
            for position, waiter in enumerate(lock.queue):
                blockers: set[Hashable] = set()
                for holder, mode in lock.holders.items():
                    if holder != waiter.owner and _conflicts(waiter.mode, mode):
                        blockers.add(holder)
                for earlier in lock.queue[:position]:
                    if earlier.owner != waiter.owner and _conflicts(
                        waiter.mode, earlier.mode
                    ):
                        blockers.add(earlier.owner)
                if blockers:
                    edges.setdefault(waiter.owner, set()).update(blockers)
        return edges

    #: requires self._mutex
    def _abort_deadlock_victims(self, requester: Hashable) -> None:
        """Find wait-for cycles and mark one victim per cycle.

        The requester (still inside :meth:`acquire`, not yet sleeping) is
        preferred; a sleeping victim is woken with ``victim`` set and
        raises from its own :meth:`acquire` frame.
        """
        edges = self._wait_edges()
        while True:
            cycle = self._find_cycle(edges)
            if cycle is None:
                return
            victim = requester if requester in cycle else self._youngest(cycle)
            if victim == requester:
                self._mark_victim(victim, wake=False)
            else:
                self._mark_victim(victim, wake=True)
            edges.pop(victim, None)
            for blockers in edges.values():
                blockers.discard(victim)

    #: requires self._mutex
    def _mark_victim(self, owner: Hashable, wake: bool) -> None:
        for lock in self._tables.values():
            for waiter in lock.queue:
                # a victim not yet awake is found again by the next
                # search: its lock is released once, on the first mark
                if waiter.owner == owner and not waiter.victim:
                    waiter.victim = True
                    if wake:
                        waiter.parked.release()

    #: requires self._mutex
    def _youngest(self, cycle: Iterable[Hashable]) -> Hashable:
        members = set(cycle)
        best: tuple[int, Hashable] | None = None
        for lock in self._tables.values():
            for waiter in lock.queue:
                if waiter.owner in members:
                    if best is None or waiter.ticket > best[0]:
                        best = (waiter.ticket, waiter.owner)
        assert best is not None
        return best[1]

    @staticmethod
    def _find_cycle(
        edges: dict[Hashable, set[Hashable]]
    ) -> list[Hashable] | None:
        """One cycle in ``edges`` as a list of owners, or ``None``."""
        WHITE, GREY, BLACK = 0, 1, 2
        color: dict[Hashable, int] = {}
        stack: list[Hashable] = []

        def visit(node: Hashable) -> list[Hashable] | None:
            color[node] = GREY
            stack.append(node)
            for successor in edges.get(node, ()):
                state = color.get(successor, WHITE)
                if state == GREY:
                    return stack[stack.index(successor):]
                if state == WHITE:
                    found = visit(successor)
                    if found is not None:
                        return found
            stack.pop()
            color[node] = BLACK
            return None

        for node in list(edges):
            if color.get(node, WHITE) == WHITE:
                found = visit(node)
                if found is not None:
                    return found
        return None

    # ---------------------------------------------------------- inspection

    def held_by(self, owner: Hashable) -> dict[str, str]:
        """``table -> mode`` currently held by ``owner`` (snapshot)."""
        with self._mutex:
            return {
                key: self._tables[key].holders[owner]
                for key in self._held.get(owner, set())
                if key in self._tables and owner in self._tables[key].holders
            }

    def waiting_count(self) -> int:
        with self._mutex:
            return sum(len(lock.queue) for lock in self._tables.values())

    def snapshot(self) -> dict[str, Any]:
        """Lock-table snapshot for diagnostics/metrics."""
        with self._mutex:
            return {
                key: {
                    "holders": {repr(o): m for o, m in lock.holders.items()},
                    "queue": [(repr(w.owner), w.mode) for w in lock.queue],
                }
                for key, lock in self._tables.items()
            }
