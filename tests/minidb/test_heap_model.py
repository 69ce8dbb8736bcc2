"""Model-based oracle for :class:`HeapTable`.

The model is the dict-of-dicts heap minidb shipped before the heap went
column-major (``dict[rid -> dict[column -> value]]``, rids allocated
monotonically, a version bump per mutation), kept here in ~40 lines so
the storage layout under test shares no code with it. A Hypothesis state
machine drives both through random interleavings of row mutations (undo
restores in and out of rid order), column and index DDL and snapshot
round trips, and after every step every read path of the heap must agree
with the model.

A row that lacks a column and a row holding ``None`` in it read the same
through ``column_values`` / ``rows_batch`` / ``fetch_batch`` (``None``),
so ``rows`` / ``get`` dicts are compared with ``None`` entries dropped:
the model keeps per-row key sets, a rectangular heap cannot. Key *order*
is pinned separately (:func:`test_row_key_order`) for the shapes SQL
produces, because UPDATE's WAL record copies it.

The file was written against, and passes on, the row-dict heap as well
(commit a8f47cb): nothing here reads a private attribute.
"""

import json
import os
import sys
import threading

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.minidb.errors import UniqueViolation
from repro.minidb.storage import HashIndex, HeapTable, SortedIndex

STRESS_THREADS = int(os.environ.get("REPRO_STRESS_THREADS", "4"))

NAMES = ["a", "b", "c", "d", "x", "y"]
VALUES = st.one_of(st.none(), st.integers(0, 3), st.sampled_from(["p", "q"]))
ROWS = st.dictionaries(st.sampled_from(NAMES), VALUES, max_size=4)
INDEX_KINDS = {"hash": HashIndex, "btree": SortedIndex}


class ModelHeap:
    """The row-dict heap: what every layout of ``HeapTable`` must equal."""

    def __init__(self):
        self.rows = {}
        self.next_rid = 1
        self.version = 0

    def insert(self, row):
        rid = self.next_rid
        self.next_rid += 1
        self.rows[rid] = dict(row)
        self.version += 1
        return rid

    def restore(self, rid, row):
        self.rows[rid] = dict(row)
        self.next_rid = max(self.next_rid, rid + 1)
        self.version += 1

    def update(self, rid, row):
        old = self.rows[rid]
        self.rows[rid] = dict(row)
        self.version += 1
        return old

    def delete(self, rid):
        self.version += 1
        return self.rows.pop(rid)

    def add_column(self, name, default):
        for row in self.rows.values():
            row[name] = default
        self.version += 1

    def drop_column(self, name):
        for row in self.rows.values():
            row.pop(name, None)
        self.version += 1

    def restore_column(self, name, values):
        for rid, row in self.rows.items():
            row[name] = values.get(rid)
        self.version += 1

    def rename_column(self, old, new):
        for row in self.rows.values():
            if old in row:
                row[new] = row.pop(old)
        self.version += 1

    def ordered(self):
        return sorted(self.rows.items())

    def column(self, name):
        return [row.get(name) for _, row in self.ordered()]


def norm(row):
    """A row with its ``None`` entries dropped (missing == NULL)."""
    return {k: v for k, v in row.items() if v is not None}


def key_of(row, columns):
    return tuple(row.get(c) for c in columns)


class HeapMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.heap = HeapTable("t")
        self.model = ModelHeap()
        self.graveyard = {}  # deleted rid -> the row delete() returned
        self.dropped = {}  # dropped column -> {rid: value}
        self.indexes = {}  # index name -> (kind, columns, unique)

    # ------------------------------------------------------------ helpers

    def live_rid(self, pick):
        rids = sorted(self.model.rows)
        return rids[pick % len(rids)]

    def columns_in_use(self):
        return sorted({k for row in self.model.rows.values() for k in row})

    def indexed(self, name):
        """Column DDL never rewrites index entries (SQL only reaches a
        column no index covers), so the machine stays off those too."""
        return any(name in columns for _, columns, _ in self.indexes.values())

    def violates(self, row, ignore_rid=None):
        """Whether ``row`` duplicates a NULL-free key of a unique index."""
        for _, columns, unique in self.indexes.values():
            key = key_of(row, columns)
            if not unique or None in key:
                continue
            for rid, other in self.model.rows.items():
                if rid != ignore_rid and key_of(other, columns) == key:
                    return True
        return False

    # --------------------------------------------------------------- rows

    @rule(row=ROWS)
    def insert(self, row):
        if self.violates(row):
            with pytest.raises(UniqueViolation):
                self.heap.insert(row)
            self.model.next_rid += 1  # the refused insert keeps its rid
            return
        assert self.heap.insert(row) == self.model.insert(row)

    @precondition(lambda self: self.model.rows)
    @rule(pick=st.integers(0, 1000), row=ROWS)
    def update(self, pick, row):
        rid = self.live_rid(pick)
        changed = any(
            unique and key_of(row, columns) != key_of(self.model.rows[rid], columns)
            for _, columns, unique in self.indexes.values()
        )
        if changed and self.violates(row, ignore_rid=rid):
            with pytest.raises(UniqueViolation):
                self.heap.update(rid, row)
            return
        assert norm(self.heap.update(rid, row)) == norm(self.model.update(rid, row))

    @precondition(lambda self: self.model.rows)
    @rule(pick=st.integers(0, 1000))
    def delete(self, pick):
        rid = self.live_rid(pick)
        old = self.heap.delete(rid)
        assert norm(old) == norm(self.model.delete(rid))
        self.graveyard[rid] = old

    @precondition(lambda self: self.graveyard)
    @rule(pick=st.integers(0, 1000))
    def restore(self, pick):
        """Undo of one delete: any dead rid, so in or out of rid order."""
        rids = sorted(self.graveyard)
        rid = rids[pick % len(rids)]
        if self.violates(self.graveyard[rid]):
            return
        row = self.graveyard.pop(rid)
        self.heap.restore(rid, row)
        self.model.restore(rid, row)

    @precondition(lambda self: self.model.rows)
    @rule()
    def delete_all_then_undo(self):
        """A rolled-back ``DELETE FROM t``: restores arrive in reverse."""
        undo = []
        for rid in sorted(self.model.rows):
            old = self.heap.delete(rid)
            assert norm(old) == norm(self.model.delete(rid))
            undo.append((rid, old))
        self.agrees()
        for rid, old in reversed(undo):
            self.heap.restore(rid, old)
            self.model.restore(rid, old)

    # ------------------------------------------------------------ columns

    @rule(name=st.sampled_from(NAMES), default=VALUES)
    def add_column(self, name, default):
        if self.indexed(name):
            return
        self.heap.add_column(name, default)
        self.model.add_column(name, default)

    @rule(name=st.sampled_from(NAMES))
    def drop_column(self, name):
        if self.indexed(name):
            return
        self.dropped[name] = {
            rid: row.get(name) for rid, row in self.model.rows.items()
        }
        self.heap.drop_column(name)
        self.model.drop_column(name)

    @precondition(lambda self: self.dropped)
    @rule(pick=st.integers(0, 1000))
    def restore_column(self, pick):
        names = sorted(self.dropped)
        name = names[pick % len(names)]
        if self.indexed(name):
            return
        values = self.dropped.pop(name)
        self.heap.restore_column(name, values)
        self.model.restore_column(name, values)

    @rule(old=st.sampled_from(NAMES), new=st.sampled_from(NAMES))
    def rename_column(self, old, new):
        if new in self.columns_in_use() or new == old or self.indexed(new):
            return  # SQL refuses a rename onto an existing column
        self.heap.rename_column(old, new)
        self.model.rename_column(old, new)
        self.indexes = {
            name: (kind, tuple(new if c == old else c for c in columns), unique)
            for name, (kind, columns, unique) in self.indexes.items()
        }

    # ------------------------------------------------------------ indexes

    @precondition(lambda self: len(self.indexes) < 3)
    @rule(
        kind=st.sampled_from(sorted(INDEX_KINDS)),
        columns=st.lists(st.sampled_from(NAMES[:3]), min_size=1, max_size=2, unique=True),
        unique=st.booleans(),
    )
    def add_index(self, kind, columns, unique):
        name = f"ix{self.model.version}"
        columns = tuple(columns)
        keys = [key_of(row, columns) for row in self.model.rows.values()]
        keys = [k for k in keys if None not in k]
        index = INDEX_KINDS[kind](name, columns, unique=unique)
        if unique and len(set(keys)) < len(keys):
            with pytest.raises(UniqueViolation):
                self.heap.add_index(index)
            assert name not in self.heap.indexes
            return
        self.heap.add_index(index)
        self.model.version += 1
        self.indexes[name] = (kind, columns, unique)

    @precondition(lambda self: self.indexes)
    @rule(pick=st.integers(0, 1000))
    def drop_index(self, pick):
        names = sorted(self.indexes)
        name = names[pick % len(names)]
        del self.indexes[name]
        self.heap.drop_index(name)
        self.model.version += 1

    # ----------------------------------------------------------- snapshot

    @rule()
    def snapshot_round_trip(self):
        """What checkpoint + reopen do: dump, through JSON, load."""
        state = json.loads(json.dumps(self.heap.snapshot_state()))
        fresh = [
            INDEX_KINDS[kind](name, columns, unique=unique)
            for name, (kind, columns, unique) in self.indexes.items()
        ]
        uid = self.heap.uid
        self.heap = HeapTable.from_snapshot("t", indexes=fresh, **state)
        assert self.heap.uid == uid
        assert set(self.heap.indexes) == set(self.indexes)

    # ---------------------------------------------------------- the oracle

    @invariant()
    def agrees(self):
        heap, model = self.heap, self.model
        expected = model.ordered()
        rids = [rid for rid, _ in expected]
        assert [(rid, norm(row)) for rid, row in heap.rows()] == [
            (rid, norm(row)) for rid, row in expected
        ]
        assert len(heap) == len(expected)
        assert heap.version == model.version
        assert heap.snapshot_state()["next_rid"] == model.next_rid
        for rid, row in expected:
            assert norm(heap.get(rid)) == norm(row)
        for rid in list(self.graveyard) + [model.next_rid, 10**9]:
            if rid not in model.rows:
                assert heap.get(rid) is None

        names = self.columns_in_use() + ["nosuch"]
        columns = {name: model.column(name) for name in names}
        for name in names:
            assert heap.column_values(name) == columns[name]
        for size in (1, 3, 1024):
            batches = list(heap.rows_batch(size, names))
            assert all(0 < b.length <= size for b in batches)
            assert all(
                len(b.rids) == b.length and set(b.columns) == set(names)
                for b in batches
            )
            assert [rid for b in batches for rid in b.rids] == rids
            for name in names:
                got = [v for b in batches for v in b.columns[name]]
                assert got == columns[name]

        wanted = []
        for rid in reversed(rids):
            wanted += [rid, model.next_rid + rid]  # every other one absent
        wanted += list(self.graveyard)
        batch = heap.fetch_batch(wanted, names)
        present = [rid for rid in wanted if rid in model.rows]
        assert batch.rids == present and batch.length == len(present)
        for name in names:
            assert batch.columns[name] == [model.rows[r].get(name) for r in present]

        assert set(heap.indexes) == set(self.indexes)
        for name, (_, index_columns, _) in self.indexes.items():
            index = heap.indexes[name]
            assert index.columns == index_columns
            keys = {key_of(row, index_columns) for _, row in expected}
            keys.add(tuple("absent" for _ in index_columns))
            for key in keys:
                matching = {
                    rid
                    for rid, row in expected
                    if None not in key and key_of(row, index_columns) == key
                }
                assert index.probe(key) == matching


TestHeapAgainstModel = HeapMachine.TestCase
TestHeapAgainstModel.settings = settings(
    max_examples=120, stateful_step_count=40, deadline=None
)


# ----------------------------------------------------------------- key order


def test_row_key_order():
    """Column order of the dicts ``get`` / ``rows`` return, for the shapes
    SQL produces (every row complete, in schema order): first seen, ADD
    COLUMN last, RENAME moves the column last, DROP + undo puts it back
    last — UPDATE copies this order into its WAL record."""
    heap = HeapTable("t")
    heap.add_column("early", 0)  # ALTER on an empty table touches no row
    rid = heap.insert({"a": 1, "b": 2, "c": 3})
    heap.insert({"a": 4, "b": 5, "c": 6})
    assert list(heap.get(rid)) == ["a", "b", "c"]
    heap.add_column("d", 0)
    assert list(heap.get(rid)) == ["a", "b", "c", "d"]
    heap.rename_column("a", "z")
    assert list(heap.get(rid)) == ["b", "c", "d", "z"]
    heap.drop_column("c")
    heap.restore_column("c", {rid: 3})
    assert [list(row) for _, row in heap.rows()] == [["b", "d", "z", "c"]] * 2
    assert heap.get(rid) == {"b": 2, "d": 0, "z": 1, "c": 3}
    heap.update(rid, {"b": 9, "d": 0, "z": 1, "c": 3})
    assert list(heap.get(rid)) == ["b", "d", "z", "c"]

    for r in [rid for rid, _ in heap.rows()]:
        heap.delete(r)
    heap.add_column("late", 0)  # emptied again: the next insert sets the order
    rid = heap.insert({"q": 1, "late": 2})
    assert list(heap.get(rid)) == ["q", "late"]


# ------------------------------------------------------- scans are snapshots


def _filled(n):
    heap = HeapTable("t")
    for i in range(1, n + 1):
        heap.insert({"a": i * 2, "b": f"v{i}"})
    return heap


def test_scan_is_a_snapshot():
    """Row mutations between two ``next()`` calls of one ``rows_batch`` do
    not reach its later batches."""
    heap = _filled(8)
    before = [(rid, row["a"], row["b"]) for rid, row in heap.rows()]
    scan = heap.rows_batch(3, ["a", "b"])
    batches = [next(scan)]
    heap.update(4, {"a": -1, "b": "changed"})
    gone = heap.delete(5)
    heap.delete(8)
    heap.insert({"a": 100, "b": "new"})
    heap.restore(5, gone)  # out of rid order
    heap.add_column("c", 7)
    batches.extend(scan)
    seen = [
        (rid, a, b)
        for batch in batches
        for rid, a, b in zip(batch.rids, batch.columns["a"], batch.columns["b"])
    ]
    assert seen == before
    assert [rid for rid, _ in heap.rows()] == [1, 2, 3, 4, 5, 6, 7, 9]


def test_returned_lists_do_not_alias_the_heap():
    heap = _filled(5)
    expected = [(rid, dict(row)) for rid, row in heap.rows()]
    (batch,) = heap.rows_batch(1024, ["a", "b", "nosuch"])
    fetched = heap.fetch_batch([2, 4], ["a", "b"])
    values = heap.column_values("a")
    for victim in (batch.rids, fetched.rids, values):
        victim.clear()
    for columns in (batch.columns, fetched.columns):
        for column in columns.values():
            column.clear()
    state = heap.snapshot_state()
    assert [(rid, dict(row)) for rid, row in heap.rows()] == expected
    assert heap.column_values("a") == [2, 4, 6, 8, 10]
    assert json.loads(json.dumps(state)) == json.loads(
        json.dumps(heap.snapshot_state())
    )


# ------------------------------------------------- readers while one settles


def _unsettled():
    """Six rows whose middle four were deleted and put back in reverse —
    a rolled-back DELETE — so the next ordered read has to settle."""
    heap = _filled(6)
    undo = [(rid, heap.delete(rid)) for rid in (2, 3, 4, 5)]
    for rid, old in reversed(undo):
        heap.restore(rid, old)
    return heap


def _scan(heap):
    rids, a, b = [], [], []
    for batch in heap.rows_batch(4, ["a", "b"]):
        rids += batch.rids
        a += batch.columns["a"]
        b += batch.columns["b"]
    fetched = heap.fetch_batch([6, 3], ["a"])
    return rids, a, b, heap.column_values("b"), fetched.rids, fetched.columns["a"]


def test_settle_is_published_atomically():
    """Readers share an S lock, so one may be preempted anywhere inside
    its scan — also in the middle of settling out-of-order restores —
    while another runs a whole scan. Simulated exhaustively instead of
    hoped for: reader A runs under an opcode tracer that, at the k-th
    instruction it executes inside ``storage.py``, lets reader B scan to
    completion; for every k both must read all rows, ascending, each
    value beside its own rid. Publishing the settled arrays one attribute
    at a time fails this for some k; one reference swap does not."""
    expected = _scan(_filled(6))
    previous = sys.gettrace()
    k = 0
    while True:
        heap = _unsettled()
        seen = {"count": 0, "other": None}

        def on_opcode(frame, event, arg):
            if event == "opcode":
                seen["count"] += 1
                if seen["count"] == k:
                    seen["other"] = _scan(heap)  # not traced: we are the tracer
            return on_opcode

        def on_call(frame, event, arg):
            if frame.f_code.co_filename.endswith("storage.py"):
                frame.f_trace_opcodes = True
                return on_opcode
            return None

        sys.settrace(on_call)
        try:
            mine = _scan(heap)
        finally:
            sys.settrace(previous)
        assert mine == expected, f"preempted reader, instruction {k}"
        if seen["other"] is None and k:
            break  # k is past the end of the scan: every point was tried
        assert k == 0 or seen["other"] == expected, f"preempting reader, {k}"
        k += 1
    assert k > 100  # the sweep really ran inside the heap


def test_concurrent_readers_settle_out_of_order_restores():
    """Readers share an S lock, so several may meet a heap whose earlier
    out-of-order restores (a rolled-back DELETE) still have to be put back
    into rid order. Whoever settles it, every reader must see one
    consistent ``(rids, columns)``: all rows, ascending, each value next
    to its own rid."""
    rows = 1500
    heap = _filled(rows)
    expected_rids = list(range(1, rows + 1))
    expected_a = [rid * 2 for rid in expected_rids]
    expected_b = [f"v{rid}" for rid in expected_rids]
    errors = []

    def reader(barrier):
        try:
            barrier.wait(timeout=60.0)
            rids, a, b = [], [], []
            for batch in heap.rows_batch(256, ["a", "b"]):
                rids += batch.rids
                a += batch.columns["a"]
                b += batch.columns["b"]
            assert rids == expected_rids
            assert a == expected_a and b == expected_b
            assert heap.column_values("a") == expected_a
            assert [rid for rid, _ in heap.rows()] == expected_rids
            fetched = heap.fetch_batch([rows, 1, rows // 2], ["b"])
            assert fetched.columns["b"] == [f"v{rows}", "v1", f"v{rows // 2}"]
        except BaseException as exc:  # noqa: BLE001 - reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for round_no in range(12):
            # the writer's turn (X lock: nobody reads): delete a stretch,
            # undo it in reverse — restores land out of rid order
            first = 1 + (round_no * 97) % (rows // 2)
            undo = [(rid, heap.delete(rid)) for rid in range(first, first + 700)]
            for rid, old in reversed(undo):
                heap.restore(rid, old)
            barrier = threading.Barrier(STRESS_THREADS)
            threads = [
                threading.Thread(target=reader, args=(barrier,), daemon=True)
                for _ in range(STRESS_THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, errors[0]
    finally:
        sys.setswitchinterval(interval)
