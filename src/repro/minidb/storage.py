"""Row storage and secondary indexes for minidb.

A :class:`HeapTable` is column-major — one value list per column, all
parallel, plus the rid of each slot and a rid -> slot map — because every
operator above it reads whole columns (:mod:`repro.minidb.batch`): a scan
copies the referenced columns, an index fetch gathers them, and only the
point operations (``get`` / ``update`` / ``delete``, which hand a row to
the undo log and the WAL) build a row dict. Rows are addressed by a
monotonically increasing row id (rid). A deleted row leaves a tombstone in
its slot, which keeps undo cheap — the transaction manager records
(rid, old_row) pairs and :meth:`HeapTable.restore` puts a row back into
its slot verbatim — and tombstones are dropped in one pass once they
outnumber the live rows.

Two kinds of secondary index attach to a heap:

* :class:`HashIndex` maps a tuple of column values to the set of rids
  holding it; unique indexes enforce at-most-one rid per key and are the
  enforcement mechanism for PRIMARY KEY and UNIQUE constraints.
* :class:`SortedIndex` (``CREATE INDEX ... USING BTREE``) keeps
  ``(ordering key, rid)`` pairs in a counted (order-statistic) B+tree of
  fixed-fanout nodes, adding range probes (``col >= lo AND col < hi``),
  equality-prefix slices, and ordered forward/reverse iteration — the
  access paths behind the planner's range scans and the executor's
  sort-free ``ORDER BY ... LIMIT`` fast path.

Both index kinds share equality semantics: a key containing NULL is never
returned by :meth:`probe` and never participates in uniqueness checks
(SQL's "NULL is not equal to NULL"); a key containing NaN is left out of
uniqueness checks too, so a unique index of either kind accepts any
number of NaNs. A :class:`SortedIndex` still *stores*
NULL-keyed entries — ordered last, matching the executor's NULLS LAST sort
order — so an ordered scan covers every row of the heap.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left, bisect_right
from itertools import compress
from typing import Any, Iterator

from .batch import RowBatch
from .catalog import _renamed
from .errors import PersistenceError, UniqueViolation

Row = dict[str, Any]

#: the class fact of a column no row holds: every cell reads NULL
_NULL_FACT = frozenset((type(None),))


def ordering_key_element(value: Any) -> tuple:
    """Total-order sort key for one value: NULLs last, numbers before text,
    NaN above every other number (PostgreSQL's order).

    This is *the* ordering of the engine: the executor's ORDER BY sort keys
    and the :class:`SortedIndex` entry order are both built from it, which
    is what lets an index-ordered scan replace a sort bit-for-bit. A NaN
    inside the key would compare false both ways and break the order —
    an unsorted result, a btree whose bisects miss rows — so it is keyed
    as ``inf`` tagged to sort after ``inf`` itself.
    """
    if value is None:
        return (2, 0, "")
    if isinstance(value, bool):
        return (0, int(value), "")
    if isinstance(value, (int, float)):
        return (0, value, "") if value == value else _NAN_ELEMENT
    return (1, 0, str(value))


_NAN_ELEMENT = (0, math.inf, "nan")


def _has_nan(key: tuple) -> bool:
    """Whether ``key`` holds a NaN. Both index kinds leave such keys out
    of uniqueness checks, as they do NULLs: NaN is not equal to itself."""
    return any(v != v for v in key)


def ordering_key(values: "tuple | list") -> tuple:
    """Tuple of per-column ordering elements for a composite key."""
    return tuple(ordering_key_element(v) for v in values)


#: sorts after every ordering_key_element triple (ranks stop at 2); used to
#: build exclusive/inclusive bisect bounds over composite keys
_AFTER = (3,)

#: process-wide unique ids for heaps — a dropped-and-recreated table gets a
#: fresh uid, so caches keyed by (uid, version) can never confuse the new
#: heap with the old one even though both start at version 0. The counter
#: is shared by every database in the process (concurrent sessions may
#: CREATE TABLE simultaneously), hence the allocator mutex: a duplicated
#: uid would silently alias two heaps' retrieval-cache fingerprints.
_next_heap_uid = 1
_uid_mutex = threading.Lock()


def take_heap_uid() -> int:
    """Allocate the next process-wide heap uid (thread-safe)."""
    global _next_heap_uid
    with _uid_mutex:
        uid = _next_heap_uid
        _next_heap_uid += 1
        return uid


def reserve_heap_uids(minimum: int) -> None:
    """Advance the uid counter past ``minimum``.

    Durable-engine recovery restores heaps under their persisted uids;
    reserving keeps freshly created heaps from colliding with them (uids
    must stay unique for the life of the process, since ANALYZE statistics
    key on ``uid`` and the retrieval cache on ``(uid, version)``).
    """
    global _next_heap_uid
    with _uid_mutex:
        _next_heap_uid = max(_next_heap_uid, minimum + 1)


class HashIndex:
    """Equality index over one or more columns.

    NULL-containing keys are excluded from uniqueness checks, matching SQL's
    rule that NULL is never equal to NULL.
    """

    #: index method, as written in ``CREATE INDEX ... USING <kind>``
    kind = "hash"

    def __init__(self, name: str, columns: tuple[str, ...], unique: bool = False):
        self.name = name
        self.columns = columns
        self.unique = unique
        self._buckets: dict[tuple, set[int]] = {}

    def key_for(self, row: Row) -> tuple:
        return tuple(row.get(c) for c in self.columns)

    def _has_null(self, key: tuple) -> bool:
        return any(v is None for v in key)

    def insert(self, rid: int, row: Row, owner: str = "?") -> None:
        key = self.key_for(row)
        if self._has_null(key):
            return
        bucket = self._buckets.setdefault(key, set())
        if self.unique and bucket and rid not in bucket and not _has_nan(key):
            raise UniqueViolation(
                f"duplicate key value violates unique constraint {self.name!r} "
                f"on {owner}({', '.join(self.columns)}): {key!r}"
            )
        bucket.add(rid)

    def remove(self, rid: int, row: Row) -> None:
        key = self.key_for(row)
        if self._has_null(key):
            return
        bucket = self._buckets.get(key)
        if bucket is not None:
            bucket.discard(rid)
            if not bucket:
                del self._buckets[key]

    def bulk_load(self, rows: "Iterator[tuple[int, Row]] | list[tuple[int, Row]]") -> None:
        """Fill buckets from known-consistent rows without uniqueness checks.

        Snapshot recovery rebuilds indexes over rows that already satisfied
        every constraint when they were written, so the per-row uniqueness
        probe of :meth:`insert` is pure overhead there.
        """
        buckets = self._buckets
        columns = self.columns
        if len(columns) == 1:  # the common case (PK/unique on one column)
            column = columns[0]
            for rid, row in rows:
                value = row.get(column)
                if value is None:
                    continue
                key = (value,)
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = {rid}
                else:
                    bucket.add(rid)
            return
        for rid, row in rows:
            key = tuple(row.get(c) for c in columns)
            if any(v is None for v in key):
                continue
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = {rid}
            else:
                bucket.add(rid)

    def probe(self, key: tuple) -> set[int]:
        """rids whose indexed columns equal ``key`` exactly."""
        if self._has_null(key):
            return set()
        return set(self._buckets.get(key, ()))

    def would_violate(self, row: Row, ignore_rid: int | None = None) -> bool:
        """Whether inserting ``row`` would break uniqueness (pre-check)."""
        if not self.unique:
            return False
        key = self.key_for(row)
        if self._has_null(key):
            return False
        bucket = self._buckets.get(key, set())
        remaining = bucket - {ignore_rid} if ignore_rid is not None else bucket
        return bool(remaining) and not _has_nan(key)

    def backfill(self, rows: "Iterator[tuple[int, Row]]", owner: str = "?") -> None:
        """Fill a detached index from live rows, with uniqueness checks.

        Used by :meth:`HeapTable.add_index` (CREATE INDEX over existing
        data); leaves the index empty again if a violation aborts it.
        """
        inserted: list[tuple[int, Row]] = []
        try:
            for rid, row in rows:
                self.insert(rid, row, owner=owner)
                inserted.append((rid, row))
        except UniqueViolation:
            for rid, row in inserted:
                self.remove(rid, row)
            raise

    def rename_column(self, old: str, new: str) -> None:
        """Track a column rename; keys hold values only, so buckets stand."""
        self.columns = _renamed(self.columns, old, new)

    def __len__(self) -> int:
        return sum(len(b) for b in self._buckets.values())


#: B+tree fanout — max entries per leaf and max children per inner node.
#: Nodes split above it and (except the root) rebalance below half of it.
BTREE_FANOUT = 64
_NODE_MIN = BTREE_FANOUT // 2


class _Leaf:
    """B+tree leaf: a sorted run of ``(ordering key, rid)`` entries."""

    __slots__ = ("entries",)

    def __init__(self, entries: "list[tuple[tuple, int]] | None" = None):
        self.entries: list[tuple[tuple, int]] = (
            entries if entries is not None else []
        )


class _Inner:
    """B+tree inner node: separator entries, children, and subtree size.

    ``keys[i]`` is a lower bound for every entry under ``children[i + 1]``
    and a strict upper bound for everything under ``children[i]`` (a copy
    of the right subtree's minimum entry at split time; deletions may
    leave it stale, but it stays a valid partition because entries only
    ever shrink away from it). ``size`` counts the entries of the whole
    subtree, which is what makes the tree order-statistic: positional
    addressing (`slice_bounds` offsets) descends by child sizes.
    """

    __slots__ = ("keys", "children", "size")

    def __init__(
        self,
        keys: "list[tuple]",
        children: "list[_Leaf | _Inner]",
        size: int,
    ):
        self.keys = keys
        self.children = children
        self.size = size


def _node_size(node: "_Leaf | _Inner") -> int:
    return len(node.entries) if type(node) is _Leaf else node.size


class SortedIndex:
    """Ordered index over one or more columns (``USING BTREE``).

    Entries are ``(ordering key, rid)`` pairs held in a counted
    (order-statistic) B+tree: fixed-fanout nodes that split when a
    mutation overfills them and merge/borrow when one drains below half
    fill, so a point mutation costs O(log n) node searches plus one
    small-list insert instead of the O(n) memmove of a flat sorted array.
    Inner nodes carry subtree entry counts, so the *positional* surface of
    the old array (``slice_bounds`` returning offsets, ``ordered_rids``
    taking them) is preserved exactly. Ordering is by
    :func:`ordering_key` (NULLs last, numbers before text, ties broken by
    rid), exactly the executor's ORDER BY order, so an in-order walk of
    the leaves *is* the sorted result.

    Equality semantics match :class:`HashIndex`: :meth:`probe` never
    returns a NULL-containing key and uniqueness ignores them. Unlike a
    hash index, NULL-keyed entries are still stored (ordered last) so
    ordered scans cover the whole heap.
    """

    kind = "btree"

    def __init__(self, name: str, columns: tuple[str, ...], unique: bool = False):
        self.name = name
        self.columns = columns
        self.unique = unique
        self._root: "_Leaf | _Inner" = _Leaf()
        self._count = 0
        #: set False by a leaf-level idempotent re-insert so ancestor
        #: sizes (maintained on the way back up) stay untouched
        self._mutated = False

    # ------------------------------------------------------- tree primitives

    def _position(self, search: tuple) -> int:
        """Global ``bisect_left`` position of ``search`` over all entries.

        ``search`` is a 1-tuple ``(key,)`` or an entry-shaped 2-tuple,
        compared tuple-wise against entries exactly as the flat-array
        implementation compared them — shorter tuples sort before their
        extensions, which is what makes ``(key,)`` the inclusive lower
        bound of ``key``'s equal run.
        """
        node = self._root
        pos = 0
        while type(node) is _Inner:
            child_idx = bisect_left(node.keys, search)
            for child in node.children[:child_idx]:
                pos += _node_size(child)
            node = node.children[child_idx]
        return pos + bisect_left(node.entries, search)

    def _entry_at(self, pos: int) -> tuple[tuple, int]:
        node = self._root
        while type(node) is _Inner:
            for child in node.children:
                size = _node_size(child)
                if pos < size:
                    node = child
                    break
                pos -= size
        return node.entries[pos]

    def _iter_entries(
        self, start: int, end: int
    ) -> Iterator[tuple[tuple, int]]:
        """Yield entries[start:end] in order (lazy leaf walk)."""
        if start >= end:
            return
        yield from self._iter_node(self._root, start, end)

    def _iter_node(
        self, node: "_Leaf | _Inner", lo: int, hi: int
    ) -> Iterator[tuple[tuple, int]]:
        if type(node) is _Leaf:
            yield from node.entries[lo:hi]
            return
        offset = 0
        for child in node.children:
            if offset >= hi:
                return
            size = _node_size(child)
            if offset + size > lo:
                yield from self._iter_node(
                    child, max(0, lo - offset), min(size, hi - offset)
                )
            offset += size

    def _tree_insert(
        self, node: "_Leaf | _Inner", entry: tuple[tuple, int]
    ) -> "tuple[tuple, _Leaf | _Inner] | None":
        """Insert ``entry`` under ``node``; returns a (separator, new
        right sibling) pair when the node split, for the parent to graft."""
        if type(node) is _Leaf:
            entries = node.entries
            pos = bisect_left(entries, entry)
            if pos < len(entries) and entries[pos] == entry:
                self._mutated = False  # idempotent re-insert
                return None
            entries.insert(pos, entry)
            if len(entries) > BTREE_FANOUT:
                mid = len(entries) // 2
                right = _Leaf(entries[mid:])
                del entries[mid:]
                return right.entries[0], right
            return None
        # bisect_right: an entry equal to a separator lives in (and an
        # idempotent duplicate must be *found* in) the right subtree
        child_idx = bisect_right(node.keys, entry)
        split = self._tree_insert(node.children[child_idx], entry)
        if self._mutated:
            node.size += 1
        if split is not None:
            separator, right = split
            node.keys.insert(child_idx, separator)
            node.children.insert(child_idx + 1, right)
            if len(node.children) > BTREE_FANOUT:
                return self._split_inner(node)
        return None

    def _split_inner(
        self, node: _Inner
    ) -> "tuple[tuple, _Inner]":
        mid = len(node.keys) // 2
        separator = node.keys[mid]
        right = _Inner(node.keys[mid + 1 :], node.children[mid + 1 :], 0)
        del node.keys[mid:]
        del node.children[mid + 1 :]
        right.size = sum(_node_size(c) for c in right.children)
        node.size -= right.size
        return separator, right

    def _tree_remove(
        self, node: "_Leaf | _Inner", entry: tuple[tuple, int]
    ) -> bool:
        if type(node) is _Leaf:
            entries = node.entries
            pos = bisect_left(entries, entry)
            if pos < len(entries) and entries[pos] == entry:
                del entries[pos]
                return True
            return False
        child_idx = bisect_right(node.keys, entry)
        removed = self._tree_remove(node.children[child_idx], entry)
        if removed:
            node.size -= 1
            self._rebalance(node, child_idx)
        return removed

    def _rebalance(self, parent: _Inner, child_idx: int) -> None:
        """Restore half-fill of ``parent.children[child_idx]`` by borrowing
        from an adjacent sibling (which has spare entries) or merging with
        one (when neither sibling does); the root is exempt."""
        child = parent.children[child_idx]
        if type(child) is _Leaf:
            if len(child.entries) >= _NODE_MIN:
                return
            if child_idx > 0:
                left = parent.children[child_idx - 1]
                if len(left.entries) > _NODE_MIN:
                    child.entries.insert(0, left.entries.pop())
                    parent.keys[child_idx - 1] = child.entries[0]
                    return
            if child_idx + 1 < len(parent.children):
                right = parent.children[child_idx + 1]
                if len(right.entries) > _NODE_MIN:
                    child.entries.append(right.entries.pop(0))
                    parent.keys[child_idx] = right.entries[0]
                    return
            if child_idx > 0:
                left = parent.children[child_idx - 1]
                left.entries.extend(child.entries)
                del parent.children[child_idx]
                del parent.keys[child_idx - 1]
            else:
                right = parent.children[child_idx + 1]
                child.entries.extend(right.entries)
                del parent.children[child_idx + 1]
                del parent.keys[child_idx]
            return
        if len(child.children) >= _NODE_MIN:
            return
        if child_idx > 0:
            left = parent.children[child_idx - 1]
            if len(left.children) > _NODE_MIN:
                moved = left.children.pop()
                moved_size = _node_size(moved)
                child.children.insert(0, moved)
                child.keys.insert(0, parent.keys[child_idx - 1])
                parent.keys[child_idx - 1] = left.keys.pop()
                left.size -= moved_size
                child.size += moved_size
                return
        if child_idx + 1 < len(parent.children):
            right = parent.children[child_idx + 1]
            if len(right.children) > _NODE_MIN:
                moved = right.children.pop(0)
                moved_size = _node_size(moved)
                child.children.append(moved)
                child.keys.append(parent.keys[child_idx])
                parent.keys[child_idx] = right.keys.pop(0)
                right.size -= moved_size
                child.size += moved_size
                return
        if child_idx > 0:
            left = parent.children[child_idx - 1]
            left.keys.append(parent.keys[child_idx - 1])
            left.keys.extend(child.keys)
            left.children.extend(child.children)
            left.size += child.size
            del parent.children[child_idx]
            del parent.keys[child_idx - 1]
        else:
            right = parent.children[child_idx + 1]
            child.keys.append(parent.keys[child_idx])
            child.keys.extend(right.keys)
            child.children.extend(right.children)
            child.size += right.size
            del parent.children[child_idx + 1]
            del parent.keys[child_idx]

    @staticmethod
    def _fanout_groups(count: int) -> int:
        """Number of nodes to spread ``count`` children/entries over.

        Aims for ~3/4 fill — freshly bulk-loaded trees keep insert
        headroom instead of splitting on the first mutation — but never
        drops a node below half fill (small counts fall back to fewer,
        fuller nodes).
        """
        target = BTREE_FANOUT * 3 // 4
        groups = (count + target - 1) // target
        if groups > 1 and count // groups < _NODE_MIN:
            groups = (count + BTREE_FANOUT - 1) // BTREE_FANOUT
        return groups

    def _build(self, entries: "list[tuple[tuple, int]]") -> None:
        """Rebuild the whole tree bottom-up from sorted entries (O(n))."""
        self._count = len(entries)
        if len(entries) <= BTREE_FANOUT:
            self._root = _Leaf(entries)
            return
        leaf_count = self._fanout_groups(len(entries))
        base, extra = divmod(len(entries), leaf_count)
        level: "list[_Leaf | _Inner]" = []
        offset = 0
        for i in range(leaf_count):
            take = base + (1 if i < extra else 0)
            level.append(_Leaf(entries[offset : offset + take]))
            offset += take
        while len(level) > 1:
            parent_count = self._fanout_groups(len(level))
            base, extra = divmod(len(level), parent_count)
            parents: "list[_Leaf | _Inner]" = []
            offset = 0
            for i in range(parent_count):
                take = base + (1 if i < extra else 0)
                children = level[offset : offset + take]
                offset += take
                keys = [self._min_entry(c) for c in children[1:]]
                size = sum(_node_size(c) for c in children)
                parents.append(_Inner(keys, children, size))
            level = parents
        self._root = level[0]

    @staticmethod
    def _min_entry(node: "_Leaf | _Inner") -> tuple[tuple, int]:
        while type(node) is _Inner:
            node = node.children[0]
        return node.entries[0]

    def check_invariants(self) -> None:
        """Assert the full B+tree shape (tests and debugging only)."""
        entries = list(self._iter_entries(0, self._count))
        assert entries == sorted(entries), "entries out of order"
        assert len(entries) == self._count, "count drifted from contents"

        def walk(node: "_Leaf | _Inner", is_root: bool) -> tuple[int, int]:
            """Returns (subtree entry count, leaf depth)."""
            if type(node) is _Leaf:
                assert len(node.entries) <= BTREE_FANOUT, "overfull leaf"
                if not is_root:
                    assert len(node.entries) >= _NODE_MIN, "underfull leaf"
                return len(node.entries), 0
            assert len(node.children) == len(node.keys) + 1, "key/child drift"
            assert len(node.children) <= BTREE_FANOUT, "overfull inner node"
            minimum = 2 if is_root else _NODE_MIN
            assert len(node.children) >= minimum, "underfull inner node"
            total = 0
            depths = set()
            for i, child in enumerate(node.children):
                size, depth = walk(child, False)
                total += size
                depths.add(depth)
                if i > 0:
                    assert self._min_entry(child) >= node.keys[i - 1], (
                        "separator above right subtree"
                    )
                if i < len(node.keys):
                    last = child
                    while type(last) is _Inner:
                        last = last.children[-1]
                    assert last.entries[-1] < node.keys[i], (
                        "separator below left subtree"
                    )
            assert len(depths) == 1, "leaves at unequal depths"
            assert total == node.size, "subtree size drifted"
            return total, depths.pop() + 1

        walk(self._root, True)

    # ------------------------------------------------------ HashIndex surface

    def key_for(self, row: Row) -> tuple:
        return tuple(row.get(c) for c in self.columns)

    def _has_null(self, key: tuple) -> bool:
        return any(v is None for v in key)

    def _equal_run(self, ok: tuple) -> tuple[int, int]:
        """[start, end) of entries whose full ordering key equals ``ok``."""
        start = self._position((ok,))
        end = self._position((ok + (_AFTER,),))
        return start, end

    def insert(self, rid: int, row: Row, owner: str = "?") -> None:
        key = self.key_for(row)
        ok = ordering_key(key)
        if self.unique and not self._has_null(key) and not _has_nan(key):
            start, end = self._equal_run(ok)
            if any(r != rid for _, r in self._iter_entries(start, end)):
                raise UniqueViolation(
                    f"duplicate key value violates unique constraint "
                    f"{self.name!r} on {owner}({', '.join(self.columns)}): "
                    f"{key!r}"
                )
        self._mutated = True
        split = self._tree_insert(self._root, (ok, rid))
        if self._mutated:
            self._count += 1
        if split is not None:
            separator, right = split
            self._root = _Inner([separator], [self._root, right], self._count)

    def remove(self, rid: int, row: Row) -> None:
        entry = (ordering_key(self.key_for(row)), rid)
        if self._tree_remove(self._root, entry):
            self._count -= 1
            root = self._root
            while type(root) is _Inner and len(root.children) == 1:
                root = root.children[0]
            self._root = root

    def bulk_load(
        self, rows: "Iterator[tuple[int, Row]] | list[tuple[int, Row]]"
    ) -> None:
        """Sort known-consistent rows and build the tree in one pass
        (snapshot recovery)."""
        columns = self.columns
        self._build(
            sorted(
                (ordering_key(tuple(row.get(c) for c in columns)), rid)
                for rid, row in rows
            )
        )

    def backfill(self, rows: "Iterator[tuple[int, Row]]", owner: str = "?") -> None:
        """Fill a detached index from live rows (CREATE INDEX backfill).

        One sort instead of n tree inserts; uniqueness falls out of
        adjacency — duplicate keys end up next to each other, and those
        holding a NULL or a NaN are exempt.
        """
        self.bulk_load(rows)
        if self.unique:
            previous_ok = None
            for ok, _ in self._iter_entries(0, self._count):
                if ok == previous_ok and not any(
                    e[0] == 2 or e == _NAN_ELEMENT for e in ok
                ):
                    self._build([])
                    raise UniqueViolation(
                        f"duplicate key value violates unique constraint "
                        f"{self.name!r} on {owner}({', '.join(self.columns)})"
                    )
                previous_ok = ok

    def probe(self, key: tuple) -> set[int]:
        """rids whose indexed columns equal ``key`` exactly (NULL-free)."""
        if self._has_null(key):
            return set()
        start, end = self._equal_run(ordering_key(key))
        return {rid for _, rid in self._iter_entries(start, end)}

    def would_violate(self, row: Row, ignore_rid: int | None = None) -> bool:
        if not self.unique:
            return False
        key = self.key_for(row)
        if self._has_null(key) or _has_nan(key):
            return False
        start, end = self._equal_run(ordering_key(key))
        return any(r != ignore_rid for _, r in self._iter_entries(start, end))

    def rename_column(self, old: str, new: str) -> None:
        self.columns = _renamed(self.columns, old, new)

    def __len__(self) -> int:
        return self._count

    # -------------------------------------------------------- ordered access

    def slice_bounds(
        self,
        prefix: tuple = (),
        low: Any = None,
        high: Any = None,
        incl_low: bool = True,
        incl_high: bool = True,
    ) -> tuple[int, int]:
        """[start, end) of entries matching an equality prefix + range.

        ``prefix`` equality-binds the leading columns; ``low``/``high``
        bound the next column (either side may be ``None`` = unbounded).
        Bounds compare by :func:`ordering_key_element`, so a range over a
        mixed-type column returns a *superset* of the SQL-comparable
        matches — callers re-apply the original predicate to candidates.
        """
        pre = ordering_key(prefix)
        if low is None:
            lo_key = pre
        else:
            element = ordering_key_element(low)
            lo_key = pre + ((element,) if incl_low else (element, _AFTER))
        if high is None:
            hi_key = pre + (_AFTER,)
        else:
            element = ordering_key_element(high)
            hi_key = pre + ((element, _AFTER) if incl_high else (element,))
        start = self._position((lo_key,))
        end = self._position((hi_key,))
        return start, end

    def range_rids(
        self,
        prefix: tuple = (),
        low: Any = None,
        high: Any = None,
        incl_low: bool = True,
        incl_high: bool = True,
    ) -> list[int]:
        """rids in key order for an equality-prefix + range probe."""
        start, end = self.slice_bounds(prefix, low, high, incl_low, incl_high)
        return [rid for _, rid in self._iter_entries(start, end)]

    def ordered_rids(
        self,
        reverse: bool = False,
        start: int = 0,
        end: int | None = None,
        prefix: tuple = (),
    ) -> Iterator[int]:
        """Yield rids of entries[start:end] in ORDER BY order.

        Forward order is simply entry order. ``reverse=True`` yields the
        order of a DESC sort, which is *not* a plain reversal: the
        executor's DESC keys keep the type rank ascending (numbers, then
        text, then NULLs — NULLS LAST either way) and reverse only the
        values within each rank, with ties staying in first-seen (rid)
        order. So the reverse walk visits rank classes forward, value runs
        backward, and each equal-key run forward. Only single-column
        suffixes are supported in reverse (the executor enforces this);
        ``prefix`` carries the equality-bound leading values so rank
        boundaries bisect at the right key depth.
        """
        if end is None:
            end = self._count
        if not reverse:
            for _, rid in self._iter_entries(start, end):
                yield rid
            return

        def bounded_position(search: tuple) -> int:
            # bisect within [start, end) of a sorted sequence == the
            # global bisect clamped into the window
            return min(max(self._position(search), start), end)

        pre = ordering_key(prefix)
        for rank in (0, 1, 2):
            lo = bounded_position((pre + ((rank,),),))
            hi = bounded_position((pre + ((rank + 1,),),))
            run_end = hi
            while run_end > lo:
                key = self._entry_at(run_end - 1)[0]
                run_start = min(max(self._position((key,)), lo), run_end)
                for _, rid in self._iter_entries(run_start, run_end):
                    yield rid
                run_end = run_start


class _Slots:
    """The arrays of one :class:`HeapTable`, published as a unit.

    Slot *s* holds rid ``rids[s]`` and, per column, ``cols[name][s]``;
    ``live[s]`` is 0 for a tombstone (a deleted row keeps its slot, rid
    and stale values until the next settle) and ``slot`` maps each live
    rid to its slot. ``dead`` counts tombstones. ``rids`` ascends unless
    ``unsorted``: an out-of-order :meth:`HeapTable.restore` appends at
    the tail and leaves the re-sort to the next ordered read.

    Writers (exclusive table lock) mutate the arrays in place. A reader
    never does: the one reader-side change, :meth:`settled`, builds new
    arrays and the heap publishes them by rebinding a single attribute,
    so readers sharing an S lock each see either the old unit or the new
    one, never a mix.

    ``facts[name]`` is the column's class fact: a frozenset of the types
    its list may hold, tombstones included. A write only widens it (the
    written value's type joins, nothing leaves), so it may be wider than
    the column's values but never narrower; a new unit — :meth:`settled`,
    a snapshot load — computes it from the values it is given. A scan
    copies the facts into its batches when it cuts them, and the
    executor's typed paths read them instead of scanning for types.
    """

    __slots__ = ("rids", "cols", "facts", "live", "slot", "dead", "unsorted")

    def __init__(self, rids: list[int], cols: dict[str, list]):
        self.rids = rids
        self.cols = cols
        self.facts = {name: frozenset(map(type, col)) for name, col in cols.items()}
        self.live = bytearray(b"\x01") * len(rids)
        self.slot = dict(zip(rids, range(len(rids))))
        self.dead = 0
        self.unsorted = False

    def cut_facts(self, names: "list[str]") -> "dict[str, frozenset]":
        """The facts of ``names`` as they stand (a column not held reads
        all ``None``): what a batch cut now carries. A write replaces a
        fact it widens and never mutates one, so the copy stays true of
        the values cut beside it whatever the statement writes next."""
        facts, cols = self.facts, self.cols
        return {name: facts[name] if name in cols else _NULL_FACT for name in names}

    def widen(self, name: str, value: Any) -> None:
        """Make ``value``'s type part of column ``name``'s fact."""
        fact = self.facts[name]
        if type(value) not in fact:
            self.facts[name] = fact | {type(value)}

    def read(
        self, names: "list[str] | None" = None
    ) -> tuple[list[int], dict[str, list]]:
        """The live rids in slot order and the values of each of ``names``
        (default: every column; all ``None`` for a column not held), as
        fresh lists: what a reader may keep, since it aliases nothing."""
        cols = self.cols
        if names is None:
            names = list(cols)
        take = list.copy
        if self.dead:
            live = self.live

            def take(col: list) -> list:
                return list(compress(col, live))

        rids = take(self.rids)
        absent = [None] * len(rids)
        return rids, {
            name: take(cols[name]) if name in cols else absent[:] for name in names
        }

    def row(self, slot: int) -> Row:
        return {name: col[slot] for name, col in self.cols.items()}

    def settled(self) -> "_Slots":
        """The live rows alone, in rid order, as a fresh unit. A heap
        left without rows forgets its columns: the next insert brings
        its own, in its own order, as rows of a row store would."""
        order = list(compress(range(len(self.rids)), self.live))
        if self.unsorted:
            order.sort(key=self.rids.__getitem__)
        if not order:
            return _Slots([], {})
        return _Slots(
            list(map(self.rids.__getitem__, order)),
            {
                name: list(map(col.__getitem__, order))
                for name, col in self.cols.items()
            },
        )


class HeapTable:
    """In-memory column-major heap with attached secondary indexes."""

    def __init__(self, name: str):
        self.name = name
        self._slots = _Slots([], {})
        self._next_rid = 1
        self.indexes: dict[str, HashIndex | SortedIndex] = {}
        #: identity of this heap across DROP/CREATE cycles of the same name
        self.uid = take_heap_uid()
        #: monotonically increasing change counter, bumped on every row,
        #: column, or index mutation — including those replayed by
        #: transaction undo (rollback goes through insert/update/delete/
        #: restore below), so derived caches keyed on (uid, version) are
        #: invalidated by INSERT/UPDATE/DELETE, DDL, *and* ROLLBACK alike
        self.version = 0

    def _bump(self) -> None:
        self.version += 1

    @classmethod
    def from_snapshot(
        cls,
        name: str,
        rids: list[int],
        columns: dict[str, list],
        next_rid: int,
        uid: int,
        version: int,
        indexes: "list[HashIndex | SortedIndex]",
    ) -> "HeapTable":
        """Reconstruct a heap exactly as persisted by the durable engine.

        ``rids`` must already ascend (snapshots are written from
        :meth:`snapshot_state`); indexes arrive as empty definitions and
        are bulk-loaded without uniqueness checks, since the snapshot
        captured a state that satisfied every constraint when written.
        The persisted ``(uid, version)`` identity is restored verbatim —
        and the process-wide uid counter advanced past it — so ANALYZE
        statistics recorded before the restart still match the heap.
        """
        heap = cls(name)
        heap.restore_state(
            rids,
            columns,
            next_rid=next_rid,
            uid=uid,
            version=version,
            indexes=indexes,
        )
        return heap

    def snapshot_state(self) -> dict[str, Any]:
        """Persistable dump of this heap's state, column-major: the live
        rids in order and one parallel value list per column.

        The inverse of :meth:`restore_state`; the durable engine embeds
        this dict (JSON-compatible as it stands) into its snapshot
        payload instead of reading the heap's representation directly.
        """
        rids, columns = self._ordered().read()
        return {
            "uid": self.uid,
            "version": self.version,
            "next_rid": self._next_rid,
            "rids": rids,
            "columns": columns,
        }

    def restore_state(
        self,
        rids: list[int],
        columns: dict[str, list],
        next_rid: int,
        uid: int,
        version: int,
        indexes: "list[HashIndex | SortedIndex]",
    ) -> None:
        """Overwrite this (fresh) heap's state with a persisted dump; the
        lists become the heap's own."""
        for name, values in columns.items():
            if len(values) != len(rids):
                raise PersistenceError(
                    f"corrupt snapshot of {self.name!r}: column {name!r} "
                    f"holds {len(values)} values for {len(rids)} rows"
                )
        self._slots = _Slots(rids, columns if rids else {})
        self._next_rid = next_rid
        self.uid = uid
        self.version = version
        reserve_heap_uids(uid)
        for index in indexes:
            index.bulk_load(self._key_rows(index.columns))
            self.indexes[index.name] = index

    # -------------------------------------------------------------- reads

    def __len__(self) -> int:
        return len(self._slots.slot)

    def _ordered(self) -> _Slots:
        """The heap's slots with ``rids`` ascending. Out-of-order restores
        are settled here, on the first ordered read after them, by
        publishing a new :class:`_Slots` in one assignment (several
        readers may share the table's S lock)."""
        slots = self._slots
        if slots.unsorted:
            self._slots = slots = slots.settled()
        return slots

    def rows(self) -> Iterator[tuple[int, Row]]:
        """Iterate (rid, row) pairs in rid order, each row a dict built
        for the caller (keys in column order: first seen first, a renamed
        or re-attached column last). Reads one copy of the columns taken
        up front, so mutations performed while the iterator is live do
        not reach it."""
        rids, columns = self._ordered().read()
        names = list(columns)
        for rid, *values in zip(rids, *columns.values()):
            yield rid, dict(zip(names, values))

    def get(self, rid: int) -> Row | None:
        """The row at ``rid`` as a fresh dict, ``None`` when absent."""
        slots = self._slots
        slot = slots.slot.get(rid)
        if slot is None:
            return None
        return slots.row(slot)

    def cut(self, columns: "list[str]") -> RowBatch:
        """The heap as one :class:`RowBatch` in rid order: the rid vector
        and a fresh copy of each of ``columns`` (the columns the statement
        references), never the heap's own lists, carrying the columns'
        facts as they stood at the cut. A scan is a snapshot: later
        mutations do not reach it. Read-only: no index maintenance, no
        WAL interaction.
        """
        slots = self._ordered()
        rids, values = slots.read(columns)
        return RowBatch(rids, values, len(rids), slots.cut_facts(columns))

    def column_values(self, name: str) -> list[Any]:
        """One column's values in rid order (``None`` where a row lacks it).

        The single-column read of value retrieval's distinct-value scan
        and of ``ANALYZE``: one list copy. Read-only, same snapshot safety
        as :meth:`cut`.
        """
        return self._ordered().read([name])[1][name]

    def fetch_batch(
        self, rids: "list[int]", columns: "list[str]"
    ) -> RowBatch:
        """One :class:`RowBatch` for an explicit rid list (index-path
        candidates), in the given rid order; rids no longer present in
        the heap are skipped, like per-rid :meth:`get` probes. It carries
        the columns' facts as they stand now, at its cut."""
        slots = self._slots
        picked = list(map(slots.slot.get, rids))
        if None in picked:
            rids = [rid for rid, slot in zip(rids, picked) if slot is not None]
            picked = [slot for slot in picked if slot is not None]
        else:
            rids = list(rids)
        cols = slots.cols
        absent = [None] * len(picked)
        return RowBatch(
            rids,
            {
                name: list(map(cols[name].__getitem__, picked))
                if name in cols
                else absent[:]
                for name in columns
            },
            len(picked),
            slots.cut_facts(columns),
        )

    def _key_rows(self, columns: tuple[str, ...]) -> Iterator[tuple[int, Row]]:
        """``(rid, {indexed columns only})`` per live row: what index
        backfill and bulk load read instead of whole rows."""
        slots = self._slots
        absent = [None] * len(slots.rids)
        entries = zip(slots.rids, *[slots.cols.get(c, absent) for c in columns])
        if slots.dead:
            entries = compress(entries, slots.live)
        for rid, *values in entries:
            yield rid, dict(zip(columns, values))

    # ---------------------------------------------------------- mutations

    def _write(self, slot: int, row: Row) -> None:
        """Store ``row`` in ``slot`` (one past the last slot: the caller
        is appending it). A row with exactly the heap's keys — every row
        SQL builds — is written by key; for any other, a key not seen
        before opens a column (``None`` in every other slot) and a
        missing one reads as ``None``. Each written value's type joins
        its column's fact."""
        slots = self._slots
        cols = slots.cols
        facts = slots.facts
        total = len(slots.rids)
        if len(row) == len(cols):
            try:
                if slot == total:
                    for name, col in cols.items():
                        value = row[name]
                        col.append(value)
                        if type(value) not in facts[name]:
                            slots.widen(name, value)
                else:
                    for name, col in cols.items():
                        value = row[name]
                        col[slot] = value
                        if type(value) not in facts[name]:
                            slots.widen(name, value)
                return
            except KeyError:
                pass  # same width, other keys: redo the slot below
        for name in row:
            if name not in cols:
                cols[name] = [None] * total
                facts[name] = _NULL_FACT if total else frozenset()
        for name, col in cols.items():
            # replaces the slot's value, or appends it where the column
            # is still one short (an append the keyed loop did not reach)
            value = row.get(name)
            col[slot : slot + 1] = [value]
            slots.widen(name, value)

    def _append(self, rid: int, row: Row) -> None:
        """Give ``rid`` the next slot."""
        slots = self._slots
        self._write(len(slots.rids), row)
        slots.slot[rid] = len(slots.rids)
        slots.rids.append(rid)
        slots.live.append(1)

    def insert(self, row: Row) -> int:
        """Insert ``row`` and maintain all indexes; returns the new rid."""
        rid = self._next_rid
        self._next_rid += 1
        # index first so a uniqueness failure leaves the heap untouched
        inserted: list[HashIndex | SortedIndex] = []
        try:
            for index in self.indexes.values():
                index.insert(rid, row, owner=self.name)
                inserted.append(index)
        except UniqueViolation:
            for index in inserted:
                index.remove(rid, row)
            raise
        self._append(rid, row)
        self._bump()
        return rid

    def restore(self, rid: int, row: Row) -> None:
        """Put back a previously deleted row under its original rid (undo).

        A rid above every slot's appends in order; one whose tombstone
        still stands gets its slot back; anything else appends out of
        order and the next ordered read re-sorts (once, however many
        restores a rollback made).
        """
        slots = self._slots
        rids = slots.rids
        slot = slots.slot.get(rid)
        if slot is None and rids and rid <= rids[-1] and not slots.unsorted:
            at = bisect_left(rids, rid)
            if rids[at] == rid:  # in a sorted array this is its tombstone
                slot = at
                slots.live[at] = 1
                slots.slot[rid] = at
                slots.dead -= 1
        if slot is not None:
            self._write(slot, row)
        else:
            if rids and rid < rids[-1]:
                slots.unsorted = True
            self._append(rid, row)
        self._next_rid = max(self._next_rid, rid + 1)
        for index in self.indexes.values():
            index.insert(rid, row, owner=self.name)
        self._bump()

    def update(self, rid: int, new_row: Row) -> Row:
        """Replace the row at ``rid``; returns the old row (for undo logs)."""
        slots = self._slots
        slot = slots.slot[rid]
        old_row = slots.row(slot)
        for index in self.indexes.values():
            if index.unique and index.key_for(new_row) != index.key_for(old_row):
                if index.would_violate(new_row, ignore_rid=rid):
                    raise UniqueViolation(
                        f"duplicate key value violates unique constraint "
                        f"{index.name!r} on {self.name}"
                    )
        for index in self.indexes.values():
            index.remove(rid, old_row)
            index.insert(rid, new_row, owner=self.name)
        self._write(slot, new_row)
        self._bump()
        return old_row

    def delete(self, rid: int) -> Row:
        """Remove the row at ``rid``; returns it (for undo logs).

        The slot becomes a tombstone. Once tombstones outnumber live rows
        the heap is settled — here, on the write side, the only place
        besides the re-sort in :meth:`_ordered` that moves slots — which
        keeps scans over a shrinking table proportional to what is left.
        """
        slots = self._slots
        slot = slots.slot.pop(rid)
        row = slots.row(slot)
        slots.live[slot] = 0
        slots.dead += 1
        if slots.dead > len(slots.slot):
            self._slots = slots.settled()
        for index in self.indexes.values():
            index.remove(rid, row)
        self._bump()
        return row

    # ------------------------------------------------------------- indexes

    def add_index(self, index: "HashIndex | SortedIndex") -> None:
        """Attach and backfill an index; rolls back on uniqueness violation.

        Each index kind supplies its own backfill: hash indexes insert
        row-by-row (cleaning up on violation), sorted indexes sort once
        and detect duplicates by adjacency.
        """
        index.backfill(self._key_rows(index.columns), owner=self.name)
        self.indexes[index.name] = index
        # index DDL changes the heap's access paths (and its durable
        # representation), so it must move the (uid, version) fingerprint
        self._bump()

    def drop_index(self, name: str) -> "HashIndex | SortedIndex":
        index = self.indexes.pop(name)
        self._bump()
        return index

    def attach_index(self, index: "HashIndex | SortedIndex") -> None:
        """Re-attach a previously dropped index, buckets intact (undo)."""
        self.indexes[index.name] = index
        self._bump()

    def find_index(
        self, columns: tuple[str, ...]
    ) -> "HashIndex | SortedIndex | None":
        """An index exactly covering ``columns``; hash preferred (O(1) probe)."""
        found = None
        for index in self.indexes.values():
            if index.columns == columns:
                if index.kind == "hash":
                    return index
                found = found or index
        return found

    # ------------------------------------------------------ schema changes
    #
    # Whole-list operations. A heap without rows holds no columns (see
    # _Slots.settled), so on one these only move the version.

    def add_column(self, name: str, default: Any = None) -> None:
        slots = self._slots
        if slots.rids:
            slots.cols[name] = [default] * len(slots.rids)
            slots.facts[name] = frozenset((type(default),))
        self._bump()

    def drop_column(self, name: str) -> dict[int, Any]:
        """Detach a column; returns its values by rid (for undo logs)."""
        slots = self._slots
        values = dict(zip(slots.rids, slots.cols.pop(name, ())))
        slots.facts.pop(name, None)
        self._bump()
        return values

    def restore_column(self, name: str, values: dict[int, Any]) -> None:
        """Re-attach a dropped column's values by rid (undo for drop_column)."""
        slots = self._slots
        if slots.rids:
            col = slots.cols[name] = list(map(values.get, slots.rids))
            slots.facts[name] = frozenset(map(type, col))
        self._bump()

    def rename_column(self, old: str, new: str) -> None:
        slots = self._slots
        if old in slots.cols:
            slots.cols[new] = slots.cols.pop(old)
            slots.facts[new] = slots.facts.pop(old)
        for index in self.indexes.values():
            index.rename_column(old, new)  # keys hold values, not names
        self._bump()
