"""Fingerprint-keyed catalog cache — freshness without write-path hooks.

A :class:`CatalogCache` holds one :class:`~repro.retrieval.catalog.ValueCatalog`
per cache key (for minidb: ``(table, column, scan limit)``), each stamped
with the *fingerprint* of the data it was built from. Callers pass the
current fingerprint on every lookup. For minidb the fingerprint is the
owning heap's ``(uid, version)`` pair — ``version`` is bumped by every
row/column/index mutation including transaction undo replays, and ``uid``
changes when a table is dropped and recreated — so
INSERT/UPDATE/DELETE/ROLLBACK and DDL can never serve stale exemplars, and
read-only workloads never pay an invalidation check beyond an integer
compare.

A mismatch says the *table* changed, not that the *column's distinct
list* did, and the scan that settles the question costs ~1% of building a
catalog from its result (3 ms against 230 ms at 10k values). So a stale
entry is a candidate, not garbage: the lookup re-scans (``build()``) and
asks the cached catalog for :meth:`ValueCatalog.revised` — the same
object when the list is unchanged, ``None`` (construct anew) otherwise.
Nothing hooks the write path; the fingerprint stays the only validity
check.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable

from .catalog import ValueCatalog


class CatalogCache:
    """LRU cache of value catalogs, invalidated by data fingerprints.

    Thread-safe: the cache is shared by every session of a database, and
    concurrent ``get_value`` calls race lookups against each other's
    inserts and evictions. A mutex guards the LRU ``OrderedDict`` and the counters — an unguarded
    ``move_to_end``/``popitem`` race corrupts the dict. Catalog *builds*
    (the expensive part) deliberately run outside the mutex, so two
    sessions may build the same missing catalog concurrently; last writer
    wins, which is safe because both catalogs are equivalent for the
    fingerprint they were built under. A catalog, once returned, never
    changes (readers run ``top_k`` on it outside every lock); a stale one
    found unchanged is re-stamped in the cache, not touched.
    """

    def __init__(self, max_entries: int = 128):
        self.max_entries = max_entries
        self._mutex = threading.Lock()
        #: guarded by self._mutex
        self._entries: OrderedDict[Hashable, tuple[Hashable, ValueCatalog]] = (
            OrderedDict()
        )
        #: lookup counters (observability / tests)
        #: guarded by self._mutex
        #: ``rebuilds`` counts stale entries refreshed, ``revised`` those
        #: of them served without constructing a catalog anew
        self.stats = {"hits": 0, "misses": 0, "rebuilds": 0, "revised": 0}

    def __len__(self) -> int:
        with self._mutex:
            return len(self._entries)

    def lookup(
        self,
        key: Hashable,
        fingerprint: Hashable,
        build: Callable[[], list[Any]],
    ) -> ValueCatalog:
        """The catalog for ``key``: cached, revised or built.

        ``build()`` is the column's ordered distinct-value scan; a stale
        entry is checked against it (:meth:`ValueCatalog.revised`) before
        anything is constructed.
        """
        with self._mutex:
            cached = self._entries.get(key)
            if cached is not None and cached[0] == fingerprint:
                self._entries.move_to_end(key)
                self.stats["hits"] += 1
                return cached[1]
        values = build()
        catalog = cached[1].revised(values) if cached is not None else None
        revised = catalog is not None
        if catalog is None:
            catalog = ValueCatalog(values)
        with self._mutex:
            if cached is None:
                self.stats["misses"] += 1
            else:
                self.stats["rebuilds"] += 1
                if revised:
                    self.stats["revised"] += 1
            self._entries[key] = (fingerprint, catalog)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        return catalog

    def cached_catalogs(self) -> list[ValueCatalog]:
        """Snapshot of the cached catalogs, LRU order (observability)."""
        with self._mutex:
            return [catalog for _, catalog in self._entries.values()]
