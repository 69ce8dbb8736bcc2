"""Indexed column-exemplar retrieval for BridgeScope's ``get_value`` tool.

The paper's context-retrieval workload (Section 2.2, Figure 5a) calls
``get_value(col, key, k)`` repeatedly while an agent explores a database.
The brute-force path re-reads every distinct value of the column, re-runs
normalization and trigram extraction on each, scores all of them, and
fully sorts — O(rows + distinct·len) per tool call. This package makes
repeated calls cheap by precomputing a per-column **value catalog** served
through a **trigram inverted index**:

Index design
============

``ValueCatalog`` (:mod:`repro.retrieval.catalog`) snapshots the distinct
values of one column and keeps, per value, the normalized text and the
size of its padded-trigram set in two flat arrays; the token and trigram
sets :mod:`repro.core.similarity` scores with are derived from the norm on
first touch, and only for the handful of values a query scores. Three
query-acceleration structures sit on top:

* a *trigram inverted index* — posting lists mapping each trigram to the
  ids of values containing it. A query walks only the posting lists of the
  key's trigrams, accumulating exact shared-trigram counts per candidate
  instead of intersecting sets against every value;
* a *token inverted index* — posting lists per normalized token, probed
  with the key's tokens expanded through the reverse synonym map
  (:class:`repro.core.similarity.SynonymTable`), so synonym-only matches
  surface without scanning;
* a *short-norm table* — values whose normalized form is shorter than one
  trigram (< 3 chars), which substring containment can reach without any
  shared trigram; the domain of such norms is tiny, so it is scanned.

Together these generate a **complete** candidate set: every value with a
nonzero similarity score is covered by one of the three structures (see
the proof sketch in ``catalog.py``). A name column shares common trigrams
with almost any key, so most candidates are noise, and work after
candidate generation goes only to what can still win: the k candidates
with the most shared trigrams are scored first (the *pilot*), their
lowest score is a floor under the final k-th best, and from it follows
the fewest shared trigrams a candidate without a token or short-norm hit
needs to reach that floor (the *count cut*; ``catalog.py`` argues why
dropping the rest is safe). The survivors, a few percent, are ranked by
a cheap upper bound read from the flat arrays — exact trigram Jaccard
from the accumulated counts, plus exact containment and a token-hit
bound — and scored exactly in bound order with a size-k min-heap;
scoring stops as soon as the next bound cannot beat the current k-th
best. Because exact scoring reuses
:func:`repro.core.similarity.score_features`, the indexed ranking is
bit-identical to the brute-force ``top_k`` ranking, zero-score tail
included. ``catalog.stats`` counts, per catalog, queries and the
candidates generated, bounded and scored.

Freshness
=========

Catalogs are immutable snapshots. ``CatalogCache``
(:mod:`repro.retrieval.engine`) keys each catalog by a *fingerprint* —
for minidb, the owning ``HeapTable``'s ``(uid, version)`` change counter,
which every INSERT/UPDATE/DELETE, DDL column change, and transaction
ROLLBACK bumps (undo replays go through the same heap mutators). A stale
fingerprint makes the next call re-scan the column, so exemplars never lag
the data — but the scan is ~1% of the cost of building a catalog from its
result, and a write to the table need not change this column's distinct
list. The stale catalog is therefore *revised* against the fresh list
(:meth:`ValueCatalog.revised`): kept as is when the list is unchanged,
built anew otherwise. A catalog once handed out is never modified.

Persistence
===========

On a durable minidb database (``Database.open(path)``), built catalogs
are additionally written through a :class:`CatalogStore` into the
database directory's ``catalogs/`` sidecar folder, keyed by cache key and
fingerprint. Since the durable engine restores ``(uid, version)``
counters exactly, a reopened database serves ``get_value`` from the
persisted catalogs with zero rebuild for unchanged columns.

Open follow-ups are tracked in ROADMAP.md: cross-column (table-wide)
retrieval, editing a catalog whose list did change instead of rebuilding
it, a cache bound by values held instead of entry count, and pluggable
ANN backends for embedding-based scoring.
"""

from .catalog import ValueCatalog
from .engine import CatalogCache, CatalogStore

__all__ = ["CatalogCache", "CatalogStore", "ValueCatalog"]
