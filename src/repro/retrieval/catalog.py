"""Per-column value catalog with a trigram inverted index.

See the package docstring for the overall design. The correctness
argument for candidate completeness — every value whose similarity score
is nonzero appears in the candidate set — goes component by component
over the score ``max(0.55·trigram + 0.45·token, 0.9·containment)``:

* ``trigram > 0`` — the key and value share a padded trigram, so the
  value sits on a posting list of one of the key's trigrams.
* ``token > 0`` — some key token matches a value token directly, through
  its cluster, or through the reverse map; the probe set
  ``key_tokens ∪ related(key_token)`` covers all three directions.
* ``containment > 0`` — one normalized string contains the other. If the
  contained string has ≥ 3 characters, its interior trigrams appear in
  both trigram sets (a padded set includes every interior 3-gram), so the
  trigram postings already cover it. Shorter contained strings have no
  space-free trigram: a value norm < 3 chars lives in the short-norm
  table, and a key norm < 3 chars triggers a one-off substring sweep
  (bounded, and only for 1-2 character keys).

Candidates are scored with the exact kernel
:func:`repro.core.similarity.score_features` in descending upper-bound
order, keeping a size-k min-heap of exact scores; iteration stops when
the next upper bound is strictly below the heap's k-th best, which cannot
change the result even under tie-breaking. The final ranking sorts by
``(-score, str(value), insertion order)`` — exactly the stable sort the
brute-force ``top_k`` performs — and pads with zero-score values in text
order when fewer than k candidates exist.
"""

from __future__ import annotations

import heapq
from array import array
from collections import Counter
from itertools import chain
from typing import Any, Iterable

from ..core.similarity import (
    SynonymTable,
    TextFeatures,
    _trigrams_of_norm,
    features,
    resolve_synonyms,
    score_features,
)


class _PackedPostings:
    """Read-only posting index restored from the flat persisted layout.

    Pickling one ``array`` per posting list still costs one object per
    key; the persisted form is instead three objects total — the key
    list, an end-offset array, and one flat vid array — which pickle
    restores at memcpy speed. Lookups slice the flat array on demand, so
    only probed keys ever pay for materialization. Implements just the
    mapping surface candidate generation uses (``get`` / ``items``).
    """

    __slots__ = ("_spans", "_flat")

    def __init__(self, keys: list[str], ends: array, flat: array):
        spans: dict[str, tuple[int, int]] = {}
        start = 0
        for key, end in zip(keys, ends):
            spans[key] = (start, end)
            start = end
        self._spans = spans
        self._flat = flat

    def get(self, key: str, default: Any = None) -> Any:
        span = self._spans.get(key)
        if span is None:
            return default
        return self._flat[span[0]:span[1]]

    def items(self):
        for key, (start, end) in self._spans.items():
            yield key, self._flat[start:end]

    def __len__(self) -> int:
        return len(self._spans)


def _pack_postings(postings) -> tuple[list[str], array, array]:
    """Flatten a posting mapping into the persisted (keys, ends, flat) form."""
    keys: list[str] = []
    ends = array("i")
    flat = array("i")
    total = 0
    for key, vids in postings.items():
        keys.append(key)
        flat.extend(vids)
        total += len(vids)
        ends.append(total)
    return keys, ends, flat


class _LazyEntries:
    """List-like view deriving :class:`TextFeatures` from persisted norms.

    A catalog restored from disk stores only values and normalized strings
    (plus the inverted indexes); tokens and trigrams of an entry are
    recomputed from its norm on first touch. Queries only ever touch their
    candidates, so a loaded catalog materializes a few thousand entries
    instead of all of them — this is what makes persisted-catalog loads
    ~10x cheaper than rebuilds. Derivation is exact: ``features(text)``
    computes ``tokens``/``trigrams`` from the norm the same way.
    """

    __slots__ = ("_values", "_norms", "_cache")

    def __init__(self, values: list[Any], norms: list[str]):
        self._values = values
        self._norms = norms
        self._cache: dict[int, TextFeatures] = {}

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, vid: int) -> TextFeatures:
        entry = self._cache.get(vid)
        if entry is None:
            norm = self._norms[vid]
            entry = TextFeatures(
                text=str(self._values[vid]),
                norm=norm,
                tokens=frozenset(norm.split()),
                trigrams=_trigrams_of_norm(norm),
            )
            self._cache[vid] = entry
        return entry


def _alike(a: Any, b: Any) -> bool:
    """The same catalog entry: equal *as rendered*.

    ``1 == 1.0 == True`` (and ``0.0 == -0.0``) in Python, yet each is
    scored by its own text and handed back as itself.
    """
    return a is b or (type(a) is type(b) and str(a) == str(b))


class ValueCatalog:
    """Immutable snapshot of one column's distinct values, indexed."""

    def __init__(self, values: Iterable[Any]):
        self.values: list[Any] = list(values)
        self.entries: "list[TextFeatures] | _LazyEntries" = [
            features(str(value)) for value in self.values
        ]
        #: norms by vid, shared with the persisted form (the short-key
        #: containment sweep reads these without touching full entries)
        self._norms: list[str] = [e.norm for e in self.entries]
        # inverted indexes: trigram -> value ids, token -> value ids
        self._trigram_postings: dict[str, list[int]] = {}
        self._token_postings: dict[str, list[int]] = {}
        # norms too short to own a space-free trigram: norm -> value ids
        self._short_norms: dict[str, list[int]] = {}
        for vid, entry in enumerate(self.entries):
            if not entry.norm:
                continue
            for trigram in entry.trigrams:
                self._trigram_postings.setdefault(trigram, []).append(vid)
            for token in entry.tokens:
                self._token_postings.setdefault(token, []).append(vid)
            if len(entry.norm) < 3:
                self._short_norms.setdefault(entry.norm, []).append(vid)
        # zero-score tail ordering: by rendered text, then insertion order
        self._text_order: list[int] = sorted(
            range(len(self.entries)), key=lambda vid: self.entries[vid].text
        )
        #: query counters (observability / tests)
        self.stats = {"queries": 0, "candidates": 0, "scored": 0}

    def __len__(self) -> int:
        return len(self.values)

    # -------------------------------------------------------- serialization

    def __getstate__(self) -> dict:
        """Packed pickle form — loading must be far cheaper than rebuilding.

        Per-entry feature objects are dropped entirely (norms suffice to
        re-derive them lazily, see :class:`_LazyEntries`) and posting
        lists become ``array('i')``, which pickle stores as raw bytes and
        restores at memcpy speed instead of one-object-at-a-time.
        """
        return {
            "values": self.values,
            "norms": list(self._norms),
            "trigram_postings": _pack_postings(self._trigram_postings),
            "token_postings": _pack_postings(self._token_postings),
            "short_norms": self._short_norms,
            "text_order": array("i", self._text_order),
        }

    def __setstate__(self, state: dict) -> None:
        self.values = state["values"]
        self._norms = state["norms"]
        self.entries = _LazyEntries(self.values, self._norms)
        # postings stay packed: candidate generation only probes and
        # iterates them, which the span-slicing wrapper serves directly
        self._trigram_postings = _PackedPostings(*state["trigram_postings"])
        self._token_postings = _PackedPostings(*state["token_postings"])
        self._short_norms = state["short_norms"]
        self._text_order = state["text_order"]
        self.stats = {"queries": 0, "candidates": 0, "scored": 0}

    def revised(self, fresh: list[Any]) -> "ValueCatalog | None":
        """``self`` if it is the catalog of ``fresh`` already, else ``None``.

        ``fresh`` is the column's ordered distinct list as scanned now;
        this catalog indexes the list as it was. A stale fingerprint says
        the table changed, not this list: another column updated, a
        present value inserted or deleted again, index DDL, ROLLBACK and a
        row beyond the scan limit all leave it as it was, and comparing
        is far cheaper than building. On ``None`` — any difference, in
        value, type or order — the caller builds ``ValueCatalog(fresh)``.
        """
        if len(fresh) == len(self.values) and all(
            map(_alike, self.values, fresh)
        ):
            return self
        return None

    # ---------------------------------------------------------- retrieval

    def top_k(
        self, key: str, k: int, synonyms: Any = None
    ) -> list[tuple[Any, float]]:
        """The k most relevant values — identical to brute-force ``top_k``."""
        k = max(k, 0)
        if k == 0:
            return []
        self.stats["queries"] += 1
        table = resolve_synonyms(synonyms)
        key_features = features(key)
        candidates, token_hits, containable = self._candidates(
            key_features, table
        )
        self.stats["candidates"] += len(candidates)

        # rank candidates by a cheap upper bound on their exact score
        bounded = [
            (
                self._upper_bound(
                    key_features,
                    vid,
                    shared,
                    vid in token_hits,
                    vid in containable,
                ),
                vid,
            )
            for vid, shared in candidates.items()
        ]
        bounded.sort(reverse=True)

        # exact-score in bound order with a size-k min-heap; stop once the
        # next bound is strictly below the current k-th best (ties at the
        # boundary are still scored, so tie-breaking stays exact)
        evaluated: list[tuple[float, int]] = []
        best_k: list[float] = []
        for bound, vid in bounded:
            if len(best_k) >= k and bound < best_k[0]:
                break
            score = score_features(key_features, self.entries[vid], table)
            evaluated.append((score, vid))
            if len(best_k) < k:
                heapq.heappush(best_k, score)
            elif score > best_k[0]:
                heapq.heapreplace(best_k, score)
        self.stats["scored"] += len(evaluated)

        # brute force stable-sorts all values by (-score, text); replicate
        # it as (-score, text, insertion order) over the scored candidates
        evaluated.sort(
            key=lambda pair: (-pair[0], self.entries[pair[1]].text, pair[1])
        )
        result = [(self.values[vid], score) for score, vid in evaluated[:k]]
        if len(result) < k:
            result.extend(self._zero_tail(k - len(result), candidates))
        return result

    # ------------------------------------------------- candidate generation

    def _candidates(
        self, key: TextFeatures, table: SynonymTable
    ) -> tuple[dict[int, int], set[int], set[int]]:
        """Value ids that may score > 0.

        Returns ``(shared, token_hits, containable)``: every candidate id
        mapped to its exact shared-trigram count, the subset reached via
        token postings (direct, cluster, or reverse-synonym probes), and
        the subset with a *confirmed* substring relation found through the
        short-norm structures (sub-trigram containment the trigram
        postings cannot see).
        """
        if not key.text or not key.norm:
            return {}, set(), set()
        # Counter.update over chained posting lists counts in C
        shared: dict[int, int] = Counter()
        postings = (self._trigram_postings.get(t) for t in key.trigrams)
        shared.update(chain.from_iterable(p for p in postings if p))
        token_hits: set[int] = set()
        probes = set(key.tokens)
        for token in key.tokens:
            probes |= table.related(token)
        for token in probes:
            for vid in self._token_postings.get(token, ()):
                token_hits.add(vid)
                shared.setdefault(vid, 0)
        # containment without shared trigrams: sub-trigram norms either way
        containable: set[int] = set()
        for norm, vids in self._short_norms.items():
            if norm in key.norm:
                for vid in vids:
                    containable.add(vid)
                    shared.setdefault(vid, 0)
        if len(key.norm) < 3:
            # norms are stored flat (shared with the persisted form), so
            # this sweep never materializes lazy entries
            for vid, norm in enumerate(self._norms):
                if norm and key.norm in norm:
                    containable.add(vid)
                    shared.setdefault(vid, 0)
        return shared, token_hits, containable

    def _upper_bound(
        self,
        key: TextFeatures,
        vid: int,
        shared: int,
        token_hit: bool,
        containable: bool,
    ) -> float:
        """Cheap bound on ``score_features(key, entries[vid])``.

        The trigram term is exact — ``shared`` is the true intersection
        size, so the Jaccard falls out of the set sizes without touching
        the sets. The containment term is exact too: a substring relation
        is only possible when a shared trigram or short-norm hit exists,
        and then one O(len) ``in`` check settles it (this is what makes
        the bound tight enough to prune the trigram-noise tail). Only the
        token term is loose: any token-posting hit is assumed to be a
        perfect overlap.
        """
        entry = self.entries[vid]
        if key.norm == entry.norm:
            return 1.0
        trigram = (
            shared / (len(key.trigrams) + len(entry.trigrams) - shared)
            if shared
            else 0.0
        )
        token = 1.0 if token_hit else 0.0
        containment = 0.0
        if (shared or containable) and (
            key.norm in entry.norm or entry.norm in key.norm
        ):
            shorter = min(len(key.norm), len(entry.norm))
            longer = max(len(key.norm), len(entry.norm))
            containment = 0.5 + 0.5 * (shorter / longer)
        return max(0.55 * trigram + 0.45 * token, 0.9 * containment)

    def _zero_tail(
        self, n: int, exclude: dict[int, int]
    ) -> list[tuple[Any, float]]:
        """Zero-score padding in text order, skipping scored candidates."""
        tail: list[tuple[Any, float]] = []
        for vid in self._text_order:
            if vid in exclude:
                continue
            tail.append((self.values[vid], 0.0))
            if len(tail) == n:
                break
        return tail
