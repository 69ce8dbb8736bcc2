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

A column of names shares common trigrams with nearly every key (8,000 of
10,000 values are candidates of a typical one), so the work after
candidate generation is made proportional to what can still win, in four
steps — pilot, cut, bound, score:

* **Pilot floor.** The k candidates sharing the most trigrams with the
  key are scored exactly. The smallest of those scores, ``floor``, is a
  floor under the final k-th best — any k exact scores are.
* **Count cut** (the count filter of approximate string search: Li, Lu &
  Lu, ICDE 2008). Let ``q = len(key.trigrams)``, ``L = len(key.norm)``,
  ``n_v`` the trigram-set size of value ``v`` and ``s`` their shared
  count. Call a candidate *plain* when it has no token-posting hit and no
  confirmed short-norm containment. A plain candidate has token score
  exactly ``0.0`` (any direct, cluster or reverse match would have put it
  on a probed token posting) and never an equal norm (equal norms share a
  token), so it scores ``max(0.55·s/(q+n_v−s), 0.9·containment)``, or
  less where the kernel caps at 0.999.

  - *Trigram term.* ``n_v ≥ s`` gives ``s/(q+n_v−s) ≤ s/q``, and float
    division and multiplication are monotone, so ``0.55 * (s / q) <
    floor`` — the kernel's own operation order; the token term adds
    ``0.45 * 0.0``, exactly nothing — proves the term below the floor.
    ``cut`` is the smallest ``s`` in ``1..q`` for which that is false,
    ``q + 1`` if there is none.
  - *Key inside value* (``L ≥ 3``): every inner 3-gram of ``key.norm`` is
    in both padded sets, so ``s ≥ len({norm[i:i+3]})``; ``cut`` is
    lowered to that number. ``L < 3`` is the substring sweep above, whose
    hits are not plain.
  - *Value inside key*: its padded set is its inner 3-grams plus at most
    four boundary ones, and every inner one is shared, so ``s + 4 ≥
    n_v``. Value norms under 3 characters are in the short-norm table,
    whose hits are not plain.

  Survivors are ``{v : s ≥ cut or s + 4 ≥ n_v}``, plus every token hit,
  plus every short-norm containment. Everything else scores strictly
  below ``floor ≤`` the final k-th best, so it can neither enter the
  result nor tie with its last entry. The pilot's own members survive by
  the same argument, so at least k do, and the zero-score tail (reached
  only when fewer than k candidates exist at all) is unaffected.
* **Bound.** Each survivor gets a cheap upper bound on its score, read
  from two flat per-value arrays (norms, trigram-set sizes) without
  materializing its features.
* **Score.** Survivors are scored with the exact kernel
  :func:`repro.core.similarity.score_features` in descending bound order,
  keeping a size-k min-heap of exact scores; iteration stops when the
  next upper bound is strictly below the heap's k-th best, which cannot
  change the result even under tie-breaking.

The final ranking sorts by ``(-score, str(value), insertion order)`` —
exactly the stable sort the brute-force ``top_k`` performs — and pads
with zero-score values in text order when fewer than k candidates exist.
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
    """List-like view deriving :class:`TextFeatures` from values and norms.

    A catalog — built or restored from disk alike — holds only values,
    normalized strings and per-value trigram-set sizes (plus the inverted
    indexes); tokens and trigrams of an entry are recomputed from its norm
    on first touch. Bounding reads the flat arrays and materializes
    nothing; only the vids a query *scores* (its pilot and the few that
    survive the bound-ordered early exit, ~6 per call) are ever built, so
    a 10k-value catalog holds a few hundred feature objects instead of
    10,000. Derivation is exact: ``features(text)`` computes
    ``tokens``/``trigrams`` from the norm the same way.

    The memo is filled by readers that hold no lock: a dict store is
    atomic under the GIL, and two readers racing on one vid build equal
    objects, so whichever store lands last changes nothing.
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


def _new_stats() -> dict[str, int]:
    """Zeroed query counters: per call, ``candidates`` generated, of those
    ``bounded`` (reached :meth:`ValueCatalog._upper_bound`), of those
    ``scored`` exactly (pilot included, each vid once)."""
    return {"queries": 0, "candidates": 0, "bounded": 0, "scored": 0}


#: Candidates per requested result above which ``top_k`` runs a pilot. The
#: pilot has a fixed cost per call (pick, cut, survivor set: ~10 us) and
#: saves ~0.7 us per candidate it spares a bound, so it pays from a few
#: dozen candidates up. Measured at k = 5 on two-word syllable columns,
#: with a pilot against without: 24 and 40 values (11 and 19 candidates)
#: +0.015 ms per call, 100 values (47) even, 200 (93) -0.02 ms, 400 (236)
#: -0.11 ms, 10,000 (8,000) -10 ms.
PILOT_FACTOR = 8


class ValueCatalog:
    """Immutable snapshot of one column's distinct values, indexed."""

    def __init__(self, values: Iterable[Any]):
        self.values: list[Any] = list(values)
        texts = [str(value) for value in self.values]
        #: norms by vid (bounding and the short-key containment sweep read
        #: these without touching a full entry)
        self._norms: list[str] = []
        #: padded-trigram-set sizes by vid: with a candidate's shared count
        #: they give its trigram Jaccard from three ints
        self._sizes = array("i")
        # inverted indexes: trigram -> value ids, token -> value ids
        self._trigram_postings: dict[str, list[int]] = {}
        self._token_postings: dict[str, list[int]] = {}
        # norms too short to own a space-free trigram: norm -> value ids
        self._short_norms: dict[str, list[int]] = {}
        for vid, text in enumerate(texts):
            entry = features(text)
            self._norms.append(entry.norm)
            self._sizes.append(len(entry.trigrams))
            if not entry.norm:
                continue
            for trigram in entry.trigrams:
                self._trigram_postings.setdefault(trigram, []).append(vid)
            for token in entry.tokens:
                self._token_postings.setdefault(token, []).append(vid)
            if len(entry.norm) < 3:
                self._short_norms.setdefault(entry.norm, []).append(vid)
        #: features by vid, derived on first touch — the one entry
        #: representation, shared with a catalog loaded from its sidecar
        self.entries = _LazyEntries(self.values, self._norms)
        # zero-score tail ordering: by rendered text, then insertion order
        self._text_order: list[int] = sorted(
            range(len(texts)), key=texts.__getitem__
        )
        #: query counters (observability / tests)
        self.stats = _new_stats()

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
            "trigram_sizes": self._sizes,
            "trigram_postings": _pack_postings(self._trigram_postings),
            "token_postings": _pack_postings(self._token_postings),
            "short_norms": self._short_norms,
            "text_order": array("i", self._text_order),
        }

    def __setstate__(self, state: dict) -> None:
        self.values = state["values"]
        self._norms = state["norms"]
        # a sidecar written before sizes were persisted still opens: they
        # are a function of the norms (~40 ms at 10k values, once)
        self._sizes = state.get("trigram_sizes")
        if self._sizes is None:
            self._sizes = array(
                "i", (len(_trigrams_of_norm(norm)) for norm in self._norms)
            )
        self.entries = _LazyEntries(self.values, self._norms)
        # postings stay packed: candidate generation only probes and
        # iterates them, which the span-slicing wrapper serves directly
        self._trigram_postings = _PackedPostings(*state["trigram_postings"])
        self._token_postings = _PackedPostings(*state["token_postings"])
        self._short_norms = state["short_norms"]
        self._text_order = state["text_order"]
        self.stats = _new_stats()

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

        # exact scores by vid, each computed once (pilot, then main loop)
        scores: dict[int, float] = {}

        def exact(vid: int) -> float:
            score = scores.get(vid)
            if score is None:
                score = scores[vid] = score_features(
                    key_features, self.entries[vid], table
                )
            return score

        survivors: Iterable[int] = candidates
        if len(candidates) > PILOT_FACTOR * k:
            # pilot: the k candidates sharing the most trigrams, so that
            # the floor their exact scores set is a high one
            pilot = heapq.nlargest(k, candidates, key=candidates.get)
            floor = min(map(exact, pilot))
            cut = self._count_cut(key_features, floor)
            sizes = self._sizes
            survivors = {
                vid
                for vid, shared in candidates.items()
                if shared >= cut or shared + 4 >= sizes[vid]
            }
            survivors |= token_hits
            survivors |= containable

        # rank the survivors by a cheap upper bound on their exact score
        bounded = [
            (
                self._upper_bound(
                    key_features,
                    vid,
                    candidates[vid],
                    vid in token_hits,
                    vid in containable,
                ),
                vid,
            )
            for vid in survivors
        ]
        self.stats["bounded"] += len(bounded)
        bounded.sort(reverse=True)

        # exact-score in bound order with a size-k min-heap; stop once the
        # next bound is strictly below the current k-th best (ties at the
        # boundary are still scored, so tie-breaking stays exact)
        evaluated: list[tuple[float, int]] = []
        best_k: list[float] = []
        for bound, vid in bounded:
            if len(best_k) >= k and bound < best_k[0]:
                break
            score = exact(vid)
            evaluated.append((score, vid))
            if len(best_k) < k:
                heapq.heappush(best_k, score)
            elif score > best_k[0]:
                heapq.heapreplace(best_k, score)
        self.stats["scored"] += len(scores)

        # brute force stable-sorts all values by (-score, text); replicate
        # it as (-score, text, insertion order) over the scored candidates
        evaluated.sort(
            key=lambda pair: (-pair[0], self.entries[pair[1]].text, pair[1])
        )
        result = [(self.values[vid], score) for score, vid in evaluated[:k]]
        if len(result) < k:
            result.extend(self._zero_tail(k - len(result), candidates))
        return result

    # ----------------------------------------------------- count filtering

    @staticmethod
    def _count_cut(key: TextFeatures, floor: float) -> int:
        """Fewest shared trigrams with which a *plain* candidate — no
        token-posting hit, not ``containable`` — can still score ``floor``
        (see the module docstring for why everything below is safe to drop).
        """
        q = len(key.trigrams)
        # trigram term at its best (|value set| == shared), in the kernel's
        # own operation order; the token term of a plain candidate is
        # 0.45 * 0.0, which adds exactly nothing
        cut = next(
            (s for s in range(1, q + 1) if not 0.55 * (s / q) < floor), q + 1
        )
        if len(key.norm) >= 3:
            # a value containing the key shares all of its inner 3-grams
            norm = key.norm
            cut = min(cut, len({norm[i : i + 3] for i in range(len(norm) - 2)}))
        return cut

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

        Reads ``_norms`` and ``_sizes`` only — bounding a candidate never
        materializes its entry. The trigram term is exact — ``shared`` is
        the true intersection size, so the Jaccard falls out of the set
        sizes without touching the sets. The containment term is exact
        too: a substring relation is only possible when a shared trigram
        or short-norm hit exists, and then one O(len) ``in`` check settles
        it (this is what makes the bound tight enough to prune the
        trigram-noise tail). Only the token term is loose: any
        token-posting hit is assumed to be a perfect overlap.
        """
        norm = self._norms[vid]
        if key.norm == norm:
            return 1.0
        trigram = (
            shared / (len(key.trigrams) + self._sizes[vid] - shared)
            if shared
            else 0.0
        )
        token = 1.0 if token_hit else 0.0
        containment = 0.0
        if (shared or containable) and (key.norm in norm or norm in key.norm):
            shorter = min(len(key.norm), len(norm))
            longer = max(len(key.norm), len(norm))
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
