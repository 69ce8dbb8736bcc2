"""Per-column value catalog with a trigram inverted index.

See the package docstring for the overall design. The correctness
argument for candidate completeness — every value whose similarity score
is nonzero appears in the candidate set — goes component by component
over the score ``max(0.55·trigram + 0.45·token, 0.9·containment)``:

* ``trigram > 0`` — the key and value share a padded trigram, so the
  value sits on a posting of one of the key's trigrams.
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

**Postings and counts.** A trigram held by at least ``n / DENSE_SHARE``
of the catalog's ``n`` values is posted as one ``int`` bitmap (bit ``vid``
set for each value holding it); a sparser one keeps its vid list. Token
and short-norm postings are lists. A query counts the trigrams each value
shares with the key in a *bit-sliced* counter (Rinfret, O'Neil & O'Neil,
SIGMOD 2001): plane ``j`` is the bitmap of the values whose count has bit
``j`` set. Each dense bitmap of the key is added by ripple carry (``^``
sums, ``&`` carries); the sparse lists are counted once with ``Counter``
and each count is added at its value's bit. Every posting of every key
trigram is added exactly once, so the planes hold the exact shared count
``s`` of every value, and ``s > 0`` exactly for the values the first
bullet above reaches. What follows reads the planes as masks: ``s ≥ t``
compares them with ``t`` from the top plane down, and the values with the
highest counts are found by narrowing plane by plane. No step visits a
candidate one at a time until the bound below, and it visits only the
survivors that are not in a plain level, and the levels the scoring
loop reaches.

A column of names shares common trigrams with nearly every key (8,000 of
10,000 values are candidates of a typical one), so the work after
candidate generation is made proportional to what can still win, in four
steps — pilot, cut, bound, score:

* **Pilot floor.** The k candidates sharing the most trigrams with the
  key (ties in vid order) are scored exactly. The smallest of those
  scores, ``floor``, is a floor under the final k-th best — any k exact
  scores are.
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
  only when fewer than k candidates exist at all) is unaffected. As
  masks: a value with ``n_v ≥ cut + 4`` meets ``s + 4 ≥ n_v`` only with
  ``s ≥ cut``, so the survivors are ``s ≥ cut``, OR'd for each size
  ``m < cut + 4`` with the mask of the values of that size and ``s ≥
  max(m − 4, 1)``, OR'd with the token and containment hits — the same
  set, built from a few dozen integer operations.
* **Bound, by level.** The survivor mask is split top plane down into one
  part per shared count ``c``, and each part, less the hits, is AND'd
  with each size mask: the values of a *level* ``(c, m)`` all share ``s =
  c`` and ``n_v = m``. A level is *plain* when ``L ≥ 3``, ``c <`` the
  key's distinct inner 3-grams and ``m − c > 4``. By the count cut's two
  containment bullets, none of its values contains the key (that needs
  ``s ≥`` those 3-grams) or sits inside it (that needs ``s + 4 ≥ n_v``,
  or a short norm, which is a hit); nor does one equal it (equal norms
  share a token, so that is a hit too). Its containment term is exactly
  ``0.0`` and its token term ``0.45 * 0.0``, so ``0.55 * (c / (q + m −
  c))``, computed once, is bit for bit what the per-value bound gives
  each of its values. Every other survivor — hits, ``c = 0`` and the
  other levels — is bounded one at a time from two flat per-value arrays
  (norms, trigram-set sizes) without materializing its features.
* **Score.** Levels and single survivors are scored with the exact
  kernel :func:`repro.core.similarity.score_features` in descending
  bound order, a level's vids pulled out of its mask only when it is
  reached, keeping a size-k min-heap of exact scores; iteration stops
  when the next upper bound is strictly below the heap's k-th best. Every
  value whose bound reaches the final k-th best is scored, whatever the
  order among equal bounds, so this cannot change the result even under
  tie-breaking.

The final ranking sorts by ``(-score, str(value), insertion order)`` —
exactly the stable sort the brute-force ``top_k`` performs — and pads
with zero-score values in text order when fewer than k candidates exist.
"""

from __future__ import annotations

import heapq
import struct
import sys
from array import array
from collections import Counter
from functools import reduce
from itertools import chain
from operator import is_, or_
from typing import Any, Iterable, Mapping

from ..core.similarity import (
    SynonymTable,
    TextFeatures,
    _trigrams_of_norm,
    features,
    resolve_synonyms,
    score_features,
)

#: A trigram posted on at least ``1 / DENSE_SHARE`` of a catalog's values
#: is kept as a bitmap. The share is where the bitmap stops costing more
#: than the list: a list spends one pointer (8 bytes) per entry, a CPython
#: ``int`` one 4-byte digit per 30 values, so over ``n`` values a bitmap is
#: the smaller from ``n / 60`` entries on.
DENSE_SHARE = (
    struct.calcsize("P")
    * sys.int_info.bits_per_digit
    // sys.int_info.sizeof_digit
)


def _bitmap(vids: Iterable[int], nbytes: int) -> int:
    """The bitmap with bit ``vid`` set for each of ``vids`` (all below
    ``8 * nbytes``)."""
    lanes = bytearray(nbytes)
    for vid in vids:
        lanes[vid >> 3] |= 1 << (vid & 7)
    return int.from_bytes(lanes, "little")


def _vids_by(pairs: Iterable[tuple[int, int]]) -> dict[int, list[int]]:
    """``(vid, value)`` pairs grouped: value -> its vids, in pair order."""
    groups: dict[int, list[int]] = {}
    for vid, value in pairs:
        groups.setdefault(value, []).append(vid)
    return groups


def _count_planes(counts: Mapping[int, int], nbytes: int) -> list[int]:
    """``counts`` (vid -> count ≥ 1) as bit planes: plane ``j`` holds
    bit ``j`` of each vid's count."""
    by_count = _vids_by(counts.items())
    planes = [0] * max(by_count).bit_length()
    for count, vids in by_count.items():
        bitmap = _bitmap(vids, nbytes)
        for j in range(len(planes)):
            if count >> j & 1:
                planes[j] |= bitmap
    return planes


def _shared_planes(
    bitmaps: Iterable[int], lists: Iterable[Iterable[int]], nbytes: int
) -> list[int]:
    """Bit planes counting, per vid, the ``bitmaps`` and ``lists`` that
    hold it: each bitmap added by ripple carry, the lists counted once
    (``Counter`` over them chained counts in C) and added as planes."""
    planes: list[int] = []
    for bitmap in bitmaps:
        _add(planes, (bitmap,))
    sparse = Counter(chain.from_iterable(lists))
    if sparse:
        _add(planes, _count_planes(sparse, nbytes))
    return planes


def _add(planes: list[int], addend: Iterable[int]) -> None:
    """``planes += addend``, both bit-sliced, by ripple carry."""
    carry = j = 0
    for bits in addend:
        if j == len(planes):
            planes.append(0)
        plane = planes[j]
        half = plane ^ bits
        planes[j] = half ^ carry
        carry = (plane & bits) | (half & carry)
        j += 1
    while carry:
        if j == len(planes):
            planes.append(carry)
            return
        plane = planes[j]
        planes[j] = plane ^ carry
        carry &= plane
        j += 1


def _at_least(planes: list[int], t: int, universe: int) -> int:
    """The values of ``universe`` whose count is ``≥ t`` (``t ≥ 1``),
    comparing top plane down: ``above`` already exceeds ``t``'s leading
    bits, ``equal`` matches them so far."""
    if t.bit_length() > len(planes):
        return 0
    above, equal = 0, universe
    for j in range(len(planes) - 1, -1, -1):
        if t >> j & 1:
            equal &= planes[j]
        else:
            hit = equal & planes[j]
            above |= hit
            equal ^= hit
    return above | equal


def _highest(planes: list[int], k: int, universe: int) -> list[int]:
    """``k`` vids of ``universe`` (which holds at least ``k``) with the
    highest counts, ties in vid order: top plane down, a plane bit either
    settles its holders inside (they all fit) or narrows the search to
    them."""
    taken, tied, need = 0, universe, k
    for plane in reversed(planes):
        high = tied & plane
        found = high.bit_count()
        if found > need:
            tied = high
        else:
            taken |= high
            tied ^= high
            need -= found
    return _lowest(taken, k) + _lowest(tied, need)


def _lowest(mask: int, count: int) -> list[int]:
    """The ``count`` lowest vids set in ``mask``."""
    vids: list[int] = []
    while mask and len(vids) < count:
        low = mask & -mask
        vids.append(low.bit_length() - 1)
        mask ^= low
    return vids


#: byte -> 1 if any bit is set (``bytes.translate`` table)
_ANY = bytes([0] + [1] * 255)
#: byte -> the offsets of its set bits
_OFFSETS = tuple(
    tuple(bit for bit in range(8) if byte >> bit & 1) for byte in range(256)
)


def _members(mask: int) -> list[int]:
    """Every vid set in ``mask``, ascending: the nonzero bytes are found
    in C, and only their bits are visited."""
    raw = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
    find = raw.translate(_ANY).find
    vids: list[int] = []
    at = find(1)
    while at >= 0:
        base = at << 3
        for bit in _OFFSETS[raw[at]]:
            vids.append(base + bit)
        at = find(1, at + 1)
    return vids


def _count_parts(planes: list[int], mask: int) -> list[tuple[int, int]]:
    """``mask`` split by count: ``(part, count)`` for each distinct count
    of its vids, highest first. Top plane down, each part is split into
    the vids that agree on every bit read so far; no vid is visited."""
    parts = [(mask, 0)] if mask else []
    for j in range(len(planes) - 1, -1, -1):
        plane = planes[j]
        split = []
        for part, count in parts:
            high = part & plane
            if high:
                split.append((high, count | 1 << j))
            if high != part:
                split.append((part ^ high, count))
        parts = split
    return parts


def _split_dense(
    postings: Mapping[str, Any], n: int
) -> tuple[dict[str, int], dict[str, Any]]:
    """``(bitmaps, lists)``: the postings of at least ``n / DENSE_SHARE``
    vids as bitmaps, the rest as they are."""
    nbytes = (n + 7) >> 3
    bitmaps: dict[str, int] = {}
    lists: dict[str, Any] = {}
    for trigram, vids in postings.items():
        if len(vids) * DENSE_SHARE >= n:
            bitmaps[trigram] = _bitmap(vids, nbytes)
        else:
            lists[trigram] = vids
    return bitmaps, lists


def _size_masks(sizes: Iterable[int], nbytes: int) -> dict[int, int]:
    """Trigram-set size -> the bitmap of the values of that size."""
    return {
        size: _bitmap(vids, nbytes)
        for size, vids in _vids_by(enumerate(sizes)).items()
    }


class _LazyEntries:
    """List-like view deriving :class:`TextFeatures` from values and norms.

    A catalog holds only values, normalized strings and per-value
    trigram-set sizes (plus the inverted indexes); tokens and trigrams of
    an entry are recomputed from its norm on first touch. Bounding reads the flat arrays and materializes
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
    ``bounded`` (survived the count cut and were ranked), ``visited`` (the
    vids of those touched one at a time: bounded by
    :meth:`ValueCatalog._upper_bound`, or pulled out of a level the
    scoring loop reached), and ``scored`` exactly (pilot included, each
    vid once)."""
    return {
        "queries": 0, "candidates": 0, "bounded": 0, "visited": 0, "scored": 0,
    }


def _inner_trigrams(norm: str) -> int:
    """The distinct inner 3-grams of ``norm``, which every value containing
    it shares with it (0 under 3 characters)."""
    return len({norm[i : i + 3] for i in range(len(norm) - 2)})


#: Candidates per requested result above which ``top_k`` runs a pilot. The
#: pilot has a fixed cost per call (pick, cut, survivor masks, and k exact
#: scores that bounding might have skipped) and spares each dropped
#: candidate a bound, so it pays from a few dozen candidates up. Measured
#: at k = 5 on two-word syllable columns, CPU ms per warm call with a
#: pilot against without: 40 values (20 candidates) +0.02, 100 (48)
#: -0.03 to -0.04, 200 (97) -0.12, 400 (184) -0.43, 1,000 (461) -0.56.
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
        trigram_postings: dict[str, list[int]] = {}
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
                trigram_postings.setdefault(trigram, []).append(vid)
            for token in entry.tokens:
                self._token_postings.setdefault(token, []).append(vid)
            if len(entry.norm) < 3:
                self._short_norms.setdefault(entry.norm, []).append(vid)
        #: dense trigram postings as bitmaps, the sparse ones as vid lists
        self._trigram_bitmaps, self._trigram_postings = _split_dense(
            trigram_postings, len(texts)
        )
        #: trigram-set size -> bitmap of the values of that size (the
        #: ``s + 4 ≥ n_v`` escape of the count cut, as masks)
        self._size_masks = _size_masks(self._sizes, self._nbytes)
        #: features by vid, derived on first touch — the one entry
        #: representation
        self.entries = _LazyEntries(self.values, self._norms)
        # zero-score tail ordering: by rendered text, then insertion order
        self._text_order: list[int] = sorted(
            range(len(texts)), key=texts.__getitem__
        )
        #: query counters (observability / tests)
        self.stats = _new_stats()

    def __len__(self) -> int:
        return len(self.values)

    @property
    def _nbytes(self) -> int:
        """Bytes of one bitmap over this catalog's values."""
        return (len(self.values) + 7) >> 3

    def revised(self, fresh: list[Any]) -> "ValueCatalog | None":
        """``self`` if it is the catalog of ``fresh`` already, else ``None``.

        ``fresh`` is the column's ordered distinct list as scanned now;
        this catalog indexes the list as it was. A stale fingerprint says
        the table changed, not this list: another column updated, a
        present value inserted or deleted again, index DDL, ROLLBACK and a
        row beyond the scan limit all leave it as it was, and comparing
        is far cheaper than building. On ``None`` — any difference, in
        value, type or order — the caller builds ``ValueCatalog(fresh)``.
        An unchanged list after a write holds the heap's own objects, so
        identity settles it in C before any value is rendered.
        """
        if len(fresh) == len(self.values) and (
            all(map(is_, self.values, fresh))
            or all(map(_alike, self.values, fresh))
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
        planes, token_hits, containable = self._candidates(
            key_features, table
        )
        # values sharing a trigram, and the token / containment hits
        sharing = reduce(or_, planes, 0)
        hits = _bitmap(token_hits | containable, self._nbytes)
        candidates = sharing | hits
        found = candidates.bit_count()
        self.stats["candidates"] += found

        # exact scores by vid, each computed once (pilot, then main loop)
        scores: dict[int, float] = {}

        def exact(vid: int) -> float:
            score = scores.get(vid)
            if score is None:
                score = scores[vid] = score_features(
                    key_features, self.entries[vid], table
                )
            return score

        survivors = candidates
        if found > PILOT_FACTOR * k and sharing.bit_count() >= k:
            # pilot: the k candidates sharing the most trigrams, so that
            # the floor their exact scores set is a high one. With fewer
            # than k sharing any, the candidates are mostly hits, which
            # survive anyway, and all of them are kept.
            floor = min(map(exact, _highest(planes, k, sharing)))
            survivors = self._survivors(
                planes, sharing, self._count_cut(key_features, floor)
            ) | hits
        # with a pilot at least its k members survive, so the zero tail
        # below is only ever reached without one, when the survivors are
        # every candidate
        self.stats["bounded"] += survivors.bit_count()

        # rank the survivors by an upper bound on their exact score: a
        # plain (count, size) level once, every other survivor by vid
        ranked = self._ranked(
            key_features, planes, survivors, hits, token_hits, containable
        )
        ranked.sort(reverse=True)

        # exact-score in bound order with a size-k min-heap; stop once the
        # next bound is strictly below the current k-th best (ties at the
        # boundary are still scored, so tie-breaking stays exact). A level
        # is split into its vids only when the loop reaches it.
        evaluated: list[tuple[float, int]] = []
        best_k: list[float] = []
        for bound, level, item in ranked:
            if len(best_k) >= k and bound < best_k[0]:
                break
            vids = (item,)
            if level:
                vids = _members(item)
                self.stats["visited"] += len(vids)
            for vid in vids:
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
            result.extend(self._zero_tail(k - len(result), survivors))
        return result

    def _ranked(
        self,
        key: TextFeatures,
        planes: list[int],
        survivors: int,
        hits: int,
        token_hits: set[int],
        containable: set[int],
    ) -> list[tuple[float, bool, int]]:
        """``(bound, True, level)`` for each plain (count, size) level of
        ``survivors`` and ``(bound, False, vid)`` for every other survivor
        (see the module docstring's "Bound, by level")."""
        q = len(key.trigrams)
        # a count this high may hold a value containing the key; 0 for a
        # key under 3 characters, so that every survivor is bounded by vid
        inner = _inner_trigrams(key.norm)
        plain = survivors & ~hits
        sizes = [
            (size, of_size)
            for size, mask in self._size_masks.items()
            if (of_size := mask & plain)
        ]
        ranked: list[tuple[float, bool, int]] = []
        one_by_one: list[tuple[int, int]] = []
        for part, count in _count_parts(planes, survivors):
            if not count or count >= inner:
                one_by_one.append((part, count))
                continue
            if part & hits:
                one_by_one.append((part & hits, count))
            for size, mask in sizes:
                level = part & mask
                if not level:
                    continue
                if size - count <= 4:  # it may sit inside the key
                    one_by_one.append((level, count))
                else:
                    ranked.append((0.55 * (count / (q + size - count)), True, level))
        for part, count in one_by_one:
            vids = _members(part)
            self.stats["visited"] += len(vids)
            ranked.extend(
                (
                    self._upper_bound(
                        key, vid, count, vid in token_hits, vid in containable
                    ),
                    False,
                    vid,
                )
                for vid in vids
            )
        return ranked

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
            cut = min(cut, _inner_trigrams(key.norm))
        return cut

    def _survivors(self, planes: list[int], sharing: int, cut: int) -> int:
        """The values sharing a trigram with ``s ≥ cut or s + 4 ≥ n_v``:
        a size ``m ≥ cut + 4`` meets the second only with the first."""
        survivors = _at_least(planes, cut, sharing)
        for size, mask in self._size_masks.items():
            if size < cut + 4:
                survivors |= mask & _at_least(planes, max(size - 4, 1), sharing)
        return survivors

    # ------------------------------------------------- candidate generation

    def _candidates(
        self, key: TextFeatures, table: SynonymTable
    ) -> tuple[list[int], set[int], set[int]]:
        """Value ids that may score > 0.

        Returns ``(planes, token_hits, containable)``: every value's exact
        shared-trigram count as bit planes (see the module docstring), the
        ids reached via token postings (direct, cluster, or
        reverse-synonym probes), and the ids with a *confirmed* substring
        relation found through the short-norm structures (sub-trigram
        containment the trigram postings cannot see).
        """
        if not key.text or not key.norm:
            return [], set(), set()
        bitmaps: list[int] = []
        lists = []
        for trigram in key.trigrams:
            bitmap = self._trigram_bitmaps.get(trigram)
            if bitmap is None:
                lists.append(self._trigram_postings.get(trigram, ()))
            else:
                bitmaps.append(bitmap)
        planes = _shared_planes(bitmaps, lists, self._nbytes)
        token_hits: set[int] = set()
        probes = set(key.tokens)
        for token in key.tokens:
            probes |= table.related(token)
        for token in probes:
            token_hits.update(self._token_postings.get(token, ()))
        # containment without shared trigrams: sub-trigram norms either way
        containable: set[int] = set()
        for norm, vids in self._short_norms.items():
            if norm in key.norm:
                containable.update(vids)
        if len(key.norm) < 3:
            # norms are stored flat, so this sweep never materializes
            # lazy entries
            for vid, norm in enumerate(self._norms):
                if norm and key.norm in norm:
                    containable.add(vid)
        return planes, token_hits, containable

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

    def _zero_tail(self, n: int, survivors: int) -> list[tuple[Any, float]]:
        """Zero-score padding in text order, skipping scored candidates
        (``survivors``, which are every candidate when this is reached)."""
        exclude = set(_members(survivors))
        tail: list[tuple[Any, float]] = []
        for vid in self._text_order:
            if vid in exclude:
                continue
            tail.append((self.values[vid], 0.0))
            if len(tail) == n:
                break
        return tail
