"""The bit-sliced shared-trigram counter behind ``ValueCatalog.top_k``.

Dense trigram postings are ``int`` bitmaps and sparse ones vid lists;
``_shared_planes`` adds both into bit planes, and every later step of a
query reads the planes as masks. Each reading is checked here against the
plain Python it replaces: a ``Counter`` over every posting and set
comprehensions over its counts. The memory guard checks the density rule:
a bitmap never costs more than the list it replaces.
"""

import sys
from collections import Counter
from functools import reduce
from itertools import chain
from operator import or_

from hypothesis import given
from hypothesis import strategies as st

from product_names import name_column, product_name

from repro.retrieval import ValueCatalog
from repro.retrieval.catalog import (
    DENSE_SHARE,
    _at_least,
    _bitmap,
    _count_parts,
    _highest,
    _members,
    _shared_planes,
)


@st.composite
def posting_mixes(draw):
    """``(n, postings, dense, probe)``: ``n`` values (not a multiple of
    8), vid lists of which the first holds vids 0 and ``n - 1``, whether
    each is added as a bitmap, and a mask of vids to read counts at."""
    n = draw(st.integers(min_value=1, max_value=200).filter(lambda n: n % 8))
    every = (1 << n) - 1
    masks = draw(st.lists(st.integers(min_value=0, max_value=every), max_size=12))
    masks.insert(0, draw(st.integers(min_value=0, max_value=every)) | 1 | 1 << (n - 1))
    postings = [[vid for vid in range(n) if mask >> vid & 1] for mask in masks]
    dense = draw(st.lists(st.booleans(), min_size=len(masks), max_size=len(masks)))
    return n, postings, dense, draw(st.integers(min_value=0, max_value=every))


def read_counts(planes: list[int], mask: int) -> dict[int, int]:
    """Each vid of ``mask`` with its count, from its count parts (which
    are distinct, in descending count order, and cover ``mask``)."""
    parts = _count_parts(planes, mask)
    counts = [count for _, count in parts]
    assert counts == sorted(set(counts), reverse=True)
    assert all(parts) and sum(part.bit_count() for part, _ in parts) == mask.bit_count()
    return {vid: count for part, count in parts for vid in _members(part)}


@given(posting_mixes())
def test_planes_count_what_counter_counts(mix):
    n, postings, dense, probe = mix
    nbytes = (n + 7) >> 3
    planes = _shared_planes(
        [_bitmap(vids, nbytes) for vids, bitmap in zip(postings, dense) if bitmap],
        [vids for vids, bitmap in zip(postings, dense) if not bitmap],
        nbytes,
    )
    counts = Counter(chain.from_iterable(postings))
    sharing = reduce(or_, planes, 0)
    assert _members(sharing) == sorted(counts)
    assert read_counts(planes, sharing) == counts
    assert read_counts(planes, probe & sharing) == {
        vid: count for vid, count in counts.items() if probe >> vid & 1
    }
    for t in range(1, len(postings) + 2):
        assert _members(_at_least(planes, t, sharing)) == sorted(
            vid for vid, count in counts.items() if count >= t
        ), t
    ranked = sorted(counts, key=lambda vid: (-counts[vid], vid))
    for k in range(1, len(ranked) + 1):
        assert sorted(_highest(planes, k, sharing)) == sorted(ranked[:k]), k


def test_bitmaps_take_no_more_memory_than_the_lists_they_replace():
    """On a name column and on a 100k-value letter-soup product column,
    every trigram bitmap is at most the size of its vid list, and
    bitmaps plus size masks stay under the all-list postings."""
    for values in (name_column(10_000), [product_name(i) for i in range(100_000)]):
        catalog = ValueCatalog(values)
        assert catalog._trigram_bitmaps and catalog._trigram_postings
        sparse = sum(map(sys.getsizeof, catalog._trigram_postings.values()))
        as_lists = sparse
        as_stored = sparse + sum(map(sys.getsizeof, catalog._size_masks.values()))
        for bitmap in catalog._trigram_bitmaps.values():
            vids = _members(bitmap)
            assert len(vids) * DENSE_SHARE >= len(values)
            assert sys.getsizeof(bitmap) <= sys.getsizeof(vids)
            as_lists += sys.getsizeof(vids)
            as_stored += sys.getsizeof(bitmap)
        assert as_stored <= as_lists
