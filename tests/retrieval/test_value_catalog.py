"""Tests for the indexed value catalog: ranking equivalence + internals."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.similarity import SynonymTable, similarity, top_k
from repro.retrieval import CatalogCache, ValueCatalog

VALUES = [
    "women's wear",
    "men's wear",
    "footwear",
    "kids shoes",
    "female apparel",
    "quarterly earnings",
    "sportswear",
    "",
    "a",
    100,
    "100",
]


class TestValueCatalogRanking:
    def test_matches_brute_force_on_fixture(self):
        catalog = ValueCatalog(VALUES)
        for key in ("women", "sportwear", "wear", "100", "a", "x", ""):
            for k in (0, 1, 3, len(VALUES) + 5):
                assert catalog.top_k(key, k) == top_k(key, VALUES, k)

    def test_scores_match_similarity_exactly(self):
        catalog = ValueCatalog(VALUES)
        for value, score in catalog.top_k("women", 5):
            assert score == similarity("women", value)

    def test_synonym_only_match_not_pruned(self):
        # "female apparel" shares no trigram or substring with "women";
        # only the reverse synonym map reaches it
        catalog = ValueCatalog(["female apparel", "quarterly earnings"])
        ranked = catalog.top_k("women", 1)
        assert ranked[0][0] == "female apparel"
        assert ranked[0][1] > 0

    def test_custom_synonym_table(self):
        table = SynonymTable({"cat": frozenset({"feline"})})
        catalog = ValueCatalog(["feline friend", "dog house"])
        ranked = catalog.top_k("cat", 2, synonyms=table)
        assert ranked == top_k("cat", ["feline friend", "dog house"], 2, table)
        assert ranked[0][0] == "feline friend"
        assert ranked[0][1] > 0

    def test_zero_score_tail_in_text_order(self):
        catalog = ValueCatalog(["bb", "aa", "cc"])
        ranked = catalog.top_k("zzz", 3)
        assert ranked == [("aa", 0.0), ("bb", 0.0), ("cc", 0.0)]

    def test_short_key_containment_found(self):
        # 1-char normalized key inside a word: reachable only through the
        # short-key substring sweep, never through trigram postings
        catalog = ValueCatalog(["bab", "xyz"])
        assert catalog.top_k("a", 1) == top_k("a", ["bab", "xyz"], 1)

    def test_short_value_containment_found(self):
        # sub-trigram value norm contained in the key
        catalog = ValueCatalog(["at", "xyz"])
        assert catalog.top_k("category", 1) == top_k(
            "category", ["at", "xyz"], 1
        )

    def test_duplicate_text_values_keep_insertion_order(self):
        # int 100 and str "100" render identically; brute force relies on
        # stable sort, the catalog must reproduce it
        values = [100, "100", 100.5]
        assert ValueCatalog(values).top_k("100", 3) == top_k("100", values, 3)

    def test_pruning_actually_skips_work(self):
        # hundreds of low-bound trigram-noise candidates behind one exact
        # match: the heap fills at 1.0 and the rest are never scored
        values = ["target phrase"] + [f"tartan {i:04d}" for i in range(300)]
        catalog = ValueCatalog(values)
        ranked = catalog.top_k("target phrase", 1)
        assert ranked[0] == ("target phrase", 1.0)
        assert catalog.stats["candidates"] > 100
        assert catalog.stats["scored"] < 10

    def test_stats_track_queries(self):
        catalog = ValueCatalog(VALUES)
        catalog.top_k("women", 2)
        catalog.top_k("men", 2)
        assert catalog.stats["queries"] == 2


@st.composite
def value_lists(draw):
    scalar = st.one_of(
        st.text(alphabet="abcdef '!9", max_size=8),
        st.integers(min_value=0, max_value=99),
    )
    return draw(st.lists(scalar, max_size=20))


class TestIndexedBruteEquivalence:
    @settings(max_examples=300)
    @given(
        values=value_lists(),
        key=st.text(alphabet="abcdef '!9", max_size=6),
        k=st.integers(min_value=0, max_value=8),
    )
    def test_identical_rankings(self, values, key, k):
        assert ValueCatalog(values).top_k(key, k) == top_k(key, values, k)

    @settings(max_examples=100)
    @given(
        values=st.lists(
            st.sampled_from(
                ["women", "female", "ladies wear", "mens", "sea", "coastal",
                 "refund", "return policy", "ab", "a", ""]
            ),
            max_size=15,
        ),
        key=st.sampled_from(
            ["women", "sea side", "chargeback", "wear", "a", "zz"]
        ),
        k=st.integers(min_value=0, max_value=6),
    )
    def test_identical_rankings_synonym_heavy(self, values, key, k):
        assert ValueCatalog(values).top_k(key, k) == top_k(key, values, k)


class TestCatalogCache:
    def test_hit_on_same_fingerprint(self):
        cache = CatalogCache()
        first = cache.lookup("t.c", (1, 0), lambda: ["a"])
        second = cache.lookup("t.c", (1, 0), lambda: ["b"])
        assert second is first
        assert cache.stats == {
            "hits": 1, "misses": 1, "rebuilds": 0, "persisted_hits": 0,
            "revised": 0,
        }

    def test_rebuild_on_fingerprint_change(self):
        cache = CatalogCache()
        cache.lookup("t.c", (1, 0), lambda: ["a"])
        rebuilt = cache.lookup("t.c", (1, 1), lambda: ["b"])
        assert rebuilt.values == ["b"]
        assert cache.stats["rebuilds"] == 1

    def test_lru_eviction(self):
        cache = CatalogCache(max_entries=2)
        cache.lookup("a", 1, lambda: [])
        cache.lookup("b", 1, lambda: [])
        cache.lookup("a", 1, lambda: [])  # refresh a
        cache.lookup("c", 1, lambda: [])  # evicts b
        assert len(cache) == 2
        cache.lookup("b", 1, lambda: [])
        assert cache.stats["misses"] == 4  # a, b, c, then b again

    def test_invalidate(self):
        cache = CatalogCache()
        cache.lookup("a", 1, lambda: [])
        cache.invalidate("a")
        assert len(cache) == 0
        cache.lookup("a", 1, lambda: [])
        cache.invalidate()
        assert len(cache) == 0


class TestSynonymTable:
    def test_reverse_map_built(self):
        table = SynonymTable({"women": {"female", "ladies"}})
        assert table.reverse["female"] == frozenset({"women"})
        assert table.reverse["ladies"] == frozenset({"women"})

    def test_member_in_two_clusters(self):
        table = SynonymTable({"a": {"x"}, "b": {"x"}})
        assert table.reverse["x"] == frozenset({"a", "b"})

    def test_related_is_symmetric_closure(self):
        table = SynonymTable({"women": {"female"}})
        assert "female" in table.related("women")
        assert "women" in table.related("female")
        assert table.related("unknown") == frozenset()

    def test_reverse_direction_scoring_unchanged(self):
        # key token is a cluster member, value holds the head
        assert similarity("female", "women and kids") > 0.3


def test_similarity_accepts_all_synonym_shapes():
    as_dict = {"cat": frozenset({"feline"})}
    as_table = SynonymTable(as_dict)
    assert similarity("cat", "feline", as_dict) == similarity(
        "cat", "feline", as_table
    )
    assert similarity("cat", "feline", None) < similarity(
        "cat", "feline", as_table
    )
