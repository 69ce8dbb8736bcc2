"""Tests for the indexed value catalog: ranking equivalence + internals."""

import pickle
import random

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
        assert catalog.stats["bounded"] < 20
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


#: a small syllable alphabet: every value shares trigrams with hundreds of
#: others (long posting lists) and scores near-tie, which is where a
#: candidate filter can drop a value that should have ranked
SYLLABLES = ("ka", "lo", "mi", "ra", "te", "su", "no", "vi")


def syllable_word(rng: random.Random, syllables: int) -> str:
    return "".join(rng.choice(SYLLABLES) for _ in range(syllables))


def syllable_column(rng: random.Random, count: int, duplicates: bool = False) -> list:
    """``count`` column values: 1-3 syllable words each, ~10% bare
    syllables and 1-5 character fragments (values that sit *inside* keys),
    a few ints beside the strings they render like."""
    values: list = []
    seen: set = set()
    while len(values) < count:
        roll = rng.random()
        if roll < 0.05:
            value = rng.choice(SYLLABLES)
        elif roll < 0.10:
            word = syllable_word(rng, 3)
            start = rng.randrange(len(word) - 1)
            value = word[start : start + rng.randint(1, 5)]
        elif roll < 0.12:
            number = rng.randrange(1000)
            value = rng.choice((number, str(number)))
        else:
            value = " ".join(
                syllable_word(rng, rng.randint(1, 4))
                for _ in range(rng.randint(1, 3))
            )
        if isinstance(value, str) and rng.random() < 0.1:
            value = value.capitalize()
        # as distinct_values dedups; ``1`` and ``"1"`` both stay
        if duplicates or (type(value), value) not in seen:
            values.append(value)
            seen.add((type(value), value))
    return values


def oracle_keys(rng: random.Random, values: list, picks: int = 2) -> list[str]:
    """Keys in the shapes that reach each branch of candidate generation:
    a value, a value with one edit, a value inside a longer key, half a
    value (a key inside values), 1-2 characters, and the empty string."""
    keys = ["", rng.choice("klmrtsnv"), rng.choice(SYLLABLES)]
    texts = [str(value) for value in values]
    for text in rng.sample(texts, min(picks, len(texts))):
        keys.append(text)
        if text:
            position = rng.randrange(len(text))
            keys.append(
                text[:position] + rng.choice(("", "x", "a")) + text[position + 1 :]
            )
            keys.append(text[: max(len(text) // 2, 1)])
            keys.append(text[len(text) // 2 :])
        keys.append(f"{syllable_word(rng, 2)} {text}")
    return keys


def syllable_synonyms(rng: random.Random, values: list) -> SynonymTable:
    """Clusters over tokens the column really holds, so cluster and
    reverse probes both land on posting lists."""
    tokens = sorted({t for v in values for t in str(v).lower().split()})
    heads = rng.sample(tokens, min(6, len(tokens)))
    return SynonymTable(
        {head: frozenset(rng.sample(tokens, min(3, len(tokens)))) for head in heads}
    )


class TestPruningScaleOracle:
    """Indexed ``top_k`` ≡ brute force on columns large and repetitive
    enough that candidates are pruned before they are bounded (the
    Hypothesis lists above hold ≤ 20 values: nothing is ever dropped)."""

    KS = (1, 2, 3, 5, 8, 12)

    @pytest.mark.parametrize(
        "seed,count,duplicates",
        [
            (1, 30, False), (2, 60, True), (3, 120, False), (4, 250, False),
            (5, 400, True), (6, 700, False), (7, 1000, False), (8, 1500, False),
            (9, 1500, True), (10, 90, False),
        ],
    )
    def test_identical_rankings_where_candidates_are_pruned(
        self, seed, count, duplicates
    ):
        rng = random.Random(f"pruning-oracle:{seed}")
        values = syllable_column(rng, count, duplicates)
        built = ValueCatalog(values)
        catalogs = (built, pickle.loads(pickle.dumps(built)))
        everything = len(values) + 3
        for table in (None, syllable_synonyms(rng, values)):
            for key in oracle_keys(rng, values):
                # brute force sorts every value and slices: top_k(k) is a
                # prefix of top_k(everything), so one full ranking serves
                # each k
                expected = top_k(key, values, everything, table)
                for catalog in catalogs:
                    for k in (*self.KS, everything):
                        assert catalog.top_k(key, k, table) == expected[:k], (
                            key, k, table is not None, catalog is built,
                        )

    def test_a_sidecar_without_trigram_sizes_still_opens(self):
        """The pickle of a catalog written before sizes were persisted
        (one key fewer) ranks exactly as a fresh build."""
        rng = random.Random("pruning-oracle:old-sidecar")
        values = syllable_column(rng, 400)
        built = ValueCatalog(values)
        state = built.__getstate__()
        assert sorted(state) == [
            "norms", "short_norms", "text_order", "token_postings",
            "trigram_postings", "trigram_sizes", "values",
        ]
        del state["trigram_sizes"]
        old = ValueCatalog.__new__(ValueCatalog)
        old.__setstate__(pickle.loads(pickle.dumps(state)))
        assert old._sizes == built._sizes
        reloaded = pickle.loads(pickle.dumps(built))
        assert reloaded._sizes == built._sizes
        for key in oracle_keys(rng, values, picks=4):
            for k in (1, 5, 12):
                expected = top_k(key, values, k)
                assert old.top_k(key, k) == expected, (key, k)
                assert reloaded.top_k(key, k) == expected, (key, k)

    def test_only_what_is_scored_is_materialised(self):
        """A built catalog holds no feature object per value: bounding
        reads flat arrays, and only scored vids are ever derived."""
        rng = random.Random("pruning-oracle:materialised")
        values = syllable_column(rng, 2000)
        catalog = ValueCatalog(values)
        assert len(catalog.entries._cache) == 0
        for key in oracle_keys(rng, values, picks=10)[:50]:
            catalog.top_k(key, 5)
        stats = catalog.stats
        assert stats["queries"] == 50
        assert len(catalog.entries._cache) <= stats["scored"]
        assert stats["scored"] <= stats["bounded"] <= stats["candidates"]
        assert 10 * stats["scored"] <= stats["candidates"]


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
