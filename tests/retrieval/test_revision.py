"""Catalog revision oracles: a kept catalog == rebuilt == brute force.

A stale cached catalog is checked against the column's fresh distinct
list and kept when the list is as it was (``ValueCatalog.revised``)
instead of rebuilt. Three layers pin that this never changes an answer:

* unit — for adversarial pairs of lists, ``revised`` is ``None`` or the
  catalog itself, and then ranks exactly as a catalog built from the fresh
  list and as brute force; asking never touches the catalog;
* tool — after every statement of random DML / DDL / transaction
  histories, indexed ``get_value`` equals brute-force ``get_value``;
* counters — every lookup is a hit, a persisted hit, a miss or a rebuild,
  and only rebuilds can be revisions.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BridgeScope, BridgeScopeConfig, MinidbBinding
from repro.core.similarity import top_k
from repro.minidb import Database
from repro.retrieval import CatalogCache, ValueCatalog

#: words sharing trigrams, tokens and synonyms; 1-2 character norms; the
#: empty string; values that render alike ("100" / 100) or compare equal
#: while rendering differently (1 / 1.0 / True, 0.0 / -0.0)
POOL = [
    "women's wear", "womens", "female", "men's wear", "footwear", "wear",
    "sea side", "coastal", "ab", "a", "b", "", "!", "100", 100, 100.5,
    1, 1.0, True, 0.0, -0.0, "1", "true", "ab cd", "cd ab", "abc",
]
KEYS = ["women", "wear", "a", "ab", "", "1", "100", "true", "sea", "cd", "0"]


def distinct(values):
    """As ``distinct_values`` dedups: first of every ``==`` class wins."""
    seen, out = set(), []
    for value in values:
        if value not in seen:
            seen.add(value)
            out.append(value)
    return out


@st.composite
def list_pairs(draw):
    """``(old, fresh)``: the list as it was, and the shapes a write can
    leave it in — the one revision serves and those it must not be
    fooled by."""
    old = distinct(draw(st.lists(st.sampled_from(POOL), max_size=12)))
    shape = draw(st.sampled_from(
        ["same", "removal+tail", "reorder", "insertion", "retyped"]
    ))
    extra = draw(st.lists(st.sampled_from(POOL), max_size=4))
    if shape == "same":
        # alike, not identical: other objects rendering the same
        fresh = ["".join(v) if isinstance(v, str) else v for v in old]
    elif shape == "removal+tail":
        kept = [v for v in old if draw(st.booleans())]
        fresh = distinct(kept + extra)
    elif shape == "reorder":
        fresh = draw(st.permutations(old))
    elif shape == "insertion":
        at = draw(st.integers(0, len(old)))
        fresh = distinct(old[:at] + extra + old[at:])
    else:
        # equal values, other types: 1 -> 1.0 -> True, "100" stays
        swap = {1: 1.0, 1.0: True, True: 1, 0.0: -0.0, 100: 100.0}
        fresh = [swap.get(v, v) if draw(st.booleans()) else v for v in old]
    return old, list(fresh)


def rendered(values):
    return [(type(v), str(v)) for v in values]


def assert_catalog_of(catalog, values):
    """``catalog`` answers exactly as a build from, and brute force over,
    ``values`` — same objects' types included (``1 == True``)."""
    rebuilt = ValueCatalog(values)
    for key in KEYS:
        for k in (1, 3, 50):
            got, brute = catalog.top_k(key, k), top_k(key, values, k)
            assert got == rebuilt.top_k(key, k) == brute
            assert rendered(v for v, _ in got) == rendered(v for v, _ in brute)
    assert rendered(catalog.values) == rendered(values)


class TestRevisedEqualsRebuilt:
    @settings(max_examples=400, deadline=None)
    @given(pair=list_pairs())
    def test_itself_when_alike_else_none_and_never_touched(self, pair):
        old_values, fresh = pair
        old = ValueCatalog(old_values)
        frozen = pickle.dumps(old)

        revised = old.revised(list(fresh))

        if rendered(fresh) == rendered(old_values):
            assert revised is old
        else:
            assert revised is None
        served = old if revised is old else ValueCatalog(fresh)
        assert_catalog_of(served, fresh)
        assert_catalog_of(pickle.loads(pickle.dumps(served)), fresh)
        # a catalog once handed out never changes: readers hold it
        assert pickle.dumps(old) == frozen

    def test_unchanged_list_is_the_same_object(self):
        values = ["women's wear", 100, "100", 1.5, "", "ab"]
        catalog = ValueCatalog(values)
        assert catalog.revised(list(values)) is catalog
        loaded = pickle.loads(pickle.dumps(catalog))
        assert loaded.revised(list(values)) is loaded

    @pytest.mark.parametrize(
        "old,fresh",
        [([1, "a"], [1.0, "a"]), ([1, "a"], [True, "a"]), ([0.0], [-0.0])],
    )
    def test_equal_values_rendering_differently_are_a_change(self, old, fresh):
        assert old == fresh  # what a plain comparison would conclude
        assert ValueCatalog(old).revised(fresh) is None

    @pytest.mark.parametrize(
        "change",
        [
            lambda v: ["new"] + v[1:],  # UPDATE of an early row
            lambda v: v[::-1],
            lambda v: v[:2] + ["new"] + v[2:],
            lambda v: v[:-1],
            lambda v: v + ["new"],
            lambda v: [],
        ],
    )
    def test_any_edit_asks_for_a_rebuild(self, change):
        values = ["alpha", "beta", "gamma", "delta"]
        assert ValueCatalog(values).revised(change(values)) is None


# --------------------------------------------------------------- tool level

WORDS = ["women's wear", "womens", "footwear", "men's wear", "wear", "ab", "a",
         "sea side", "coastal", "100"]
TOOL_KEYS = ("women", "wear", "a", "1", "zzz")
CREATE = "CREATE TABLE items (id INT PRIMARY KEY, category TEXT, qty INT)"

operations = st.lists(
    st.tuples(
        st.sampled_from([
            "insert", "insert", "update", "update_other", "delete", "begin",
            "savepoint", "rollback_to", "rollback", "commit", "create_index",
            "drop_index", "add_column", "drop_column", "rename", "recreate",
        ]),
        st.integers(0, 7),
        st.sampled_from(WORDS),
    ),
    min_size=1, max_size=25,
)


class History:
    """Turns drawn operations into statements valid in the current state."""

    def __init__(self):
        self.db = Database(owner="admin")
        self.session = self.db.connect("admin")
        self.session.execute(CREATE)
        self.next_id = 0
        self.in_tx = self.savepoint = self.index = self.extra = False
        self.column = "category"
        #: the schema state BEGIN saw, restored by ROLLBACK (DDL is undone)
        self.at_begin = None

    def _shape(self):
        return (self.index, self.extra, self.column)

    def statements(self, kind, number, word):
        word = word.replace("'", "''")
        if kind == "insert":
            self.next_id += 1
            return [
                f"INSERT INTO items (id, {self.column}, qty) "
                f"VALUES ({self.next_id}, '{word}', {number})"
            ]
        if kind == "update":
            return [f"UPDATE items SET {self.column} = '{word}' WHERE id % 8 = {number}"]
        if kind == "update_other":
            return [f"UPDATE items SET qty = qty + 1 WHERE id % 8 = {number}"]
        if kind == "delete":
            return [f"DELETE FROM items WHERE id % 8 = {number}"]
        if kind == "begin" and not self.in_tx:
            self.in_tx, self.at_begin = True, self._shape()
            return ["BEGIN"]
        if kind == "savepoint" and self.in_tx and not self.savepoint:
            self.savepoint, self.at_savepoint = True, self._shape()
            return ["SAVEPOINT sp"]
        if kind == "rollback_to" and self.savepoint:
            self.index, self.extra, self.column = self.at_savepoint
            return ["ROLLBACK TO SAVEPOINT sp"]
        if kind in ("rollback", "commit") and self.in_tx:
            if kind == "rollback":
                self.index, self.extra, self.column = self.at_begin
            self.in_tx = self.savepoint = False
            return [kind.upper()]
        if kind == "create_index" and not self.index:
            self.index = True
            return [f"CREATE INDEX ix_items ON items ({self.column})"]
        if kind == "drop_index" and self.index:
            self.index = False
            return ["DROP INDEX ix_items"]
        if kind == "add_column" and not self.extra:
            self.extra = True
            return ["ALTER TABLE items ADD COLUMN note TEXT"]
        if kind == "drop_column" and self.extra:
            self.extra = False
            return ["ALTER TABLE items DROP COLUMN note"]
        if kind == "rename" and not self.index:
            old = self.column
            self.column = "label" if old == "category" else "category"
            return [f"ALTER TABLE items RENAME COLUMN {old} TO {self.column}"]
        if kind == "recreate" and not self.in_tx:
            self.index = self.extra = False
            self.column = "category"
            self.next_id += 2
            return [
                "DROP TABLE items", CREATE,
                f"INSERT INTO items VALUES ({self.next_id - 1}, '{word}', 1), "
                f"({self.next_id}, 'footwear', 2)",
            ]
        return []


def bridges(db, scan_limit):
    return [
        BridgeScope(
            MinidbBinding.for_user(db, "admin"),
            BridgeScopeConfig(
                use_retrieval_index=use_index, exemplar_scan_limit=scan_limit
            ),
        )
        for use_index in (True, False)
    ]


def compare(indexed, brute, column):
    """Indexed == brute-force tool output for every key; returns the
    number of cache lookups made."""
    lookups = 0
    for col in (f"items.{column}", "items.qty"):
        for key in TOOL_KEYS:
            a = indexed.invoke("get_value", col=col, key=key, k=4).content
            b = brute.invoke("get_value", col=col, key=key, k=4).content
            assert a == b
            assert not a.startswith("ERROR"), a
            lookups += 1
    return lookups


def assert_counters_add_up(stats, lookups):
    assert (
        stats["hits"] + stats["persisted_hits"] + stats["misses"]
        + stats["rebuilds"]
    ) == lookups
    assert stats["revised"] <= stats["rebuilds"]


class TestToolOutputAcrossHistories:
    @settings(max_examples=120, deadline=None)
    @given(ops=operations)
    def test_indexed_equals_brute_force_after_every_statement(self, ops):
        """``exemplar_scan_limit=5`` over up to ten words: values enter
        and leave the scanned prefix as rows come and go."""
        history = History()
        indexed, brute = bridges(history.db, scan_limit=5)
        lookups = compare(indexed, brute, history.column)
        for kind, number, word in ops:
            statements = history.statements(kind, number, word)
            for statement in statements:
                history.session.execute(statement)
            if statements:
                lookups += compare(indexed, brute, history.column)
        assert_counters_add_up(history.db.retrieval_cache.stats, lookups)

    def test_write_beyond_the_scan_limit_keeps_the_catalog(self):
        history = History()
        indexed, brute = bridges(history.db, scan_limit=3)
        for number, word in enumerate(WORDS[:5]):
            for statement in history.statements("insert", number, word):
                history.session.execute(statement)
        lookups = compare(indexed, brute, "category")
        cache = history.db.retrieval_cache
        before = cache.cached_catalogs()
        history.session.execute("INSERT INTO items VALUES (99, 'late arrival', 9)")
        lookups += compare(indexed, brute, "category")
        assert cache.stats["rebuilds"] == cache.stats["revised"] == 2
        assert all(
            any(now is was for was in before) for now in cache.cached_catalogs()
        )
        assert_counters_add_up(cache.stats, lookups)

    def test_kept_catalog_counts_as_rebuild_and_revised(self):
        cache = CatalogCache()
        first = cache.lookup("t.c", (1, 0), lambda: ["a", "b", "c"])
        second = cache.lookup("t.c", (1, 1), lambda: ["a", "b", "c"])
        assert second is first
        third = cache.lookup("t.c", (1, 2), lambda: ["a", "c", "d"])  # rebuilt
        assert third is not first and third.values == ["a", "c", "d"]
        assert cache.stats == {
            "hits": 0, "misses": 1, "rebuilds": 2, "persisted_hits": 0,
            "revised": 1,
        }

