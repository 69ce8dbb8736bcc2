"""Index invalidation: exemplars must never lag the stored data.

Covers the tentpole's freshness contract end to end: heap version
counters, the fingerprinted catalog cache on the Database, and the
``get_value`` tool surface across INSERT / UPDATE / DELETE / ROLLBACK /
DDL, plus the equivalence of the indexed and brute-force tool outputs.
"""

import pytest

from repro.core import BridgeScope, BridgeScopeConfig, MinidbBinding
from repro.minidb import Database


@pytest.fixture
def db():
    database = Database(owner="admin")
    admin = database.connect("admin")
    admin.execute("CREATE TABLE items (id INT PRIMARY KEY, category TEXT)")
    admin.execute(
        "INSERT INTO items VALUES (1, 'women''s wear'), (2, 'footwear'), "
        "(3, 'men''s wear')"
    )
    return database


@pytest.fixture
def bridge(db):
    return BridgeScope(MinidbBinding.for_user(db, "admin"))


def exemplars(bridge, key="wear", k=10):
    out = bridge.invoke("get_value", col="items.category", key=key, k=k).content
    assert not out.startswith("ERROR"), out
    return out


class TestHeapVersionCounter:
    def test_bumped_by_dml(self, db):
        heap = db.heap("items")
        session = db.connect("admin")
        before = heap.version
        session.execute("INSERT INTO items VALUES (4, 'hats')")
        after_insert = heap.version
        session.execute("UPDATE items SET category = 'caps' WHERE id = 4")
        after_update = heap.version
        session.execute("DELETE FROM items WHERE id = 4")
        after_delete = heap.version
        assert before < after_insert < after_update < after_delete

    def test_bumped_by_rollback(self, db):
        heap = db.heap("items")
        session = db.connect("admin")
        session.execute("BEGIN")
        session.execute("INSERT INTO items VALUES (4, 'hats')")
        mid = heap.version
        session.execute("ROLLBACK")
        assert heap.version > mid  # undo replays bump too

    def test_bumped_by_column_ddl(self, db):
        heap = db.heap("items")
        session = db.connect("admin")
        v0 = heap.version
        session.execute("ALTER TABLE items ADD COLUMN note TEXT")
        v1 = heap.version
        session.execute("ALTER TABLE items RENAME COLUMN note TO memo")
        v2 = heap.version
        session.execute("ALTER TABLE items DROP COLUMN memo")
        v3 = heap.version
        assert v0 < v1 < v2 < v3

    def test_drop_column_rollback_restores_and_bumps(self, db):
        session = db.connect("admin")
        heap = db.heap("items")
        session.execute("BEGIN")
        session.execute("ALTER TABLE items DROP COLUMN category")
        mid = heap.version
        session.execute("ROLLBACK")
        assert heap.version > mid
        values = {row["category"] for _, row in heap.rows()}
        assert "women's wear" in values

    def test_bumped_by_index_ddl(self, db):
        """Regression: add_index/drop_index must move the fingerprint —
        index DDL changes the heap's durable representation, and WAL/
        snapshot stamps would otherwise miss it."""
        heap = db.heap("items")
        session = db.connect("admin")
        v0 = heap.version
        session.execute("CREATE INDEX idx_cat ON items (category)")
        v1 = heap.version
        session.execute("DROP INDEX idx_cat")
        v2 = heap.version
        assert v0 < v1 < v2

    def test_bumped_by_index_ddl_rollback(self, db):
        heap = db.heap("items")
        session = db.connect("admin")
        session.execute("BEGIN")
        session.execute("CREATE INDEX idx_cat ON items (category)")
        mid = heap.version
        session.execute("ROLLBACK")
        assert heap.version > mid  # the undo drop bumps too
        assert "idx_cat" not in heap.indexes

    def test_uid_changes_on_recreate(self, db):
        session = db.connect("admin")
        old_uid = db.heap("items").uid
        session.execute("DROP TABLE items")
        session.execute("CREATE TABLE items (id INT PRIMARY KEY, category TEXT)")
        assert db.heap("items").uid != old_uid


class TestGetValueFreshness:
    def test_insert_visible(self, db, bridge):
        exemplars(bridge)  # builds + caches the catalog
        db.connect("admin").execute("INSERT INTO items VALUES (4, 'outerwear')")
        assert "outerwear" in exemplars(bridge)

    def test_update_visible(self, db, bridge):
        exemplars(bridge)
        db.connect("admin").execute(
            "UPDATE items SET category = 'formal wear' WHERE id = 3"
        )
        out = exemplars(bridge)
        assert "formal wear" in out
        assert repr("men's wear") not in out

    def test_delete_visible(self, db, bridge):
        exemplars(bridge)
        db.connect("admin").execute("DELETE FROM items WHERE id = 1")
        assert "women's wear" not in exemplars(bridge)

    def test_rollback_not_served_stale(self, db, bridge):
        exemplars(bridge)
        session = db.connect("admin")
        session.execute("BEGIN")
        session.execute("INSERT INTO items VALUES (4, 'outerwear')")
        assert "outerwear" in exemplars(bridge)  # in-flight data is visible
        session.execute("ROLLBACK")
        assert "outerwear" not in exemplars(bridge)

    def test_savepoint_rollback_fresh(self, db, bridge):
        session = db.connect("admin")
        session.execute("BEGIN")
        session.execute("SAVEPOINT sp")
        session.execute("UPDATE items SET category = 'misc' WHERE id = 2")
        assert "footwear" not in exemplars(bridge)
        session.execute("ROLLBACK TO SAVEPOINT sp")
        assert "footwear" in exemplars(bridge)
        session.execute("COMMIT")

    def test_drop_and_recreate_not_stale(self, db, bridge):
        exemplars(bridge)
        session = db.connect("admin")
        session.execute("DROP TABLE items")
        session.execute("CREATE TABLE items (id INT PRIMARY KEY, category TEXT)")
        session.execute("INSERT INTO items VALUES (1, 'gadgets')")
        out = exemplars(bridge, key="gadgets")
        assert "gadgets" in out
        assert "footwear" not in out

    def test_repeated_calls_hit_cache(self, db, bridge):
        exemplars(bridge)
        exemplars(bridge)
        exemplars(bridge, key="women")  # same column, different key
        stats = db.retrieval_cache.stats
        assert stats["misses"] == 1
        assert stats["hits"] == 2

    def test_cache_shared_across_sessions(self, db, bridge):
        exemplars(bridge)
        other = BridgeScope(MinidbBinding.for_user(db, "admin"))
        exemplars(other)
        assert db.retrieval_cache.stats["hits"] == 1


class TestIndexedBruteToolEquivalence:
    KEYS = ("women", "wear", "foot", "mens", "zzz", "")

    def test_identical_tool_output(self, db):
        indexed = BridgeScope(
            MinidbBinding.for_user(db, "admin"),
            BridgeScopeConfig(use_retrieval_index=True),
        )
        brute = BridgeScope(
            MinidbBinding.for_user(db, "admin"),
            BridgeScopeConfig(use_retrieval_index=False),
        )
        for key in self.KEYS:
            a = indexed.invoke(
                "get_value", col="items.category", key=key, k=5
            ).content
            b = brute.invoke(
                "get_value", col="items.category", key=key, k=5
            ).content
            assert a == b

    def test_identical_after_mutations(self, db):
        indexed = BridgeScope(
            MinidbBinding.for_user(db, "admin"),
            BridgeScopeConfig(use_retrieval_index=True),
        )
        brute = BridgeScope(
            MinidbBinding.for_user(db, "admin"),
            BridgeScopeConfig(use_retrieval_index=False),
        )
        session = db.connect("admin")
        for statement in (
            "INSERT INTO items VALUES (10, 'swimwear')",
            "UPDATE items SET category = 'knitwear' WHERE id = 2",
            "DELETE FROM items WHERE id = 1",
        ):
            session.execute(statement)
            for key in self.KEYS:
                a = indexed.invoke(
                    "get_value", col="items.category", key=key, k=4
                ).content
                b = brute.invoke(
                    "get_value", col="items.category", key=key, k=4
                ).content
                assert a == b

    def test_errors_identical(self, db):
        for use_index in (True, False):
            bridge = BridgeScope(
                MinidbBinding.for_user(db, "admin"),
                BridgeScopeConfig(use_retrieval_index=use_index),
            )
            out = bridge.invoke(
                "get_value", col="items.ghost", key="x"
            ).content
            assert out.startswith("ERROR")

    @pytest.mark.parametrize("use_index", [True, False])
    def test_k_below_one_is_an_error_not_an_empty_column(self, db, use_index):
        """``k=-1`` used to answer ``(no values in items.category)``."""
        bridge = BridgeScope(
            MinidbBinding.for_user(db, "admin"),
            BridgeScopeConfig(use_retrieval_index=use_index, exemplar_top_k=2),
        )
        for k in (-1, 0):
            out = bridge.invoke(
                "get_value", col="items.category", key="wear", k=k
            ).content
            assert out == "ERROR: k must be a positive integer"
        # omitted k still means the configured default
        out = bridge.invoke("get_value", col="items.category", key="wear").content
        assert out.startswith("top-2 values of items.category")
