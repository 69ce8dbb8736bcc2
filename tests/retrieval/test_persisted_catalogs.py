"""Persisted value catalogs: zero-rebuild reopen, freshness, crash pruning.

The durable engine restores heap ``(uid, version)`` fingerprints exactly,
so a reopened database must serve ``get_value`` for unchanged columns
straight from the pickled catalog sidecars — byte-identically to both the
pre-restart output and the brute-force scorer — while changed columns and
catalogs persisted from uncommitted data must never be served.
"""

from __future__ import annotations

import os

import pytest

from test_invalidation import BruteForceBinding

from repro.core import BridgeScope, MinidbBinding
from repro.faults import FaultPlan, FaultyFilesystem
from repro.minidb import Database
from repro.retrieval import CatalogCache, CatalogStore, ValueCatalog

NAMES = (
    "womens wear", "mens shoes", "kids jacket", "coastal dress",
    "premium boots", "vintage gear", "sport outfit", "eco apparel",
)
KEYS = ("women", "sport shoe", "premum boots", "eco", "zzz")


@pytest.fixture
def dbdir(tmp_path):
    return str(tmp_path / "db")


def build(dbdir: str) -> Database:
    db = Database.open(dbdir)
    session = db.connect("admin")
    session.execute("CREATE TABLE products (id INT PRIMARY KEY, name TEXT)")
    for i, name in enumerate(NAMES):
        session.execute(f"INSERT INTO products VALUES ({i}, '{name}')")
    return db


def bridge_for(db: Database, brute: bool = False) -> BridgeScope:
    binding = BruteForceBinding if brute else MinidbBinding
    return BridgeScope(binding.for_user(db, "admin"))


def get_value(bridge: BridgeScope, key: str, k: int = 4) -> str:
    result = bridge.invoke("get_value", col="products.name", key=key, k=k)
    assert not result.is_error, result.content
    return result.content


class TestZeroRebuildReopen:
    def test_reopen_serves_persisted_catalog(self, dbdir):
        db = build(dbdir)
        before = {key: get_value(bridge_for(db), key) for key in KEYS}
        db.close()

        db2 = Database.open(dbdir)
        bridge = bridge_for(db2)
        after = {key: get_value(bridge, key) for key in KEYS}
        assert after == before
        stats = db2.retrieval_cache.stats
        assert stats["persisted_hits"] == 1  # loaded once, then memory-hits
        assert stats["misses"] == 0  # zero rebuild
        assert stats["rebuilds"] == 0
        db2.close()

    def test_persisted_catalog_matches_brute_force(self, dbdir):
        """Freshness oracle: the reopened indexed path must be
        byte-identical to brute-force scoring over the recovered data."""
        db = build(dbdir)
        get_value(bridge_for(db), KEYS[0])  # build + persist
        db.close()
        db2 = Database.open(dbdir)
        indexed = bridge_for(db2)
        brute = bridge_for(db2, brute=True)
        for key in KEYS:
            assert get_value(indexed, key) == get_value(brute, key)
        assert db2.retrieval_cache.stats["persisted_hits"] == 1
        db2.close()

    def test_changed_column_rebuilds_after_reopen(self, dbdir):
        db = build(dbdir)
        get_value(bridge_for(db), "women")
        db.close()
        db2 = Database.open(dbdir)
        db2.connect("admin").execute(
            "INSERT INTO products VALUES (99, 'womens gala dress')"
        )
        out = get_value(bridge_for(db2), "women", k=3)
        assert "gala" in out
        assert db2.retrieval_cache.stats["persisted_hits"] == 0
        db2.close()

    @pytest.mark.parametrize(
        "name,stores,listed",
        [
            ("womens wear", 1, False),  # a present value: list unchanged, sidecar renamed
            ("womens gala dress", 2, True),  # a new value: catalog rebuilt, stored anew
        ],
    )
    def test_write_then_call_then_reopen_serves_the_sidecar(
        self, dbdir, name, stores, listed
    ):
        db = build(dbdir)
        bridge = bridge_for(db)
        get_value(bridge, "women")  # build + persist
        db.connect("admin").execute(f"INSERT INTO products VALUES (99, '{name}')")
        before = {key: get_value(bridge, key, k=9) for key in KEYS}
        assert (name in before["women"]) is True
        assert ("gala" in before["women"]) is listed
        cache = db.retrieval_cache
        assert cache.stats["rebuilds"] == 1
        assert cache.stats["revised"] == (not listed)
        assert cache.store.stats["stores"] == stores
        heap = db.heap("products")
        # one sidecar per key, and it carries the fingerprint of the write
        (sidecar,) = os.listdir(db.engine.catalog_dir)
        assert f".{heap.uid}-{heap.version}{CatalogStore.SUFFIX}" in sidecar
        db.close()

        db2 = Database.open(dbdir)
        bridge = bridge_for(db2)
        assert {key: get_value(bridge, key, k=9) for key in KEYS} == before
        brute = bridge_for(db2, brute=True)
        assert {key: get_value(brute, key, k=9) for key in KEYS} == before
        stats = db2.retrieval_cache.stats
        assert stats["persisted_hits"] == 1
        assert stats["misses"] == stats["rebuilds"] == 0
        assert len(os.listdir(db2.engine.catalog_dir)) == 1
        db2.close()

    def test_in_memory_database_has_no_store(self):
        db = Database(owner="admin")
        session = db.connect("admin")
        session.execute("CREATE TABLE products (id INT PRIMARY KEY, name TEXT)")
        session.execute("INSERT INTO products VALUES (1, 'womens wear')")
        get_value(bridge_for(db), "women")
        assert db.retrieval_cache.store is None


class TestCrashSafety:
    def test_dirty_catalog_pruned_on_recovery(self, dbdir):
        db = build(dbdir)
        session = db.connect("admin")
        session.execute("BEGIN")
        session.execute("INSERT INTO products VALUES (50, 'dirty uncommitted')")
        # catalog built from in-flight data gets persisted at a fingerprint
        # the WAL knows nothing about
        out = get_value(bridge_for(db), "dirty")
        assert "uncommitted" in out
        del db, session  # crash with the transaction still open

        db2 = Database.open(dbdir)
        out = get_value(bridge_for(db2), "dirty")
        assert "uncommitted" not in out
        assert db2.retrieval_cache.stats["persisted_hits"] == 0
        db2.close()

    def test_stale_fingerprints_pruned_on_recovery(self, dbdir):
        db = build(dbdir)
        get_value(bridge_for(db), "women")
        # supersede the persisted catalog, then crash before rebuilding it
        db.connect("admin").execute("DELETE FROM products WHERE id = 0")
        del db

        db2 = Database.open(dbdir)
        catalog_dir = db2.engine.catalog_dir
        assert os.listdir(catalog_dir) == []  # stale sidecar removed
        out = get_value(bridge_for(db2), "women")
        assert "womens wear" not in out
        db2.close()


class TestCatalogStore:
    def test_store_and_load_roundtrip(self, tmp_path):
        store = CatalogStore(str(tmp_path))
        catalog = ValueCatalog(["alpha", "beta"])
        store.store(("t", "c", 100), (7, 3), catalog)
        loaded = store.load(("t", "c", 100), (7, 3))
        assert isinstance(loaded, ValueCatalog)
        assert loaded.values == ["alpha", "beta"]
        assert loaded.stats == {
            "queries": 0, "candidates": 0, "bounded": 0, "visited": 0,
            "scored": 0,
        }

    def test_load_misses_on_other_fingerprint(self, tmp_path):
        store = CatalogStore(str(tmp_path))
        store.store(("t", "c", 100), (7, 3), ValueCatalog(["alpha"]))
        assert store.load(("t", "c", 100), (7, 4)) is None
        assert store.stats["misses"] == 1

    def test_store_replaces_older_fingerprints(self, tmp_path):
        store = CatalogStore(str(tmp_path))
        store.store(("t", "c", 100), (7, 3), ValueCatalog(["old"]))
        store.store(("t", "c", 100), (7, 8), ValueCatalog(["new"]))
        assert len(os.listdir(str(tmp_path))) == 1
        assert store.load(("t", "c", 100), (7, 3)) is None
        assert store.load(("t", "c", 100), (7, 8)).values == ["new"]

    def test_corrupt_file_is_a_miss(self, tmp_path):
        store = CatalogStore(str(tmp_path))
        store.store(("t", "c", 100), (7, 3), ValueCatalog(["alpha"]))
        (path,) = (
            os.path.join(str(tmp_path), n) for n in os.listdir(str(tmp_path))
        )
        with open(path, "wb") as fh:
            fh.write(b"not a pickle")
        assert store.load(("t", "c", 100), (7, 3)) is None


class TestSidecarRenameFaults:
    KEY = ("t", "c", 100)

    def scenario(self, directory, plan=None):
        """Build + persist at (7, 3), then look up at (7, 4) with the list
        unchanged: the sidecar is renamed, not rewritten."""
        fs = FaultyFilesystem(plan)
        store = CatalogStore(directory, filesystem=fs)
        cache = CatalogCache(store=store)
        first = cache.lookup(self.KEY, (7, 3), lambda: ["alpha", "beta"])
        mark = fs.ops
        second = cache.lookup(self.KEY, (7, 4), lambda: ["alpha", "beta"])
        assert second is first
        return fs, store, cache, mark

    def reload(self, directory):
        # through the plain filesystem: the faulty file double cannot be
        # unpickled from (it has no ``readline``)
        return CatalogStore(str(directory)).load(self.KEY, (7, 4)).values

    def test_unchanged_list_renames_the_sidecar(self, tmp_path):
        fs, store, cache, mark = self.scenario(str(tmp_path))
        assert [op for _, op, _ in fs.ops_log[mark:]] == ["open", "replace"]
        assert store.stats["stores"] == 1
        (name,) = os.listdir(str(tmp_path))
        assert name.endswith(f".7-4{CatalogStore.SUFFIX}")
        assert self.reload(tmp_path) == ["alpha", "beta"]
        assert cache.stats["rebuilds"] == cache.stats["revised"] == 1

    def test_eio_on_rename_falls_back_to_store(self, tmp_path):
        clean = tmp_path / "clean"
        fs, _, _, mark = self.scenario(str(clean))
        (rename_op,) = [
            index for index, op, _ in fs.ops_log[mark:] if op == "replace"
        ]

        faulty = tmp_path / "faulty"
        fs, store, cache, _ = self.scenario(
            str(faulty), FaultPlan(error_at=rename_op)
        )
        assert fs.injected == [(rename_op, "error", "replace")]
        assert store.stats["stores"] == 2  # the fallback wrote it anew
        (name,) = os.listdir(str(faulty))  # no temp file, no old sidecar
        assert name.endswith(f".7-4{CatalogStore.SUFFIX}")
        assert self.reload(faulty) == ["alpha", "beta"]
        assert cache.stats["rebuilds"] == cache.stats["revised"] == 1

    def test_missing_sidecar_falls_back_to_store(self, tmp_path):
        store = CatalogStore(str(tmp_path))
        cache = CatalogCache(store=store)
        cache.lookup(self.KEY, (7, 3), lambda: ["alpha"])
        (name,) = os.listdir(str(tmp_path))
        os.unlink(os.path.join(str(tmp_path), name))  # e.g. pruned, or never stored
        cache.lookup(self.KEY, (7, 4), lambda: ["alpha"])
        (name,) = os.listdir(str(tmp_path))
        assert name.endswith(f".7-4{CatalogStore.SUFFIX}")
