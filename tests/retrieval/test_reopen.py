"""Reopening a durable database: ``get_value`` never reads the directory.

Value catalogs are an in-memory cache, rebuilt from the recovered rows the
first time a reopened database is asked for a column. Nothing under the
database directory is deserialized for them: a file planted where older
builds kept pickled catalogs (``<db>/catalogs/``) is never opened, and a
fresh directory gets no such folder. Reopened answers equal the
brute-force scorer's over the recovered data, and values of a transaction
that never committed are not served after a crash.
"""

from __future__ import annotations

import gc
import hashlib
import os
import pickle
import shutil

import pytest

from test_invalidation import BruteForceBinding

from repro.core import BridgeScope, BridgeScopeConfig, MinidbBinding
from repro.faults import FaultPlan, FaultyFilesystem, SimulatedCrash
from repro.minidb import Database, MiniDBError
from repro.retrieval import ValueCatalog

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


def assert_matches_brute_force(db: Database, k: int = 4) -> None:
    indexed, brute = bridge_for(db), bridge_for(db, brute=True)
    for key in KEYS:
        assert get_value(indexed, key, k) == get_value(brute, key, k), key


class _MakesMarker:
    """Unpickling this creates the directory ``marker``."""

    def __init__(self, marker: str):
        self.marker = marker

    def __reduce__(self):
        return os.mkdir, (self.marker,)


def sidecar_path(dbdir: str, heap, version: int | None = None) -> str:
    """Where older builds persisted the ``products.name`` catalog: a hash
    of the cache key, then the heap fingerprint (``version`` overrides
    the heap's)."""
    key = ("products", "name", BridgeScopeConfig().exemplar_scan_limit)
    digest = hashlib.sha1(repr(key).encode("utf-8")).hexdigest()[:20]
    version = heap.version if version is None else version
    name = f"{digest}.{heap.uid}-{version}.catalog.pkl"
    return os.path.join(dbdir, "catalogs", name)


def tree(directory: str) -> dict[str, bytes]:
    """Every file under ``directory`` with its bytes, by relative path."""
    files = {}
    for root, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, directory)] = fh.read()
    return files


class TestNothingIsDeserialized:
    def test_a_planted_sidecar_pickle_is_never_loaded(self, dbdir, tmp_path):
        db = build(dbdir)
        get_value(bridge_for(db), "women")
        heap = db.heap("products")
        db.close()
        marker = str(tmp_path / "marker")
        path = sidecar_path(dbdir, heap)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(pickle.dumps(_MakesMarker(marker)))

        db2 = Database.open(dbdir)
        assert (db2.heap("products").uid, db2.heap("products").version) == (
            heap.uid, heap.version,
        )
        assert_matches_brute_force(db2)
        assert not os.path.exists(marker)
        db2.close()

    def test_open_creates_no_catalog_directory(self, dbdir):
        db = build(dbdir)
        assert not os.path.exists(os.path.join(dbdir, "catalogs"))
        get_value(bridge_for(db), "women")
        db.close()
        db2 = Database.open(dbdir)
        get_value(bridge_for(db2), "women")
        db2.close()
        assert not os.path.exists(os.path.join(dbdir, "catalogs"))


#: a pickled catalog of a value the column never held: were it served,
#: ``poisoned value`` would show in the answers
POISONED = pickle.dumps(ValueCatalog(["poisoned value"]))


class TestParentWrittenDirectory:
    """A directory written by builds that persisted catalogs opens as it
    is: whatever its ``catalogs/`` folder holds is neither read, nor
    rewritten, nor removed."""

    @pytest.mark.parametrize(
        "version_delta,suffix,payload",
        [
            pytest.param(0, "", POISONED, id="a catalog at the current fingerprint"),
            pytest.param(1, "", POISONED, id="a catalog at an older fingerprint"),
            pytest.param(0, ".tmp", POISONED[:40], id="a torn temp file"),
            pytest.param(0, "", b"not a pickle", id="not a pickle"),
            pytest.param(0, "", b"", id="an empty file"),
        ],
    )
    def test_the_old_catalog_folder_is_left_as_it_is(
        self, dbdir, version_delta, suffix, payload
    ):
        db = build(dbdir)
        get_value(bridge_for(db), "women")
        heap = db.heap("products")
        db.close()
        path = sidecar_path(dbdir, heap, heap.version - version_delta) + suffix
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(payload)
        folder = os.path.join(dbdir, "catalogs")
        legacy = tree(folder)

        db2 = Database.open(dbdir)
        bridge = bridge_for(db2)
        for key in (*KEYS, "poisoned"):
            assert "'poisoned value'" not in get_value(bridge, key, k=9), key
        assert_matches_brute_force(db2, k=9)
        db2.connect("admin").execute(
            "INSERT INTO products VALUES (99, 'womens gala dress')"
        )
        assert_matches_brute_force(db2, k=9)
        db2.close()
        assert tree(folder) == legacy


class TestReopenFreshness:
    def test_reopen_then_write_then_reopen_matches_brute_force(self, dbdir):
        db = build(dbdir)
        before = {key: get_value(bridge_for(db), key) for key in KEYS}
        db.close()

        db2 = Database.open(dbdir)
        assert {key: get_value(bridge_for(db2), key) for key in KEYS} == before
        assert_matches_brute_force(db2)
        db2.connect("admin").execute(
            "INSERT INTO products VALUES (99, 'womens gala dress')"
        )
        assert "gala" in get_value(bridge_for(db2), "women", k=3)
        db2.close()

        db3 = Database.open(dbdir)
        assert "gala" in get_value(bridge_for(db3), "women", k=3)
        assert_matches_brute_force(db3, k=9)
        db3.close()

    def test_in_memory_and_durable_databases_answer_alike(self, dbdir):
        durable = build(dbdir)
        memory = Database(owner="admin")
        session = memory.connect("admin")
        session.execute("CREATE TABLE products (id INT PRIMARY KEY, name TEXT)")
        for i, name in enumerate(NAMES):
            session.execute(f"INSERT INTO products VALUES ({i}, '{name}')")
        for key in KEYS:
            assert get_value(bridge_for(memory), key, k=9) == get_value(
                bridge_for(durable), key, k=9
            ), key
        assert memory.retrieval_cache.stats == durable.retrieval_cache.stats
        durable.close()

    @pytest.mark.parametrize("name", ["womens wear", "womens gala dress"])
    def test_write_then_call_then_reopen_answers_alike(self, dbdir, name):
        """A write the cache revised (a value already present) or rebuilt
        for (a new one) answers the same after a reopen."""
        db = build(dbdir)
        bridge = bridge_for(db)
        get_value(bridge, "women")
        db.connect("admin").execute(f"INSERT INTO products VALUES (99, '{name}')")
        before = {key: get_value(bridge, key, k=9) for key in KEYS}
        assert name in before["women"]
        db.close()

        db2 = Database.open(dbdir)
        assert {key: get_value(bridge_for(db2), key, k=9) for key in KEYS} == before
        assert_matches_brute_force(db2, k=9)
        db2.close()


class TestCacheAfterReopen:
    def test_the_first_call_after_a_reopen_builds_once(self, dbdir):
        db = build(dbdir)
        get_value(bridge_for(db), "women")
        db.close()

        db2 = Database.open(dbdir)
        bridge = bridge_for(db2)
        for key in KEYS:
            get_value(bridge, key)
        assert db2.retrieval_cache.stats == {
            "hits": len(KEYS) - 1, "misses": 1, "rebuilds": 0, "revised": 0,
        }
        samples = {name: value for name, _, value in db2.metrics.samples()}
        assert samples["minidb_retrieval_cache_misses"] == 1
        assert samples["minidb_retrieval_cache_hits"] == len(KEYS) - 1
        assert not [
            name for name in samples if name.startswith("minidb_retrieval_store")
        ]
        db2.close()

    @pytest.mark.parametrize(
        "name,revised",
        [
            pytest.param("womens wear", 1, id="a present value"),
            pytest.param("womens gala dress", 0, id="a new value"),
        ],
    )
    def test_a_write_after_a_reopen_is_revised_or_rebuilt(
        self, dbdir, name, revised
    ):
        build(dbdir).close()
        db = Database.open(dbdir)
        bridge = bridge_for(db)
        get_value(bridge, "women")
        cache = db.retrieval_cache
        (first,) = cache.cached_catalogs()
        db.connect("admin").execute(f"INSERT INTO products VALUES (99, '{name}')")
        assert name in get_value(bridge, "women", k=9)
        (second,) = cache.cached_catalogs()
        assert (second is first) is bool(revised)
        assert cache.stats == {
            "hits": 0, "misses": 1, "rebuilds": 1, "revised": revised,
        }
        assert_matches_brute_force(db, k=9)
        db.close()


class TestCrashSafety:
    def test_uncommitted_value_is_not_served_after_a_crash(self, dbdir):
        db = build(dbdir)
        session = db.connect("admin")
        session.execute("BEGIN")
        session.execute("INSERT INTO products VALUES (50, 'dirty uncommitted')")
        # the catalog is built from the in-flight row
        assert "uncommitted" in get_value(bridge_for(db), "dirty")
        del db, session  # crash with the transaction still open

        db2 = Database.open(dbdir)
        assert "uncommitted" not in get_value(bridge_for(db2), "dirty")
        assert_matches_brute_force(db2)
        db2.close()

    def test_a_write_after_the_last_call_is_served_after_a_crash(self, dbdir):
        db = build(dbdir)
        get_value(bridge_for(db), "women")
        db.connect("admin").execute("DELETE FROM products WHERE id = 0")
        del db  # crash before any call sees the delete

        db2 = Database.open(dbdir)
        assert "womens wear" not in get_value(bridge_for(db2), "women")
        assert_matches_brute_force(db2)
        db2.close()

    def test_an_uncommitted_update_is_not_served_after_a_crash(self, dbdir):
        db = build(dbdir)
        session = db.connect("admin")
        session.execute("BEGIN")
        session.execute("UPDATE products SET name = 'dirty uncommitted' WHERE id = 0")
        bridge = bridge_for(db)
        assert "uncommitted" in get_value(bridge, "dirty")
        assert "womens wear" not in get_value(bridge, "women", k=9)
        del db, session, bridge  # crash with the transaction still open

        db2 = Database.open(dbdir)
        bridge = bridge_for(db2)
        assert "uncommitted" not in get_value(bridge, "dirty", k=9)
        assert "womens wear" in get_value(bridge, "women")
        assert_matches_brute_force(db2)
        db2.close()

    def test_an_uncommitted_delete_is_not_served_after_a_crash(self, dbdir):
        db = build(dbdir)
        session = db.connect("admin")
        session.execute("BEGIN")
        session.execute("DELETE FROM products WHERE id = 0")
        assert "womens wear" not in get_value(bridge_for(db), "women", k=9)
        del db, session  # crash with the transaction still open

        db2 = Database.open(dbdir)
        assert "womens wear" in get_value(bridge_for(db2), "women")
        assert_matches_brute_force(db2)
        db2.close()


def scrub(exc: BaseException | None) -> None:
    """Drop the traceback chain of a caught injected failure, so its frames
    cannot keep the failed engine, and its directory lock, alive."""
    seen: set[int] = set()
    while exc is not None and id(exc) not in seen:
        seen.add(id(exc))
        exc.__traceback__ = None
        exc = exc.__cause__ or exc.__context__


GALA = "womens gala dress"
#: the recoverable states of the session below: before its insert, after
#: it, and after its delete
STATES = [
    set(NAMES),
    set(NAMES) | {GALA},
    (set(NAMES) | {GALA}) - {"womens wear"},
]


class TestFaultSweep:
    """Crash, or fail with ``EIO``, each filesystem operation of a reopen
    that calls ``get_value`` around two writes: whatever the directory
    recovers to, the next reopen answers like brute force over it."""

    @staticmethod
    def session(path: str, fs: FaultyFilesystem):
        """Reopen ``path`` through ``fs``, then call, write, call, write;
        returns the database (``None`` if the open failed) and the
        failure (``None`` if none stopped the session)."""
        db = None
        try:
            db = Database.open(path, auto_checkpoint_records=0, filesystem=fs)
            bridge = bridge_for(db)
            get_value(bridge, "women")
            db.connect("admin").execute(f"INSERT INTO products VALUES (99, '{GALA}')")
            assert GALA in get_value(bridge, "women", k=9)
            db.connect("admin").execute("DELETE FROM products WHERE id = 0")
            return db, None
        except (SimulatedCrash, MiniDBError, OSError) as exc:
            scrub(exc)
            return db, exc

    @pytest.mark.parametrize("fault", ["crash_at", "error_at"])
    def test_every_operation_then_reopen_matches_brute_force(
        self, tmp_path, fault
    ):
        base = str(tmp_path / "base")
        build(base).close()
        clean = str(tmp_path / "clean")
        shutil.copytree(base, clean)
        fs = FaultyFilesystem(FaultPlan())
        db, failure = self.session(clean, fs)
        assert failure is None
        total = fs.ops  # before close(): the sweep never reaches close
        db.close()
        assert total > 5, "session too small to be a meaningful sweep"

        for at in range(total):
            path = str(tmp_path / f"{fault}{at}")
            shutil.copytree(base, path)
            fs = FaultyFilesystem(FaultPlan(seed=at, **{fault: at}))
            db, failure = self.session(path, fs)
            assert fs.injected, f"{fault}={at}"
            if fault == "crash_at":
                assert isinstance(failure, SimulatedCrash), f"{fault}={at}"
            elif db is not None:
                db.close()  # idempotent, and allowed after a failed write
            db = failure = None  # a crash is process death: no close()
            gc.collect()

            recovered = Database.open(path)
            try:
                rows = recovered.connect("admin").execute(
                    "SELECT name FROM products"
                ).rows
                assert {name for (name,) in rows} in STATES, f"{fault}={at}"
                assert_matches_brute_force(recovered, k=9)
            finally:
                recovered.close()
