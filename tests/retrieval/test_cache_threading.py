"""CatalogCache thread-safety stress: concurrent lookups and evictions.

Without the cache mutex, concurrent ``move_to_end`` / ``popitem`` calls
corrupt the LRU ``OrderedDict`` (KeyError / "dictionary changed size
during iteration" / silently broken LRU order). The stress here drives N
threads through a hot loop of lookups over more keys than the cache
holds, so inserts evict, with stale-fingerprint rebuilds, and requires
zero exceptions plus coherent final state.
"""

import os
import random
import sys
import threading

import pytest
from test_value_catalog import index_fields, oracle_keys, syllable_column

from repro.core.similarity import top_k
from repro.retrieval import CatalogCache, ValueCatalog

STRESS_THREADS = int(os.environ.get("REPRO_STRESS_THREADS", "8"))


def build_values(key, fingerprint):
    return [f"{key}-{fingerprint}-{n}" for n in range(20)]


class TestCacheThreading:
    def test_concurrent_lookups_through_evictions(self):
        cache = CatalogCache(max_entries=16)
        # twice as many keys as entries: most inserts evict
        keys = [("table", f"col{n}", 100) for n in range(32)]
        errors = []
        done = threading.Barrier(STRESS_THREADS + 1)

        def hammer(seed):
            try:
                for step in range(400):
                    key = keys[(seed * 7 + step) % len(keys)]
                    # fingerprints advance now and then: forces rebuilds
                    fingerprint = (1, (seed + step) // 50)
                    catalog = cache.lookup(
                        key,
                        fingerprint,
                        lambda k=key, f=fingerprint: build_values(k, f),
                    )
                    assert len(catalog.values) == 20
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)
            finally:
                done.wait(timeout=120.0)

        threads = [
            threading.Thread(target=hammer, args=(n,), daemon=True)
            for n in range(STRESS_THREADS)
        ]
        for thread in threads:
            thread.start()
        done.wait(timeout=120.0)
        for thread in threads:
            thread.join(timeout=30.0)

        assert errors == []
        # LRU bound respected and stats coherent
        assert len(cache) <= cache.max_entries
        stats = cache.stats
        assert stats["hits"] + stats["misses"] + stats["rebuilds"] > 0

    def test_concurrent_same_key_converges(self):
        """All threads racing one missing key end with a served catalog
        for the same fingerprint (last build wins; none is torn)."""
        cache = CatalogCache(max_entries=4)
        key = ("t", "c", 100)
        fingerprint = (5, 1)
        results = []
        guard = threading.Lock()

        def racer():
            catalog = cache.lookup(
                key, fingerprint, lambda: build_values("k", "f")
            )
            with guard:
                results.append(catalog)

        threads = [
            threading.Thread(target=racer, daemon=True) for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert len(results) == 8
        assert all(len(c.values) == 20 for c in results)
        # subsequent lookups hit the cached entry
        before = cache.stats["hits"]
        cache.lookup(key, fingerprint, lambda: pytest.fail("must not rebuild"))
        assert cache.stats["hits"] == before + 1

    def test_single_threaded_semantics_unchanged(self):
        cache = CatalogCache(max_entries=2)
        catalog = cache.lookup(("a",), (1, 0), lambda: ["x", "y"])
        assert cache.lookup(("a",), (1, 0), lambda: pytest.fail("cached")) is catalog
        assert cache.stats == {
            "hits": 1, "misses": 1, "rebuilds": 0, "revised": 0,
        }
        # stale fingerprint rebuilds
        rebuilt = cache.lookup(("a",), (1, 1), lambda: ["z"])
        assert rebuilt is not catalog
        assert cache.stats["rebuilds"] == 1


class TestRevisionUnderConcurrency:
    """Writers grow, shrink or merely re-stamp the column's list (so stale
    catalogs are rebuilt or kept) while readers keep querying catalogs
    they were handed earlier. A catalog kept for a list it does not
    index, or one touched after it was handed out, would show as a wrong
    ranking, an exception, or changed index fields of a held catalog."""

    KEYS = ("item 1", "item", "ab", "a", "zz")

    def test_held_catalogs_never_change_while_the_list_moves(self):
        cache = CatalogCache(max_entries=4)
        key = ("t", "c", 100)
        guard = threading.Lock()
        #: every list the column ever held, by version (guarded by guard)
        lists = {0: [f"item {n}" for n in range(30)] + ["ab", "a"]}
        errors = []
        writers = max(2, STRESS_THREADS // 4)
        readers = STRESS_THREADS - writers

        def current():
            with guard:
                version = max(lists)
                return version, lists[version]

        def write(seed):
            try:
                for step in range(150):
                    with guard:
                        version = max(lists)
                        values = list(lists[version])
                        kind = (seed + step) % 3
                        if kind == 0 and len(values) > 8:
                            del values[(seed * 5 + step) % (len(values) - 2)]
                        elif kind == 1:
                            values.append(f"item {seed}-{step}")
                        # else: a write elsewhere in the table
                        lists[version + 1] = values
                    version, values = current()
                    catalog = cache.lookup(key, (1, version), lambda: list(values))
                    assert catalog.top_k("item", 3) == top_k("item", values, 3)
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        def read(seed):
            held = []
            try:
                for step in range(150):
                    version, values = current()
                    catalog = cache.lookup(key, (1, version), lambda: list(values))
                    query = self.KEYS[(seed + step) % len(self.KEYS)]
                    # the catalog is exactly the one for the list that was
                    # current when the lookup was made
                    expected = top_k(query, values, 5)
                    assert catalog.top_k(query, 5) == expected
                    if step % 10 == 0:
                        held.append((catalog, query, expected, index_fields(catalog)))
                    for catalog, query, expected, _ in held[-3:]:
                        assert catalog.top_k(query, 5) == expected
                for catalog, query, expected, frozen in held:
                    assert catalog.top_k(query, 5) == expected
                    assert index_fields(catalog) == frozen
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        threads = [
            threading.Thread(target=write, args=(n,), daemon=True)
            for n in range(writers)
        ] + [
            threading.Thread(target=read, args=(n,), daemon=True)
            for n in range(readers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        stats = cache.stats
        assert stats["revised"] > 0
        assert stats["revised"] <= stats["rebuilds"]
        assert (
            stats["hits"] + stats["misses"] + stats["rebuilds"]
        ) == (writers + readers) * 150


class TestReadersOnOneBuiltCatalog:
    """A built catalog derives features on first touch, in readers that
    hold no lock. Racing readers must each still rank as brute force —
    whichever of two equal entries lands in the memo."""

    def test_racing_readers_fill_the_memo_and_rank_as_brute_force(self):
        rng = random.Random("readers-on-one-built-catalog")
        values = syllable_column(rng, 300)
        keys = oracle_keys(rng, values, picks=3)
        expected = {key: top_k(key, values, 5) for key in keys}
        catalog = ValueCatalog(values)
        assert len(catalog.entries._cache) == 0
        errors = []
        start = threading.Barrier(STRESS_THREADS)

        def read(seed):
            try:
                start.wait(timeout=30.0)
                # every thread meets every key, each from its own offset
                for step in range(2 * len(keys)):
                    key = keys[(seed + step) % len(keys)]
                    assert catalog.top_k(key, 5) == expected[key], key
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        threads = [
            threading.Thread(target=read, args=(n,), daemon=True)
            for n in range(STRESS_THREADS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert 0 < len(catalog.entries._cache) < len(values)
