"""Why indexed ``get_value`` is fast, stated in counts.

A warm ``get_value`` ranks with ``ValueCatalog.top_k``. Its candidates are
the values sharing a trigram, a token or a containment with the key.
Candidates whose shared-trigram count cannot reach the pilot's floor are
dropped before any bound is computed ("bounded"), and only the bounded
values whose bound beats the k-th best score are scored exactly
("scored"). Brute force scores every distinct value, and the indexed
output equals it (``test_value_catalog.py::TestPruningScaleOracle``,
``test_revision.py``). The counts below are deterministic, so they hold on
any machine:

* growing the column tenfold with values no key targets leaves the scored
  count of every query as it was, and the bounded count about the same;
* the survivors that share a shared-trigram count and a trigram-set size
  are ranked as one level, so the vids touched one at a time ("visited")
  are a few per query on a column of persona-like names, where most
  survivors are such levels, and stay a few when it grows tenfold;
* a write that leaves the distinct list unchanged keeps the cached
  catalog object: the next call constructs no ``ValueCatalog``.
"""

import pytest

from product_names import QUERY_KEYS, name_column, product_name, unrelated_name

from repro.core import BridgeScope, BridgeScopeConfig, MinidbBinding
from repro.minidb import Database
from repro.retrieval import ValueCatalog

#: the share of a query's candidates that may reach the upper bound
BOUNDED_SHARE = 0.1
#: the column's first values, which hold every value a key targets
TARGETED = 4_000
#: one-row INSERTs of a name the column already holds
WRITES = 5
#: ``visited`` per key on the product column, as observed (4k, 40k)
PRODUCT_VISITED_4K = {
    "women": 7, "ladies dress": 12, "mens jacket": 18, "sport shoes": 18,
    "premum boots": 12, "coastal": 7, "eco equipment": 14, "vintage wear": 17,
}
PRODUCT_VISITED_40K = {**PRODUCT_VISITED_4K, "women": 10}
#: (bounded, visited) summed over the 40 ``name_keys`` on the name column
NAMES_4K = (6925, 219)
NAMES_40K = (16665, 236)


def products(values: list[str]) -> BridgeScope:
    """A BridgeScope over a ``products`` table holding ``values``."""
    db = Database(owner="admin")
    db.connect("admin").execute(
        "CREATE TABLE products (id INT PRIMARY KEY, name TEXT)"
    )
    heap = db.heap("products")
    for i, value in enumerate(values):
        heap.insert({"id": i, "name": value})
    return BridgeScope(
        MinidbBinding.for_user(db, "admin"),
        BridgeScopeConfig(exemplar_scan_limit=len(values)),
    )


def get_value(bridge: BridgeScope, key: str) -> str:
    result = bridge.invoke("get_value", col="products.name", key=key, k=5)
    assert not result.is_error, result.content
    return result.content


def column(size: int) -> list[str]:
    """``TARGETED`` product names, then unrelated ones up to ``size``."""
    return [
        product_name(i) if i < TARGETED else unrelated_name(i) for i in range(size)
    ]


def work_per_query(size: int) -> dict[str, dict[str, int]]:
    """Each key's candidates / bounded / scored on a warm catalog."""
    bridge = products(column(size))
    get_value(bridge, QUERY_KEYS[0])  # builds the catalog
    (catalog,) = bridge.binding.session.db.retrieval_cache.cached_catalogs()
    work = {}
    for key in QUERY_KEYS:
        before = dict(catalog.stats)
        get_value(bridge, key)
        work[key] = {
            name: catalog.stats[name] - before[name]
            for name in ("candidates", "bounded", "visited", "scored")
        }
    return work


@pytest.fixture(scope="module")
def work():
    """Per-query work on the targeted column and on it grown tenfold."""
    return work_per_query(TARGETED), work_per_query(10 * TARGETED)


@pytest.mark.parametrize("key", QUERY_KEYS)
def test_work_per_query_does_not_grow_with_the_column(work, key):
    small, large = work
    # the candidates grow with the column; what is scored does not
    assert large[key]["candidates"] > 5 * small[key]["candidates"]
    assert large[key]["scored"] == small[key]["scored"]
    for size in (small, large):
        assert size[key]["bounded"] <= BOUNDED_SHARE * size[key]["candidates"]


def test_the_bounded_total_stays_under_twice(work):
    bounded = [sum(size[key]["bounded"] for key in QUERY_KEYS) for size in work]
    assert bounded[1] < 2 * bounded[0], bounded


def test_visited_is_what_token_hits_leave_on_the_product_column(work):
    """Here the survivors are mostly token hits (``mens jacket`` holds
    ``mens``), which are bounded one at a time, so ``visited`` is close
    to ``bounded``: the counts are pinned, and grow with the column only
    where ``bounded`` does."""
    visited = [{key: size[key]["visited"] for key in QUERY_KEYS} for size in work]
    assert visited == [PRODUCT_VISITED_4K, PRODUCT_VISITED_40K]
    for size in work:
        for key in QUERY_KEYS:
            assert size[key]["visited"] <= size[key]["bounded"]


def name_keys(names: list[str]) -> list[str]:
    """Every 100th name with the middle letter of its last word dropped,
    as the e2e keys are typo'd."""
    keys = []
    for name in names[::100]:
        middle = (name.rfind(" ") + 1 + len(name)) // 2
        keys.append(name[:middle] + name[middle + 1 :])
    return keys


def test_visited_is_a_few_per_query_on_a_name_column():
    """On persona-like names the survivors share no token with the key
    beyond its own name's: the ~170 survivors of a 4k column and the ~380
    of a 40k one are ranked in levels, and a query touches ~6 vids one at
    a time at either size."""
    keys = name_keys(name_column(TARGETED))
    totals = {}
    for size in (TARGETED, 10 * TARGETED):
        catalog = ValueCatalog(name_column(size))
        for key in keys:
            catalog.top_k(key, 5)
        stats = catalog.stats
        assert stats["queries"] == len(keys)
        assert 20 * stats["visited"] < stats["bounded"]
        totals[size] = (stats["bounded"], stats["visited"])
    assert totals == {TARGETED: NAMES_4K, 10 * TARGETED: NAMES_40K}


def test_a_write_that_keeps_the_list_keeps_the_catalog():
    bridge = products(column(TARGETED))
    get_value(bridge, QUERY_KEYS[0])
    cache = bridge.binding.session.db.retrieval_cache
    (catalog,) = cache.cached_catalogs()
    for row_id in range(TARGETED, TARGETED + WRITES):
        # a name the column already holds: the distinct list is unchanged
        bridge.binding.session.execute(
            f"INSERT INTO products VALUES ({row_id}, '{product_name(0)}')"
        )
        get_value(bridge, QUERY_KEYS[0])
        (kept,) = cache.cached_catalogs()
        assert kept is catalog
    assert cache.stats["rebuilds"] == cache.stats["revised"] == WRITES
    assert cache.stats["misses"] == 1
