"""Retrieval-scale experiment: indexed vs brute-force ``get_value``.

Run and gated by ``python -m repro.bench retrieval``. Builds one table whose
text column holds ``distinct`` unique values and times repeated
``get_value`` tool calls through the full BridgeScope stack under both
paths:

* **indexed** — the default: `ContextTools.get_value` serves from the
  binding's cached :class:`~repro.retrieval.ValueCatalog` (the first call
  pays the catalog build; every later call probes the trigram/token
  posting lists only);
* **brute force** — a binding without an exemplar index
  (:class:`BruteForceBinding`, the interface default of
  ``retrieve_values``): every call re-scans the heap and re-scores every
  distinct value. At production column sizes a single call is so slow
  that the baseline is measured on a smaller column and extrapolated
  linearly (per-call cost is O(distinct)), mirroring the join-scale
  benchmark's method.

Both paths must return byte-identical tool output; the experiment checks
that on an equivalence suite before timing anything.

It also times the indexed call *right after a write* (``after_write_ms``):
a one-row INSERT of a name the column already holds moves the table's
fingerprint and leaves the distinct list as it was, so the next
``get_value`` re-scans the column and keeps the cached catalog instead of
building a new one. It must stay an order of magnitude under ``cold_ms``.
(A write that changes the list still rebuilds, i.e. costs ``cold_ms``.)
"""

from __future__ import annotations

import statistics
import time
from typing import Any

from repro.core import BridgeScope, BridgeScopeConfig, MinidbBinding
from repro.core.interfaces import DatabaseBinding
from repro.minidb import Database

from .gates import expect, failed

#: warm-call speedup floors (full size, smoke): at smoke sizes the
#: brute-force path is not yet pathological
SPEEDUP_FLOORS = (50.0, 5.0)
#: the share of a query's candidates that may reach the upper bound — a
#: count, so it repeats exactly on any machine (241 of 5,435 at full size,
#: 13 of 223 at smoke size)
BOUNDED_SHARE = 0.1
#: how far under the cold (catalog-building) call a call right after a
#: write must stay (full size, smoke)
AFTER_WRITE_FACTORS = (10.0, 3.0)
#: timed writes (``after_write_ms`` is their median)
WRITES = 5

_ADJECTIVES = (
    "womens", "mens", "kids", "coastal", "inland", "premium",
    "classic", "sport", "vintage", "eco", "alpine", "urban",
)
_NOUNS = (
    "wear", "shoes", "jacket", "dress", "boots", "accessories",
    "equipment", "apparel", "outfit", "gear", "luggage", "kit",
)


def _pseudo_word(seed: int, length: int) -> str:
    """Deterministic letter soup (no stdlib randomness: runs reproduce)."""
    state = (seed * 2654435761 + 97) & 0x7FFFFFFF
    chars = []
    for _ in range(length):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        chars.append(chr(ord("a") + (state >> 16) % 26))
    return "".join(chars)


def product_name(i: int) -> str:
    """The i-th distinct value of the benchmark column.

    A high-cardinality text column is mostly irrelevant to any given task
    key, so only ~2% of values are category-style names the query keys
    actually target; the rest are unique pseudo-random product names. The
    id suffix keeps every value distinct.
    """
    if i % 50 == 0:
        adjective = _ADJECTIVES[(i // 50) % len(_ADJECTIVES)]
        noun = _NOUNS[(i // (50 * len(_ADJECTIVES))) % len(_NOUNS)]
        return f"{adjective} {noun} {i:06d}"
    return f"{_pseudo_word(i, 7)} {_pseudo_word(i * 31 + 7, 8)} {i:06d}"

#: task keys exercising the signals the scorer blends: stored surface
#: forms, synonyms, misspellings, substrings, multi-token paraphrases
QUERY_KEYS = (
    "women",
    "ladies dress",
    "mens jacket",
    "sport shoes",
    "premum boots",       # misspelling
    "coastal",
    "eco equipment",
    "vintage wear",
)


class BruteForceBinding(MinidbBinding):
    """minidb without the exemplar index: ``get_value`` scores every
    distinct value of the column, as any binding without an index does."""

    retrieve_values = DatabaseBinding.retrieve_values


def build_bridge(distinct: int, brute: bool = False) -> BridgeScope:
    """A BridgeScope over a ``products`` table with ``distinct`` names."""
    db = Database(owner="bench")
    session = db.connect("bench")
    session.execute("CREATE TABLE products (id INT PRIMARY KEY, name TEXT)")
    heap = db.heap("products")
    for i in range(distinct):
        heap.insert({"id": i, "name": product_name(i)})
    binding = (BruteForceBinding if brute else MinidbBinding).for_user(db, "bench")
    return BridgeScope(binding, BridgeScopeConfig(exemplar_scan_limit=distinct))


def get_value(bridge: BridgeScope, key: str) -> str:
    result = bridge.invoke("get_value", col="products.name", key=key, k=5)
    assert not result.is_error, result.content
    return result.content


def _time_calls(bridge: BridgeScope, rounds: int) -> float:
    """Average seconds per get_value call over ``rounds`` passes of the keys."""
    start = time.perf_counter()
    for _ in range(rounds):
        for key in QUERY_KEYS:
            get_value(bridge, key)
    return (time.perf_counter() - start) / (rounds * len(QUERY_KEYS))


def _after_write_ms(bridge: BridgeScope, first_id: int) -> float:
    """Median ms of ``get_value`` following each of ``WRITES`` one-row
    INSERTs of an already-present name."""
    session = bridge.binding.session
    samples = []
    for row_id in range(first_id, first_id + WRITES):
        session.execute(
            f"INSERT INTO products VALUES ({row_id}, '{product_name(0)}')"
        )
        start = time.perf_counter()
        get_value(bridge, QUERY_KEYS[0])
        samples.append((time.perf_counter() - start) * 1000)
    return statistics.median(samples)


def check_equivalence(distinct: int = 2_000) -> list[str]:
    """Keys whose indexed and brute-force tool outputs differ (want: none)."""
    indexed = build_bridge(distinct)
    brute = build_bridge(distinct, brute=True)
    return [
        key for key in QUERY_KEYS if get_value(indexed, key) != get_value(brute, key)
    ]


def experiment_retrieval_scale(
    distinct: int = 100_000,
    brute_distinct: int = 5_000,
    rounds: int = 3,
) -> dict[str, Any]:
    """Measure both paths; brute force extrapolated from ``brute_distinct``."""
    brute_distinct = min(brute_distinct, distinct)
    mismatches = check_equivalence(min(distinct, 2_000))

    indexed = build_bridge(distinct)
    start = time.perf_counter()
    get_value(indexed, QUERY_KEYS[0])  # cold: pays the catalog build
    cold_seconds = time.perf_counter() - start
    indexed_seconds = _time_calls(indexed, rounds)
    cache = indexed.binding.session.db.retrieval_cache
    catalog = cache.cached_catalogs()[0]
    queries = max(catalog.stats["queries"], 1)
    averages = {
        "avg_candidates": catalog.stats["candidates"] / queries,
        "avg_bounded": catalog.stats["bounded"] / queries,
        "avg_scored": catalog.stats["scored"] / queries,
    }
    after_write_ms = _after_write_ms(indexed, distinct)

    brute = build_bridge(brute_distinct, brute=True)
    brute_measured = _time_calls(brute, rounds=1)
    scale = distinct / brute_distinct
    brute_seconds = brute_measured * scale

    return {
        "distinct": distinct,
        "brute_distinct": brute_distinct,
        "queries_per_round": len(QUERY_KEYS),
        "rounds": rounds,
        "cold_ms": cold_seconds * 1000,
        "indexed_call_ms": indexed_seconds * 1000,
        "after_write_ms": after_write_ms,
        "after_write_revised": cache.stats["revised"],
        "brute_call_ms": brute_seconds * 1000,
        "brute_extrapolated": scale != 1,
        "speedup": (
            brute_seconds / indexed_seconds
            if indexed_seconds > 0
            else float("inf")
        ),
        **averages,
        "equivalence_ok": not mismatches,
        "equivalence_mismatches": mismatches,
    }


def check_retrieval_scale(result: dict[str, Any], smoke: bool) -> list[str]:
    """The gate: identical rankings, the index pays off (50x / 5x), most
    candidates are dropped before they are bounded, and a write that
    leaves the list alone costs the next call a scan, not a catalog build
    (10x / 3x under the cold call, no catalog constructed)."""
    return failed(
        [
            (result["equivalence_ok"],
             "indexed and brute-force rankings differ: "
             f"{result['equivalence_mismatches']}"),
            expect("speedup", result["speedup"], ">=", SPEEDUP_FLOORS[smoke]),
            expect("candidates bounded per query", result["avg_bounded"], "<=",
                   result["avg_candidates"] * BOUNDED_SHARE),
            expect("catalogs kept after a write",
                   result["after_write_revised"], "==", WRITES),
            expect("after-write get_value ms", result["after_write_ms"], "<=",
                   result["cold_ms"] / AFTER_WRITE_FACTORS[smoke]),
        ]
    )
