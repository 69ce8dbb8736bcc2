"""Per-table statistics: what ``ANALYZE`` collects, what the cost model reads.

``ANALYZE [table]`` scans each table once and distills every column into a
:class:`ColumnStats` — row count, number of distinct values (NDV), NULL
fraction, and an equi-depth histogram — bundled per table into a
:class:`TableStatistics` stored on the catalog (``catalog.statistics``) and
persisted through snapshots and the WAL like any other DDL product.

The planner's cost model (``planner.choose_access_path``) turns these into
estimated row counts per candidate access path. Two properties matter:

* **Skew-awareness.** Equi-depth histogram boundaries repeat when one value
  fills whole buckets, so a value spanning ``k`` boundaries is estimated at
  ``(k - 1) / buckets`` of the non-NULL rows — heavy hitters are *seen*,
  not averaged away under a uniform-distribution assumption. Everything
  else falls back to ``1 / NDV``.
* **Total-order alignment.** Histogram positioning compares values by
  ``storage.ordering_key_element`` — the same NULLs-last, numbers-before-
  text order the indexes use — so range selectivity over a mixed-type
  column estimates the same candidate set the index slice will return.

Staleness: a :class:`TableStatistics` records the heap's ``(uid, version)``
at ANALYZE time. Statistics whose ``uid`` no longer matches the live heap
(the table was dropped and recreated) are ignored entirely; a differing
``version`` merely means estimates drift with un-analyzed churn, which is
the standard trade — re-run ``ANALYZE`` to refresh.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from .storage import ordering_key_element

if TYPE_CHECKING:  # pragma: no cover
    from .catalog import TableSchema
    from .storage import HeapTable

#: equi-depth histogram resolution (boundary count = buckets + 1)
HISTOGRAM_BUCKETS = 100


@dataclass
class ColumnStats:
    """Distribution summary of one column.

    ``boundaries`` are ``buckets + 1`` values cut from the sorted non-NULL
    column at equal-depth positions (first element = min, last = max);
    fewer when the column holds fewer distinct rows. ``ndv`` counts
    distinct non-NULL values; ``null_frac`` is the NULL fraction of the
    whole column.
    """

    ndv: int
    null_frac: float
    boundaries: list[Any] = field(default_factory=list)
    #: lazily computed ordering keys of ``boundaries`` (not persisted)
    _boundary_keys: list[tuple] | None = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def from_values(
        cls, values: list[Any], buckets: int = HISTOGRAM_BUCKETS
    ) -> "ColumnStats":
        total = len(values)
        non_null = [v for v in values if v is not None]
        null_frac = (total - len(non_null)) / total if total else 0.0
        if not non_null:
            return cls(ndv=0, null_frac=null_frac)
        keyed = sorted((ordering_key_element(v), v) for v in non_null)
        ndv = 1
        for (prev_key, _), (key, _) in zip(keyed, keyed[1:]):
            if key != prev_key:
                ndv += 1
        last = len(keyed) - 1
        cuts = min(buckets, last) or 1
        boundaries = [keyed[(i * last) // cuts][1] for i in range(cuts + 1)]
        return cls(ndv=ndv, null_frac=null_frac, boundaries=boundaries)

    def _keys(self) -> list[tuple]:
        if self._boundary_keys is None:
            self._boundary_keys = [
                ordering_key_element(b) for b in self.boundaries
            ]
        return self._boundary_keys

    def eq_fraction(self, value: Any) -> float:
        """Estimated fraction of *all* rows equal to ``value``.

        NULL matches nothing (probes never return NULL keys). A value
        repeated across histogram boundaries covers whole buckets — the
        skewed-heavy-hitter case; otherwise assume its equal run is one
        of ``ndv`` same-sized runs among the non-NULL rows.
        """
        if value is None or self.ndv == 0:
            return 0.0
        non_null = 1.0 - self.null_frac
        keys = self._keys()
        key = ordering_key_element(value)
        span = bisect_right(keys, key) - bisect_left(keys, key)
        buckets = max(1, len(keys) - 1)
        if span >= 2:
            return non_null * (span - 1) / buckets
        return non_null / self.ndv

    def range_fraction(
        self,
        low: Any = None,
        high: Any = None,
        incl_low: bool = True,
        incl_high: bool = True,
    ) -> float:
        """Estimated fraction of all rows inside the bound pair.

        Bucket-granular: a bound's position is its bisect rank among the
        boundaries over the bucket count. Matches the index contract —
        bounds compare by ordering key, NULLs (ordered last) never fall
        inside a bounded range.
        """
        if self.ndv == 0:
            return 0.0
        keys = self._keys()
        buckets = max(1, len(keys) - 1)

        def position(value: Any, inclusive_side_left: bool) -> float:
            key = ordering_key_element(value)
            if inclusive_side_left:
                return bisect_left(keys, key) / buckets
            return bisect_right(keys, key) / buckets

        lo_pos = 0.0 if low is None else position(low, incl_low)
        hi_pos = 1.0 if high is None else position(high, not incl_high)
        fraction = max(0.0, min(1.0, hi_pos) - max(0.0, lo_pos))
        return (1.0 - self.null_frac) * fraction

    def to_payload(self) -> dict[str, Any]:
        return {
            "ndv": self.ndv,
            "null_frac": self.null_frac,
            "boundaries": list(self.boundaries),
        }

    @classmethod
    def from_payload(cls, data: dict[str, Any]) -> "ColumnStats":
        return cls(
            ndv=data["ndv"],
            null_frac=data["null_frac"],
            boundaries=list(data["boundaries"]),
        )


@dataclass
class TableStatistics:
    """All column statistics of one table, stamped with heap identity."""

    table: str
    row_count: int
    uid: int
    version: int
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStats | None:
        return self.columns.get(name.lower())

    def to_payload(self) -> dict[str, Any]:
        return {
            "table": self.table,
            "row_count": self.row_count,
            "uid": self.uid,
            "version": self.version,
            "columns": {
                name: stats.to_payload()
                for name, stats in sorted(self.columns.items())
            },
        }

    @classmethod
    def from_payload(cls, data: dict[str, Any]) -> "TableStatistics":
        return cls(
            table=data["table"],
            row_count=data["row_count"],
            uid=data["uid"],
            version=data["version"],
            columns={
                name: ColumnStats.from_payload(entry)
                for name, entry in data["columns"].items()
            },
        )


def build_table_statistics(
    schema: "TableSchema",
    heap: "HeapTable",
    buckets: int = HISTOGRAM_BUCKETS,
) -> TableStatistics:
    """One read of each column of ``heap`` into a fresh
    :class:`TableStatistics`."""
    return TableStatistics(
        table=schema.name,
        row_count=len(heap),
        uid=heap.uid,
        version=heap.version,
        columns={
            c.name.lower(): ColumnStats.from_values(
                heap.column_values(c.name), buckets
            )
            for c in schema.columns
        },
    )
