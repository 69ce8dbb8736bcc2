"""``analytic_proxy``: exploratory selects and data-moving calls, in memory.

Episode = one exploratory ``select`` plus one data-moving call. Executor
scans, result materialisation/rendering and proxy transfer dominate; the
parse share is negligible, so a statement-cache change predicts *no change*
here. The selects cover the column-batch pipeline (wide filter, four
aggregates under GROUP BY), the row pipeline (join + GROUP BY) and
``ORDER BY ... LIMIT`` with and without a matching btree; the data-moving
calls are the paper's NL2ML shapes — ``proxy(select -> train_linear)`` and
``proxy(select -> zscore_normalize -> train_linear)`` — plus a full-table
``select`` whose result is rendered down to ``max_result_rows`` lines.

Every expected result is recomputed in plain Python from the generator's
own rows before timing starts; floats are compared with a relative
tolerance of 1e-9 (sums run in the same row order on both sides).
"""

from __future__ import annotations

import math
from typing import Any, Callable

from repro.core import BridgeScope, BridgeScopeConfig
from repro.mcp import ToolResult
from repro.minidb import Database
from repro.mltools import MLToolServer

from ..datagen import blocks, rng_for
from ..harness import Episode, Step, Workload, rows_are

OWNER = "admin"
#: the toolkit's defaults; the script is written before a toolkit exists
CONFIG = BridgeScopeConfig()
_ARCHETYPES = ("budget", "family", "foodie", "hiker", "luxury", "museum", "nightlife", "slow")
_REGIONS = ("central", "east", "north", "south", "west")
_KINDS = ("accept", "linger", "pivot", "skip")
_CHANNELS = ("app", "push", "web")
_FEATURES = "dwell_s, price, rating, score"
_TOLERANCE = 1e-9


def _close(found: Any, expected: Any) -> bool:
    if isinstance(expected, float):
        return isinstance(found, (int, float)) and math.isclose(
            found, expected, rel_tol=_TOLERANCE, abs_tol=_TOLERANCE
        )
    if isinstance(expected, dict):
        return (
            isinstance(found, dict)
            and found.keys() == expected.keys()
            and all(_close(found[key], expected[key]) for key in expected)
        )
    if isinstance(expected, (list, tuple)):
        return (
            isinstance(found, (list, tuple))
            and len(found) == len(expected)
            and all(_close(f, e) for f, e in zip(found, expected))
        )
    return found == expected


def rows_close(expected: list[tuple]) -> Callable[[ToolResult], bool]:
    return lambda result: _close(result.metadata.get("rows"), expected)


def ids_are(count: int, id_sum: int, lines: int | None = None) -> Callable[[ToolResult], bool]:
    """A large result: right row count, right ids (first column), and —
    when given — rendered down to ``lines`` lines of text."""

    def check(result: ToolResult) -> bool:
        rows = result.metadata.get("rows")
        return (
            rows is not None
            and len(rows) == count
            and sum(row[0] for row in rows) == id_sum
            and (lines is None or result.content.count("\n") + 1 == lines)
        )

    return check


def model_is(expected: dict[str, Any]) -> Callable[[ToolResult], bool]:
    def check(result: ToolResult) -> bool:
        payload = result.metadata.get("payload", {})
        return all(
            _close(payload.get(key), expected[key])
            for key in ("coefficients", "intercept", "metrics")
        )

    return check


class AnalyticProxy(Workload):
    name = "analytic_proxy"
    block = 15  # five select shapes x three data-moving shapes, each pair once

    def __init__(self, seed: int, sizes: dict[str, int], workdir: str):
        super().__init__(seed, sizes, workdir)
        rng = rng_for(self.name, seed, "data")
        self.persona_rows = [
            {
                "persona_id": n,
                "archetype": _ARCHETYPES[n % len(_ARCHETYPES)],
                "region": rng.choice(_REGIONS),
                "age": rng.randrange(18, 80),
                "synthetic": 1,
            }
            for n in range(sizes["personas"])
        ]
        self.signal_rows = []
        for n in range(sizes["signals"]):
            dwell = round(rng.uniform(1, 600), 3)
            price = round(rng.uniform(0, 200), 2)
            rating = round(rng.uniform(1, 5), 2)
            self.signal_rows.append({
                "signal_id": n,
                "persona_id": rng.randrange(sizes["personas"]),
                "kind": rng.choice(_KINDS),
                "channel": rng.choice(_CHANNELS),
                "dwell_s": dwell,
                "price": price,
                "rating": rating,
                "score": round(0.01 * dwell - 0.02 * price + 1.5 * rating + rng.gauss(0, 0.5), 4),
                "day": rng.randrange(365),
                "synthetic": 1,
            })

    def build(self) -> None:
        self.db = db = Database(owner=OWNER)
        self.owner = owner = db.connect(OWNER)
        owner.execute(
            "CREATE TABLE personas (persona_id INT PRIMARY KEY, archetype TEXT NOT "
            "NULL, region TEXT NOT NULL, age INT NOT NULL, synthetic INT NOT NULL)"
        )
        owner.execute(
            "CREATE TABLE signals (signal_id INT PRIMARY KEY, persona_id INT NOT NULL "
            "REFERENCES personas(persona_id), kind TEXT NOT NULL, channel TEXT NOT "
            "NULL, dwell_s FLOAT NOT NULL, price FLOAT NOT NULL, rating FLOAT NOT "
            "NULL, score FLOAT NOT NULL, day INT NOT NULL, synthetic INT NOT NULL)"
        )
        for table, rows in (("personas", self.persona_rows), ("signals", self.signal_rows)):
            heap = db.heap(table)
            for row in rows:
                heap.insert(row)
        owner.execute("CREATE INDEX ix_signals_score ON signals USING BTREE (score)")
        for table in ("personas", "signals"):
            owner.execute(f"ANALYZE {table}")
        self.bridges = [
            BridgeScope.for_minidb_user(db, OWNER, CONFIG, extra_servers=[MLToolServer()])
        ]

    def close(self) -> None:
        self.db = None
        self.bridges = []

    # ------------------------------------------------- the scripted queries

    def _filter(self, day: int) -> Step:
        rows = [
            r for r in self.signal_rows
            if day <= r["day"] <= day + 60 and r["price"] < 150 and r["kind"] != "skip"
        ]
        return Step("select", {"sql": (
            "SELECT signal_id, dwell_s, price, rating FROM signals "
            f"WHERE day BETWEEN {day} AND {day + 60} AND price < 150 AND kind <> 'skip'"
        )}, check=ids_are(len(rows), sum(r["signal_id"] for r in rows)))

    def _aggregate(self, day: int) -> Step:
        groups: dict[str, list[dict]] = {}
        for r in self.signal_rows:
            if r["day"] >= day:
                groups.setdefault(r["kind"], []).append(r)
        expected = [
            (
                kind,
                len(rows),
                sum(r["dwell_s"] for r in rows) / len(rows),
                sum(r["price"] for r in rows),
                max(r["rating"] for r in rows),
            )
            for kind, rows in sorted(groups.items())
        ]
        return Step("select", {"sql": (
            "SELECT kind, COUNT(*), AVG(dwell_s), SUM(price), MAX(rating) "
            f"FROM signals WHERE day >= {day} GROUP BY kind ORDER BY kind"
        )}, check=rows_close(expected))

    def _join(self, day: int) -> Step:
        groups: dict[str, list[float]] = {}
        for r in self.signal_rows:
            if r["day"] < day:
                archetype = self.persona_rows[r["persona_id"]]["archetype"]
                groups.setdefault(archetype, []).append(r["score"])
        expected = [
            (archetype, len(scores), sum(scores) / len(scores))
            for archetype, scores in sorted(groups.items())
        ]
        return Step("select", {"sql": (
            "SELECT p.archetype, COUNT(*), AVG(s.score) FROM signals s "
            "JOIN personas p ON p.persona_id = s.persona_id "
            f"WHERE s.day < {day} GROUP BY p.archetype ORDER BY p.archetype"
        )}, check=rows_close(expected))

    def _top(self, column: str) -> Step:
        """``score`` has a btree the ORDER BY can walk; ``dwell_s`` has none.
        Ties make the ids ambiguous, so only the ordered values are compared."""
        best = sorted((r[column] for r in self.signal_rows), reverse=True)[:10]
        return Step("select", {"sql": (
            f"SELECT {column}, signal_id FROM signals ORDER BY {column} DESC LIMIT 10"
        )}, check=lambda result: [row[0] for row in result.metadata.get("rows", [])] == best)

    def _full(self) -> Step:
        rows = self.signal_rows
        shown = CONFIG.max_result_rows
        return Step("select", {"sql": "SELECT * FROM signals"}, check=ids_are(
            len(rows), sum(r["signal_id"] for r in rows),
            # header + shown rows + "... more rows truncated" + "(n rows)"
            lines=shown + 3 if len(rows) > shown else len(rows) + 2,
        ))

    def _train(self, day: int, normalise: bool) -> Step:
        """The proxied model must equal the same tools called directly on
        the rows Python filtered."""
        tools = MLToolServer()
        data = [
            (r["dwell_s"], r["price"], r["rating"], r["score"])
            for r in self.signal_rows if r["day"] >= day
        ]
        producer: dict[str, Any] = {
            "__tool__": "select",
            "__args__": {"sql": f"SELECT {_FEATURES} FROM signals WHERE day >= {day}"},
        }
        if normalise:
            data = tools.invoke("zscore_normalize", data=data).content
            producer = {"__tool__": "zscore_normalize", "__args__": {"data": producer}}
        else:
            producer["__transform__"] = "lambda x: x"  # the paper's Figure 3 form
        expected = tools.invoke("train_linear", data=data).metadata["payload"]
        return Step(
            "proxy",
            {"target_tool": "train_linear", "tool_args": {"data": producer}},
            check=model_is(expected),
        )

    def script(self, client: int) -> list[Episode]:
        """Blocks of 15: every pair of a select shape and a data-moving
        shape once; the day that parametrises a shape is drawn per episode."""
        rng = rng_for(self.name, self.seed, "script")
        days = range(0, 300, 30)
        first = {
            "filter": [self._filter(day) for day in days],
            "aggregate": [self._aggregate(day) for day in days],
            "join": [self._join(day + 60) for day in days],
            "top_btree": [self._top("score")],
            "top_sort": [self._top("dwell_s")],
        }
        second = {
            "train": [self._train(day, False) for day in days],
            "normalise_train": [self._train(day, True) for day in days],
            "full": [self._full()],
        }
        mix = {f"{select}+{move}": 1 for select in first for move in second}
        episodes = []
        for kind in blocks(rng, mix, self.sizes["cap"]):
            select, move = kind.split("+")
            episodes.append(Episode(kind, [rng.choice(first[select]), rng.choice(second[move])]))
        return episodes

    def verify(self) -> tuple[int, list[str]]:
        facts = [
            ("personas rows", self.owner.scalar("SELECT COUNT(*) FROM personas"),
             len(self.persona_rows)),
            ("signals rows", self.owner.scalar("SELECT COUNT(*) FROM signals WHERE synthetic = 1"),
             len(self.signal_rows)),
        ]
        return len(facts), [
            f"{label}: found {found}, expected {expected}"
            for label, found, expected in facts
            if found != expected
        ]
