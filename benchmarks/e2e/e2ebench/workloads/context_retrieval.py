"""``context_retrieval``: a read-only agent finding its way around a schema.

Episode: ``get_schema`` -> ``get_object`` -> ``get_value(col, noisy key)`` ->
``select`` using the retrieved literal. Retrieval dominates; WAL and locks
are absent (in-memory engine, no service layer). The mix covers the three
regimes of the catalog cache: four hot columns that fit (two of them in
``personas``, with more distinct values than ``exemplar_scan_limit``
admits), a cyclic sweep over more small columns than
``CatalogCache.max_entries`` holds (the LRU thrashes), and owner writes
into ``personas`` beside the reads, which change its fingerprint and force
its two catalogs to rebuild — so a retrieval gain that makes misses or
rebuilds dearer shows.

Schema after SNIPPETS.md snippet 2 (persona archetypes and behavioural
signals whose rows carry a ``synthetic`` flag).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable

from repro.core import BridgeScope, BridgeScopeConfig
from repro.mcp import ToolResult
from repro.minidb import Database

from ..datagen import blocks, distinct_phrases, rng_for, typo
from ..harness import Episode, Step, Workload, rows_are

OWNER = "admin"
READER = "reader"
#: the toolkit's defaults; the script is written before a toolkit exists
CONFIG = BridgeScopeConfig()
#: the hot columns. Only the first two live in the table the owner writes
#: to: a block then has two or three slow calls in 80 (the two rebuilds and
#: the first scan after the write) and ``tool_call_p95_ms`` falls among the
#: warm ``top_k`` calls on the big columns, not on the edge between them and
#: the rebuilds.
_HOT = ("personas.display_name", "personas.handle", "cities.name", "archetypes.label")
#: episodes of each kind in a block of 20: 80% hot columns, 15% sweep over
#: the small columns, 5% hot right after an owner INSERT into ``personas``.
#: The write opens its block and every hot column follows it, so each block
#: rebuilds the two ``personas`` catalogs once: all blocks are the same work.
MIX = {"hot_after_write": 1, "sweep": 3, **{f"hot:{column}": 4 for column in _HOT}}


def top_value_is(planted: str) -> Callable[[ToolResult], bool]:
    """``get_value`` lists ranked values one per line under a header."""
    line = f"  {planted!r}  ("

    def check(result: ToolResult) -> bool:
        lines = str(result.content).split("\n")
        return len(lines) > 1 and lines[1].startswith(line)

    return check


class ContextRetrieval(Workload):
    name = "context_retrieval"
    block = sum(MIX.values())

    def __init__(self, seed: int, sizes: dict[str, int], workdir: str):
        super().__init__(seed, sizes, workdir)
        rng = rng_for(self.name, seed, "data")
        count = sizes["personas"]
        self.cities = distinct_phrases(rng, sizes["cities"], (3, 2))
        self.archetypes = distinct_phrases(rng, sizes["archetypes"], (2, 2))
        names = distinct_phrases(rng, count, (4, 3))
        self.persona_rows = [
            {
                "persona_id": n,
                "display_name": names[n],
                "handle": names[n].lower().replace(" ", "_"),
                # every city and archetype occurs, so each can be planted
                "home_city": self.cities[n] if n < len(self.cities) else rng.choice(self.cities),
                "archetype": (
                    self.archetypes[n] if n < len(self.archetypes)
                    else rng.choice(self.archetypes)
                ),
                "age": rng.randrange(18, 80),
                "synthetic": 1,
            }
            for n in range(count)
        ]
        self.signal_rows = [
            {
                "signal_id": n,
                "persona_id": rng.randrange(count),
                "kind": rng.choice(("accept", "skip", "pivot", "linger")),
                "synthetic": 1,
            }
            for n in range(count // 10)
        ]
        columns = range(sizes["dim_columns"])
        self.dim_rows = []
        for _ in range(sizes["dim_tables"]):
            cells = [distinct_phrases(rng, sizes["dim_rows"], (2, 2)) for _ in columns]
            self.dim_rows.append([
                {"id": row, **{f"c{col}": cells[col][row] for col in columns}}
                for row in range(sizes["dim_rows"])
            ])
        self.model: dict[str, Any] = {}

    def build(self) -> None:
        self.db = db = Database(owner=OWNER)
        self.owner = owner = db.connect(OWNER)
        owner.execute(
            "CREATE TABLE personas (persona_id INT PRIMARY KEY, display_name TEXT "
            "NOT NULL, handle TEXT NOT NULL, home_city TEXT NOT NULL, archetype "
            "TEXT NOT NULL, age INT, synthetic INT NOT NULL)"
        )
        owner.execute(
            "CREATE TABLE behavioral_signals (signal_id INT PRIMARY KEY, persona_id "
            "INT NOT NULL REFERENCES personas(persona_id), kind TEXT NOT NULL, "
            "synthetic INT NOT NULL)"
        )
        owner.execute("CREATE TABLE cities (city_id INT PRIMARY KEY, name TEXT NOT NULL)")
        owner.execute(
            "CREATE TABLE archetypes (archetype_id INT PRIMARY KEY, label TEXT NOT NULL)"
        )
        tables = [
            ("personas", self.persona_rows),
            ("behavioral_signals", self.signal_rows),
            ("cities", [{"city_id": n, "name": name} for n, name in enumerate(self.cities)]),
            (
                "archetypes",
                [{"archetype_id": n, "label": label} for n, label in enumerate(self.archetypes)],
            ),
        ]
        columns = ", ".join(f"c{col} TEXT NOT NULL" for col in range(self.sizes["dim_columns"]))
        for number, rows in enumerate(self.dim_rows):
            owner.execute(f"CREATE TABLE dim_{number:02d} (id INT PRIMARY KEY, {columns})")
            tables.append((f"dim_{number:02d}", rows))
        for table, rows in tables:
            heap = db.heap(table)
            for row in rows:
                heap.insert(row)
        owner.execute("CREATE INDEX ix_personas_name ON personas USING HASH (display_name)")
        owner.execute("CREATE INDEX ix_personas_handle ON personas USING HASH (handle)")
        db.create_user(READER)
        for table, _ in tables:
            owner.execute(f"ANALYZE {table}")
            owner.execute(f"GRANT SELECT ON {table} TO {READER}")
        self.bridges = [BridgeScope.for_minidb_user(db, READER, CONFIG)]
        self.model = {
            "personas": len(self.persona_rows),
            "cities": Counter(row["home_city"] for row in self.persona_rows),
        }

    def close(self) -> None:
        self.db = None
        self.bridges = []

    def run_prelude(self, sql: str) -> None:
        self.owner.execute(sql)

    def apply(self, effect: Any) -> None:
        if effect is not None:
            self.model["personas"] += 1
            self.model["cities"][effect] += 1

    def script(self, client: int) -> list[Episode]:
        """Blocks of ``MIX``."""
        rng = rng_for(self.name, self.seed, "script")
        sizes = self.sizes
        personas = self.persona_rows
        # get_value only ever sees the first exemplar_scan_limit distinct
        # values of a column, so keys are planted among those
        reachable = min(len(personas), CONFIG.exemplar_scan_limit)
        small = sizes["dim_tables"] * sizes["dim_columns"]
        cities = Counter(row["home_city"] for row in personas)
        archetypes = Counter(row["archetype"] for row in personas)
        added = swept = 0
        episodes = []
        for kind in blocks(rng, MIX, sizes["cap"], lead="hot_after_write"):
            prelude, effect = "", None
            if kind == "hot_after_write":
                added += 1
                city = rng.choice(self.cities)
                archetype = rng.choice(self.archetypes)
                cities[city] += 1
                archetypes[archetype] += 1
                prelude = (
                    "INSERT INTO personas VALUES "
                    f"({len(personas) + added}, 'Late Arrival {added}', "
                    f"'late_arrival_{added}', '{city}', '{archetype}', 30, 1)"
                )
                effect = city
            if kind == "sweep":
                number, col = divmod(swept % small, sizes["dim_columns"])
                swept += 1
                table, column = f"dim_{number:02d}", f"c{col}"
                row = rng.randrange(sizes["dim_rows"])
                planted = self.dim_rows[number][row][column]
                expected = [(row,)]
                sql = f"SELECT id FROM {table} WHERE {column} = '{planted}'"
            else:
                kind, _, column = kind.partition(":")
                table, column = (column or rng.choice(_HOT)).split(".")
                if table == "personas":
                    row = rng.randrange(reachable)
                    planted = personas[row][column]
                    expected = [(row, personas[row]["home_city"])]
                    sql = (
                        "SELECT persona_id, home_city FROM personas "
                        f"WHERE {column} = '{planted}'"
                    )
                else:
                    # the literal is looked up in the dimension table and
                    # used to filter the fact table
                    if table == "cities":
                        counts, planted, filtered = cities, rng.choice(self.cities), "home_city"
                    else:
                        counts, planted = archetypes, rng.choice(self.archetypes)
                        filtered = "archetype"
                    expected = [(counts[planted],)]
                    sql = f"SELECT COUNT(*) FROM personas WHERE {filtered} = '{planted}'"
            episodes.append(Episode(kind, [
                Step("get_schema"),
                Step("get_object", {"name": table}),
                Step("get_value", {"col": f"{table}.{column}", "key": typo(rng, planted)},
                     check=top_value_is(planted)),
                Step("select", {"sql": sql}, check=rows_are(expected)),
            ], effect, prelude))
        return episodes

    def verify(self) -> tuple[int, list[str]]:
        owner = self.owner
        found_cities = dict(owner.execute(
            "SELECT home_city, COUNT(*) FROM personas GROUP BY home_city"
        ).rows)
        facts = [
            ("personas rows", owner.scalar("SELECT COUNT(*) FROM personas"),
             self.model["personas"]),
            ("synthetic rows", owner.scalar("SELECT COUNT(*) FROM personas WHERE synthetic = 1"),
             self.model["personas"]),
            ("rows per city", found_cities, dict(self.model["cities"])),
        ]
        return len(facts), [
            f"{label}: found {found!r:.80}, expected {expected!r:.80}"
            for label, found, expected in facts
            if found != expected
        ]
