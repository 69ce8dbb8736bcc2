"""PG-MCP baseline family (paper Section 3.1).

* :class:`PGMCP` — the representative database MCP server: a ``get_schema``
  tool returning the full schema (no privilege annotations) and a generic
  ``execute_sql`` tool that runs any statement. Privileges are enforced only
  by the database engine at execution time, and no user-side policy exists.
* :class:`PGMCPMinus` (PG-MCP−) — the Section 3.2 ablation offering *only*
  ``execute_sql``; schema must be discovered by trial and error.
* PG-MCP-S — PG-MCP over a reduced database (20 sampled rows per table);
  constructed with :func:`make_sampled_binding`.
"""

from __future__ import annotations

from ..core.execution import head
from ..core.interfaces import DatabaseBinding
from ..core.minidb_binding import MinidbBinding
from ..mcp import ParamSpec, ToolResult, ToolServer, tool
from ..minidb import Database


class PGMCP(ToolServer):
    """The official-style PostgreSQL MCP server baseline."""

    name = "pg-mcp"

    #: rows rendered per result; generous because the whole point of the
    #: baseline is that bulk data flows through the LLM context
    max_result_rows = 100_000

    def __init__(self, binding: DatabaseBinding):
        self.binding = binding
        super().__init__()

    def render_tool_list(self) -> str:
        """MCP servers ship tools as JSON schemas on the wire; rendering
        them verbatim (rather than the compact text BridgeScope uses)
        reflects what actually enters the LLM context with this baseline."""
        import json

        return "\n".join(
            json.dumps(spec.to_json_schema(), indent=1)
            for spec in self.visible_tools()
        )

    @tool(description="Return the full database schema.", params=[])
    def get_schema(self) -> str:
        blocks = []
        for name in self.binding.list_objects():
            info = self.binding.object_info(name)
            blocks.append(info.ddl or f"{info.kind.upper()} {info.name}")
        return "\n\n".join(blocks) if blocks else "-- empty database"

    @tool(
        description="Execute any SQL statement and return its result.",
        params=[ParamSpec("sql", "string", "the SQL statement to execute")],
    )
    def execute_sql(self, sql: str) -> ToolResult:
        outcome = self.binding.run_sql(sql)
        if outcome.columns:
            lines = [" | ".join(outcome.columns)]
            rows = head(outcome.rows, self.max_result_rows)
            for row in rows:
                lines.append(
                    " | ".join("NULL" if v is None else str(v) for v in row)
                )
            lines.append(f"({len(outcome.rows)} rows)")
            return ToolResult.ok(
                "\n".join(lines),
                rowcount=len(outcome.rows),
                rows=outcome.rows,
                columns=outcome.columns,
            )
        return ToolResult.ok(outcome.status, rowcount=outcome.rowcount)


class PGMCPMinus(PGMCP):
    """PG-MCP without the schema tool (execution-only variant)."""

    name = "pg-mcp-minus"

    def __init__(self, binding: DatabaseBinding):
        super().__init__(binding)
        self.unregister("get_schema")


def make_sampled_binding(
    db: Database,
    user: str,
    sample_rows: int = 20,
    owner: str = "admin",
) -> MinidbBinding:
    """Build the PG-MCP-S substrate: a copy of ``db`` with each table reduced
    to its first ``sample_rows`` rows (paper Section 3.4, trivial variant).
    """
    sampled = Database(owner=owner, name=f"{db.name}-sampled")
    admin = sampled.connect(owner)
    source_admin = db.connect(owner)
    inserted_keys: dict[str, set] = {}
    for name in _fk_topological_order(db):
        schema = db.catalog.table(name)
        admin.execute(schema.render_create().rstrip(";") + ";")
        all_rows = source_admin.execute(f"SELECT * FROM {name}").rows
        columns = schema.column_names()
        column_index = {c.lower(): i for i, c in enumerate(columns)}
        kept = 0
        keys: set = set()
        for row in all_rows:
            if kept >= sample_rows:
                break
            # keep FK closure: skip rows referencing unsampled parents
            satisfied = True
            for fk in schema.foreign_keys:
                if fk.ref_table.lower() == name.lower():
                    continue
                value = tuple(row[column_index[c.lower()]] for c in fk.columns)
                if any(v is None for v in value):
                    continue
                if value not in inserted_keys.get(fk.ref_table.lower(), set()):
                    satisfied = False
                    break
            if not satisfied:
                continue
            placeholders = ", ".join(_sql_literal(v) for v in row)
            admin.execute(
                f"INSERT INTO {name} ({', '.join(columns)}) VALUES ({placeholders})"
            )
            kept += 1
            if schema.primary_key:
                keys.add(
                    tuple(row[column_index[c.lower()]] for c in schema.primary_key)
                )
        inserted_keys[name.lower()] = keys
    # replicate users and grants wholesale (owner-level copy)
    for target in db.privileges.users():
        sampled.privileges.set_grants(target, db.privileges.grants_of(target))
    return MinidbBinding.for_user(sampled, user)


def _fk_topological_order(db: Database) -> list[str]:
    """Table names ordered so FK targets are created before referrers."""
    tables = [n for n in db.catalog.object_names() if db.catalog.has_table(n)]
    placed: list[str] = []
    placed_set: set[str] = set()
    remaining = list(tables)
    while remaining:
        progressed = False
        for name in list(remaining):
            schema = db.catalog.table(name)
            deps = {
                fk.ref_table.lower()
                for fk in schema.foreign_keys
                if fk.ref_table.lower() != name.lower()
            }
            if deps <= placed_set:
                placed.append(name)
                placed_set.add(name.lower())
                remaining.remove(name)
                progressed = True
        if not progressed:  # FK cycle: append the rest as-is
            placed.extend(remaining)
            break
    return placed


def _sql_literal(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        return repr(value)
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"
