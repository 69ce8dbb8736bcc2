"""F1 — Context retrieval tools: get_schema / get_object / get_value.

Implements the paper's Section 2.2:

* adaptive schema retrieval — full standardized rendering when the database
  has at most ``schema_detail_threshold`` named objects, hierarchical
  (names only + get_object on demand) otherwise;
* privilege annotations — every rendered object carries an ``-- Access``
  header listing the user's database-side privileges on it (plus column
  restrictions when the grant is partial);
* user-side object white/black-lists — filtered objects are simply not
  exposed;
* column-exemplar retrieval — ``get_value(col, key, k)`` returns the top-k
  values of a column most semantically relevant to a task key. Behind the
  binding, catalogs are cached in memory per column and kept fresh by the
  heap's change counter; a database reopened from a durable directory
  (``MinidbBinding.open(path, user)``) builds each on its first call.
"""

from __future__ import annotations

from typing import Any

from ..mcp import ParamSpec, ToolServer, tool
from .config import BridgeScopeConfig
from .interfaces import DatabaseBinding, ObjectInfo


class ContextTools(ToolServer):
    """Tool server exposing the three context-retrieval tools."""

    name = "bridgescope.context"

    def __init__(self, binding: DatabaseBinding, config: BridgeScopeConfig):
        self.binding = binding
        self.config = config
        super().__init__()

    # ------------------------------------------------------------ policy

    def permitted_objects(self) -> list[str]:
        """Objects visible to the LLM: policy-permitted only.

        Objects the user has *no* database privilege on are still listed
        (with ``Access: False``) so the LLM learns its boundaries, exactly
        as in the paper's Figure 3 schema fragment.
        """
        return [
            name
            for name in self.binding.list_objects()
            if self.config.policy.permits_object(name)
        ]

    def _privilege_annotation(self, name: str, every: frozenset[str]) -> str:
        held = self.binding.user_actions_on(name)
        if not held:
            return "-- Access: False"
        actions = sorted(held)
        if held >= every:
            header = "-- Access: True, Privileges: ALL"
        else:
            header = f"-- Access: True, Privileges: {', '.join(actions)}"
        restrictions = []
        for action in actions:
            cols = self.binding.user_column_restrictions(action, name)
            if cols is not None and cols:
                restrictions.append(f"{action} limited to columns ({', '.join(sorted(cols))})")
        if restrictions:
            header += "\n-- " + "; ".join(restrictions)
        return header

    def _render_object(self, info: ObjectInfo, every: frozenset[str]) -> str:
        """``info`` under its privilege annotation; ``every`` is the
        binding's whole action vocabulary (held entire, it reads ALL)."""
        annotation = self._privilege_annotation(info.name, every)
        body = info.ddl if info.ddl else f"{info.kind.upper()} {info.name}"
        extras = []
        if info.indexes:
            extras.append("-- " + "; ".join(info.indexes))
        return "\n".join([annotation, body] + extras)

    # -------------------------------------------------------------- tools

    @tool(
        description=(
            "Retrieve the database schema. Returns complete object "
            "definitions with privilege annotations when the database is "
            "small; otherwise returns only top-level object names (use "
            "get_object for details)."
        ),
        params=[],
    )
    def get_schema(self) -> str:
        names = self.permitted_objects()
        every = frozenset(self.binding.all_actions())
        if len(names) <= self.config.schema_detail_threshold:
            blocks = [
                self._render_object(self.binding.object_info(name), every)
                for name in names
            ]
            if not blocks:
                return "-- database is empty (no accessible objects)"
            return "\n\n".join(blocks)
        lines = [
            f"-- {len(names)} objects; listing names only "
            "(call get_object(name) for details)"
        ]
        for name in names:
            held = self.binding.user_actions_on(name)
            if not held:
                access = "NONE"
            elif held >= every:
                access = "ALL"
            else:
                access = ", ".join(sorted(held))
            lines.append(f"{name}  [privileges: {access}]")
        return "\n".join(lines)

    @tool(
        description=(
            "Retrieve the full definition (columns, constraints, indexes, "
            "privileges) of one database object."
        ),
        params=[
            ParamSpec("name", "string", "object (table or view) name"),
        ],
    )
    def get_object(self, name: str) -> str:
        if not self.config.policy.permits_object(name):
            # deliberately indistinguishable from absence: policy-hidden
            # objects must not leak their existence
            return f"ERROR: object {name!r} does not exist"
        known = {n.lower() for n in self.binding.list_objects()}
        if name.lower() not in known:
            return f"ERROR: object {name!r} does not exist"
        return self._render_object(
            self.binding.object_info(name), frozenset(self.binding.all_actions())
        )

    @tool(
        description=(
            "Retrieve the top-k values of a column most semantically "
            "relevant to a task-specific key. Use this before writing "
            "predicates over text columns so values match stored data."
        ),
        params=[
            ParamSpec("col", "string", "column as 'table.column'"),
            ParamSpec("key", "string", "task-specific key to match against"),
            ParamSpec("k", "integer", "number of values", required=False, default=None),
        ],
    )
    def get_value(self, col: str, key: str, k: int | None = None) -> str:
        if k is None:
            k = self.config.exemplar_top_k
        elif k < 1:
            # an empty ranking would read as "the column holds no values"
            return "ERROR: k must be a positive integer"
        if "." not in col:
            return "ERROR: col must be qualified as 'table.column'"
        table, column = col.split(".", 1)
        if not self.config.policy.permits_object(table):
            return f"ERROR: object {table!r} does not exist"
        if "SELECT" not in self.binding.user_actions_on(table):
            return f"ERROR: permission denied: SELECT on {table}"
        restrictions = self.binding.user_column_restrictions("SELECT", table)
        if restrictions is not None and column.lower() not in restrictions:
            return f"ERROR: permission denied: SELECT on {table}.{column}"
        try:
            ranked = self.binding.retrieve_values(
                table, column, key, k, self.config.exemplar_scan_limit
            )
        except Exception as exc:  # staticcheck: ignore[broad-except] — binding-agnostic tool surface: whatever backend failure occurs must come back as the ERROR string the agent reads and reacts to
            return f"ERROR: {exc}"
        if not ranked:
            return f"(no values in {col})"
        lines = [f"top-{len(ranked)} values of {col} relevant to {key!r}:"]
        for value, score in ranked:
            lines.append(f"  {value!r}  (relevance {score:.2f})")
        return "\n".join(lines)

    # ---------------------------------------------------------- inspection

    def schema_mode(self) -> str:
        """'full' or 'hierarchical' — which strategy get_schema() uses now."""
        count = len(self.permitted_objects())
        if count <= self.config.schema_detail_threshold:
            return "full"
        return "hierarchical"
