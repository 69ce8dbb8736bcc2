"""F2 — Action-level modularized SQL execution tools (paper Section 2.3).

For each database action *a* (SELECT, INSERT, UPDATE, DELETE, CREATE, DROP,
ALTER) BridgeScope instantiates a dedicated tool ``T_a`` that exclusively
executes statements performing *a*. A tool is exposed to the agent only if

* the user holds the *a* privilege on at least one object (database-side), and
* *a* passes the user's security policy (user-side white/black-lists).

Every call is verified first by the :class:`~repro.core.verification.SqlVerifier`
(tool rules, then the database's own privilege verdict); the engine authorizes
again when it runs the statement: two calls, one privilege rule.
"""

from __future__ import annotations

from ..mcp import Columns, ParamSpec, ToolResult, ToolServer, ToolSpec
from .config import BridgeScopeConfig
from .interfaces import DatabaseBinding
from .verification import SqlVerifier

_TOOL_DESCRIPTIONS = {
    "SELECT": "Execute a single SELECT statement and return the result rows.",
    "INSERT": "Execute a single INSERT statement. Returns the inserted row count.",
    "UPDATE": "Execute a single UPDATE statement. Returns the updated row count.",
    "DELETE": "Execute a single DELETE statement. Returns the deleted row count.",
    "CREATE": "Execute a single CREATE TABLE/INDEX/VIEW statement.",
    "DROP": "Execute a single DROP TABLE/INDEX/VIEW statement.",
    "ALTER": "Execute a single ALTER TABLE statement.",
}


class ExecutionTools(ToolServer):
    """Tool server holding one tool per permitted SQL action."""

    name = "bridgescope.execution"

    def __init__(
        self,
        binding: DatabaseBinding,
        config: BridgeScopeConfig,
        verifier: SqlVerifier | None = None,
    ):
        super().__init__()
        self.binding = binding
        self.config = config
        self.verifier = verifier or SqlVerifier(binding, config.policy)
        for action in self._exposed_actions():
            self._register_action_tool(action)

    # ------------------------------------------------------------ exposure

    def _exposed_actions(self) -> list[str]:
        """Actions for which a tool is exposed (privileges ∩ policy)."""
        held: set[str] = set()
        objects = self.binding.list_objects()
        for obj in objects:
            if not self.config.policy.permits_object(obj):
                continue
            held |= self.binding.user_actions_on(obj)
        # CREATE may be held database-wide without any object grant
        held |= self.binding.user_actions_on("*") & {"CREATE"}
        return [
            action
            for action in self.binding.all_actions()
            if action in held and self.config.policy.permits_action(action)
        ]

    def exposed_action_names(self) -> list[str]:
        return [spec.annotations["action"] for spec in self.visible_tools()]

    def _register_action_tool(self, action: str) -> None:
        tool_name = action.lower()
        spec = ToolSpec(
            name=tool_name,
            description=_TOOL_DESCRIPTIONS.get(
                action, f"Execute a single {action} statement."
            ),
            params=[ParamSpec("sql", "string", f"the {action} SQL statement")],
            annotations={"action": action},
        )
        self.register(spec, self._make_runner(action))

    def _make_runner(self, action: str):
        def run(sql: str) -> ToolResult:
            self.verifier.verify(sql, expected_action=action)
            outcome = self.binding.run_sql(sql)
            if outcome.columns:
                text = _render_rows(
                    outcome.columns, outcome.rows, self.config.max_result_rows
                )
                return ToolResult.ok(
                    text,
                    rowcount=len(outcome.rows),
                    rows=outcome.rows,
                    columns=outcome.columns,
                )
            return ToolResult.ok(outcome.status, rowcount=outcome.rowcount)

        run.__name__ = action.lower()
        return run


def head(rows: list[tuple] | Columns, count: int) -> list[tuple]:
    """The first ``count`` rows: a column-backed result builds only those."""
    return rows.head(count) if isinstance(rows, Columns) else rows[:count]


def _render_rows(columns: list[str], rows: list[tuple] | Columns, max_rows: int) -> str:
    total = len(rows)
    lines = [" | ".join(columns)]
    for row in head(rows, max_rows):
        lines.append(" | ".join("NULL" if v is None else str(v) for v in row))
    if total > max_rows:
        lines.append(f"... ({total - max_rows} more rows truncated)")
    lines.append(f"({total} rows)")
    return "\n".join(lines)
