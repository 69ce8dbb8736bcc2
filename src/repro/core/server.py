"""BridgeScope server assembly: the complete toolkit for one user.

:class:`BridgeScope` wires together the four functionality groups —
context retrieval, SQL execution, transaction management, and the proxy —
into a single :class:`~repro.mcp.ToolRegistry`, applying the user's
database privileges and security policy to decide what is exposed.

Extra domain tool servers (e.g. ML tools) can be attached; the proxy can
route data to them transparently (MCP-ecosystem integration, Section 2.5).
"""

from __future__ import annotations

from typing import Any

from ..mcp import ToolCall, ToolRegistry, ToolResult, ToolServer
from .config import BridgeScopeConfig
from .context import ContextTools
from .execution import ExecutionTools
from .interfaces import DatabaseBinding
from .prompt import build_prompt
from .proxy import ProxyTool
from .transaction import TransactionTools
from .verification import SqlVerifier


class BridgeScope:
    """Facade over the full BridgeScope toolkit for one database user."""

    def __init__(
        self,
        binding: DatabaseBinding,
        config: BridgeScopeConfig | None = None,
        extra_servers: list[ToolServer] | None = None,
        namespace: str | None = None,
    ):
        """Assemble the toolkit.

        ``namespace`` prefixes every tool name with ``<namespace>__`` so
        multiple BridgeScope instances (one per data source, Section 2.6)
        can coexist in a single agent's registry without collisions.
        """
        self.binding = binding
        self.namespace = namespace
        self.config = config or BridgeScopeConfig()
        self.verifier = SqlVerifier(binding, self.config.policy)
        self.registry = ToolRegistry()

        self.context = ContextTools(binding, self.config)
        self.registry.add_server(self.context)

        self.execution = ExecutionTools(binding, self.config, self.verifier)
        self.registry.add_server(self.execution)

        self.transactions: TransactionTools | None = None
        if TransactionTools.should_expose(binding, self.config):
            self.transactions = TransactionTools(binding, self.config)
            self.registry.add_server(self.transactions)

        for server in extra_servers or []:
            self.registry.add_server(server)

        self.proxy = ProxyTool(self.registry)
        self.registry.add_server(self.proxy)

        if namespace:
            for server in self.registry.servers:
                if server in (extra_servers or []):
                    continue  # domain servers keep their own names
                _apply_namespace(server, namespace)

    @classmethod
    def for_minidb_user(
        cls,
        db: "Any",
        user: str,
        config: BridgeScopeConfig | None = None,
        **kwargs,
    ) -> "BridgeScope":
        """Assemble a toolkit for one user over an already-open database.

        This is the session-scoped constructor the multi-session service
        layer uses: every agent session gets its *own* BridgeScope (its
        own minidb session, transaction state, and privilege-filtered
        tool surface) while all of them share the one ``db`` — catalog,
        heaps, retrieval cache, and lock manager included.
        """
        from .minidb_binding import MinidbBinding

        return cls(MinidbBinding.for_user(db, user), config, **kwargs)

    # ------------------------------------------------------------- calling

    def call(self, call: ToolCall) -> ToolResult:
        return self.registry.call(call)

    def invoke(self, tool_name: str, **args) -> ToolResult:
        return self.registry.invoke(tool_name, **args)

    # ----------------------------------------------------------- discovery

    def tool_names(self) -> list[str]:
        return self.registry.tool_names()

    def render_tool_list(self) -> str:
        return self.registry.render_tool_list()

    def system_prompt(self) -> str:
        return build_prompt(self.tool_names())

    def exposed_sql_actions(self) -> list[str]:
        return self.execution.exposed_action_names()


def combine_bridges(
    bridges: list[BridgeScope],
    extra_servers: list[ToolServer] | None = None,
) -> ToolRegistry:
    """Merge several (namespaced) BridgeScope instances into one registry.

    Every bridge's proxy is re-pointed at the combined registry so proxy
    units can route data *across* data sources (Section 2.6's
    multi-datasource scenario).
    """
    registry = ToolRegistry()
    for bridge in bridges:
        for server in bridge.registry.servers:
            registry.add_server(server)
    for server in extra_servers or []:
        registry.add_server(server)
    for bridge in bridges:
        bridge.proxy.registry = registry
    return registry


def _apply_namespace(server: ToolServer, namespace: str) -> None:
    """Rename every tool of ``server`` to ``<namespace>__<name>``."""
    server.rename_tools(lambda name: f"{namespace}__{name}")
