"""Registry aggregating multiple tool servers behind one namespace.

The agent sees a flat tool list; the registry routes each call to the
server owning the tool. Name collisions are resolved in registration order
(first server wins), mirroring typical MCP client behavior.
"""

from __future__ import annotations

from typing import Any

from .errors import ToolNotFoundError
from .messages import ToolCall, ToolResult
from .schema import ToolSpec
from .server import ToolServer


class ToolRegistry:
    def __init__(self, servers: list[ToolServer] | None = None):
        self.servers: list[ToolServer] = list(servers or [])

    def add_server(self, server: ToolServer) -> None:
        self.servers.append(server)

    # -------------------------------------------------------------- lookup

    def visible_tools(self) -> list[ToolSpec]:
        seen: set[str] = set()
        specs: list[ToolSpec] = []
        for server in self.servers:
            for spec in server.visible_tools():
                if spec.name not in seen:
                    seen.add(spec.name)
                    specs.append(spec)
        return specs

    def tool_names(self) -> list[str]:
        return [spec.name for spec in self.visible_tools()]

    def has_tool(self, name: str) -> bool:
        return any(server.has_tool(name) for server in self.servers)

    def owner_of(self, name: str) -> ToolServer:
        for server in self.servers:
            if server.has_tool(name):
                return server
        raise ToolNotFoundError(name, self.tool_names())

    # ------------------------------------------------------------- calling

    def call(self, call: ToolCall) -> ToolResult:
        try:
            server = self.owner_of(call.tool)
        except ToolNotFoundError as exc:
            return ToolResult.error(exc.message, code="ToolNotFoundError")
        return server.call(call)

    def invoke(self, tool_name: str, **args: Any) -> ToolResult:
        return self.call(ToolCall(tool_name, args))

    def render_tool_list(self) -> str:
        """Concatenate each server's own rendering (servers control how
        verbose their wire format is — e.g. raw JSON schemas for MCP)."""
        blocks = [
            server.render_tool_list()
            for server in self.servers
            if server.visible_tools()
        ]
        return "\n\n".join(blocks)
