"""A minimal MCP-style tool protocol layer.

Models the slice of the Model Context Protocol that BridgeScope relies on:
tool specifications with JSON-schema-ish parameter declarations, tool
servers that expose a set of tools, a registry aggregating servers, and
uniform call/result messages with an error channel.
"""

from .columns import Columns
from .errors import ToolError, ToolNotFoundError, ToolArgumentError
from .messages import ToolCall, ToolResult
from .registry import ToolRegistry
from .schema import ParamSpec, ToolSpec
from .server import ToolServer, tool

__all__ = [
    "Columns",
    "ParamSpec",
    "ToolArgumentError",
    "ToolCall",
    "ToolError",
    "ToolNotFoundError",
    "ToolRegistry",
    "ToolResult",
    "ToolServer",
    "ToolSpec",
    "tool",
]
