"""Call/result message types exchanged between agent and tool servers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .columns import Columns


@dataclass
class ToolCall:
    """A request to invoke ``tool`` with ``args``."""

    tool: str
    args: dict[str, Any] = field(default_factory=dict)
    #: set by :meth:`routed` alone: a call the proxy makes, whose result
    #: keeps its native form because the proxy is its only reader
    native: bool = field(default=False, init=False, repr=False, compare=False)

    @classmethod
    def routed(cls, tool: str, args: dict[str, Any]) -> "ToolCall":
        """A call on the proxy's data channel (``ProxyTool`` makes these)."""
        call = cls(tool, args)
        call.native = True
        return call

    def render(self) -> str:
        parts = ", ".join(f"{k}={_short(v)}" for k, v in self.args.items())
        return f"{self.tool}({parts})"


@dataclass
class ToolResult:
    """The outcome of one tool invocation.

    ``content`` is the payload handed back to the caller (string for LLM
    consumption, or any Python object when tools exchange data directly via
    the proxy). ``is_error`` discriminates failures; ``error_code`` carries
    the originating error class name for agent-side dispatch.
    """

    content: Any
    is_error: bool = False
    error_code: str | None = None
    #: wall-clock-free execution metadata (row counts etc.) for benchmarks
    metadata: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def ok(cls, content: Any, **metadata: Any) -> "ToolResult":
        return cls(content=content, metadata=metadata)

    @classmethod
    def error(cls, message: str, code: str = "ToolError") -> "ToolResult":
        return cls(content=message, is_error=True, error_code=code)

    def to_wire(self) -> "ToolResult":
        """This result with ``content`` and each ``metadata`` value in
        their wire form (see :class:`~repro.mcp.columns.Columns`)."""
        if isinstance(self.content, Columns):
            self.content = self.content.wire()
        metadata = self.metadata
        for key, value in metadata.items():
            if isinstance(value, Columns):
                metadata[key] = value.wire()
        return self

    def render(self) -> str:
        """Text as it would enter an LLM context."""
        prefix = "ERROR: " if self.is_error else ""
        return f"{prefix}{_stringify(self.content)}"


def _short(value: Any, limit: int = 60) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _stringify(content: Any) -> str:
    if isinstance(content, str):
        return content
    return repr(content)
