"""F4 — The proxy mechanism for inter-tool data transfer (paper Section 2.5).

A *proxy unit* is a triple ⟨p, c, f⟩: data producer(s) *p*, a consumer tool
*c*, and an adaptation function *f* transforming producer output into the
consumer's expected input. Units nest recursively — a producer may itself
be a proxy unit — and the whole hierarchy executes bottom-up inside the
proxy tool, so bulk data flows tool-to-tool without ever entering the LLM
context.

Wire format (exactly the paper's Figure 3): the ``proxy`` tool takes

* ``target_tool`` — the consumer tool name *c*;
* ``tool_args`` — a dict mapping each consumer argument to either a plain
  literal, or a producer spec::

      {"__tool__": "select",
       "__args__": {"sql": "SELECT ..."},
       "__transform__": "lambda x: x"}

  ``__args__`` may itself contain nested producer specs (recursive units),
  and a list of producer specs yields a list of produced values.

The proxy's own calls are :meth:`~repro.mcp.ToolCall.routed`, so their
results keep their native form: a SELECT result reaches an ``array``
parameter as its column lists (:class:`~repro.mcp.Columns`), and rows are
built only where a value leaves the data channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from inspect import unwrap
from typing import Any

from ..mcp import (
    Columns,
    ParamSpec,
    ToolCall,
    ToolError,
    ToolRegistry,
    ToolResult,
    ToolServer,
    ToolSpec,
)
from ..mcp.columns import wire
from .transforms import TransformError, compile_transform, identity

PRODUCER_KEY = "__tool__"
ARGS_KEY = "__args__"
TRANSFORM_KEY = "__transform__"


@dataclass
class ProxyStats:
    """Observability counters read by benchmarks and tests."""

    units_executed: int = 0
    producer_calls: int = 0
    max_depth: int = 0
    values_routed: int = 0  # rows/items moved tool-to-tool, LLM-free


@dataclass
class ProxyUnit:
    """Parsed, validated form of one proxy unit."""

    target_tool: str
    tool_args: dict[str, Any] = field(default_factory=dict)


class ProxyTool(ToolServer):
    """The ``proxy`` tool; routes data between any tools in the registry."""

    name = "bridgescope.proxy"

    def __init__(self, registry: ToolRegistry):
        super().__init__()
        self.registry = registry
        self.stats = ProxyStats()
        self.register(
            ToolSpec(
                name="proxy",
                description=(
                    "Execute a downstream tool whose inputs are produced by "
                    "other tools, routing data directly between them without "
                    "returning it to you. Each argument of target_tool may be "
                    "a literal, or a producer spec {'__tool__': name, "
                    "'__args__': {...}, '__transform__': 'lambda x: ...'}. "
                    "Producer specs nest recursively, and a list of specs "
                    "produces a list of values. Use this whenever a tool "
                    "needs data from another tool (especially query results) "
                    "instead of copying data yourself."
                ),
                params=[
                    ParamSpec("target_tool", "string", "the consumer tool name"),
                    ParamSpec(
                        "tool_args",
                        "object",
                        "consumer arguments; values may be producer specs",
                    ),
                ],
            ),
            self._run_proxy,
        )

    # ------------------------------------------------------------- running

    def _run_proxy(self, target_tool: str, tool_args: dict[str, Any]) -> ToolResult:
        unit = ProxyUnit(target_tool, tool_args or {})
        result = self.execute_unit(unit, depth=1)
        return result

    def execute_unit(self, unit: ProxyUnit, depth: int) -> ToolResult:
        """Execute one proxy unit (resolving nested units first)."""
        self.stats.max_depth = max(self.stats.max_depth, depth)
        if not self.registry.has_tool(unit.target_tool):
            raise ToolError(
                f"proxy target tool {unit.target_tool!r} not found",
                retriable=True,
            )
        resolved = self._resolve_args(unit.tool_args, depth)
        result = self.registry.call(ToolCall.routed(unit.target_tool, resolved))
        if result.is_error:
            raise ToolError(
                f"proxy consumer {unit.target_tool} failed: {result.content}",
                retriable=True,
            )
        self.stats.units_executed += 1
        return result

    # ---------------------------------------------------------- resolution

    def _resolve_args(self, args: dict[str, Any], depth: int) -> dict[str, Any]:
        return {key: self._resolve_value(value, depth) for key, value in args.items()}

    def _resolve_value(self, value: Any, depth: int) -> Any:
        if self._is_producer_list(value):  # a nested value is read as rows
            return [wire(self._resolve_producer(spec, depth)) for spec in value]
        if self._is_producer_spec(value):
            return self._resolve_producer(value, depth)
        return value

    def _resolve_producer(self, spec: dict[str, Any], depth: int) -> Any:
        self.stats.max_depth = max(self.stats.max_depth, depth)
        tool_name = spec[PRODUCER_KEY]
        inner_args = spec.get(ARGS_KEY, {}) or {}
        if not isinstance(inner_args, dict):
            raise ToolError("producer __args__ must be an object", retriable=True)
        resolved_args = self._resolve_args(inner_args, depth + 1)

        if not self.registry.has_tool(tool_name):
            raise ToolError(
                f"proxy producer tool {tool_name!r} not found", retriable=True
            )
        result = self.registry.call(ToolCall.routed(tool_name, resolved_args))
        self.stats.producer_calls += 1
        if result.is_error:
            raise ToolError(
                f"proxy producer {tool_name} failed: {result.content}",
                retriable=True,
            )
        value = self._payload_of(result)
        self._count_routed(value)

        transform_source = spec.get(TRANSFORM_KEY, "")
        if transform_source:
            try:
                transform = compile_transform(str(transform_source))
                # the identity (also behind a functools.wraps decorator)
                # passes the native value on; any other transform reads rows
                if unwrap(transform) is not identity:
                    value = transform(wire(value))
            except TransformError as exc:
                raise ToolError(
                    f"transform for producer {tool_name} failed: {exc}",
                    retriable=True,
                ) from exc
        return value

    @staticmethod
    def _payload_of(result: ToolResult) -> Any:
        """The structured payload a producer hands downstream.

        Data-bearing tools attach their payload in metadata (SQL tools as
        ``rows``, ML tools as ``payload``); prefer those over the
        LLM-oriented rendering. Other tools pass content through. A result
        of a routed call keeps its native form: SQL rows and normalised
        matrices arrive as :class:`~repro.mcp.Columns`.
        """
        if "payload" in result.metadata:
            return result.metadata["payload"]
        if "rows" in result.metadata:
            return result.metadata["rows"]
        return result.content

    def _count_routed(self, value: Any) -> None:
        if isinstance(value, (list, tuple, Columns)):  # rows, either form
            self.stats.values_routed += len(value)
        else:
            self.stats.values_routed += 1

    # ------------------------------------------------------------- helpers

    @staticmethod
    def _is_producer_spec(value: Any) -> bool:
        return isinstance(value, dict) and PRODUCER_KEY in value

    @classmethod
    def _is_producer_list(cls, value: Any) -> bool:
        return (
            isinstance(value, list)
            and bool(value)
            and all(cls._is_producer_spec(v) for v in value)
        )
