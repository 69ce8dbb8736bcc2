"""Tool and parameter specifications (the MCP "tool card")."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .columns import Columns
from .errors import ToolArgumentError

_JSON_TYPES = {"string", "number", "integer", "boolean", "object", "array", "any"}


@dataclass(frozen=True)
class ParamSpec:
    """One declared parameter of a tool.

    An ``array`` parameter may receive a column-backed
    :class:`~repro.mcp.Columns` when the proxy routes a value to it: it has
    ``len`` and ``.columns`` but is not iterable or indexable, so a tool
    that walks its rows reads them through ``wire()``. Every other type
    receives the wire form (the list of rows).
    """

    name: str
    type: str = "string"
    description: str = ""
    required: bool = True
    default: Any = None

    def __post_init__(self):
        if self.type not in _JSON_TYPES:
            raise ValueError(f"unknown parameter type {self.type!r}")

    def validate(self, value: Any) -> Any:
        """Check/coerce one argument value against this spec."""
        if value is None:
            if self.required:
                raise ToolArgumentError(f"missing required argument {self.name!r}")
            return self.default
        if isinstance(value, Columns):  # only an array reads the native form
            if self.type == "array":
                return value
            value = value.wire()
        checkers = {
            "string": lambda v: isinstance(v, str),
            "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
            "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
            "boolean": lambda v: isinstance(v, bool),
            "object": lambda v: isinstance(v, dict),
            "array": lambda v: isinstance(v, list),
            "any": lambda v: True,
        }
        if not checkers[self.type](value):
            raise ToolArgumentError(
                f"argument {self.name!r} expects {self.type}, got "
                f"{type(value).__name__}"
            )
        return value


@dataclass
class ToolSpec:
    """The full description of a tool, as shown to an LLM."""

    name: str
    description: str
    params: list[ParamSpec] = field(default_factory=list)
    #: extra metadata, e.g. {"action": "SELECT"} for SQL execution tools
    annotations: dict[str, Any] = field(default_factory=dict)

    def param(self, name: str) -> ParamSpec | None:
        for spec in self.params:
            if spec.name == name:
                return spec
        return None

    def validate_args(self, args: dict[str, Any]) -> dict[str, Any]:
        """Validate/complete an argument dict; raises ToolArgumentError."""
        unknown = set(args) - {p.name for p in self.params}
        if unknown:
            raise ToolArgumentError(
                f"unknown argument(s) for {self.name}: {', '.join(sorted(unknown))}"
            )
        validated: dict[str, Any] = {}
        for spec in self.params:
            validated[spec.name] = spec.validate(args.get(spec.name))
        return validated

    def render(self) -> str:
        """Deterministic textual rendering (counts toward LLM context)."""
        lines = [f"tool {self.name}: {self.description}"]
        for spec in self.params:
            required = "required" if spec.required else f"optional={spec.default!r}"
            lines.append(
                f"  - {spec.name} ({spec.type}, {required}): {spec.description}"
            )
        return "\n".join(lines)

    def to_json_schema(self) -> dict[str, Any]:
        """Export in MCP/JSON-schema wire format."""
        return {
            "name": self.name,
            "description": self.description,
            "inputSchema": {
                "type": "object",
                "properties": {
                    p.name: {"type": p.type, "description": p.description}
                    for p in self.params
                },
                "required": [p.name for p in self.params if p.required],
            },
            "annotations": dict(self.annotations),
        }
