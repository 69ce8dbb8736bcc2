"""Tool server base class and the ``@tool`` declaration decorator."""

from __future__ import annotations

import inspect
from typing import Any, Callable

from .errors import ToolError, ToolNotFoundError
from .messages import ToolCall, ToolResult
from .schema import ParamSpec, ToolSpec


def tool(
    name: str | None = None,
    description: str = "",
    params: list[ParamSpec] | None = None,
    **annotations: Any,
) -> Callable:
    """Mark a method as a tool implementation.

    Parameter specs default to being inferred from the method signature
    (every parameter typed as ``any`` and required unless it has a default).
    """

    def decorate(fn: Callable) -> Callable:
        fn.__tool_decl__ = {
            "name": name or fn.__name__,
            "description": description or (fn.__doc__ or "").strip(),
            "params": params,
            "annotations": annotations,
        }
        return fn

    return decorate


def _infer_params(fn: Callable) -> list[ParamSpec]:
    specs: list[ParamSpec] = []
    signature = inspect.signature(fn)
    for param in signature.parameters.values():
        if param.name == "self":
            continue
        required = param.default is inspect.Parameter.empty
        specs.append(
            ParamSpec(
                param.name,
                type="any",
                required=required,
                default=None if required else param.default,
            )
        )
    return specs


class ToolServer:
    """Base class: collects ``@tool``-decorated methods into a tool table.

    Visibility is registration: a tool is listed, found and callable
    exactly when it is in the table. Subclasses add tools with
    :meth:`register` (this is how BridgeScope exposes only
    privilege-compatible tools) and withdraw one with :meth:`unregister`;
    :meth:`has_tool` and :meth:`spec` are lookups in the table.
    """

    name = "server"

    def __init__(self):
        self._tools: dict[str, tuple[ToolSpec, Callable]] = {}
        for attr in dir(self):
            fn = getattr(self, attr)
            decl = getattr(fn, "__tool_decl__", None)
            if decl is None:
                continue
            spec = ToolSpec(
                name=decl["name"],
                description=decl["description"],
                params=decl["params"] or _infer_params(fn.__func__),
                annotations=dict(decl["annotations"]),
            )
            self._tools[spec.name] = (spec, fn)

    # ------------------------------------------------------------- registry

    def register(
        self, spec: ToolSpec, fn: Callable[..., Any]
    ) -> None:
        """Attach an extra tool at runtime."""
        self._tools[spec.name] = (spec, fn)

    def unregister(self, name: str) -> None:
        self._tools.pop(name, None)

    def rename_tools(self, mapper: Callable[[str], str]) -> None:
        """Rename every registered tool via ``mapper(old_name) -> new_name``.

        Used by the multi-datasource combiner to namespace colliding tool
        tables; specs are updated in place so held references stay valid.
        """
        renamed = {}
        for name, (spec, fn) in self._tools.items():
            spec.name = mapper(name)
            renamed[spec.name] = (spec, fn)
        self._tools = renamed

    def visible_tools(self) -> list[ToolSpec]:
        """Tool specs exposed to the caller, in registration order."""
        return [spec for spec, _ in self._tools.values()]

    def has_tool(self, name: str) -> bool:
        return name in self._tools

    def spec(self, name: str) -> ToolSpec:
        entry = self._tools.get(name)
        if entry is None:
            raise ToolNotFoundError(name, list(self._tools))
        return entry[0]

    # ------------------------------------------------------------- calling

    def call(self, call: ToolCall) -> ToolResult:
        """Invoke a tool; all failures are folded into an error ToolResult."""
        try:
            spec = self.spec(call.tool)
            _, fn = self._tools[call.tool]
            args = spec.validate_args(call.args)
            content = fn(**args)
            result = content if isinstance(content, ToolResult) else ToolResult.ok(content)
            # a result leaves the tool in its wire form, except to the proxy
            return result if call.native else result.to_wire()
        except ToolError as exc:
            return ToolResult.error(exc.message, code=type(exc).__name__)
        except Exception as exc:  # engine errors surface with their class name
            return ToolResult.error(str(exc), code=type(exc).__name__)

    def invoke(self, tool_name: str, **args: Any) -> ToolResult:
        """Convenience wrapper around :meth:`call`."""
        return self.call(ToolCall(tool_name, args))

    # ------------------------------------------------------------ rendering

    def render_tool_list(self) -> str:
        """Deterministic text block describing all visible tools."""
        return "\n\n".join(spec.render() for spec in self.visible_tools())
