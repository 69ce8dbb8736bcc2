"""Rule ``layering``: the lower packages do not import the upper ones.

The toolkit is a stack: ``repro.mcp`` (the tool protocol) knows nothing of
what runs behind a tool; ``repro.mltools`` is a tool server and knows only
the protocol; ``repro.minidb`` is the database the toolkit drives and knows
neither the protocol nor the toolkit, the ML tools, the service layer or
retrieval. The data channel depends on this: ``minidb`` hands a SELECT's
columns up as plain lists, and ``core`` wraps them in the protocol's
column-backed value, so a change to the protocol cannot reach the engine.

Every ``import`` and ``from ... import`` in a module under one of these
packages, at any depth and relative or absolute, is resolved to its
``repro`` package and checked against the package's allowed set.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import Checker, Finding, ModuleSource, register

#: package -> the other ``repro`` packages it must not import
FORBIDDEN = {
    "minidb": frozenset({"mcp", "core", "mltools", "service", "retrieval"}),
}

#: package -> the only other ``repro`` packages it may import
ALLOWED = {
    "mcp": frozenset(),
    "mltools": frozenset({"mcp"}),
}


def _package(rel_path: str) -> list[str] | None:
    """``["repro", ...]`` for the package holding ``rel_path``."""
    parts = rel_path.split("/")
    if len(parts) < 3 or parts[0] != "src" or parts[1] != "repro":
        return None
    return parts[1:-1]


def _imported(node: ast.AST, package: list[str]) -> list[str]:
    """The dotted names an import statement binds, resolved to absolute
    (``from .. import core`` in ``repro.minidb`` is ``repro.core``)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level == 0:
        base = [node.module or ""]
    else:
        base = package[: len(package) - (node.level - 1)]
        base = base + ([node.module] if node.module else [])
    return [".".join(base + [alias.name]) for alias in node.names]


@register
class LayeringChecker(Checker):
    name = "layering"
    description = (
        "repro.minidb imports no toolkit package, repro.mcp no other repro "
        "package, and repro.mltools only repro.mcp"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        package = _package(module.rel_path)
        if package is None or len(package) < 2:
            return
        own = package[1]
        if own not in FORBIDDEN and own not in ALLOWED:
            return
        for node in ast.walk(module.tree):
            for name in _imported(node, package):
                parts = name.split(".")
                if len(parts) < 2 or parts[0] != "repro" or parts[1] == own:
                    continue
                target = parts[1]
                if own in FORBIDDEN:
                    bad = target in FORBIDDEN[own]
                else:
                    bad = target not in ALLOWED[own]
                if bad:
                    yield module.finding(
                        self.name,
                        node,
                        f"repro.{own} imports repro.{target}: a lower layer "
                        "must not depend on an upper one",
                    )
