"""Rule ``encapsulation``: no cross-module pokes at private attributes.

The ``heap._slots`` class of bug: module B reaches into an object whose
class lives in module A and reads (or worse, writes) a ``_private``
attribute, silently coupling itself to A's representation. The WAL
engine poking ``heap._next_rid`` directly is exactly how snapshot writers
drift out of sync with the heap's own accessors.

The rule is *module friendship*: code may touch single-underscore
attributes of classes defined in its own module (``storage.py`` walking
``heap._slots`` is the implementation working on itself; helper classes
like a dispatcher's ``PendingResult._resolve`` stay usable by their
module), but an attribute access ``obj._name`` on a non-``self``/``cls``
receiver whose name is not declared by any class in the current module is
a violation — route it through an accessor instead.

Declarations that make a private name module-own: ``self._name = ...`` or
``cls._name = ...`` anywhere in the module, a class-level ``_name = ...``
assignment, or a ``__slots__`` entry. Dunder and name-mangled attributes
(``__x``) are out of scope — Python already polices those harder.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import Checker, Finding, ModuleSource, register


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _own_private_names(module: ModuleSource) -> set[str]:
    own: set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in ("self", "cls")
                    and _is_private(target.attr)
                ):
                    own.add(target.attr)
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            if _is_private(target.id):
                                own.add(target.id)
                            if target.id == "__slots__":
                                own.update(_slot_names(stmt.value))
                elif isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    if _is_private(stmt.target.id):
                        own.add(stmt.target.id)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _is_private(node.name):
                own.add(node.name)  # private methods of this module's classes
    return own


def _slot_names(value: ast.AST) -> set[str]:
    names: set[str] = set()
    if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
        for element in value.elts:
            if isinstance(element, ast.Constant) and isinstance(
                element.value, str
            ):
                if _is_private(element.value):
                    names.add(element.value)
    return names


@register
class EncapsulationChecker(Checker):
    name = "encapsulation"
    description = (
        "private ('_name') attribute access on a non-self receiver is only "
        "allowed for names declared by classes in the same module"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        own = _own_private_names(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if not _is_private(node.attr):
                continue
            receiver = node.value
            if isinstance(receiver, ast.Name) and receiver.id in ("self", "cls"):
                continue
            if node.attr in own:
                continue
            yield module.finding(
                self.name,
                node,
                f"cross-module access to private attribute "
                f"'{node.attr}' — add or use an accessor on the owning "
                f"class instead of reaching into its representation",
            )
