"""Framework core: parsed modules, findings, suppressions, the registry.

The analysis unit is a :class:`ModuleSource` — one parsed Python file plus
everything :mod:`ast` alone cannot give a checker:

* **comments by line** (via :mod:`tokenize`), because the invariant
  annotations this suite enforces live in comments: ``#: guarded by
  self._mutex`` on an attribute assignment, ``#: requires self._mutex``
  on a helper method;
* **parent links** for every node, so checkers can ask "is this access
  lexically inside a ``with self._mutex`` block?";
* **suppressions**: ``# staticcheck: ignore[rule] — reason`` silences one
  rule on one line (or, attached to a ``def``/``class`` header, on the
  whole construct). The reason is mandatory — a suppression without one
  is itself reported (rule ``suppression-format``), so every grandfathered
  violation carries its justification in the diff that introduced it.

Checkers subclass :class:`Checker` and register with :func:`register`;
:func:`all_checkers` is the registry the runner iterates.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Iterable, Iterator

#: suppression comment: ``# staticcheck: ignore[rule-a,rule-b] — reason``
#: (plain ``-``, ``--`` or an em/en dash all accepted as the separator)
SUPPRESS_RE = re.compile(
    r"#\s*staticcheck:\s*ignore\[(?P<rules>[\w\-, ]+)\]"
    r"(?:\s*(?:—|–|--|-)\s*(?P<reason>\S.*))?"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # repo-relative, POSIX separators
    line: int
    message: str
    #: enclosing scope (``Class.method``)
    context: str = ""

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class Suppression:
    """One parsed ``staticcheck: ignore`` comment."""

    line: int
    rules: tuple[str, ...]
    reason: str | None
    #: inclusive line range the suppression covers (== ``line`` for a
    #: plain statement, the whole body for a def/class header)
    start: int = 0
    end: int = 0

    def covers(self, rule: str, line: int) -> bool:
        return self.start <= line <= self.end and rule in self.rules


class ModuleSource:
    """One parsed module plus comments, parents, and suppressions."""

    def __init__(self, path: str, text: str, rel_path: str | None = None):
        self.path = path
        self.rel_path = (rel_path or path).replace("\\", "/")
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text)
        self.comments = _collect_comments(text)
        self._parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent
        self.suppressions = _collect_suppressions(self)

    # ------------------------------------------------------------ structure

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk from ``node``'s parent up to the module root."""
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def qualname(self, node: ast.AST) -> str:
        """Dotted path of enclosing class/function scopes."""
        parts: list[str] = []
        for ancestor in self.ancestors(node):
            if isinstance(
                ancestor,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                parts.append(ancestor.name)
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            parts.insert(0, node.name)
        return ".".join(reversed(parts))

    # ------------------------------------------------------------- comments

    def header_comments(self, node: ast.stmt) -> list[str]:
        """Comments attached to a statement: on its first line, or in the
        contiguous comment block directly above it (above decorators for
        a decorated def/class)."""
        first = getattr(node, "lineno", 0)
        for decorator in getattr(node, "decorator_list", []) or []:
            first = min(first, decorator.lineno)
        found: list[str] = []
        trailing = self.comments.get(getattr(node, "lineno", 0))
        if trailing is not None:
            found.append(trailing)
        line = first - 1
        while line >= 1 and self._comment_only(line):
            found.append(self.comments[line])
            line -= 1
        return found

    def _comment_only(self, line: int) -> bool:
        if line not in self.comments:
            return False
        text = self.lines[line - 1] if line <= len(self.lines) else ""
        return text.lstrip().startswith("#")

    # --------------------------------------------------------- suppressions

    def suppressed(self, finding: Finding) -> bool:
        return any(
            s.covers(finding.rule, finding.line) for s in self.suppressions
        )

    def finding(
        self, rule: str, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=rule,
            path=self.rel_path,
            line=getattr(node, "lineno", 1),
            message=message,
            context=self.qualname(node),
        )


def _collect_comments(text: str) -> dict[int, str]:
    comments: dict[int, str] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                comments[token.start[0]] = token.string
    except tokenize.TokenError:
        pass  # ast.parse already succeeded; comments stay best-effort
    return comments


def _collect_suppressions(module: ModuleSource) -> list[Suppression]:
    suppressions: list[Suppression] = []
    for line, comment in module.comments.items():
        match = SUPPRESS_RE.search(comment)
        if match is None:
            continue
        rules = tuple(
            r.strip() for r in match.group("rules").split(",") if r.strip()
        )
        reason = match.group("reason")
        suppressions.append(
            Suppression(line=line, rules=rules, reason=reason, start=line, end=line)
        )
    # a suppression on (or directly above) a def/class header covers the
    # whole construct — that is how "this helper runs single-threaded
    # during recovery"-style rationales are written once, not per line
    headers: dict[int, tuple[int, int]] = {}
    for node in ast.walk(module.tree):
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            first = node.lineno
            for decorator in node.decorator_list:
                first = min(first, decorator.lineno)
            span = (node.lineno, node.end_lineno or node.lineno)
            headers[node.lineno] = span
            # comment block directly above the header/decorators
            line = first - 1
            while line >= 1 and module._comment_only(line):
                headers.setdefault(line, span)
                line -= 1
    for suppression in suppressions:
        span = headers.get(suppression.line)
        if span is None and suppression.line + 1 in headers:
            # standalone comment line directly above a header
            span = headers[suppression.line + 1]
        if span is not None:
            suppression.start, suppression.end = span
        elif _comment_only_line(module, suppression.line):
            # standalone comment: applies to the next code line
            suppression.end = suppression.line + 1
    return suppressions


def _comment_only_line(module: ModuleSource, line: int) -> bool:
    return module._comment_only(line)


def check_suppression_format(module: ModuleSource) -> Iterator[Finding]:
    """Reasonless suppressions are findings themselves (not silencable)."""
    for suppression in module.suppressions:
        if not suppression.reason:
            yield Finding(
                rule="suppression-format",
                path=module.rel_path,
                line=suppression.line,
                message=(
                    "suppression is missing its rationale — write "
                    "'# staticcheck: ignore[rule] — <why this is safe>'"
                ),
                context="",
            )


# ------------------------------------------------------------------ registry


class Checker:
    """Base class: one named rule over one module at a time."""

    name: str = ""
    description: str = ""

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        raise NotImplementedError


_REGISTRY: dict[str, type[Checker]] = {}


def register(cls: type[Checker]) -> type[Checker]:
    if not cls.name:
        raise MiniStaticError(f"checker {cls.__name__} has no rule name")
    if cls.name in _REGISTRY:
        raise MiniStaticError(f"duplicate checker name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def all_checkers() -> dict[str, type[Checker]]:
    from . import checkers  # noqa: F401  — importing registers everything

    return dict(_REGISTRY)


class MiniStaticError(Exception):
    """Framework misuse (bad registration, unknown rule, unreadable file)."""
