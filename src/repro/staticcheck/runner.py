"""File discovery and checker execution.

:func:`run_paths` is the library entry point (the CLI and the test suite
both call it): collect ``.py`` files, parse each into a
:class:`~repro.staticcheck.core.ModuleSource`, run every registered
checker, apply per-line/per-scope suppressions, and return the surviving
findings sorted by location. Unparseable files surface as ``parse-error``
findings rather than crashing the run — a gate that dies on the code it
is gating is useless in CI.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .core import (
    Checker,
    Finding,
    MiniStaticError,
    ModuleSource,
    all_checkers,
    check_suppression_format,
)

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", "node_modules"}


def iter_python_files(paths: "list[str]") -> "list[str]":
    """Every ``.py`` file under ``paths`` (files pass through verbatim)."""
    found: list[str] = []
    for path in paths:
        if os.path.isfile(path):
            found.append(path)
            continue
        if not os.path.isdir(path):
            raise MiniStaticError(f"no such file or directory: {path!r}")
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d for d in dirnames
                if d not in _SKIP_DIRS and not d.startswith(".")
            )
            for name in sorted(filenames):
                if name.endswith(".py"):
                    found.append(os.path.join(dirpath, name))
    return found


@dataclass
class RunResult:
    """Outcome of one analysis run."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files_checked: int = 0


def check_module(
    module: ModuleSource, checkers: "list[Checker] | None" = None
) -> RunResult:
    """Run checkers over one already-parsed module (the test-fixture seam)."""
    if checkers is None:
        checkers = [cls() for cls in all_checkers().values()]
    result = RunResult(files_checked=1)
    for finding in check_suppression_format(module):
        result.findings.append(finding)  # never suppressible
    for checker in checkers:
        for finding in checker.check(module):
            if module.suppressed(finding):
                result.suppressed.append(finding)
            else:
                result.findings.append(finding)
    return result


def run_paths(
    paths: "list[str]",
    root: str | None = None,
    rules: "list[str] | None" = None,
) -> RunResult:
    """Analyze every Python file under ``paths``.

    ``root`` anchors the repo-relative paths findings use;
    it defaults to the current working directory. ``rules`` restricts the
    run to a subset of checker names (unknown names are an error — a typo
    must not silently run nothing).
    """
    registry = all_checkers()
    if rules is not None:
        unknown = sorted(set(rules) - set(registry))
        if unknown:
            raise MiniStaticError(
                f"unknown rule(s) {', '.join(unknown)}; "
                f"known: {', '.join(sorted(registry))}"
            )
        registry = {name: registry[name] for name in rules}
    checkers = [cls() for cls in registry.values()]
    anchor = os.path.abspath(root or os.getcwd())
    combined = RunResult()
    for path in iter_python_files(paths):
        absolute = os.path.abspath(path)
        try:
            rel = os.path.relpath(absolute, anchor)
        except ValueError:  # different drive (Windows)
            rel = absolute
        if rel.startswith(".."):
            rel = absolute
        try:
            with open(absolute, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise MiniStaticError(f"unreadable source file {path!r}: {exc}") from exc
        try:
            module = ModuleSource(absolute, text, rel_path=rel)
        except SyntaxError as exc:
            combined.files_checked += 1
            combined.findings.append(
                Finding(
                    rule="parse-error",
                    path=rel.replace(os.sep, "/"),
                    line=exc.lineno or 1,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        result = check_module(module, checkers)
        combined.files_checked += 1
        combined.findings.extend(result.findings)
        combined.suppressed.extend(result.suppressed)
    combined.findings.sort(key=lambda f: (f.path, f.line, f.rule))
    combined.suppressed.sort(key=lambda f: (f.path, f.line, f.rule))
    return combined
