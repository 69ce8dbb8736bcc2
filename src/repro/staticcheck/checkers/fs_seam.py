"""Rule ``fs-seam``: durable-persistence file I/O goes through the seam.

The fault-injection story (:mod:`repro.faults`) only covers what actually
flows through the :class:`~repro.faults.Filesystem` seam. One bare
``open(...)`` or ``os.rename(...)`` inside the durable engine or the
trace exporter is an operation the torture sweep can neither
crash nor error — an untested failure path by construction. Inside the
seamed modules, every file operation must use ``self.fs`` (or another
``Filesystem`` instance); direct builtin ``open`` calls, the ``os``
file-mutation functions and any ``fcntl`` call (the ``LOCK`` file's
flock is ``Filesystem.lock``) are findings.

``os.path.*`` helpers, other ``os`` calls, and everything outside the
seamed modules are untouched — the seam is a durability contract, not a
repo-wide style rule.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import Checker, Finding, ModuleSource, register

#: modules whose file I/O must be injectable (the durable stack)
SEAMED_PATHS = frozenset(
    {
        "src/repro/minidb/engines/durable.py",
        "src/repro/obs/tracing.py",
    }
)

#: ``os.<attr>`` calls that touch the filesystem and therefore belong
#: behind the seam
BANNED_OS = frozenset(
    {
        "open",
        "fdopen",
        "fsync",
        "rename",
        "replace",
        "unlink",
        "remove",
        "link",
        "makedirs",
        "mkdir",
        "listdir",
        "truncate",
    }
)


@register
class FsSeamChecker(Checker):
    name = "fs-seam"
    description = (
        "file I/O in the durable engine and the trace exporter must go "
        "through the repro.faults.Filesystem seam, not bare open()/os.*"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if module.rel_path not in SEAMED_PATHS:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                yield module.finding(
                    self.name,
                    node,
                    "bare open() in a seamed module — route it through the "
                    "Filesystem seam (self.fs.open) so fault injection can "
                    "reach it",
                )
            elif (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and (
                    (func.value.id == "os" and func.attr in BANNED_OS)
                    or func.value.id == "fcntl"
                )
            ):
                yield module.finding(
                    self.name,
                    node,
                    f"{func.value.id}.{func.attr}() in a seamed module — "
                    "route it through the Filesystem seam so fault "
                    "injection can reach it",
                )
