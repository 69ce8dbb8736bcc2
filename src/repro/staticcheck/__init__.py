"""Invariant-enforcing static analysis for this repository.

The concurrency layers (PRs 3–5) rest on conventions the interpreter
never checks: mutex-guarded attributes, module-private representations,
condition-wait re-check loops, undo/redo pairing at every mutation site,
a single error taxonomy, and deliberate (only deliberate) broad
exception handlers. Each convention cost review sweeps to enforce by
hand; this package encodes them as AST checkers behind one CLI —
``python -m repro.staticcheck`` — gated in CI so new violations fail the
build instead of waiting for a reviewer (or a crash) to find them.

Public surface:

* :func:`repro.staticcheck.runner.run_paths` / :func:`check_module` —
  library entry points (the tests drive these);
* :class:`repro.staticcheck.core.ModuleSource`, :class:`Checker`,
  :func:`register` — the framework for writing new rules;
* :class:`repro.staticcheck.baseline.Baseline` — the grandfathering
  ratchet;
* :mod:`repro.staticcheck.cli` — argument parsing and output formats.

See the "Invariants" section of docs/ARCHITECTURE.md for the rule catalog,
the annotation syntax (``#: guarded by self._mutex``, ``#: requires
self._mutex``) and the suppression format
(``# staticcheck: ignore[rule] — reason``).
"""

from .baseline import Baseline
from .core import (
    Checker,
    Finding,
    MiniStaticError,
    ModuleSource,
    all_checkers,
    register,
)
from .runner import RunResult, check_module, iter_python_files, run_paths

__all__ = [
    "Baseline",
    "Checker",
    "Finding",
    "MiniStaticError",
    "ModuleSource",
    "RunResult",
    "all_checkers",
    "check_module",
    "iter_python_files",
    "register",
    "run_paths",
]
