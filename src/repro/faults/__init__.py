"""Deterministic fault injection for the durable storage stack.

The durable engine's crash-safety argument is only as strong as the
failure shapes it has been tested against. This package provides the
two halves of making that systematic:

* :class:`Filesystem` — the seam every durable file operation goes
  through (see :mod:`repro.faults.filesystem`), the single-writer lock
  included (``lock``: a POSIX ``flock``, the supported platform's lock);
  production code uses the zero-overhead passthrough, enforced by the
  ``fs-seam`` staticcheck rule.
* :class:`FaultyFilesystem` + :class:`FaultPlan` — a scripted injector
  that can crash (:class:`SimulatedCrash`), error (``EIO``/``ENOSPC``),
  tear, or delay any operation by its deterministic global index,
  making "crash at every possible syscall" an enumerable sweep instead
  of a flaky race.
"""

from .filesystem import (
    OS_FILESYSTEM,
    FaultPlan,
    FaultyFilesystem,
    Filesystem,
    SimulatedCrash,
)

__all__ = [
    "OS_FILESYSTEM",
    "FaultPlan",
    "FaultyFilesystem",
    "Filesystem",
    "SimulatedCrash",
]
