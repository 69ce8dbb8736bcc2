"""The filesystem seam and its deterministic fault injector.

Every file operation the durable stack performs — WAL appends, snapshot
writes, the ``LOCK`` file's flock, trace exports — goes
through a :class:`Filesystem` instance instead of calling ``open``/``os``
directly (the ``fs-seam`` staticcheck rule enforces this). Production
uses the passthrough :class:`Filesystem`, whose ``open`` returns the raw
builtin file object, so the seam costs nothing on the hot path.

Tests and torture harnesses substitute a :class:`FaultyFilesystem`
scripted by a :class:`FaultPlan`: a declarative description of *which*
operation fails *how*. Operations are numbered by one global counter in
execution order, so a plan like ``FaultPlan(crash_at=17)`` deterministically
kills the 17th filesystem operation of the run — and sweeping that index
across the whole workload visits every crash point the implementation
can reach, the syscall-level generalization of WAL-byte truncation
sweeps.

Fault shapes (all composable in one plan):

* ``crash_at=N`` — raise :class:`SimulatedCrash` at operation ``N``.
  When ``N`` is a write, a seeded *prefix* of the data is written first:
  a torn multi-syscall write, exactly what a real crash produces.
* ``error_at=N`` (+ ``error_errno``) — raise ``OSError`` at operation
  ``N`` (default ``EIO``), likewise tearing writes.
* ``fail_fsync=K`` (+ ``fsync_errno``) — the ``K``-th fsync of the run
  fails. One-shot: later fsyncs succeed (a transient device error).
* ``enospc_after_bytes=B`` — once ``B`` bytes have been written, further
  writes store what still fits and raise ``ENOSPC``.
* ``latency_s`` — sleep before every operation (slow-disk modeling).

:class:`SimulatedCrash` subclasses ``BaseException`` deliberately:
production code legitimately catches broad ``Exception`` (recovery
wraps any replay failure in a ``PersistenceError``), and a simulated
process death must not be swallowed or rewrapped by those handlers.
"""

from __future__ import annotations

import errno as _errno
import fcntl
import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Iterator


class SimulatedCrash(BaseException):
    """Process death injected at a filesystem operation.

    ``BaseException`` so no ``except Exception`` in the code under test
    can absorb it — a crash ends the run, full stop. Harnesses catch it
    explicitly, drop the database object without ``close()``, and reopen.
    """


@dataclass
class FaultPlan:
    """Script of deterministic faults, addressed by operation index.

    Operation indices are 0-based and global across the plan's
    :class:`FaultyFilesystem` (see its ``ops_log`` for the mapping from
    index to ``(op, path)``). ``crash_at``/``error_at`` target one exact
    operation; ``fail_fsync`` counts fsyncs only (1-based: ``1`` fails
    the first fsync); ``enospc_after_bytes`` is a running budget over all
    written bytes. ``seed`` drives the torn-write cut points.
    """

    crash_at: int | None = None
    error_at: int | None = None
    error_errno: int = _errno.EIO
    fail_fsync: int | None = None
    fsync_errno: int = _errno.EIO
    enospc_after_bytes: int | None = None
    latency_s: float = 0.0
    seed: int = 0


class Filesystem:
    """Passthrough seam: the operations durable storage is allowed to use.

    ``open`` returns the plain builtin file object — zero interposition
    on reads, writes, and flushes — so routing production I/O through
    this class is free. Subclasses (the fault injector) may return
    wrapped files instead; callers must treat the return value as an
    opaque file-like and fsync it via :meth:`fsync`, never
    ``os.fsync(fh.fileno())`` directly.
    """

    def open(self, path: str, mode: str = "r", encoding: str | None = None) -> Any:
        return open(path, mode, encoding=encoding)

    def fsync(self, fh: Any) -> None:
        os.fsync(fh.fileno())

    def lock(self, fh: Any) -> None:
        """Take an exclusive POSIX ``flock`` on ``fh`` without waiting;
        ``BlockingIOError`` while another open file description holds it.
        The kernel releases it when ``fh`` closes or its process dies."""
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)

    def replace(self, src: str, dst: str) -> None:
        os.replace(src, dst)

    def unlink(self, path: str) -> None:
        os.unlink(path)

    def makedirs(self, path: str, exist_ok: bool = False) -> None:
        os.makedirs(path, exist_ok=exist_ok)

    def exists(self, path: str) -> bool:
        return os.path.exists(path)


#: shared production instance — stateless, safe to use everywhere
OS_FILESYSTEM = Filesystem()


class _FaultyFile:
    """File wrapper routing writes/flushes/fsyncs through the fault plan.

    The underlying file is always opened in *unbuffered binary* mode:
    every ``write`` here is one OS-level write, so a torn write injected
    by the plan leaves exactly the torn prefix on disk — no Python-layer
    buffer can resurrect the tail later (e.g. when the abandoned file
    object is garbage-collected after a simulated crash). Text-mode
    callers get transparent encode/decode instead of a text buffer.
    """

    def __init__(self, fs: "FaultyFilesystem", path: str, mode: str, encoding: str | None):
        self._fs = fs
        self.path = path
        self._text = "b" not in mode
        self._encoding = encoding or "utf-8"
        raw_mode = mode.replace("b", "") + "b"
        self._raw = open(path, raw_mode, buffering=0)
        self.closed = False

    # -- injected operations

    def write(self, data: Any) -> int:
        payload = data.encode(self._encoding) if self._text else bytes(data)
        self._fs._write(self.path, self._raw, payload)
        return len(data)

    def flush(self) -> None:
        self._fs._op("flush", self.path)
        self._raw.flush()  # no-op for unbuffered raw files

    # -- passthrough operations (not fault points)

    def read(self, size: int = -1) -> Any:
        data = self._raw.read(size)
        return data.decode(self._encoding) if self._text else data

    def truncate(self, size: int | None = None) -> int:
        return self._raw.truncate(size)

    def seek(self, offset: int, whence: int = 0) -> int:
        return self._raw.seek(offset, whence)

    def fileno(self) -> int:
        return self._raw.fileno()

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._raw.close()

    def __enter__(self) -> "_FaultyFile":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __iter__(self) -> Iterator[Any]:
        while True:
            line = self._raw.readline()
            if not line:
                return
            yield line.decode(self._encoding) if self._text else line


class FaultyFilesystem(Filesystem):
    """A :class:`Filesystem` that executes a :class:`FaultPlan`.

    Observability: ``ops`` counts operations so far, ``ops_log`` records
    ``(index, op, basename)`` for every operation (the map a sweep uses
    to interpret an index), ``bytes_written``/``fsyncs`` track the
    budgets, and ``injected`` records every fault actually fired.
    """

    def __init__(self, plan: FaultPlan | None = None):
        self.plan = plan or FaultPlan()
        self.ops = 0
        self.fsyncs = 0
        self.bytes_written = 0
        self.ops_log: list[tuple[int, str, str]] = []
        self.injected: list[tuple[int, str, str]] = []
        self._rng = random.Random(self.plan.seed)

    # ------------------------------------------------------------ injection

    def _op(self, op: str, path: str) -> int:
        """Number one operation and fire any non-write fault aimed at it."""
        index = self.ops
        self.ops += 1
        self.ops_log.append((index, op, os.path.basename(path)))
        if self.plan.latency_s:
            time.sleep(self.plan.latency_s)
        if index == self.plan.crash_at:
            self.injected.append((index, "crash", op))
            raise SimulatedCrash(f"simulated crash at op {index} ({op} {path})")
        if index == self.plan.error_at:
            self.injected.append((index, "error", op))
            raise self._os_error(self.plan.error_errno, path)
        return index

    def _write(self, path: str, raw: Any, payload: bytes) -> None:
        """One write operation; faults here tear the write first."""
        index = self.ops
        self.ops += 1
        self.ops_log.append((index, "write", os.path.basename(path)))
        if self.plan.latency_s:
            time.sleep(self.plan.latency_s)
        if index == self.plan.crash_at or index == self.plan.error_at:
            cut = self._rng.randrange(len(payload) + 1)
            if cut:
                raw.write(payload[:cut])
                self.bytes_written += cut
            if index == self.plan.crash_at:
                self.injected.append((index, "crash", "write"))
                raise SimulatedCrash(
                    f"simulated crash tearing write at op {index} ({path})"
                )
            self.injected.append((index, "error", "write"))
            raise self._os_error(self.plan.error_errno, path)
        if self.plan.enospc_after_bytes is not None:
            room = self.plan.enospc_after_bytes - self.bytes_written
            if len(payload) > room:
                fits = payload[: max(0, room)]
                if fits:
                    raw.write(fits)
                    self.bytes_written += len(fits)
                self.injected.append((index, "enospc", "write"))
                raise self._os_error(_errno.ENOSPC, path)
        raw.write(payload)
        self.bytes_written += len(payload)

    @staticmethod
    def _os_error(code: int, path: str) -> OSError:
        return OSError(code, os.strerror(code), path)

    # ----------------------------------------------------------- operations

    def open(self, path: str, mode: str = "r", encoding: str | None = None) -> Any:
        self._op("open", path)
        return _FaultyFile(self, path, mode, encoding)

    def fsync(self, fh: Any) -> None:
        self._op("fsync", getattr(fh, "path", "?"))
        self.fsyncs += 1
        if self.fsyncs == self.plan.fail_fsync:
            self.injected.append((self.ops - 1, "fsync-error", "fsync"))
            raise self._os_error(self.plan.fsync_errno, getattr(fh, "path", "?"))
        os.fsync(fh.fileno())

    def lock(self, fh: Any) -> None:
        self._op("lock", getattr(fh, "path", "?"))
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)

    def replace(self, src: str, dst: str) -> None:
        self._op("replace", src)
        os.replace(src, dst)

    def unlink(self, path: str) -> None:
        self._op("unlink", path)
        os.unlink(path)

    def makedirs(self, path: str, exist_ok: bool = False) -> None:
        self._op("makedirs", path)
        os.makedirs(path, exist_ok=exist_ok)

    # ``exists`` is a metadata peek, not a mutation — not a fault point,
    # mirroring the passthrough class.
