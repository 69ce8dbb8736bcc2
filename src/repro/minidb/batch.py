"""Column-batch (vectorized) execution primitives.

:class:`RowBatch` is what a scan reads: one source held as parallel
per-column value lists plus the rid vector, copied from the heap's
column lists in one cut, gathered by an index fetch (or built once from a
child block's result). The executor's scan operator keeps the surviving
rows of its batch as the column store of its relation value, the one
representation every SELECT operator after it works on. Processing
whole columns through precompiled kernels
(:func:`repro.minidb.expressions.compile_batch_expr`) amortizes the
Python interpreter's per-row overhead — the MonetDB/X100 move — which
matters doubly under the GIL, where the dispatcher cannot parallelize
CPU-bound statements.

:class:`BatchError` is the deferred-error sentinel those kernels emit in
place of raising: SQL short-circuit semantics mean a row-at-a-time plan
may never evaluate the erroring operand for a given row (``FALSE AND
1/0``), so vectorized kernels must not raise eagerly either. An element
that errors carries its exception through the batch; it only surfaces if
the consuming operator actually needs that element's value — the same
moment the row-at-a-time plan would have raised.

This module is dependency-free within minidb so both the storage layer
(batch producers) and the expression compiler (batch consumers) can use
it without layering cycles.
"""

from __future__ import annotations

from typing import Any

#: default number of rows per kernel call (and per fetch of a scan a LIMIT
#: may stop early): large enough to amortize per-call dispatch, small
#: enough that a kernel's intermediate vectors stay cache-friendly
DEFAULT_BATCH_SIZE = 1024


class BatchError:
    """Per-element deferred evaluation error inside a column batch.

    Stored *as a value* in kernel output lists (checked via
    ``type(v) is BatchError`` on the hot path). The wrapped exception is
    always a :class:`repro.minidb.errors.MiniDBError` — the hierarchy
    :func:`expressions._fold_batch` defers, per element and when folding
    constants at compile time.
    """

    __slots__ = ("exc",)

    def __init__(self, exc: Exception):
        self.exc = exc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BatchError({self.exc!r})"


class RowBatch:
    """One columnar cut of a relation.

    ``columns`` maps column name -> list of values, all lists parallel and
    ``length`` long; ``rids`` is the matching rid vector (``None`` for a
    source with no heap identity: a view, derived table or system view).
    Value lists are the batch's own — copies or gathers of the heap's
    column lists cut when the scan starts, never those lists themselves —
    so a consumer may keep (and extend) them and an in-flight scan does
    not see later writes. ``facts`` maps each column name to its class
    fact, a frozenset of the types its values may hold, read from the
    heap when the batch was cut (``None``: a source that keeps none).
    """

    __slots__ = ("rids", "columns", "length", "facts")

    def __init__(
        self,
        rids: list[int] | None,
        columns: dict[str, list],
        length: int,
        facts: "dict[str, frozenset] | None" = None,
    ):
        self.rids = rids
        self.columns = columns
        self.length = length
        self.facts = facts
