"""The column-backed value: a table on the proxy's data channel.

A SELECT result, or an ``mltools`` matrix, travels from tool to tool inside
one proxy call as its column lists. Rows are built only where a result
leaves a tool for a caller that is not the proxy: :meth:`Columns.wire` is
the one place that turns such a value into its wire form, the list of rows
every other caller has always received.
"""

from __future__ import annotations

from typing import Any


class Columns:
    """``length`` rows held as one list per column.

    ``row`` is the wire form's row type: ``tuple`` for SQL rows, ``list``
    for numeric matrices. The lists are read, never modified.
    """

    __slots__ = ("columns", "length", "row")

    def __init__(self, columns: list[list], length: int, row: type = tuple):
        self.columns = columns
        self.length = length
        self.row = row

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return f"Columns({len(self.columns)} x {self.length})"

    def wire(self) -> list:
        """The rows, as every caller but the proxy receives them."""
        return _rows(self.columns, self.length, self.row)

    def head(self, count: int) -> list:
        """The first ``count`` rows, for rendering."""
        if count >= self.length:
            return _rows(self.columns, self.length, self.row)
        return _rows([column[:count] for column in self.columns], count, self.row)


def _rows(columns: list[list], length: int, row: type) -> list:
    if not columns:
        return [row() for _ in range(length)]
    rows = zip(*columns)
    return list(rows) if row is tuple else list(map(row, rows))


def wire(value: Any) -> Any:
    """``value`` in its wire form: a :class:`Columns` as its rows, anything
    else as it is."""
    return value.wire() if isinstance(value, Columns) else value
