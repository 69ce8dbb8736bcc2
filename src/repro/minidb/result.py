"""Result container returned by every minidb statement execution."""

from __future__ import annotations

from typing import Any, Iterator


class ResultSet:
    """Uniform result of executing one statement.

    ``columns``/``rows`` are populated for SELECT; ``rowcount`` for DML
    (number of rows affected); ``status`` is a short human/LLM-readable
    completion tag like ``"INSERT 3"`` or ``"BEGIN"``.

    A SELECT's result is built from its output columns: ``values`` holds
    one value list per column, and ``rows`` (a list of tuples) is built
    from them once, on first read. A reader that takes ``values`` never
    pays for the row tuples.
    """

    def __init__(
        self,
        columns: list[str] | None = None,
        rows: list[tuple] | None = None,
        rowcount: int = 0,
        status: str = "OK",
        values: list[list] | None = None,
    ):
        self.columns = [] if columns is None else columns
        #: the output columns' value lists (a SELECT), or None
        self.values = values
        if rows is None and values is None:
            rows = []
        self._rows = rows  # None: built from ``values`` on first read
        self.rowcount = rowcount
        self.status = status

    @property
    def rows(self) -> list[tuple]:
        if self._rows is None:
            self._rows = list(zip(*self.values))
        return self._rows

    def __repr__(self) -> str:
        return (
            f"ResultSet(columns={self.columns!r}, rows={self.rows!r}, "
            f"rowcount={self.rowcount!r}, status={self.status!r})"
        )

    def __len__(self) -> int:
        if self._rows is None:
            return len(self.values[0]) if self.values else 0
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def first(self) -> tuple | None:
        return self.rows[0] if self.rows else None

    def scalar(self) -> Any:
        """The single value of a 1x1 result, or None for an empty result."""
        if not self.rows:
            return None
        return self.rows[0][0]

    def to_dicts(self) -> list[dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def render(self, max_rows: int | None = None) -> str:
        """Plain-text rendering used in tool outputs (deterministic)."""
        if not self.columns:
            return self.status
        shown = self.rows if max_rows is None else self.rows[:max_rows]
        lines = [" | ".join(self.columns)]
        lines.append("-+-".join("-" * len(c) for c in self.columns))
        for row in shown:
            lines.append(
                " | ".join("NULL" if v is None else str(v) for v in row)
            )
        if max_rows is not None and len(self.rows) > max_rows:
            lines.append(f"... ({len(self.rows) - max_rows} more rows)")
        lines.append(f"({len(self.rows)} rows)")
        return "\n".join(lines)
