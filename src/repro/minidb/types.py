"""SQL value types and coercion rules for minidb.

minidb supports a compact but practical type system:

``INTEGER`` (aliases INT, BIGINT, SMALLINT), ``FLOAT`` (REAL, DOUBLE,
NUMERIC, DECIMAL), ``TEXT`` (VARCHAR/CHAR with optional length), ``BOOLEAN``
and ``DATE`` (stored as ISO-8601 strings, compared lexicographically, which
is order-correct for ISO dates).

``NULL`` is represented by Python ``None`` and follows SQL three-valued
logic in the expression evaluator.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any

from .errors import TypeMismatchError

_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")


class _CoercionFailure(ValueError):
    """Internal signal: a ``_coerce_*`` helper rejected the value.

    A ``ValueError`` subclass so it funnels through the same ``except``
    as the failures ``int()``/``float()`` raise natively, while staying
    out of the public error taxonomy — it never escapes this module
    (``coerce_value`` converts it to :class:`TypeMismatchError`).
    """


#: canonical type names
INTEGER = "INTEGER"
FLOAT = "FLOAT"
TEXT = "TEXT"
BOOLEAN = "BOOLEAN"
DATE = "DATE"

_CANONICAL = {
    "INT": INTEGER,
    "INTEGER": INTEGER,
    "BIGINT": INTEGER,
    "SMALLINT": INTEGER,
    "SERIAL": INTEGER,
    "FLOAT": FLOAT,
    "REAL": FLOAT,
    "DOUBLE": FLOAT,
    "NUMERIC": FLOAT,
    "DECIMAL": FLOAT,
    "TEXT": TEXT,
    "VARCHAR": TEXT,
    "CHAR": TEXT,
    "STRING": TEXT,
    "BOOLEAN": BOOLEAN,
    "BOOL": BOOLEAN,
    "DATE": DATE,
    "TIMESTAMP": DATE,
    "DATETIME": DATE,
}


def canonical_type(name: str) -> str:
    """Map a declared SQL type name to its canonical minidb type.

    Raises :class:`TypeMismatchError` for unknown type names.
    """
    base = name.strip().upper()
    # strip a parenthesised length, e.g. VARCHAR(255)
    if "(" in base:
        base = base[: base.index("(")].strip()
    try:
        return _CANONICAL[base]
    except KeyError:
        raise TypeMismatchError(f"unknown SQL type: {name!r}") from None


@dataclass(frozen=True)
class ColumnType:
    """A resolved column type with optional length limit (for VARCHAR(n))."""

    name: str
    length: int | None = None

    @classmethod
    def parse(cls, declared: str) -> "ColumnType":
        """Parse a declared type like ``VARCHAR(40)`` into a ColumnType."""
        canon = canonical_type(declared)
        length = None
        match = re.search(r"\((\d+)\)", declared)
        if match and canon is TEXT:
            length = int(match.group(1))
        return cls(canon, length)

    def __str__(self) -> str:
        if self.length is not None:
            return f"{self.name}({self.length})"
        return self.name


def coerce(value: Any, ctype: ColumnType | str, column: str = "?") -> Any:
    """Coerce ``value`` to column type ``ctype``.

    Follows lenient SQL semantics: integers widen to floats, numeric
    strings parse, ints 0/1 convert to booleans. ``None`` passes through
    (NULL is typeless). Raises :class:`TypeMismatchError` when the value
    cannot represent the target type.
    """
    if value is None:
        return None
    name = ctype.name if isinstance(ctype, ColumnType) else ctype
    try:
        if name == INTEGER:
            return _coerce_integer(value)
        if name == FLOAT:
            return _coerce_float(value)
        if name == BOOLEAN:
            return _coerce_boolean(value)
        if name == DATE:
            return _coerce_date(value)
        if name == TEXT:
            text = _coerce_text(value)
            limit = ctype.length if isinstance(ctype, ColumnType) else None
            if limit is not None and len(text) > limit:
                raise TypeMismatchError(
                    f"value too long for {ctype} in column {column!r}"
                )
            return text
    except TypeMismatchError:
        raise
    except (ValueError, TypeError):
        pass
    raise TypeMismatchError(
        f"cannot coerce {value!r} to {name} for column {column!r}"
    )


def _coerce_integer(value: Any) -> int:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if value.is_integer():
            return int(value)
        raise _CoercionFailure(value)
    if isinstance(value, str):
        return int(value.strip())
    raise _CoercionFailure(value)


def _coerce_float(value: Any) -> float:
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        return float(value.strip())
    raise _CoercionFailure(value)


def _coerce_boolean(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, int) and value in (0, 1):
        return bool(value)
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("t", "true", "yes", "on", "1"):
            return True
        if lowered in ("f", "false", "no", "off", "0"):
            return False
    raise _CoercionFailure(value)


def _coerce_date(value: Any) -> str:
    if isinstance(value, str):
        text = value.strip()
        # accept full timestamps but keep them verbatim
        if _DATE_RE.match(text[:10]):
            return text
    raise _CoercionFailure(value)


def _coerce_text(value: Any) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return str(value)
    raise _CoercionFailure(value)
