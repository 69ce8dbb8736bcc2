"""Builtin SQL functions for minidb.

Two families:

* **Scalar functions** — evaluated per row by the expression evaluator.
  Each takes a list of already-evaluated argument values. Most follow SQL
  NULL propagation (NULL in → NULL out) except where SQL says otherwise
  (COALESCE, NULLIF, CONCAT treating NULL as empty would be MySQL-ish; we
  follow PostgreSQL and propagate).
* **Aggregate functions** — implemented as accumulator classes consumed by
  the executor's GROUP BY machinery.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from .errors import DivisionByZeroError, ExecutionError

# --------------------------------------------------------------------------
# scalar functions
# --------------------------------------------------------------------------


def _nullprop(fn: Callable[..., Any]) -> Callable[[list[Any]], Any]:
    """Wrap ``fn`` so that any NULL argument yields NULL; arguments ``fn``
    cannot take (too many, too few, of a type it refuses) raise an
    :class:`ExecutionError`."""

    def wrapper(args: list[Any]) -> Any:
        if any(a is None for a in args):
            return None
        try:
            return fn(*args)
        except TypeError as exc:
            raise ExecutionError(f"invalid function arguments: {exc}") from None

    return wrapper


def _arity(name: str, args: list[Any], low: int, high: int | None = None) -> None:
    high = low if high is None else high
    if not (low <= len(args) <= high):
        raise ExecutionError(
            f"{name}() expects {low}"
            + (f"..{high}" if high != low else "")
            + f" arguments, got {len(args)}"
        )


def sql_mod(left: Any, right: Any) -> Any:
    """``left % right`` and ``MOD(left, right)``: the remainder of SQL's
    truncating division. It takes the sign of the dividend (PostgreSQL,
    sqlite), where Python's ``%`` takes the divisor's."""
    for value in (left, right):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ExecutionError(
                f"operator % requires a numeric operand, got {value!r}"
            )
    if right == 0:
        raise DivisionByZeroError("division by zero")
    if isinstance(left, int) and isinstance(right, int):
        remainder = abs(left) % abs(right)
        return -remainder if left < 0 else remainder
    return math.fmod(left, right)


def _fn_coalesce(args: list[Any]) -> Any:
    for value in args:
        if value is not None:
            return value
    return None


def _fn_nullif(args: list[Any]) -> Any:
    _arity("NULLIF", args, 2)
    left, right = args
    if left is not None and right is not None and left == right:
        return None
    return left


def _fn_round(args: list[Any]) -> Any:
    _arity("ROUND", args, 1, 2)
    if args[0] is None:
        return None
    digits = 0 if len(args) == 1 else args[1]
    if digits is None:
        return None
    result = round(float(args[0]), int(digits))
    return int(result) if digits == 0 else result


def _fn_substr(args: list[Any]) -> Any:
    _arity("SUBSTR", args, 2, 3)
    if any(a is None for a in args):
        return None
    text = str(args[0])
    start = int(args[1])  # SQL is 1-based
    begin = max(start - 1, 0)
    if len(args) == 3:
        length = int(args[2])
        if length < 0:
            raise ExecutionError("SUBSTR() length must be non-negative")
        return text[begin : begin + length]
    return text[begin:]


def _fn_concat(args: list[Any]) -> Any:
    # PostgreSQL CONCAT skips NULLs
    return "".join(str(a) for a in args if a is not None)


def _fn_replace(text: str, old: str, new: str) -> str:
    return str(text).replace(str(old), str(new))


def _fn_power(base: float, exponent: float) -> float:
    return float(base) ** float(exponent)


def _fn_sqrt(value: float) -> float:
    if value < 0:
        raise ExecutionError("SQRT() of a negative number")
    return math.sqrt(value)


def _fn_ln(value: float) -> float:
    if value <= 0:
        raise ExecutionError("LN() of a non-positive number")
    return math.log(value)


def _fn_sign(value: float) -> int:
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


def _fn_instr(haystack: str, needle: str) -> int:
    return str(haystack).find(str(needle)) + 1


def _fn_date_part(part: str, date_text: str) -> int:
    """EXTRACT-style helper over ISO date strings (YYYY-MM-DD...)."""
    part = str(part).lower()
    text = str(date_text)
    try:
        if part == "year":
            return int(text[0:4])
        if part == "month":
            return int(text[5:7])
        if part == "day":
            return int(text[8:10])
    except ValueError:
        raise ExecutionError(f"malformed date {date_text!r}") from None
    raise ExecutionError(f"unsupported date part {part!r}")


SCALAR_FUNCTIONS: dict[str, Callable[[list[Any]], Any]] = {
    "UPPER": _nullprop(lambda s: str(s).upper()),
    "LOWER": _nullprop(lambda s: str(s).lower()),
    "LENGTH": _nullprop(lambda s: len(str(s))),
    "TRIM": _nullprop(lambda s: str(s).strip()),
    "LTRIM": _nullprop(lambda s: str(s).lstrip()),
    "RTRIM": _nullprop(lambda s: str(s).rstrip()),
    "ABS": _nullprop(abs),
    "CEIL": _nullprop(lambda x: math.ceil(x)),
    "CEILING": _nullprop(lambda x: math.ceil(x)),
    "FLOOR": _nullprop(lambda x: math.floor(x)),
    "SQRT": _nullprop(_fn_sqrt),
    "POWER": _nullprop(_fn_power),
    "POW": _nullprop(_fn_power),
    "EXP": _nullprop(lambda x: math.exp(x)),
    "LN": _nullprop(_fn_ln),
    "MOD": _nullprop(sql_mod),
    "SIGN": _nullprop(_fn_sign),
    "REPLACE": _nullprop(_fn_replace),
    "INSTR": _nullprop(_fn_instr),
    "REVERSE": _nullprop(lambda s: str(s)[::-1]),
    "DATE_PART": _nullprop(_fn_date_part),
    "ROUND": _fn_round,
    "SUBSTR": _fn_substr,
    "SUBSTRING": _fn_substr,
    "COALESCE": _fn_coalesce,
    "IFNULL": _fn_coalesce,
    "NULLIF": _fn_nullif,
    "CONCAT": _fn_concat,
}


# --------------------------------------------------------------------------
# aggregate functions
# --------------------------------------------------------------------------

AGGREGATE_NAMES = frozenset(
    {"COUNT", "SUM", "AVG", "MIN", "MAX", "STDDEV", "VARIANCE", "GROUP_CONCAT"}
)


class Aggregate:
    """Accumulator protocol: feed values with :meth:`add`, read :meth:`result`."""

    def __init__(self, distinct: bool = False):
        self.distinct = distinct
        self._seen: set[Any] | None = set() if distinct else None

    def _admit(self, value: Any) -> bool:
        """Distinct filtering; returns whether the value should be counted."""
        if self._seen is None:
            return True
        if value in self._seen:
            return False
        self._seen.add(value)
        return True

    def add(self, value: Any) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def result(self) -> Any:  # pragma: no cover - abstract
        raise NotImplementedError


class CountAggregate(Aggregate):
    """COUNT(expr) — counts non-NULL values. COUNT(*) feeds a sentinel."""

    def __init__(self, distinct: bool = False):
        super().__init__(distinct)
        self.count = 0

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self._admit(value):
            self.count += 1

    def result(self) -> int:
        return self.count


class SumAggregate(Aggregate):
    def __init__(self, distinct: bool = False):
        super().__init__(distinct)
        self.total: float | int | None = None

    def add(self, value: Any) -> None:
        if value is None or not self._admit(value):
            return
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ExecutionError(f"SUM() requires numeric input, got {value!r}")
        self.total = value if self.total is None else self.total + value

    def result(self) -> Any:
        return self.total


class AvgAggregate(Aggregate):
    def __init__(self, distinct: bool = False):
        super().__init__(distinct)
        self.total = 0.0
        self.count = 0

    def add(self, value: Any) -> None:
        if value is None or not self._admit(value):
            return
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ExecutionError(f"AVG() requires numeric input, got {value!r}")
        self.total += value
        self.count += 1

    def result(self) -> float | None:
        if self.count == 0:
            return None
        return self.total / self.count


class MinAggregate(Aggregate):
    def __init__(self, distinct: bool = False):
        super().__init__(distinct)
        self.best: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self.best is None or value < self.best:
            self.best = value

    def result(self) -> Any:
        return self.best


class MaxAggregate(Aggregate):
    def __init__(self, distinct: bool = False):
        super().__init__(distinct)
        self.best: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self.best is None or value > self.best:
            self.best = value

    def result(self) -> Any:
        return self.best


class StddevAggregate(Aggregate):
    """Sample standard deviation (matches PostgreSQL's STDDEV)."""

    def __init__(self, distinct: bool = False, variance: bool = False):
        super().__init__(distinct)
        self.values: list[float] = []
        self.variance_only = variance

    def add(self, value: Any) -> None:
        if value is None or not self._admit(value):
            return
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ExecutionError(f"STDDEV() requires numeric input, got {value!r}")
        self.values.append(float(value))

    def result(self) -> float | None:
        n = len(self.values)
        if n < 2:
            return None
        mean = sum(self.values) / n
        variance = sum((v - mean) ** 2 for v in self.values) / (n - 1)
        return variance if self.variance_only else math.sqrt(variance)


class GroupConcatAggregate(Aggregate):
    def __init__(self, distinct: bool = False, separator: str = ","):
        super().__init__(distinct)
        self.parts: list[str] = []
        self.separator = separator

    def add(self, value: Any) -> None:
        if value is None or not self._admit(value):
            return
        self.parts.append(str(value))

    def result(self) -> str | None:
        if not self.parts:
            return None
        return self.separator.join(self.parts)


def make_aggregate(name: str, distinct: bool) -> Aggregate:
    """Instantiate the accumulator for aggregate function ``name``."""
    if name == "COUNT":
        return CountAggregate(distinct)
    if name == "SUM":
        return SumAggregate(distinct)
    if name == "AVG":
        return AvgAggregate(distinct)
    if name == "MIN":
        return MinAggregate(distinct)
    if name == "MAX":
        return MaxAggregate(distinct)
    if name == "STDDEV":
        return StddevAggregate(distinct)
    if name == "VARIANCE":
        return StddevAggregate(distinct, variance=True)
    if name == "GROUP_CONCAT":
        return GroupConcatAggregate(distinct)
    raise ExecutionError(f"unknown aggregate function {name}()")
