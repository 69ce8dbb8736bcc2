"""What the experiments' gates are made of.

A gate is ``check(result) -> list[str]``: one line per expectation the
result misses, ``[]`` when it passes. It lives beside the measurement it
judges; ``python -m repro.bench`` prints the lines and exits 1 on any.
"""

from __future__ import annotations

import operator
from typing import Any, Iterable

Expectation = tuple[bool, str]

_HOLDS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
          ">=": operator.ge, "==": operator.eq}


def expect(what: str, value: Any, op: str, bound: Any) -> Expectation:
    """``value op bound``, worded ``"<what> <value> is not <op> <bound>"``."""
    shown = [f"{v:.4g}" if isinstance(v, float) else str(v) for v in (value, bound)]
    return _HOLDS[op](value, bound), f"{what} {shown[0]} is not {op} {shown[1]}"


def failed(expectations: Iterable[Expectation]) -> list[str]:
    """The messages of the expectations that do not hold."""
    return [message for holds, message in expectations if not holds]
