"""What the experiments' gates and overhead measurements are made of.

A gate is ``check(result, smoke) -> list[str]``: one line per expectation
the result misses, ``[]`` when it passes. It lives beside the measurement
it judges; ``python -m repro.bench`` prints the lines and exits 1 on any.
"""

from __future__ import annotations

import gc
import operator
import time
from typing import Any, Callable, Iterable

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


def best_cpu_seconds(
    variants: dict[str, Callable[[], None]], repeats: int
) -> dict[str, float]:
    """Best-of-``repeats`` CPU seconds per variant, interleaved, and who
    goes first rotates: a monotonic slowdown (thermal, page-cache growth)
    otherwise biases against the later ones. CPU time, not wall: the loops
    are CPU-bound, and ``process_time`` is blind to the scheduler noise of
    a busy host that would swamp a few-percent gate."""
    best = {name: float("inf") for name in variants}
    order = list(variants.items())
    for round_no in range(repeats):
        shift = round_no % len(order)
        for name, run in order[shift:] + order[:shift]:
            gc.collect()
            started = time.process_time()
            run()
            best[name] = min(best[name], time.process_time() - started)
    return best


def remeasure_until_under(
    measure: Callable[[], dict[str, Any]], key: str, ceiling: float, attempts: int = 3
) -> dict[str, Any]:
    """``measure()``, repeated while ``key`` reads over ``ceiling``; the
    lowest reading wins and carries the count as ``measurements``. A
    few-percent ceiling on a noisy host must not fail on one scheduler
    burst: each measurement is already best-of-N, and only a miss on every
    attempt says the code itself costs too much."""
    best = measure()
    tries = 1
    while best[key] > ceiling and tries < attempts:
        tries += 1
        again = measure()
        if again[key] < best[key]:
            best = again
    best["measurements"] = tries
    return best
