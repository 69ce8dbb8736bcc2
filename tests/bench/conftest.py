"""Experiment results at test size, computed once per session.

The render tests and the gate tests both want a *real* result of every
experiment in ``repro.bench.cli.EXPERIMENTS`` (its shape is what they pin),
at sizes small enough for tier 1.
"""

import pytest

from repro.bench.cli import EXPERIMENTS

TINY_SIZES = {
    "fig5a": dict(n_tasks=4, scale=0.3),
    "fig5b": dict(n_tasks=4, scale=0.3),
    "fig5c": dict(n_tasks=4, scale=0.3),
    "fig6": dict(n_tasks=4, scale=0.3),
    "table1": dict(n_tasks=4, scale=0.3),
    "table2": dict(per_level=2, housing_rows=500),
    "ablations": dict(scale=0.3),
    "joins": dict(rows=500, nl_rows=500),
    "retrieval": dict(distinct=2_000, brute_distinct=2_000),
    "storage": dict(rows=2_000),
    "concurrency": dict(
        sessions=2, workers=2, ops_per_session=5, rows=500, io_delay_ms=1.0,
        writer_sessions=2, increments_per_session=3,
    ),
    "query": dict(rows=2_000),
    "faults": dict(
        seam_cycles=200, torture_rows=8, writer_sessions=4,
        increments_per_session=4,
    ),
    "obs": dict(statements=50, rows=200, repeats=2),
}


@pytest.fixture(scope="session")
def tiny_result():
    """``tiny_result(name)`` -> that experiment's result at ``TINY_SIZES``."""
    cache = {}

    def get(name):
        run = EXPERIMENTS[name].run
        if run not in cache:  # fig6 and table1 are two views of one run
            cache[run] = run(**TINY_SIZES[name])
        return cache[run]

    return get
