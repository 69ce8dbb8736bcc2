"""Names, units and bounds of every metric, and the frozen sizing constants.

The metric and workload tables are read from ``BENCHMARK.json`` at the
repository root, the one place that states them.
"""

from __future__ import annotations

import json
import os
from typing import NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: share of the parent's median by which the metric may worsen (gated
    #: end-to-end metrics only; per-layer metrics carry ``None``)
    bound: float | None = None


with open(
    os.path.join(os.path.dirname(__file__), "..", "..", "..", "BENCHMARK.json"),
    encoding="utf-8",
) as _fh:
    _MANIFEST = json.load(_fh)

#: reported per workload from the *untraced* run. ``failed_share`` is the
#: eighth end-to-end number; it is expected to be exactly 0, so it travels
#: as ``failed``/``attempted`` in the run's result line instead of being a
#: bounded metric (any increase is a regression, see ``compare``).
END_TO_END = [Metric(**metric) for metric in _MANIFEST["end_to_end"]]

#: reported per workload from the *traced* run; layers are module names.
PER_LAYER = [Metric(**metric) for metric in _MANIFEST["per_layer"]]

#: one line per workload: why it exists
WORKLOADS = {workload["name"]: workload["why"] for workload in _MANIFEST["workloads"]}

#: seconds one driver run measures
RUN_SECONDS = _MANIFEST["run_seconds"]

#: the reference-speed probe (``harness.Probe``): one pass scans PROBE_SLICE
#: of PROBE_ROWS shuffled rows (about a quarter of its time) and tokenises
#: PROBE_TEXTS SQL texts (the rest). A client makes a pass between two
#: episodes whenever PROBE_INTERVAL_NS have passed since its last one (about
#: 1% of the run) and around every build of the database; what ran between
#: two passes is divided by their mean over PROBE_NOMINAL_NS — what a pass
#: takes on this box (Xeon @ 2.1 GHz, CPython 3.11) when nothing disturbs it.
PROBE_ROWS = 60_000
PROBE_SLICE = 300
PROBE_TEXTS = 72
PROBE_INTERVAL_NS = 100_000_000
PROBE_NOMINAL_NS = 900_000

#: ``peak_rss_mb`` is read once the measured phase has played this many
#: times the warm-up's episodes (about half of what the seed commit finishes
#: in RUN_SECONDS): after a fixed amount of work, because tables, WAL and
#: checkpoints grow with the work done, and a run on a faster hour does more
RSS_AFTER_WARMUPS = 10

#: a traced run alternates untraced and traced slices this many times; the
#: untraced slices take REFERENCE_SHARE of the measuring time and are the
#: reference for ``trace.overhead_share``
TRACE_CYCLES = 4
REFERENCE_SHARE = 0.25

#: frozen sizes. ``warmup`` episodes run untimed before measuring (about 5%
#: of what the seed commit finishes in RUN_SECONDS); ``cap`` is how many
#: episodes are scripted per client before timing starts (about twice that
#: count, so a run that gets 2x faster still has work); ``setups`` is how
#: often the database is built per run (``setup_s`` is their median).
FULL = {
    "setups": 5,
    "oltp_durable": {
        "plans": 1000, "tasks_per_plan": 20, "credentials": 50,
        "warmup": 800, "cap": 40000,
    },
    "service_contended": {
        "plans": 1000, "tasks_per_plan": 20, "credentials": 50,
        "hot_plans": 50,
        "warmup": 100, "cap": 12000,
    },
    "context_retrieval": {
        "personas": 12000, "cities": 400, "archetypes": 24,
        "dim_tables": 20, "dim_columns": 8, "dim_rows": 40,
        "warmup": 20, "cap": 1500,
    },
    "analytic_proxy": {
        "personas": 800, "signals": 10000,
        "warmup": 15, "cap": 1200,
    },
}

#: sizes for the tier-1 smoke test (whole suite in a few seconds)
SMOKE = {
    "setups": 1,
    "oltp_durable": {
        "plans": 40, "tasks_per_plan": 10, "credentials": 5,
        "auto_checkpoint_records": 40,
        "warmup": 10, "cap": 400,
    },
    "service_contended": {
        "plans": 40, "tasks_per_plan": 10, "credentials": 5,
        "hot_plans": 8, "auto_checkpoint_records": 40,
        "warmup": 4, "cap": 200,
    },
    "context_retrieval": {
        "personas": 600, "cities": 30, "archetypes": 8,
        "dim_tables": 20, "dim_columns": 8, "dim_rows": 6,
        "warmup": 6, "cap": 200,
    },
    "analytic_proxy": {
        "personas": 60, "signals": 500,
        "warmup": 4, "cap": 200,
    },
}
