"""Command-line front end: the one way to run an experiment.

    python -m repro.bench fig5a --tasks 25 --scale 0.5
    python -m repro.bench storage --out BENCH_storage.json
    python -m repro.bench all --smoke

Each run prints the experiment's report and then its gate's verdict; the
exit code is 1 when any gate failed. Nothing is written unless ``--out``
names a history file to append the run to.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Any, Callable

from . import (
    ablations, concurrency, fault_recovery as faults, join_scale as joins,
    observability as obs, query_scale as query, reporting,
    retrieval_scale as retrieval, runner, storage_durability as storage,
)


@dataclass(frozen=True)
class Experiment:
    """One row of the table: what to run, how big, how to print and gate it."""

    run: Callable[..., Any]
    render: Callable[[Any], str]
    #: ``check(result, smoke)`` -> one line per failed gate, [] when it passes
    check: Callable[[Any, bool], list[str]]
    #: keyword sizes of a full run, and of a CI-sized one (None: the same)
    full: dict[str, Any] = field(default_factory=dict)
    smoke: dict[str, Any] | None = None
    #: size keyword -> the command-line option that overrides it when given
    options: dict[str, str] = field(default_factory=dict)

    def sizes(self, args: argparse.Namespace) -> dict[str, Any]:
        sizes = dict(self.smoke if args.smoke and self.smoke else self.full)
        for keyword, option in self.options.items():
            if getattr(args, option) is not None:
                sizes[keyword] = getattr(args, option)
        return sizes


_PAPER = {"n_tasks": 25, "scale": 0.5}
_TASKS = {"models": "model", "n_tasks": "tasks", "scale": "scale"}

EXPERIMENTS: dict[str, Experiment] = {
    # the paper's figures and tables: the simulated agents are seeded, so
    # one size serves a full run and CI alike
    "fig5a": Experiment(
        runner.experiment_fig5a, reporting.render_fig5a, runner.check_fig5a,
        full=_PAPER, options=_TASKS,
    ),
    "fig5b": Experiment(
        runner.experiment_fig5b, reporting.render_fig5b, runner.check_fig5b,
        full=_PAPER, options=_TASKS,
    ),
    "fig5c": Experiment(
        runner.experiment_fig5c, reporting.render_fig5c, runner.check_fig5c,
        full=_PAPER, options=_TASKS,
    ),
    # fig6 and table1 print two views of one run; `all` makes it once
    "fig6": Experiment(
        runner.experiment_fig6_table1, reporting.render_fig6, runner.check_fig6,
        full=_PAPER, options=_TASKS,
    ),
    "table1": Experiment(
        runner.experiment_fig6_table1, reporting.render_table1, runner.check_table1,
        full=_PAPER, options=_TASKS,
    ),
    "table2": Experiment(
        runner.experiment_table2, reporting.render_table2, runner.check_table2,
        full={"per_level": 10, "housing_rows": 20_000},
        options={"models": "model", "housing_rows": "housing_rows"},
    ),
    "ablations": Experiment(
        ablations.experiment_ablations, reporting.render_ablations,
        ablations.check_ablations,
    ),
    # the scale experiments: timings against a forced baseline
    "joins": Experiment(
        joins.experiment_join_scale, reporting.render_join_scale,
        joins.check_join_scale,
        full={"rows": 10_000, "nl_rows": 1_000}, smoke={"rows": 500, "nl_rows": 500},
    ),
    "retrieval": Experiment(
        retrieval.experiment_retrieval_scale, reporting.render_retrieval_scale,
        retrieval.check_retrieval_scale,
        full={"distinct": 100_000, "brute_distinct": 5_000},
        smoke={"distinct": 4_000, "brute_distinct": 4_000},
    ),
    "storage": Experiment(
        storage.experiment_storage_durability, reporting.render_storage_durability,
        storage.check_storage_durability,
        full={"rows": 100_000}, smoke={"rows": 10_000},
    ),
    "concurrency": Experiment(
        concurrency.experiment_concurrency, reporting.render_concurrency,
        concurrency.check_concurrency,
        full={
            "sessions": 8, "workers": 8, "ops_per_session": 40, "rows": 10_000,
            "io_delay_ms": 8.0, "writer_sessions": 6, "increments_per_session": 20,
        },
        smoke={
            "sessions": 4, "workers": 4, "ops_per_session": 15, "rows": 2_000,
            "io_delay_ms": 8.0, "writer_sessions": 4, "increments_per_session": 8,
        },
    ),
    "query": Experiment(
        query.experiment_query_scale, reporting.render_query_scale,
        query.check_query_scale,
        full={"rows": 100_000}, smoke={"rows": 10_000}, options={"rows": "rows"},
    ),
    "faults": Experiment(
        faults.experiment_fault_recovery, reporting.render_faults,
        faults.check_fault_recovery,
        full={
            "seam_cycles": 20_000, "torture_rows": 20, "torture_stride": 3,
            "writer_sessions": 4, "increments_per_session": 8,
        },
        smoke={
            "seam_cycles": 8_000, "torture_rows": 10, "torture_stride": 4,
            "writer_sessions": 3, "increments_per_session": 5,
        },
    ),
    "obs": Experiment(
        obs.experiment_observability, reporting.render_observability,
        obs.check_observability,
        full={"statements": 600, "rows": 2_000, "repeats": 5},
        smoke={"statements": 300, "rows": 1_000, "repeats": 4},
    ),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.bench", description=__doc__)
    parser.add_argument(
        "experiment",
        choices=[*EXPERIMENTS, "all"],
        help="which result to regenerate and gate",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized scale experiments, gated at their smoke floors",
    )
    parser.add_argument(
        "--out", default=None,
        help="history file to append this run to (one experiment, not 'all')",
    )
    for flag, kind, text in (
        ("--rows", int, "rows in the query experiment's table (default 100000)"),
        ("--tasks", int, "tasks per cell (default 25)"),
        ("--scale", float, "database scale (default 0.5)"),
        ("--housing-rows", int, "NL2ML table size (default 20000, the paper's)"),
    ):
        parser.add_argument(flag, type=kind, default=None, help=text)
    parser.add_argument(
        "--model", action="append", choices=["gpt-4o", "claude-4"], default=None,
        help="restrict to one or more simulated models",
    )
    args = parser.parse_args(argv)
    if args.out and args.experiment == "all":
        parser.error("--out records one experiment; name it instead of 'all'")

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    results: dict[Callable[..., Any], Any] = {}
    failed = False
    for name in names:
        experiment = EXPERIMENTS[name]
        if experiment.run not in results:
            results[experiment.run] = experiment.run(**experiment.sizes(args))
        result = results[experiment.run]
        print(experiment.render(result))
        failures = experiment.check(result, args.smoke)
        for failure in failures:
            print(f"FAIL {name}: {failure}")
        if not failures:
            print(f"OK {name}: every gate holds")
        if args.out:
            reporting.record_bench_result(
                args.out,
                dict(
                    result, experiment=name, smoke=args.smoke,
                    passed=not failures, failures=failures,
                ),
            )
            print(f"recorded run in {args.out}")
        print()
        failed = failed or bool(failures)
    return 1 if failed else 0

