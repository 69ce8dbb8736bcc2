"""Command-line front end: the one way to run an experiment.

    python -m repro.bench fig5a --tasks 25 --scale 0.5
    python -m repro.bench table2 --out BENCH_table2.json
    python -m repro.bench all

Each run prints the experiment's report and then its gate's verdict; the
exit code is 1 when any gate failed. Every experiment is seeded and reads
no clock, so a run prints the same text every time. Nothing is written
unless ``--out`` names a history file to append the run to.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from . import ablations, reporting, runner


@dataclass(frozen=True)
class Experiment:
    """One row of the table: what to run, how big, how to print and gate it."""

    run: Callable[..., Any]
    render: Callable[[Any], str]
    #: ``check(result)`` -> one line per failed gate, [] when it passes
    check: Callable[[Any], list[str]]
    #: keyword sizes of a run
    size: dict[str, Any] = field(default_factory=dict)
    #: size keyword -> the command-line option that overrides it when given
    options: dict[str, str] = field(default_factory=dict)

    def sizes(self, args: argparse.Namespace) -> dict[str, Any]:
        sizes = dict(self.size)
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
        runner.experiment_fig5a, partial(reporting.render_fig5, "fig5a"),
        runner.check_fig5a,
        size=_PAPER, options=_TASKS,
    ),
    "fig5b": Experiment(
        runner.experiment_fig5b, partial(reporting.render_fig5, "fig5b"),
        runner.check_fig5b,
        size=_PAPER, options=_TASKS,
    ),
    "fig5c": Experiment(
        runner.experiment_fig5c, partial(reporting.render_fig5, "fig5c"),
        runner.check_fig5c,
        size=_PAPER, options=_TASKS,
    ),
    # fig6 and table1 print two views of one run; `all` makes it once
    "fig6": Experiment(
        runner.experiment_fig6_table1, reporting.render_fig6, runner.check_fig6,
        size=_PAPER, options=_TASKS,
    ),
    "table1": Experiment(
        runner.experiment_fig6_table1, reporting.render_table1, runner.check_table1,
        size=_PAPER, options=_TASKS,
    ),
    "table2": Experiment(
        runner.experiment_table2, reporting.render_table2, runner.check_table2,
        size={"per_level": 10, "housing_rows": 20_000},
        options={"models": "model", "housing_rows": "housing_rows"},
    ),
    "ablations": Experiment(
        ablations.experiment_ablations, reporting.render_ablations,
        ablations.check_ablations,
    ),
}

#: every size option some experiment maps (``argparse`` dest names)
_OPTIONS = {
    option
    for experiment in EXPERIMENTS.values()
    for option in experiment.options.values()
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.bench", description=__doc__)
    parser.add_argument(
        "experiment",
        choices=[*EXPERIMENTS, "all"],
        help="which result to regenerate and gate",
    )
    parser.add_argument(
        "--out", default=None,
        help="history file to append this run to (one experiment, not 'all')",
    )
    for flag, kind, text in (
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
    # an option is refused unless an experiment of this run maps it
    mapped = {
        option for name in names for option in EXPERIMENTS[name].options.values()
    }
    for option in sorted(_OPTIONS - mapped):
        if getattr(args, option) is not None:
            flag = "--" + option.replace("_", "-")
            parser.error(f"{flag} does not apply to {args.experiment}")
    results: dict[Callable[..., Any], Any] = {}
    failed = False
    for name in names:
        experiment = EXPERIMENTS[name]
        if experiment.run not in results:
            results[experiment.run] = experiment.run(**experiment.sizes(args))
        result = results[experiment.run]
        print(experiment.render(result))
        failures = experiment.check(result)
        for failure in failures:
            print(f"FAIL {name}: {failure}")
        if not failures:
            print(f"OK {name}: every gate holds")
        if args.out:
            reporting.record_bench_result(
                args.out,
                dict(result, experiment=name, passed=not failures, failures=failures),
            )
            print(f"recorded run in {args.out}")
        print()
        failed = failed or bool(failures)
    return 1 if failed else 0

