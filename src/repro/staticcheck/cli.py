"""``python -m repro.staticcheck`` — the CI gate and the developer loop.

Exit codes: ``0`` clean, ``1`` at least one finding (a finding is
accepted only by a suppression comment with its reason), ``2`` usage or
framework error. Formats: ``text``
(developer terminal, one line per finding plus a summary) and ``github``
(``::error file=...`` workflow annotations, one per finding, so the CI
gate highlights the offending lines in the PR diff).
"""

from __future__ import annotations

import argparse
import os
import sys

from .core import MiniStaticError, all_checkers
from .runner import run_paths


def _default_paths() -> "list[str]":
    if os.path.isdir(os.path.join("src", "repro")):
        return [os.path.join("src", "repro")]
    return ["."]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.staticcheck",
        description=(
            "Invariant-enforcing static analysis: lock discipline, "
            "encapsulation, condition waits, WAL pairing, error taxonomy, "
            "broad-except hygiene."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to analyze (default: src/repro if present)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "github"),
        default="text",
        help="finding output format (github = workflow annotations)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="NAME",
        help="run only this rule (repeatable)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also list findings silenced by suppression comments",
    )
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for name, cls in sorted(all_checkers().items()):
            print(f"{name:16s} {cls.description}")
        return 0

    paths = args.paths or _default_paths()
    try:
        result = run_paths(paths)
        if args.rules:
            # run everything, filter after: suppression-format findings
            # must never be filtered out by a --rule selection
            keep = set(args.rules) | {"suppression-format", "parse-error"}
            unknown = sorted(set(args.rules) - set(all_checkers()))
            if unknown:
                raise MiniStaticError(
                    f"unknown rule(s): {', '.join(unknown)}"
                )
            result.findings = [f for f in result.findings if f.rule in keep]
            result.suppressed = [f for f in result.suppressed if f.rule in keep]
    except MiniStaticError as exc:
        print(f"staticcheck: error: {exc}", file=sys.stderr)
        return 2

    for finding in result.findings:
        if args.format == "github":
            message = finding.message.replace("\n", " ")
            print(
                f"::error file={finding.path},line={finding.line},"
                f"title=staticcheck[{finding.rule}]::{message}"
            )
        else:
            print(finding.render())
    if args.show_suppressed:
        for finding in result.suppressed:
            print(f"suppressed: {finding.render()}")

    if args.format == "text":
        summary = (
            f"{result.files_checked} files checked, "
            f"{len(result.findings)} finding(s), "
            f"{len(result.suppressed)} suppressed"
        )
        print(summary)
    return 1 if result.findings else 0
