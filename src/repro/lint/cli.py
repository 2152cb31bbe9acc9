"""``repro lint`` — the command line of the static analysis pass.

Mounted as a subcommand of the unified ``python -m repro`` CLI, the one
entry point (CI runs ``python -m repro lint --strict``).  Exit code 0 means
clean: no unwaived errors (and, under ``--strict``, no unwaived warnings
either); 2 means an unknown rule ID.
"""

from __future__ import annotations

import argparse
from typing import Any

from repro.lint.findings import Report
from repro.lint.rules import rule_table
from repro.lint.runner import run_lint

__all__ = ["add_lint_arguments", "command_lint", "register_lint_command"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the ``repro lint`` flags on ``parser``."""
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help=(
            "files or directories to lint (default: the installed repro "
            "package tree)"
        ),
    )
    parser.add_argument(
        "--json",
        dest="json_out",
        metavar="FILE",
        help="write the full findings report (waived included) as JSON",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also fail on warnings (unused waivers)",
    )
    parser.add_argument(
        "--rules",
        metavar="ID[,ID...]",
        help="restrict the run to the given rule IDs",
    )
    parser.add_argument(
        "--show-waived",
        action="store_true",
        help="print waived findings (with their justifications) too",
    )
    parser.add_argument(
        "--flow-graph",
        dest="flow_graph",
        metavar="FILE",
        help=(
            "write the interprocedural call graph and effect summaries "
            "(the FLW evidence) as JSON"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )


def _print_rule_table() -> None:
    width = max(len(row["id"]) for row in rule_table())
    for row in rule_table():
        severity = "" if row["severity"] == "error" else " (warning)"
        print(f"{row['id'].ljust(width)}  {row['title']}{severity}")
        print(f"{' ' * width}    {row['rationale']}")


def _print_report(report: Report, show_waived: bool) -> None:
    for finding in report.findings:
        if finding.waived and not show_waived:
            continue
        print(finding.format())
    print(report.summary())


def command_lint(args: argparse.Namespace) -> int:
    """Handler behind ``repro lint``."""
    if args.list_rules:
        _print_rule_table()
        return 0
    rules = None
    if args.rules:
        rules = [token.strip() for token in args.rules.split(",") if token.strip()]
    try:
        report = run_lint(
            args.paths or None, rules=rules, flow_graph_path=args.flow_graph
        )
    except ValueError as error:
        print(error)
        return 2
    _print_report(report, show_waived=args.show_waived)
    if args.json_out:
        report.write_json(args.json_out)
        print(f"findings written to {args.json_out}")
    if args.flow_graph:
        print(f"flow graph written to {args.flow_graph}")
    return report.exit_code(strict=args.strict)


def register_lint_command(subparsers: Any) -> None:
    """Mount ``lint`` on the unified CLI's subparser collection."""
    parser = subparsers.add_parser(
        "lint",
        help="determinism-aware static analysis over the source tree",
        description=(
            "AST-based static analysis proving the determinism and purity "
            "invariants the parity harness samples dynamically: no "
            "wall-clock/entropy reads, RNG construction only at sanctioned "
            "derivation sites, no raw set iteration in hot paths and the "
            "ParameterError contract in registries — plus the "
            "interprocedural FLW flow pass proving RNG-stream lineage, "
            "plane separation, the declared determinism classes and "
            "module-state-free catalogue-bound classes over the "
            "whole-package call graph.  Waive single lines with "
            "'# repro-lint: allow[RULE-ID] -- justification'."
        ),
    )
    parser.set_defaults(handler=command_lint)
    add_lint_arguments(parser)
