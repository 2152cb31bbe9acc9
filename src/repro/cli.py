"""The unified ``repro`` command line — one front door for everything.

Installed as the ``repro`` console script and runnable as ``python -m
repro``.  Subcommands:

========== ==================================================================
``run``        run one campaign grid (algorithms x adversaries x faults)
               and print a stabilisation summary: ``campaign define`` +
               ``campaign run`` + ``summarize`` in one process, with the
               same grid flags
``campaign``   ``define`` / ``run`` / ``resume`` / ``summarize`` — the
               campaign engine commands (:mod:`repro.campaigns.cli`)
``experiment`` regenerate a paper artefact: ``table1``, ``table2``,
               ``figure1``, ``figure2``, ``scaling``, ``pulling``,
               ``ablation``
``list``       discover algorithms, adversaries, fault schedules and
               experiments with one-line descriptions (read straight from
               the semantics catalogue)
``verify``     exhaustively model-check a catalogue algorithm
               (Section 2 definition of a synchronous counter), then run
               the static-analysis pass over the installed tree
``lint``       determinism-aware static analysis (:mod:`repro.lint`):
               prove the invariants the parity harness only samples
========== ==================================================================

All help and description strings are explicit literals, so the CLI works
under ``python -OO`` (docstrings stripped).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro._version import __version__
from repro.campaigns.cli import (
    add_grid_arguments,
    campaign_from_args,
    dispatch,
    parse_algorithm,
    parse_group_by,
    parse_num_faults,
    print_progress,
    register_commands,
)
from repro.campaigns.executor import default_executor
from repro.campaigns.results import CampaignStore, summarize_results
from repro.campaigns.runner import run_campaign
from repro.core.errors import ParameterError
from repro.experiments.catalog import experiment_catalog
from repro.lint.cli import register_lint_command
from repro.obs.cli import add_observability_arguments, observation_from_args
from repro.semantics import (
    ADVERSARY_SEMANTICS,
    ALGORITHM_SEMANTICS,
    FAULT_SCHEDULE_SEMANTICS,
    AdversarySemantics,
    AlgorithmSemantics,
    FaultScheduleSemantics,
    algorithm_semantics,
    build_algorithm,
    flat_states,
    format_schema,
)

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------- #
# Command handlers
# ---------------------------------------------------------------------- #


def _command_run(args: argparse.Namespace) -> int:
    """Build the flags' campaign, run it, print a summary."""
    # Validated up front: an unknown field must not cost a whole campaign.
    group_by = parse_group_by(args.group_by)
    spec = campaign_from_args(args)
    store = CampaignStore(args.store) if args.store else None
    with observation_from_args(args) as observer:
        report = run_campaign(
            spec,
            store=store,
            executor=default_executor(args.jobs, spec.engine),
            progress=None if args.quiet else print_progress,
            observer=observer,
        )
    suffix = f" -> {store.path}" if store is not None else ""
    print(
        f"scenario '{spec.name}': {report.total} runs "
        f"({report.executed} executed, {report.skipped} resumed, "
        f"{report.failed} failed) in {report.elapsed:.2f}s{suffix}"
    )
    if report.fallback_reasons and not args.quiet:
        print("scalar fallbacks (see `repro list adversaries` for coverage):")
        for reason in report.fallback_reasons:
            print(f"  - {reason}")
    table = summarize_results(
        report.results, group_by=group_by, name=f"Scenario summary — {spec.name}"
    )
    print(table.to_markdown() if args.markdown else table.format_table())
    return 1 if report.failed else 0


def _command_experiment(args: argparse.Namespace) -> int:
    """Run a catalogue experiment and print its tables.

    Observability flags work here without per-experiment wiring: the
    observer is installed as the process default for the duration of the
    command, and every campaign the experiment runs picks it up.
    """
    with observation_from_args(args):
        results = args.experiment.run(args)
    renderer = "to_markdown" if args.markdown else "format_table"
    print("\n\n".join(getattr(result, renderer)() for result in results))
    return 0


def _algorithm_detail(spec: AlgorithmSemantics) -> list[str]:
    """The ``list --verbose`` detail lines of one algorithm.

    The state space and the scalar randomness are read from the instance
    the spec builds with its defaults; the rest comes from the spec.
    """
    algorithm = spec.build()
    state = "flat integer states" if flat_states(algorithm) else "boosted (structured) states"
    scalar = "deterministic" if algorithm.deterministic else "randomised"
    batch = "bit-identical" if spec.batch_deterministic else "statistically equivalent"
    lines = [
        f"params: {format_schema(spec.parameters)}",
        f"semantics: {state}; scalar {scalar}, batch {batch}",
    ]
    if spec.rng_note:
        lines.append(f"rng: {spec.rng_note}")
    lines.append(f"source: {spec.source}")
    return lines


def _adversary_detail(spec: AdversarySemantics) -> list[str]:
    """The ``list --verbose`` detail lines of one strategy, from its spec."""
    scalar = "deterministic" if spec.determinism.bit_identical else "randomised"
    lines = [
        f"params: {format_schema(spec.parameters)}",
        f"semantics: scalar {scalar}; batch {spec.coverage_note()}",
        f"source: {spec.source}",
    ]
    return lines


def _fault_schedule_detail(spec: FaultScheduleSemantics) -> list[str]:
    """The ``list --verbose`` detail lines of one fault schedule, from its spec."""
    return [
        f"params: {format_schema(spec.parameters)}",
        "semantics: scalar deterministic; scalar engine only "
        "(named fallback under engine='auto')",
        f"source: {spec.source}",
    ]


def _command_list(args: argparse.Namespace) -> int:
    """List algorithms, adversaries and experiments with descriptions."""
    from importlib.util import find_spec

    # Batch notes promise what the vectorised engine does; without NumPy
    # there is no such engine, so the notes stay blank.
    have_numpy = find_spec("numpy") is not None
    sections: list[str] = []
    verbose = getattr(args, "verbose", False)

    def format_rows(rows: list[tuple[str, str, list[str]]]) -> str:
        width = max(len(name) for name, _, _ in rows)
        lines = []
        for name, text, details in rows:
            lines.append(f"  {name.ljust(width)}  {text}")
            for detail in details:
                lines.append(f"  {' ' * width}    {detail}")
        return "\n".join(lines)

    def batch_suffix(note: str) -> str:
        return f" [batch: {note}]" if have_numpy else ""

    if args.kind in ("algorithms", "all"):
        rows = [
            (
                name,
                f"[{spec.model}] {spec.description}"
                + batch_suffix(spec.coverage_note()),
                _algorithm_detail(spec) if verbose else [],
            )
            for name, spec in sorted(ALGORITHM_SEMANTICS.items())
            if args.model is None or spec.model == args.model
        ]
        if rows:
            sections.append("Algorithms:\n" + format_rows(rows))
    if args.kind in ("adversaries", "all"):
        rows = [
            (
                name,
                spec.description + batch_suffix(spec.coverage_note()),
                _adversary_detail(spec) if verbose else [],
            )
            for name, spec in sorted(ADVERSARY_SEMANTICS.items())
        ]
        sections.append("Adversaries:\n" + format_rows(rows))
    if args.kind in ("fault-schedules", "all"):
        rows = [
            (
                name,
                spec.description,
                _fault_schedule_detail(spec) if verbose else [],
            )
            for name, spec in FAULT_SCHEDULE_SEMANTICS.items()
        ]
        sections.append("Fault schedules:\n" + format_rows(rows))
    if args.kind in ("experiments", "all"):
        rows = [
            (experiment.name, experiment.description, [])
            for experiment in experiment_catalog().values()
        ]
        sections.append("Experiments:\n" + format_rows(rows))
    if not sections:
        print("nothing to list (no component matches the filters)")
        return 1
    print("\n\n".join(sections))
    return 0


def _command_verify(args: argparse.Namespace) -> int:
    """Exhaustively verify a catalogue algorithm as a synchronous counter."""
    from repro.verification.checker import verify_counter

    spec = algorithm_semantics(args.algorithm.name)
    if spec.model != "broadcast":
        raise ParameterError(
            f"verify needs a broadcast-model algorithm with an enumerable "
            f"state space; {spec.name!r} is a {spec.model}-model algorithm"
        )
    algorithm = build_algorithm(args.algorithm.name, **dict(args.algorithm.params))
    report = verify_counter(
        algorithm,
        max_faults=args.max_faults,
        max_configurations=args.max_configurations,
    )
    print(
        f"verify {report.algorithm_name}: n={report.n} f<={report.f} c={report.c}"
    )
    for pattern in report.patterns:
        faulty = ",".join(str(node) for node in sorted(pattern.faulty)) or "-"
        outcome = (
            f"stabilizes in <= {pattern.stabilization_time} rounds"
            if pattern.stabilizes
            else f"FAILS (counterexample: {pattern.counterexample})"
        )
        print(
            f"  F={{{faulty}}}: {outcome} "
            f"[good {pattern.good_configurations}/{pattern.total_configurations}]"
        )
    if report.is_synchronous_counter:
        print(
            f"VERIFIED: synchronous {report.c}-counter, exact worst-case "
            f"stabilisation time {report.stabilization_time} rounds"
        )
        return _verify_lint_step(args)
    print(f"NOT VERIFIED: {len(report.failing_patterns())} fault pattern(s) fail")
    _verify_lint_step(args)
    return 1


def _verify_lint_step(args: argparse.Namespace) -> int:
    """The static half of ``repro verify``: lint the installed tree.

    The model checker proves the *dynamic* counter contract for one small
    instance; the lint pass proves the *static* determinism invariants for
    every line, so the one-shot health check covers both.
    """
    if getattr(args, "skip_lint", False):
        return 0
    from repro.lint import run_lint

    lint_report = run_lint()
    for finding in lint_report.unwaived():
        print(finding.format())
    print(lint_report.summary())
    return lint_report.exit_code()


# ---------------------------------------------------------------------- #
# Parser
# ---------------------------------------------------------------------- #


def build_parser() -> argparse.ArgumentParser:
    """The unified ``repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Self-stabilising Byzantine synchronous counting "
            "(Lenzen, Rybicki, Suomela — PODC 2015): scenarios, campaigns, "
            "experiments and verification behind one command."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser(
        "run",
        help="run one scenario (algorithms x adversaries x faults) and summarize it",
        description=(
            "Run one campaign grid — algorithms x adversaries x fault counts "
            "x runs — and print its stabilisation summary: campaign define, "
            "campaign run and summarize in one command, with the same grid "
            "flags.  Runs execute serially or over worker processes with "
            "bit-identical results."
        ),
    )
    run.set_defaults(handler=_command_run)
    run.add_argument(
        "algorithm",
        nargs="+",
        type=parse_algorithm,
        metavar="NAME[:k=v,...]",
        help="registry algorithm(s) with parameters, e.g. 'figure2:levels=1,c=2'",
    )
    run.add_argument(
        "--faults",
        dest="num_faults",
        action="append",
        type=parse_num_faults,
        metavar="N|auto",
        help="faults per run (repeatable; default: auto = the algorithm's f)",
    )
    add_grid_arguments(run)
    run.add_argument(
        "--name", help="scenario name (default: the algorithm names joined by '+')"
    )
    run.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (>1 enables the multiprocessing executor)",
    )
    run.add_argument(
        "--store",
        help="JSONL result store for persistence and resume (optional)",
    )
    run.add_argument(
        "--group-by",
        default="algorithm,adversary",
        help="comma-separated RunResult fields for the summary table",
    )
    run.add_argument(
        "--markdown", action="store_true", help="emit the summary as Markdown"
    )
    run.add_argument(
        "--quiet", action="store_true", help="suppress per-run progress lines"
    )
    add_observability_arguments(run)

    campaign = subparsers.add_parser(
        "campaign",
        help="define, run, resume and summarize campaign definition files",
        description=(
            "The campaign engine: declarative JSON grids, resumable JSONL "
            "stores, serial or multiprocessing execution."
        ),
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)
    register_commands(campaign_sub)

    experiment = subparsers.add_parser(
        "experiment",
        help="regenerate a table/figure/claim of the paper",
        description="Regenerate one experiment of the paper (E1-E11).",
    )
    experiment_sub = experiment.add_subparsers(dest="experiment_name", required=True)
    for entry in experiment_catalog().values():
        experiment_parser = experiment_sub.add_parser(
            entry.name, help=entry.description, description=entry.description
        )
        for option in entry.options:
            option.add_to(experiment_parser)
        experiment_parser.add_argument(
            "--markdown",
            action="store_true",
            help="emit the tables as Markdown instead of aligned text",
        )
        add_observability_arguments(experiment_parser)
        experiment_parser.set_defaults(handler=_command_experiment, experiment=entry)

    list_parser = subparsers.add_parser(
        "list",
        help=(
            "list algorithms, adversaries, fault schedules and experiments "
            "with descriptions"
        ),
        description=(
            "Discovery: every registered algorithm, adversary strategy and "
            "fault-schedule preset (read straight from the semantics "
            "catalogue) plus the experiment catalogue."
        ),
    )
    list_parser.set_defaults(handler=_command_list)
    list_parser.add_argument(
        "kind",
        nargs="?",
        choices=("algorithms", "adversaries", "fault-schedules", "experiments", "all"),
        default="all",
        help="restrict the listing to one kind (default: all)",
    )
    list_parser.add_argument(
        "--model",
        choices=("broadcast", "pulling"),
        help="restrict algorithms to one communication model",
    )
    list_parser.add_argument(
        "--verbose",
        action="store_true",
        help=(
            "show the spec-derived details per component: parameter schema "
            "with defaults, state space, determinism classes and source"
        ),
    )

    verify = subparsers.add_parser(
        "verify",
        help="exhaustively model-check a registry algorithm",
        description=(
            "Exhaustively verify that an algorithm is a synchronous counter "
            "(Section 2): check every execution from every configuration "
            "under every fault pattern, and report the exact worst-case "
            "stabilisation time.  Feasible for small instances only."
        ),
    )
    verify.set_defaults(handler=_command_verify)
    verify.add_argument(
        "algorithm",
        type=parse_algorithm,
        metavar="NAME[:k=v,...]",
        help="registry algorithm with parameters, e.g. 'trivial:c=3'",
    )
    verify.add_argument(
        "--max-faults",
        type=int,
        default=None,
        help="check all faulty sets up to this size (default: the algorithm's f)",
    )
    verify.add_argument(
        "--max-configurations",
        type=int,
        default=200_000,
        help="safety cap on the configuration-space size per fault pattern",
    )
    verify.add_argument(
        "--skip-lint",
        action="store_true",
        help="skip the static-analysis pass that follows the model check",
    )

    register_lint_command(subparsers)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro`` and the ``repro`` console script."""
    return dispatch(build_parser().parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
