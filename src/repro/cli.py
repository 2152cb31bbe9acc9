"""The unified ``repro`` command line — one front door for everything.

Installed as the ``repro`` console script and runnable as ``python -m
repro``.  Subcommands:

========== ==================================================================
``run``        run one scenario (algorithms x adversaries x faults grid)
               through the :class:`~repro.scenarios.scenario.Scenario`
               facade and print a stabilisation summary
``campaign``   ``define`` / ``run`` / ``resume`` / ``summarize`` — the
               campaign engine commands (shared with
               ``python -m repro.campaigns``)
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
    dispatch,
    parse_algorithm,
    parse_fault_schedule,
    parse_num_faults,
    register_commands,
)
from repro.campaigns.results import CampaignStore, RunResult, summarize_results
from repro.campaigns.spec import ENGINES, FAULT_PATTERNS
from repro.core.errors import ParameterError
from repro.experiments.catalog import experiment_catalog
from repro.lint.cli import register_lint_command
from repro.obs.cli import add_observability_arguments, observation_from_args
from repro.scenarios import Scenario
from repro.semantics import (
    ADVERSARY_SEMANTICS,
    ALGORITHM_SEMANTICS,
    FAULT_SCHEDULE_SEMANTICS,
    AdversarySemantics,
    AlgorithmSemantics,
    FaultScheduleSemantics,
    algorithm_semantics,
    build_algorithm,
    format_schema,
)

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------- #
# Command handlers
# ---------------------------------------------------------------------- #


def _command_run(args: argparse.Namespace) -> int:
    """Compile the flags into a Scenario, execute it, print a summary."""
    scenario = Scenario()
    for spec in args.algorithm:
        scenario = scenario.counter(spec.name, **dict(spec.params))
    if args.adversary:
        scenario = scenario.adversary(*args.adversary)
    if args.faults:
        scenario = scenario.faults(*args.faults)
    scenario = (
        scenario.runs(args.runs)
        .seed(args.seed)
        .max_rounds(args.max_rounds)
        .stop_after_agreement(args.stop_after_agreement)
        .min_tail(args.min_tail)
        .fault_pattern(args.fault_pattern)
        .engine(args.engine)
    )
    if args.loss:
        scenario = scenario.loss(args.loss)
    if args.delay:
        scenario = scenario.delay(args.delay)
    if args.fault_schedule:
        schedule_name, schedule_params = args.fault_schedule
        scenario = scenario.fault_schedule(schedule_name, **dict(schedule_params))
    if args.name:
        scenario = scenario.named(args.name)

    store = CampaignStore(args.store) if args.store else None

    def progress(done: int, total: int, result: RunResult) -> None:
        status = "FAIL" if result.error else (
            f"stab@{result.stabilization_round}" if result.stabilized else "no-stab"
        )
        print(f"[{done}/{total}] {result.run_id}: {status}", flush=True)

    with observation_from_args(args) as observer:
        report = scenario.execute(
            jobs=args.jobs,
            store=store,
            progress=None if args.quiet else progress,
            observer=observer,
        )
    name = scenario.to_campaign_spec().name
    suffix = f" -> {store.path}" if store is not None else ""
    print(
        f"scenario '{name}': {report.total} runs "
        f"({report.executed} executed, {report.skipped} resumed, "
        f"{report.failed} failed) in {report.elapsed:.2f}s{suffix}"
    )
    if report.fallback_reasons and not args.quiet:
        print("scalar fallbacks (see `repro list adversaries` for coverage):")
        for reason in report.fallback_reasons:
            print(f"  - {reason}")
    group_by = tuple(
        column.strip() for column in args.group_by.split(",") if column.strip()
    )
    table = summarize_results(
        report.results, group_by=group_by, name=f"Scenario summary — {name}"
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
    """The ``list --verbose`` detail lines of one algorithm, from its spec."""
    state = "flat integer states" if spec.flat_state else "boosted (structured) states"
    scalar = "deterministic" if spec.scalar_deterministic else "randomised"
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
    scalar = "deterministic" if spec.scalar_deterministic else "randomised"
    lines = [
        f"params: {format_schema(spec.parameters)}",
        f"semantics: scalar {scalar}; batch {spec.coverage_note()}",
        f"source: {spec.source}",
    ]
    return lines


def _fault_schedule_detail(spec: FaultScheduleSemantics) -> list[str]:
    """The ``list --verbose`` detail lines of one fault schedule, from its spec."""
    scalar = "deterministic" if spec.scalar_deterministic else "randomised"
    engine = (
        "batch-covered"
        if spec.batch_covered
        else "scalar engine only (named fallback under engine='auto')"
    )
    return [
        f"params: {format_schema(spec.parameters)}",
        f"semantics: scalar {scalar}; {engine}",
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
            "Run one scenario through the repro.scenarios facade: the grid "
            "algorithms x adversaries x fault counts x runs, executed "
            "serially or over worker processes with bit-identical results."
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
        "--adversary",
        action="append",
        metavar="STRATEGY",
        help="adversary strategy (repeatable; default: random-state)",
    )
    run.add_argument(
        "--faults",
        action="append",
        type=parse_num_faults,
        metavar="N|auto",
        help="faults per run (repeatable; default: auto = the algorithm's f)",
    )
    run.add_argument("--runs", type=int, default=10, help="runs per grid setting")
    run.add_argument("--seed", type=int, default=0, help="master seed")
    run.add_argument("--max-rounds", type=int, default=1000, help="per-run round cap")
    run.add_argument(
        "--stop-after-agreement",
        type=int,
        default=20,
        help="early-stop window; 0 disables early stopping",
    )
    run.add_argument("--min-tail", type=int, default=2)
    run.add_argument("--fault-pattern", choices=FAULT_PATTERNS, default="random")
    run.add_argument(
        "--fault-schedule",
        type=parse_fault_schedule,
        metavar="NAME[:k=v,...]",
        help=(
            "named fault schedule with parameters, e.g. "
            "'churn:start=5,down=6' (see `repro list fault-schedules`); "
            "the schedule owns the faulty set, so the scenario runs "
            "fault-free baselines and measures re-stabilisation"
        ),
    )
    run.add_argument(
        "--loss",
        type=float,
        default=0.0,
        help=(
            "per-link message loss probability in [0, 1) — a lost link "
            "re-delivers the sender's previous broadcast (broadcast model only)"
        ),
    )
    run.add_argument(
        "--delay",
        type=int,
        default=0,
        help=(
            "maximum per-link message delay in rounds; each link delivers a "
            "uniformly random 0..DELAY-old broadcast (broadcast model only)"
        ),
    )
    run.add_argument(
        "--engine",
        choices=list(ENGINES),
        default="auto",
        help=(
            "execution engine: 'auto' vectorises bit-identical run groups "
            "through the NumPy batch engine, 'batch' forces it for every "
            "kernel-covered group, 'scalar' runs one simulation at a time"
        ),
    )
    run.add_argument("--name", help="scenario name (default: the algorithm names)")
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
