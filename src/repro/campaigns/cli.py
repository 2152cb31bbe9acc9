"""The campaign engine's commands, mounted as ``python -m repro campaign``.

Usage::

    # Write a campaign definition file
    python -m repro campaign define --name demo \\
        --algorithm "naive-majority:n=6,c=3,claimed_resilience=1" \\
        --adversary crash --adversary random-state \\
        --runs 25 --max-rounds 200 --stop-after-agreement 6 \\
        --out demo.campaign.json

    # Execute it (resumable; re-invoking skips completed runs)
    python -m repro campaign run demo.campaign.json --store demo.jsonl --jobs 4

    # Explicit resume (same as run — shown separately for discoverability)
    python -m repro campaign resume demo.campaign.json --store demo.jsonl

    # Stabilisation statistics from the store
    python -m repro campaign summarize demo.jsonl

    # Pulling-model grids (Theorem 4 / Corollary 4 message complexity)
    python -m repro campaign define --name pulls \\
        --algorithm "sampled-boosted:sample_size=4" \\
        --adversary phase-king-skew --num-faults 1 \\
        --runs 10 --max-rounds 120 --out pulls.campaign.json

Algorithm arguments use ``name`` or ``name:key=value,key=value`` where the
names come from the semantics catalogue (``repro list algorithms``) and values
are parsed as JSON scalars when possible (``levels=2`` is an int).  Each
algorithm runs in the communication model its catalogue entry declares, so
no flag names the model and one grid may mix models: pulling-model
algorithms (``sampled-boosted``, ``pseudo-random-boosted``) record per-run
``max_pulls`` / ``max_bits`` statistics in the result store.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Any

from repro.campaigns.executor import default_executor
from repro.campaigns.results import CampaignStore, RunResult, summarize_results
from repro.campaigns.runner import run_campaign
from repro.campaigns.spec import (
    ENGINES,
    FAULT_PATTERNS,
    AlgorithmSpec,
    CampaignSpec,
)
from repro.core.errors import ParameterError, ReproError
from repro.obs.cli import add_observability_arguments, observation_from_args

__all__ = [
    "register_commands",
    "dispatch",
    "add_grid_arguments",
    "campaign_from_args",
    "print_progress",
    "parse_algorithm",
    "parse_num_faults",
    "parse_fault_schedule",
    "parse_group_by",
]


def _parse_scalar(text: str) -> Any:
    """Parse a parameter value: JSON scalar when possible, else the raw string."""
    try:
        return json.loads(text)
    except ValueError:
        return text


def parse_algorithm(argument: str) -> AlgorithmSpec:
    """Parse ``name`` or ``name:key=value,key=value`` into an AlgorithmSpec."""
    name, _, params_text = argument.partition(":")
    name = name.strip()
    if not name:
        raise argparse.ArgumentTypeError(f"empty algorithm name in {argument!r}")
    params: dict[str, Any] = {}
    if params_text.strip():
        for pair in params_text.split(","):
            key, sep, value = pair.partition("=")
            if not sep or not key.strip():
                raise argparse.ArgumentTypeError(
                    f"malformed algorithm parameter {pair!r} in {argument!r} "
                    "(expected key=value)"
                )
            params[key.strip()] = _parse_scalar(value.strip())
    return AlgorithmSpec.create(name, params)


def parse_num_faults(argument: str) -> int | None:
    """Parse a fault count; ``auto`` means the algorithm's resilience ``f``."""
    if argument.strip().lower() in ("auto", "f", "max"):
        return None
    try:
        return int(argument)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"num-faults must be an integer or 'auto', got {argument!r}"
        ) from None


def parse_fault_schedule(argument: str) -> tuple[str, tuple[tuple[str, Any], ...]]:
    """Parse ``name`` or ``name:key=value,key=value`` into a schedule reference.

    Same grammar as :func:`parse_algorithm`; the name is resolved (and the
    parameters validated) by :class:`~repro.campaigns.spec.CampaignSpec`.
    """
    name, _, params_text = argument.partition(":")
    name = name.strip()
    if not name:
        raise argparse.ArgumentTypeError(f"empty fault-schedule name in {argument!r}")
    params: dict[str, Any] = {}
    if params_text.strip():
        for pair in params_text.split(","):
            key, sep, value = pair.partition("=")
            if not sep or not key.strip():
                raise argparse.ArgumentTypeError(
                    f"malformed fault-schedule parameter {pair!r} in "
                    f"{argument!r} (expected key=value)"
                )
            params[key.strip()] = _parse_scalar(value.strip())
    return name, tuple(sorted(params.items()))


def parse_group_by(argument: str) -> tuple[str, ...]:
    """Parse a ``--group-by`` list, rejecting names that are not RunResult fields."""
    group_by = tuple(
        column.strip() for column in argument.split(",") if column.strip()
    )
    valid_fields = {f.name for f in dataclasses.fields(RunResult)}
    unknown = [column for column in group_by if column not in valid_fields]
    if unknown:
        raise ParameterError(
            f"unknown --group-by field(s) {', '.join(unknown)}; "
            f"valid fields: {', '.join(sorted(valid_fields))}"
        )
    return group_by


def add_grid_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the grid flags ``repro run`` and ``campaign define`` share.

    Each command adds its own algorithm argument, fault-count flag and
    ``--name``; :func:`campaign_from_args` reads all of them back.
    """
    parser.add_argument(
        "--adversary",
        action="append",
        metavar="STRATEGY",
        help=(
            "adversary strategy (repeatable; default: random-state, or none "
            "with --fault-schedule; see `repro list adversaries`)"
        ),
    )
    parser.add_argument("--runs", type=int, default=10, help="runs per grid setting")
    parser.add_argument("--seed", type=int, default=0, help="campaign master seed")
    parser.add_argument(
        "--max-rounds", type=int, default=1000, help="per-run round cap"
    )
    parser.add_argument(
        "--stop-after-agreement",
        type=int,
        default=20,
        help="early-stop window; 0 disables early stopping",
    )
    parser.add_argument(
        "--min-tail",
        type=int,
        default=2,
        help="rounds of agreement a run needs to count as stabilised",
    )
    parser.add_argument(
        "--fault-pattern",
        choices=FAULT_PATTERNS,
        default="random",
        help="placement of the faulty nodes",
    )
    parser.add_argument(
        "--fault-schedule",
        type=parse_fault_schedule,
        metavar="NAME[:k=v,...]",
        help=(
            "named fault schedule with parameters, e.g. "
            "'churn:start=5,down=6' (see `repro list fault-schedules`); "
            "scheduled grids run fault-free baselines (adversary 'none') "
            "and the schedule drives the faulty set per round"
        ),
    )
    parser.add_argument(
        "--loss",
        type=float,
        default=0.0,
        help=(
            "per-link message loss probability in [0, 1) — a lost link "
            "re-delivers the sender's previous broadcast (broadcast model only)"
        ),
    )
    parser.add_argument(
        "--delay",
        type=int,
        default=0,
        help=(
            "maximum per-link message delay in rounds; each link delivers a "
            "uniformly random 0..DELAY-old broadcast (broadcast model only)"
        ),
    )
    parser.add_argument(
        "--engine",
        choices=list(ENGINES),
        default="auto",
        help=(
            "execution engine: 'auto' vectorises bit-identical run groups "
            "through the NumPy batch engine, 'batch' forces it for every "
            "kernel-covered group, 'scalar' runs one simulation at a time"
        ),
    )


def campaign_from_args(args: argparse.Namespace) -> CampaignSpec:
    """Build the CampaignSpec the grid flags of ``run`` / ``campaign define`` describe.

    Without ``--name`` the campaign is named after its algorithms, joined
    with ``+``.
    """
    schedule_name, schedule_params = args.fault_schedule or (None, ())
    # A scheduled campaign owns its faulty set, so the baseline defaults to
    # the fault-free 'none' rows (an explicit --adversary still wins and is
    # then rejected by CampaignSpec with a descriptive error).
    default_adversaries = ["none"] if schedule_name is not None else ["random-state"]
    name = args.name
    if name is None:
        name = "+".join(algorithm.name for algorithm in args.algorithm)
    return CampaignSpec(
        name=name,
        algorithms=tuple(args.algorithm),
        adversaries=tuple(args.adversary or default_adversaries),
        num_faults=tuple(args.num_faults or [None]),
        runs_per_setting=args.runs,
        seed=args.seed,
        max_rounds=args.max_rounds,
        # 0 on the command line disables early stopping.
        stop_after_agreement=args.stop_after_agreement or None,
        min_tail=args.min_tail,
        fault_pattern=args.fault_pattern,
        engine=args.engine,
        loss=args.loss,
        delay=args.delay,
        fault_schedule=schedule_name,
        fault_schedule_params=schedule_params,
    )


def print_progress(done: int, total: int, result: RunResult) -> None:
    """The per-run progress line of ``repro run`` and ``campaign run``."""
    status = "FAIL" if result.error else (
        f"stab@{result.stabilization_round}" if result.stabilized else "no-stab"
    )
    print(f"[{done}/{total}] {result.run_id}: {status}", flush=True)


def register_commands(subparsers) -> None:
    """Register the campaign subcommands on an argparse subparser group.

    Mounted by the unified ``python -m repro`` CLI under its ``campaign``
    subcommand.  Every subcommand sets a ``handler`` default consumed by
    :func:`dispatch`.
    """
    define = subparsers.add_parser(
        "define",
        help="write a campaign definition file from flags",
        description="Write a campaign definition file from flags.",
    )
    define.set_defaults(handler=_command_define)
    define.add_argument("--name", required=True, help="campaign name")
    define.add_argument(
        "--algorithm",
        action="append",
        required=True,
        type=parse_algorithm,
        metavar="NAME[:k=v,...]",
        help="registry algorithm with parameters (repeatable)",
    )
    define.add_argument(
        "--num-faults",
        action="append",
        type=parse_num_faults,
        metavar="N|auto",
        help="faults per run (repeatable; default: auto = the algorithm's f)",
    )
    add_grid_arguments(define)
    define.add_argument("--out", required=True, help="path of the definition file")

    for verb, description in (
        ("run", "execute a campaign definition (skips completed runs)"),
        ("resume", "alias of 'run': continue an interrupted campaign"),
    ):
        executor_parser = subparsers.add_parser(
            verb, help=description, description=description
        )
        executor_parser.set_defaults(handler=_command_run)
        executor_parser.add_argument("spec", help="campaign definition file (JSON)")
        executor_parser.add_argument(
            "--store", required=True, help="JSONL result store (created if missing)"
        )
        executor_parser.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="worker processes (>1 enables the multiprocessing executor)",
        )
        executor_parser.add_argument(
            "--engine",
            choices=list(ENGINES),
            default=None,
            help="override the definition file's execution engine",
        )
        executor_parser.add_argument(
            "--quiet", action="store_true", help="suppress per-run progress lines"
        )
        add_observability_arguments(executor_parser)

    summarize = subparsers.add_parser(
        "summarize",
        help="stabilisation statistics from a result store",
        description="Stabilisation statistics from a result store.",
    )
    summarize.set_defaults(handler=_command_summarize)
    summarize.add_argument("store", help="JSONL result store")
    summarize.add_argument(
        "--group-by",
        default="algorithm,adversary",
        help="comma-separated RunResult fields to group rows by",
    )
    summarize.add_argument(
        "--markdown", action="store_true", help="emit a Markdown table"
    )


def _command_define(args: argparse.Namespace) -> int:
    spec = campaign_from_args(args)
    runs = spec.expand()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(spec.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}: campaign '{spec.name}' with {len(runs)} runs")
    return 0


def _command_run(args: argparse.Namespace) -> int:
    with open(args.spec, "r", encoding="utf-8") as handle:
        spec = CampaignSpec.from_dict(json.load(handle))
    store = CampaignStore(args.store)
    engine = args.engine or spec.engine
    executor = default_executor(args.jobs, engine)
    with observation_from_args(args) as observer:
        report = run_campaign(
            spec,
            store=store,
            executor=executor,
            progress=None if args.quiet else print_progress,
            observer=observer,
        )
    print(
        f"campaign '{spec.name}': {report.total} runs "
        f"({report.executed} executed, {report.skipped} resumed, "
        f"{report.failed} failed) in {report.elapsed:.2f}s -> {store.path}"
    )
    return 1 if report.failed else 0


def _command_summarize(args: argparse.Namespace) -> int:
    store = CampaignStore(args.store)
    results = list(store.latest_by_id().values())
    if not results:
        print(f"no results in {store.path}")
        return 1
    group_by = parse_group_by(args.group_by)
    table = summarize_results(
        results, group_by=group_by, name=f"Campaign summary — {store.path}"
    )
    print(table.to_markdown() if args.markdown else table.format_table())
    return 0


def dispatch(args: argparse.Namespace) -> int:
    """Invoke a parsed command's handler with uniform error reporting.

    Expected failure modes (bad names, malformed files, missing paths)
    become one-line ``error:`` diagnostics with exit code 2 instead of
    tracebacks.  Shared with the unified ``python -m repro`` CLI.
    """
    try:
        return args.handler(args)
    except (ReproError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
