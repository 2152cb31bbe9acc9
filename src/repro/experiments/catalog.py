"""Declarative catalogue of the experiment harness.

One place describes every experiment of the reproduction: its CLI subcommand
(name, explicit description, options), how to run it, and the EXPERIMENTS.md
sections (paper claim + moderate-parameter runner) it contributes.  The
``python -m repro experiment`` subcommands, ``python -m repro list`` and
``scripts/generate_experiments.py`` are all generated from this catalogue, so
adding an experiment is one catalogue entry instead of a new argparse
``main()``.

All descriptions and help strings are explicit literals — never module
docstrings — so the CLI keeps working under ``python -OO``.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.experiments.common import ExperimentResult

__all__ = [
    "Option",
    "Section",
    "Experiment",
    "experiment_catalog",
    "iter_sections",
]


@dataclass(frozen=True)
class Option:
    """One argparse option of an experiment subcommand."""

    flag: str
    help: str
    type: Callable[[str], Any] | None = int
    default: Any = None
    action: str | None = None

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        """Register the option on an argparse parser."""
        if self.action is not None:
            parser.add_argument(self.flag, action=self.action, help=self.help)
        else:
            parser.add_argument(
                self.flag, type=self.type, default=self.default, help=self.help
            )


@dataclass(frozen=True)
class Section:
    """One EXPERIMENTS.md section: paper claim vs a measured table.

    ``run`` executes the section with the moderate default parameters used
    for the generated report; it receives the campaign executor (``None``
    for serial execution).
    """

    title: str
    claim: str
    run: Callable[[Any], ExperimentResult]


@dataclass(frozen=True)
class Experiment:
    """One experiment subcommand of ``python -m repro experiment``.

    ``run`` receives the parsed argparse namespace and returns the result
    tables to print, in order.  ``sections`` is a zero-argument factory (not
    the tuple itself) so that building the catalogue — which happens on
    every CLI invocation — does not import the experiment modules; only
    ``iter_sections`` (the EXPERIMENTS.md generator) pays that cost.
    """

    name: str
    description: str
    run: Callable[[argparse.Namespace], list[ExperimentResult]]
    options: tuple[Option, ...] = ()
    sections: Callable[[], tuple[Section, ...]] = field(default=tuple)


_JOBS_OPTION = Option(
    flag="--jobs",
    help="worker processes for the simulation trials (default: serial)",
    default=1,
)
_SEED_OPTION = Option(flag="--seed", help="master seed", default=0)


def _executor(args: argparse.Namespace):
    # "auto" batches exactly the groups whose results are bit-identical to
    # the scalar engine's, so every printed table stays the same.
    from repro.campaigns.executor import default_executor

    return default_executor(getattr(args, "jobs", 1), "auto")


def _run_table1(args: argparse.Namespace) -> list[ExperimentResult]:
    from repro.experiments.table1 import run_table1

    return [
        run_table1(
            trials=args.trials,
            randomized_trials=args.randomized_trials,
            seed=args.seed,
            executor=_executor(args),
        )
    ]


def _run_table2(args: argparse.Namespace) -> list[ExperimentResult]:
    from repro.experiments.table2_phase_king import run_table2

    return [run_table2(trials=args.trials, seed=args.seed)]


def _run_figure1(args: argparse.Namespace) -> list[ExperimentResult]:
    from repro.experiments.figure1 import run_figure1

    return [run_figure1(k=args.k, resilience=args.resilience, seed=args.seed)]


def _run_figure2(args: argparse.Namespace) -> list[ExperimentResult]:
    from repro.experiments.figure2 import run_figure2

    return [
        run_figure2(
            levels=2 if args.large else 1,
            trials=args.trials,
            max_rounds=args.max_rounds,
            seed=args.seed,
            executor=_executor(args),
        )
    ]


def _run_scaling(args: argparse.Namespace) -> list[ExperimentResult]:
    from repro.experiments.scaling import (
        run_corollary1_scaling,
        run_theorem1_bounds,
        run_theorem2_scaling,
        run_theorem3_scaling,
    )

    executor = _executor(args)
    return [
        run_theorem1_bounds(trials=args.trials, seed=args.seed, executor=executor),
        run_corollary1_scaling(
            measured_trials=args.measured_trials, seed=args.seed, executor=executor
        ),
        run_theorem2_scaling(),
        run_theorem3_scaling(),
    ]


def _run_pulling(args: argparse.Namespace) -> list[ExperimentResult]:
    from repro.experiments.pulling import run_corollary4, run_corollary5

    executor = _executor(args)
    return [
        run_corollary4(trials=args.trials, seed=args.seed, executor=executor),
        run_corollary5(
            link_seeds=tuple(range(args.link_seeds)),
            seed=args.seed,
            executor=executor,
        ),
    ]


def _run_ablation(args: argparse.Namespace) -> list[ExperimentResult]:
    from repro.experiments.ablation import (
        run_adversary_ablation,
        run_block_count_ablation,
        run_counter_size_ablation,
    )

    return [
        run_block_count_ablation(),
        run_counter_size_ablation(),
        run_adversary_ablation(
            trials=args.trials,
            max_rounds=args.max_rounds,
            seed=args.seed,
            executor=_executor(args),
        ),
    ]


def _sections_table1() -> tuple[Section, ...]:
    from repro.experiments.table1 import run_table1

    return (
        Section(
            title="E1 — Table 1: synchronous 2-counting algorithms",
            claim=(
                "Paper claim: deterministic counting previously required either many "
                "state bits (consensus cascades, O(f log f)) or gave up determinism "
                "(2-bit randomised counters with exponential expected time); this work "
                "achieves determinism, linear-in-f stabilisation and polylog state bits. "
                "Measured: our Corollary 1 base A(4,1) and boosted A(12,3) stabilise well "
                "within their Theorem 1 bounds with 15 and 26 state bits respectively; the "
                "randomised baseline uses 1 bit but exhibits the expected exponential-in-(n-f) behaviour."
            ),
            run=lambda executor: run_table1(
                trials=6, randomized_trials=12, seed=0, executor=executor
            ),
        ),
    )


def _sections_table2() -> tuple[Section, ...]:
    from repro.experiments.table2_phase_king import run_table2

    return (
        Section(
            title="E2 — Table 2: phase king instruction sets (Lemmas 4 and 5)",
            claim=(
                "Paper claim: one phase of a correct king establishes agreement "
                "(Lemma 4) and agreement, once reached with d = 1, is never lost "
                "regardless of the round counter (Lemma 5). Measured: both hold in "
                "every randomised trial for all (N, F) settings; the classic phase "
                "king substrate decides in 3(F+1) rounds."
            ),
            run=lambda executor: run_table2(trials=30, seed=0),
        ),
    )


def _sections_figure1() -> tuple[Section, ...]:
    from repro.experiments.figure1 import run_figure1

    return (
        Section(
            title="E3 — Figure 1: leader pointers of non-faulty blocks coincide",
            claim=(
                "Paper claim (Lemmas 1-2): block i keeps each leader pointer for "
                "c_{i-1} rounds and, within c_{k-1} rounds, all stabilised blocks "
                "point at every candidate leader simultaneously for at least tau "
                "rounds. Measured: for randomly phase-shifted blocks with base 2m = 6 "
                "every candidate leader gets a common interval of length >= tau within the bound."
            ),
            run=lambda executor: run_figure1(k=6, resilience=1, seed=0),
        ),
    )


def _sections_figure2() -> tuple[Section, ...]:
    from repro.experiments.figure2 import run_figure2

    return (
        Section(
            title="E4 — Figure 2: recursive construction A(4,1) → A(12,3)",
            claim=(
                "Paper claim (Theorem 1): boosting A(4,1) with k = 3 blocks yields a "
                "3-resilient counter on 12 nodes with T <= T(A(4,1)) + 3(F+2)(2m)^k = 3264 "
                "rounds and S = S(A) + ceil(log(C+1)) + 1 bits. Measured: stabilisation under "
                "every adversary strategy, fault placement (including an entire Byzantine block) "
                "and an adversarially mis-aligned start, always within the bound."
            ),
            run=lambda executor: run_figure2(
                levels=1, trials=5, seed=0, executor=executor
            ),
        ),
    )


def _sections_scaling() -> tuple[Section, ...]:
    from repro.experiments.scaling import (
        run_corollary1_scaling,
        run_theorem1_bounds,
        run_theorem2_scaling,
        run_theorem3_scaling,
    )

    return (
        Section(
            title="E5 — Theorem 1 bounds (single boosting level)",
            claim=(
                "Paper claim: T(B) <= T(A) + 3(F+2)(2m)^k and S(B) = S(A) + ceil(log(C+1)) + 1. "
                "Measured: the implementation's state size matches the formula exactly and the "
                "measured stabilisation never exceeds the bound."
            ),
            run=lambda executor: run_theorem1_bounds(
                k_values=(4, 5), trials=3, seed=0, executor=executor
            ),
        ),
        Section(
            title="E6 — Corollary 1: optimal resilience",
            claim=(
                "Paper claim: f < n/3 with f^{O(f)} stabilisation and O(f log f + log c) bits. "
                "Measured: exact bounds for f = 1..8 show the super-exponential time growth and "
                "the near-linear bit growth; the f = 1 instance is simulated and stabilises within its bound."
            ),
            run=lambda executor: run_corollary1_scaling(
                f_values=(1, 2, 3, 4, 6, 8), measured_trials=3, seed=0, executor=executor
            ),
        ),
        Section(
            title="E7 — Theorem 2: fixed number of blocks",
            claim=(
                "Paper claim: resilience Omega(n^{1-eps}), O(f) stabilisation, O(2^{1/eps} log f + log^2 f) bits; "
                "in particular n/f <= 8 f^eps. Measured: the exact schedules satisfy the ratio bound, keep "
                "time/f bounded for fixed eps, and the bits grow ~ log^2 f."
            ),
            run=lambda executor: run_theorem2_scaling(),
        ),
        Section(
            title="E8 — Theorem 3: varying number of blocks",
            claim=(
                "Paper claim: resilience n^{1-o(1)}, O(f) stabilisation, O(log^2 f / log log f + log c) bits. "
                "Measured: the effective exponent gap log(n/f)/log f shrinks with the number of phases, the "
                "time/f ratio converges (Lemma 6's geometric domination), and the exact bit counts stay below "
                "the log^2 f / log log f envelope and below Theorem 2 at matched resilience."
            ),
            run=lambda executor: run_theorem3_scaling(phases=(1, 2, 3)),
        ),
    )


def _sections_pulling() -> tuple[Section, ...]:
    from repro.experiments.pulling import run_corollary4, run_corollary5

    return (
        Section(
            title="E9 — Theorem 4 / Corollary 4: pulling model",
            claim=(
                "Paper claim: sampled voting and phase king give probabilistic counters where every node pulls "
                "O(k log eta) messages per round, failing with probability eta^{-kappa} per round after "
                "stabilisation. Measured: pulls per round follow n + kM + M + (F+2); the post-agreement "
                "failure rate drops sharply as M grows (Chernoff shape); at 12 nodes the Lemma 8 sample size "
                "M0 exceeds the network size, so the communication win only materialises at larger eta "
                "(documented substitution, see DESIGN.md)."
            ),
            run=lambda executor: run_corollary4(trials=3, seed=0, executor=executor),
        ),
        Section(
            title="E10 — Corollary 5: pseudo-random counters, oblivious adversary",
            claim=(
                "Paper claim: fixing the random sampling once suffices against an oblivious adversary — the "
                "counter stabilises with high probability over the choice of links and then counts "
                "deterministically. Measured: the large majority of link seeds stabilise and keep counting "
                "for the whole confirmation window."
            ),
            run=lambda executor: run_corollary5(seed=0, executor=executor),
        ),
    )


def _sections_ablation() -> tuple[Section, ...]:
    from repro.experiments.ablation import (
        run_adversary_ablation,
        run_block_count_ablation,
        run_counter_size_ablation,
    )

    return (
        Section(
            title="E11a — Ablation: block count k",
            claim=(
                "Design trade-off called out in Section 4: more blocks per level buy resilience density but "
                "the (2m)^k term explodes — the reason the recursion (and Theorem 3's varying k) exists."
            ),
            run=lambda executor: run_block_count_ablation(),
        ),
        Section(
            title="E11b — Ablation: output counter size C",
            claim=(
                "Theorem 1 claim: C affects only the ceil(log(C+1)) + 1 space term, never the stabilisation bound."
            ),
            run=lambda executor: run_counter_size_ablation(),
        ),
        Section(
            title="E11c — Ablation: adversary strategies",
            claim=(
                "The boosted counter must stabilise under every Byzantine strategy; the naive majority baseline "
                "is kept split forever by the adaptive attack, demonstrating why the phase king layer is needed."
            ),
            run=lambda executor: run_adversary_ablation(
                trials=4, seed=0, executor=executor
            ),
        ),
    )


def experiment_catalog() -> Mapping[str, Experiment]:
    """Name-keyed catalogue of every experiment, in E-number order."""
    experiments = (
        Experiment(
            name="table1",
            description=(
                "E1 / Table 1: compare synchronous 2-counting algorithms — published "
                "bounds plus measured stabilisation of this library's counters"
            ),
            run=_run_table1,
            options=(
                Option("--trials", "deterministic-counter trials", default=10),
                Option(
                    "--randomized-trials",
                    "trials of the randomised follow-the-majority baseline",
                    default=20,
                ),
                _SEED_OPTION,
                _JOBS_OPTION,
            ),
            sections=_sections_table1,
        ),
        Experiment(
            name="table2",
            description=(
                "E2 / Table 2: phase king instruction sets — behavioural checks of "
                "Lemma 4 (agreement) and Lemma 5 (persistence)"
            ),
            run=_run_table2,
            options=(
                Option("--trials", "randomised trials per (N, F) setting", default=30),
                _SEED_OPTION,
            ),
            sections=_sections_table2,
        ),
        Experiment(
            name="figure1",
            description=(
                "E3 / Figure 1: leader pointer coincidence of stabilised blocks "
                "(Lemmas 1 and 2)"
            ),
            run=_run_figure1,
            options=(
                Option("--k", "block count (m = k/2 candidate leaders)", default=6),
                Option("--resilience", "per-block resilience f", default=1),
                _SEED_OPTION,
            ),
            sections=_sections_figure1,
        ),
        Experiment(
            name="figure2",
            description=(
                "E4 / Figure 2: the recursive k = 3 construction "
                "A(4,1) -> A(12,3) -> A(36,7) under Byzantine adversaries"
            ),
            run=_run_figure2,
            options=(
                Option(
                    "--large",
                    "include the 36-node level 2 (about 2 s at the default "
                    "6 trials on a 2-vCPU VM)",
                    action="store_true",
                ),
                Option("--trials", "trials per adversary strategy", default=6),
                Option("--max-rounds", "per-trial round cap", default=6000),
                _SEED_OPTION,
                _JOBS_OPTION,
            ),
            sections=_sections_figure2,
        ),
        Experiment(
            name="scaling",
            description=(
                "E5-E8: quantitative bounds of Theorem 1, Corollary 1 and "
                "Theorems 2-3 (time/space/resilience scaling)"
            ),
            run=_run_scaling,
            options=(
                Option("--trials", "Theorem 1 trials per block count", default=4),
                Option(
                    "--measured-trials",
                    "measured trials for the Corollary 1 f = 1 instance",
                    default=4,
                ),
                _SEED_OPTION,
                _JOBS_OPTION,
            ),
            sections=_sections_scaling,
        ),
        Experiment(
            name="pulling",
            description=(
                "E9-E10: the pulling model — message complexity of Theorem 4 / "
                "Corollary 4 and pseudo-random counters of Corollary 5"
            ),
            run=_run_pulling,
            options=(
                Option("--trials", "Corollary 4 trials per sample size", default=3),
                Option(
                    "--link-seeds",
                    "number of Corollary 5 link seeds to sweep",
                    default=8,
                ),
                _SEED_OPTION,
                _JOBS_OPTION,
            ),
            sections=_sections_pulling,
        ),
        Experiment(
            name="ablation",
            description=(
                "E11: ablations over block count k, output counter size C and "
                "adversary strategy (incl. the naive-majority negative baseline)"
            ),
            run=_run_ablation,
            options=(
                Option("--trials", "adversary-ablation trials per strategy", default=5),
                Option(
                    "--max-rounds", "adversary-ablation per-trial round cap", default=4000
                ),
                _SEED_OPTION,
                _JOBS_OPTION,
            ),
            sections=_sections_ablation,
        ),
    )
    return {experiment.name: experiment for experiment in experiments}


def iter_sections() -> list[Section]:
    """All EXPERIMENTS.md sections, in report (E-number) order."""
    return [
        section
        for experiment in experiment_catalog().values()
        for section in experiment.sections()
    ]
