"""Experiment E11 — ablations over the construction's design choices.

DESIGN.md calls out four knobs whose effect the boosting construction's
analysis depends on; each gets a sweep:

* **Block count k** — more blocks raise the achievable resilience
  ``F < (f+1)·⌈k/2⌉`` but blow up the ``(2m)^k`` term in the stabilisation
  bound (the reason Theorem 3 varies ``k`` across levels).
* **Output counter size C** — affects only the ``⌈log(C+1)⌉ + 1`` space term,
  not the stabilisation time.
* **Adversary strategy** — the construction must stabilise under all of
  them; the ablation compares how hard different strategies push the
  stabilisation time (and shows the naive majority baseline failing under
  the adaptive split attack).
* **Sample size M** (pulling model) — communication vs reliability.

Run with ``python -m repro experiment ablation``.
"""

from __future__ import annotations


from repro.core.boosting import BoostedCounter
from repro.core.parameters import BoostingParameters
from repro.core.recursion import figure2_counter
from repro.counters.naive import NaiveMajorityCounter
from repro.counters.trivial import TrivialCounter
from repro.experiments.common import ExperimentResult, run_counter_trials, summarize_trials
from repro.network.adversary import AdaptiveSplitAdversary

__all__ = [
    "run_block_count_ablation",
    "run_counter_size_ablation",
    "run_adversary_ablation",
]


def run_block_count_ablation(
    k_values: tuple[int, ...] = (3, 4, 5, 6, 8),
    counter_size: int = 2,
) -> ExperimentResult:
    """Effect of the block count ``k`` on resilience, time bound and space (analytic)."""
    result = ExperimentResult(name="Ablation — block count k (single level over trivial base)")
    for k in k_values:
        resilience = BoostingParameters.largest_feasible_resilience(1, 0, k)
        if resilience < 1:
            result.add_row(k=k, N=k, F=resilience, note="no resilience gain (F < N/3 forces F = 0)")
            continue
        params = BoostingParameters.for_inner(
            inner_n=1, inner_f=0, k=k, counter_size=counter_size, resilience=resilience
        )
        inner_bits = TrivialCounter(c=params.minimal_inner_counter()).state_bits()
        result.add_row(
            k=k,
            N=params.total_nodes,
            F=params.resilience,
            time_overhead=params.stabilization_overhead(),
            space_bits=params.space_bound(inner_bits),
            resilience_per_node=round(params.resilience / params.total_nodes, 3),
        )
    result.add_note(
        "Raising k improves F/N towards 1/3 but the (2m)^k term makes the time overhead "
        "explode — the trade-off that motivates recursion instead of a single huge level."
    )
    return result


def run_counter_size_ablation(
    counter_sizes: tuple[int, ...] = (2, 3, 8, 60, 1024),
) -> ExperimentResult:
    """Effect of the output counter size ``C`` on space (time bound is unaffected)."""
    result = ExperimentResult(name="Ablation — output counter size C")
    for C in counter_sizes:
        counter = figure2_counter(levels=1, c=C)
        result.add_row(
            C=C,
            state_bits=counter.state_bits(),
            time_bound=counter.stabilization_bound(),
        )
    result.add_note(
        "Only the ceil(log2(C+1)) + 1 phase king registers grow with C; the stabilisation "
        "bound 3(F+2)(2m)^k is independent of C, exactly as Theorem 1 states."
    )
    return result


def run_adversary_ablation(
    trials: int = 5,
    max_rounds: int = 4000,
    seed: int = 0,
    strategies: tuple[str, ...] = (
        "crash",
        "random-state",
        "split-state",
        "mimic",
        "phase-king-skew",
        "adaptive-split",
    ),
    executor=None,
) -> ExperimentResult:
    """Stabilisation of A(12, 3) under different adversary strategies, plus the naive baseline."""
    result = ExperimentResult(name="Ablation — adversary strategies on A(12, 3)")
    counter = figure2_counter(levels=1, c=2)
    for name in strategies:
        metrics = run_counter_trials(
            counter,
            adversary=name,
            trials=trials,
            max_rounds=max_rounds,
            stop_after_agreement=16,
            seed=seed,
            executor=executor,
        )
        summary = summarize_trials(metrics, bound=counter.stabilization_bound())
        result.add_row(
            algorithm="A(12,3) (Theorem 1)",
            adversary=name,
            stabilized=f"{summary['stabilized']}/{summary['trials']}",
            mean_round=round(summary["mean_stabilization"], 1),
            max_round=summary["max_stabilization"],
            within_bound=summary["within_bound"],
        )

    # Negative control: the naive majority counter under the adaptive split
    # attack, started from an (almost) even split — the configuration from
    # which a single Byzantine vote per receiver keeps the camps separated
    # forever.  The explicit initial configuration makes the failure
    # deterministic rather than dependent on the random draw.
    from repro.network.simulator import SimulationConfig, run_simulation
    from repro.network.stabilization import stabilization_round

    naive = NaiveMajorityCounter(n=12, c=2, claimed_resilience=3)
    faulty = frozenset({9, 10, 11})
    split_start = [0] * 5 + [1] * 4 + [0] * 3  # correct nodes 0-8 split 5 / 4
    trace = run_simulation(
        naive,
        adversary=AdaptiveSplitAdversary(faulty),
        config=SimulationConfig(max_rounds=300, seed=seed + 1),
        initial_states=split_start,
    )
    outcome = stabilization_round(trace, min_tail=16)
    result.add_row(
        algorithm="naive majority (baseline)",
        adversary="adaptive-split",
        stabilized=f"{int(outcome.stabilized)}/1",
        mean_round="-" if outcome.round is None else outcome.round,
        max_round="-" if outcome.round is None else outcome.round,
        within_bound="n/a",
    )
    result.add_note(
        "The boosted counter stabilises under every strategy (within the Theorem 1 bound); "
        "the naive majority baseline is kept split by the adaptive adversary, illustrating "
        "why the phase king layer is necessary."
    )
    return result
