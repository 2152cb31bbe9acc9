"""Fault-injection study: how different Byzantine strategies affect stabilisation.

Sweeps every registered adversary strategy against the ``A(12, 3)`` counter
in one campaign grid — the strategy names come from the semantics
catalogue, so a newly declared adversary automatically joins the sweep.
Two hand-crafted cases follow: the Figure 2 fault pattern (one whole block
Byzantine) and the negative baseline, a naive majority-following counter
kept split forever by an adaptive adversary.

Run with::

    python examples/fault_injection_study.py
"""

from __future__ import annotations

from repro import SimulationConfig, figure2_counter, run_simulation
from repro.campaigns import (
    AlgorithmSpec,
    CampaignSpec,
    run_campaign,
    summarize_results,
)
from repro.counters import NaiveMajorityCounter
from repro.network import (
    AdaptiveSplitAdversary,
    PhaseKingSkewAdversary,
    block_concentrated_faults,
)
from repro.network.stabilization import stabilization_round
from repro.semantics import active_strategy_names


def main(runs: int = 2, seed: int = 13) -> None:
    counter = figure2_counter(levels=1, c=2)
    bound = counter.stabilization_bound()
    print(f"Counter A({counter.n}, {counter.f}), stabilisation bound {bound} rounds")
    print()

    # Every *active* strategy in the catalogue, with the maximal fault
    # budget (a fault count of None is the algorithm's resilience f).
    spec = CampaignSpec(
        name="fault-injection-study",
        algorithms=(AlgorithmSpec.create("figure2", {"levels": 1, "c": 2}),),
        adversaries=active_strategy_names(),
        num_faults=(None,),
        runs_per_setting=runs,
        max_rounds=bound,
        stop_after_agreement=16,
        seed=seed,
    )
    report = run_campaign(spec)
    summary = summarize_results(
        report.results, name=f"Scenario summary — {spec.name}"
    )
    print(summary.format_table())
    print()

    # The Figure 2 pattern: one whole block Byzantine.
    faulty = block_concentrated_faults(block_size=4, blocks=[2], per_block=3)
    trace = run_simulation(
        counter,
        adversary=PhaseKingSkewAdversary(faulty),
        config=SimulationConfig(max_rounds=bound, stop_after_agreement=16, seed=seed),
    )
    result = stabilization_round(trace)
    round_text = str(result.round) if result.stabilized else "never"
    ok = result.stabilized and result.round <= bound
    print(f"whole block faulty / phase-king-skew: faults {sorted(faulty)}, "
          f"stabilised at {round_text}, within bound: {ok}")

    print()
    print("Negative baseline: naive majority counter under the adaptive-split attack")
    naive = NaiveMajorityCounter(n=12, c=2, claimed_resilience=3)
    trace = run_simulation(
        naive,
        adversary=AdaptiveSplitAdversary(frozenset({9, 10, 11})),
        config=SimulationConfig(max_rounds=300, seed=1),
        initial_states=[0] * 5 + [1] * 4 + [0] * 3,
    )
    result = stabilization_round(trace, min_tail=16)
    print(f"  stabilised: {result.stabilized} after 300 rounds "
          "(the phase king layer of the real construction is what prevents this)")


if __name__ == "__main__":
    main()
