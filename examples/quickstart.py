"""Quickstart: build a self-stabilising Byzantine counter and watch it stabilise.

Two views of the same system:

1. a campaign grid — one :class:`~repro.campaigns.spec.CampaignSpec`
   describes a whole study of adversarial simulations, and
   :func:`~repro.campaigns.runner.run_campaign` runs and summarises it, and
2. the trace-level API underneath, reproducing the example execution from
   the introduction of the paper: a network with Byzantine nodes and
   arbitrary initial states eventually has all correct nodes counting
   modulo ``c`` in agreement.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import SimulationConfig, figure2_counter, run_simulation
from repro.campaigns import (
    AlgorithmSpec,
    CampaignSpec,
    run_campaign,
    summarize_results,
)
from repro.network import PhaseKingSkewAdversary, random_faulty_set
from repro.network.stabilization import stabilization_round


def main(runs: int = 5, max_rounds: int = 4000, seed: int = 42) -> None:
    # Part 1 — the campaign grid.  One spec describes the whole study: the
    # Figure 2 counter A(12, 3) counting modulo 3, attacked by the
    # phase-king-skew adversary controlling 3 Byzantine nodes, repeated
    # over independent fault sets and seeds.
    spec = CampaignSpec(
        name="figure2",
        algorithms=(AlgorithmSpec.create("figure2", {"levels": 1, "c": 3}),),
        adversaries=("phase-king-skew",),
        num_faults=(3,),
        runs_per_setting=runs,
        max_rounds=max_rounds,
        stop_after_agreement=12,
        seed=seed,
    )
    report = run_campaign(spec)
    summary = summarize_results(
        report.results, name=f"Scenario summary — {spec.name}"
    )
    print(summary.format_table())
    print()

    # Part 2 — the trace-level API, for when one run must be inspected
    # round by round (the table from the paper's introduction).
    counter = figure2_counter(levels=1, c=3)
    print("Counter:", counter.info.name)
    print(f"  nodes n = {counter.n}, resilience f = {counter.f}, modulus c = {counter.c}")
    print(f"  state bits per node  = {counter.state_bits()}")
    print(f"  stabilisation bound  = {counter.stabilization_bound()} rounds (Theorem 1)")
    print()

    faulty = random_faulty_set(counter.n, counter.f, rng=seed)
    print("Byzantine nodes:", sorted(faulty))
    trace = run_simulation(
        counter,
        adversary=PhaseKingSkewAdversary(faulty),
        config=SimulationConfig(
            max_rounds=max_rounds, stop_after_agreement=12, seed=seed
        ),
    )
    result = stabilization_round(trace)
    print(f"Stabilised: {result.stabilized} (round {result.round}, "
          f"bound {counter.stabilization_bound()})")
    print()

    first = max(0, (result.round or 0) - 3)
    print(trace.format_table(first=first, last=first + 12))


if __name__ == "__main__":
    main()
