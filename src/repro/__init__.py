"""repro — self-stabilising Byzantine synchronous counting.

A reproduction of *Towards Optimal Synchronous Counting* (Lenzen, Rybicki,
Suomela, PODC 2015).  The library provides:

* the synchronous counting algorithm abstraction ``A = (X, g, h)`` and a
  synchronous broadcast-model simulator with pluggable Byzantine adversaries,
* the paper's resilience boosting construction (Theorem 1) and the recursive
  constructions built on it (Corollary 1, Figure 2, Theorems 2 and 3),
* the pulling-model randomised variants of Section 5 (Theorem 4,
  Corollaries 4 and 5),
* an exhaustive configuration-space verifier for small instances, and
* an experiment harness regenerating every table and figure of the paper.

Quick start — one :class:`~repro.campaigns.spec.CampaignSpec` describes a
whole grid of adversarial simulations, and
:func:`~repro.campaigns.runner.run_campaign` executes it (serial or
multi-process execution, bit-identical results, JSONL persistence and
resume)::

    from repro.campaigns import (
        AlgorithmSpec, CampaignSpec, default_executor, run_campaign,
        summarize_results,
    )

    spec = CampaignSpec(
        name="figure2",
        # A(12, 3), counting mod 3
        algorithms=(AlgorithmSpec.create("figure2", {"levels": 1, "c": 3}),),
        adversaries=("phase-king-skew",),
        num_faults=(3,),
        runs_per_setting=200,
        stop_after_agreement=12,
    )
    report = run_campaign(spec, executor=default_executor(4, spec.engine))
    print(summarize_results(report.results).format_table())

From the shell the same grid is ``repro run "figure2:levels=1,c=3"
--adversary phase-king-skew --faults 3 --runs 200 --stop-after-agreement 12
--jobs 4``; ``python -m repro`` (or the ``repro`` console script) also offers
``repro campaign``, ``repro experiment``, ``repro list`` and ``repro
verify``.  Component names ("figure2", "phase-king-skew", ...) come from the
semantics catalogue — ``repro list`` shows them all with descriptions, and
:func:`repro.semantics.build_algorithm` builds an algorithm by name.

For round-by-round inspection of a single run, drop one level down to the
simulator::

    from repro import figure2_counter, run_simulation, SimulationConfig
    from repro.network import RandomStateAdversary, random_faulty_set
    from repro.network.stabilization import stabilization_round

    counter = figure2_counter(levels=1, c=3)
    faulty = random_faulty_set(counter.n, 3, rng=1)
    trace = run_simulation(
        counter,
        adversary=RandomStateAdversary(faulty),
        config=SimulationConfig(max_rounds=4000, stop_after_agreement=20, seed=1),
    )
    print(stabilization_round(trace))
"""

from repro._version import __version__
from repro.core import (
    AlgorithmInfo,
    BlockLayout,
    BoostedCounter,
    BoostedState,
    BoostingParameters,
    ConstructionError,
    ConstructionPlan,
    CounterInterpretation,
    LevelSpec,
    ParameterError,
    ReproError,
    SimulationError,
    SynchronousCountingAlgorithm,
    VerificationError,
    boost,
    figure2_counter,
    optimal_resilience_counter,
    plan_corollary1,
    plan_figure2,
    plan_theorem2,
    plan_theorem3,
)
from repro.counters import (
    NaiveMajorityCounter,
    RandomizedFollowMajorityCounter,
    TrivialCounter,
)
from repro.network import (
    PullSimulationConfig,
    SimulationConfig,
    run_pull_simulation,
    run_simulation,
)

__all__ = [
    "__version__",
    # Core abstractions
    "SynchronousCountingAlgorithm",
    "AlgorithmInfo",
    "BoostedCounter",
    "BoostedState",
    "BoostingParameters",
    "BlockLayout",
    "CounterInterpretation",
    "ConstructionPlan",
    "LevelSpec",
    "boost",
    # Recursive constructions
    "figure2_counter",
    "optimal_resilience_counter",
    "plan_corollary1",
    "plan_figure2",
    "plan_theorem2",
    "plan_theorem3",
    # Concrete counters
    "TrivialCounter",
    "NaiveMajorityCounter",
    "RandomizedFollowMajorityCounter",
    # Simulation
    "SimulationConfig",
    "run_simulation",
    "PullSimulationConfig",
    "run_pull_simulation",
    # Errors
    "ReproError",
    "ParameterError",
    "ConstructionError",
    "SimulationError",
    "VerificationError",
]
