"""The component catalogue: every algorithm and adversary, described once.

This module is the single source of truth the rest of the stack reads its
component knowledge from; every component name is looked up here, with no
registry in between:

* :func:`build_algorithm` constructs every algorithm built by name (the
  campaign specs, ``repro verify``, the parity harness, the examples), and
  :func:`algorithm_semantics` / :func:`adversary_semantics` raise the one
  unknown-name error :class:`~repro.campaigns.spec.CampaignSpec` and the
  CLI print;
* :func:`repro.network.adversary.build_adversary` constructs the scalar
  strategy classes bound in :data:`ADVERSARY_SEMANTICS`;
* the batch engine resolves adversary kernels by strategy name from
  :data:`ADVERSARY_SEMANTICS`, and :func:`repro.network.batch.bit_identical`
  (the one per-group bit-identity rule) and :func:`adversary_coverage_notes`
  read the declared :class:`~repro.semantics.spec.DeterminismClass` instead
  of probing kernels;
* :mod:`repro.network.parity` generates its sweep space (``FUZZ_ALGORITHMS``,
  ``ALL_STRATEGIES``, the optional-parameter choices) and its equivalence
  class expectations from the same specs;
* ``repro list`` renders its listings straight from the three catalogues.

Builder callables import the implementation modules lazily, so importing the
catalogue pulls in neither NumPy nor the engines.  The declared facts are
cross-checked empirically by :func:`repro.semantics.selfcheck.verify`.
"""

from __future__ import annotations

from typing import Any

from repro.core.errors import ParameterError
from repro.semantics.spec import (
    BIT_IDENTICAL,
    FLAT_ONLY,
    STATISTICAL,
    AdversarySemantics,
    AlgorithmSemantics,
    DeterminismClass,
    FaultScheduleSemantics,
    FuzzProfile,
    Parameter,
)

__all__ = [
    "ALGORITHM_SEMANTICS",
    "ADVERSARY_SEMANTICS",
    "FAULT_SCHEDULE_SEMANTICS",
    "algorithm_names",
    "algorithm_semantics",
    "build_algorithm",
    "adversary_semantics",
    "active_strategy_names",
    "strategy_names",
    "adversary_coverage_notes",
    "fault_schedule_names",
    "fault_schedule_semantics",
]


# ---------------------------------------------------------------------- #
# Algorithm builders (lazy imports keep the spec layer dependency-free)
# ---------------------------------------------------------------------- #


def _build_trivial(c: int = 2) -> Any:
    from repro.counters.trivial import TrivialCounter

    return TrivialCounter(c=c)


def _build_naive_majority(n: int = 4, c: int = 2, claimed_resilience: int = 0) -> Any:
    from repro.counters.naive import NaiveMajorityCounter

    return NaiveMajorityCounter(n=n, c=c, claimed_resilience=claimed_resilience)


def _build_randomized_follow_majority(
    n: int = 4, f: int = 1, c: int = 2, seed: int = 0
) -> Any:
    from repro.counters.randomized import RandomizedFollowMajorityCounter

    return RandomizedFollowMajorityCounter(n=n, f=f, c=c, seed=seed)


def _build_corollary1(c: int = 2, f: int = 1) -> Any:
    from repro.core.recursion import optimal_resilience_counter

    return optimal_resilience_counter(f=f, c=c)


def _build_figure2(levels: int = 1, c: int = 2) -> Any:
    from repro.core.recursion import figure2_counter

    return figure2_counter(levels=levels, c=c)


def _build_sampled_boosted(
    c: int = 2,
    k: int = 3,
    inner_f: int = 1,
    inner_c: int = 960,
    sample_size: int | None = 4,
) -> Any:
    # The defaults mirror the Corollary 4 experiment: the 12-node
    # A(12, 3)-equivalent sampled counter over the A(4, 1) inner with
    # counter size 960 (the multiple required by k = 3, F = 3).
    from repro.core.recursion import optimal_resilience_counter
    from repro.sampling.pull_boosting import SampledBoostedCounter

    inner = optimal_resilience_counter(f=inner_f, c=inner_c)
    return SampledBoostedCounter(
        inner=inner, k=k, counter_size=c, sample_size=sample_size
    )


def _build_pseudo_random_boosted(
    c: int = 2,
    k: int = 3,
    inner_f: int = 1,
    inner_c: int = 960,
    sample_size: int | None = 4,
    link_seed: int = 0,
) -> Any:
    from repro.core.recursion import optimal_resilience_counter
    from repro.sampling.pseudo_random import PseudoRandomBoostedCounter

    inner = optimal_resilience_counter(f=inner_f, c=inner_c)
    return PseudoRandomBoostedCounter(
        inner=inner,
        k=k,
        counter_size=c,
        sample_size=sample_size,
        link_seed=link_seed,
    )


#: Every executable algorithm, in catalogue (and parity-sweep) order.  The
#: dict order is load-bearing: the parity harness derives its seeded sweep
#: space from it, so reordering entries would change sampled configurations.
ALGORITHM_SEMANTICS: dict[str, AlgorithmSemantics] = {
    spec.name: spec
    for spec in (
        AlgorithmSemantics(
            name="trivial",
            description="0-resilient single-node counter (base case of Corollary 1)",
            model="broadcast",
            source="Section 4.1",
            build=_build_trivial,
            parameters=(Parameter("c", 2, "counter size"),),
            batch_deterministic=True,
            kernel_binding="repro.counters.kernels:TrivialBatchKernel",
            fuzz=(FuzzProfile(params=(("c", 4),), max_faults=0, max_rounds=24),),
        ),
        AlgorithmSemantics(
            name="naive-majority",
            description="fault-intolerant follow-the-majority counter (negative baseline)",
            model="broadcast",
            source="baseline",
            build=_build_naive_majority,
            parameters=(
                Parameter("n", 4, "number of nodes"),
                Parameter("c", 2, "counter size"),
                Parameter("claimed_resilience", 0, "the f the baseline pretends to tolerate"),
            ),
            batch_deterministic=True,
            kernel_binding="repro.counters.kernels:NaiveMajorityBatchKernel",
            fuzz=(
                FuzzProfile(
                    params=(("n", 6), ("c", 3), ("claimed_resilience", 1)),
                    max_faults=1,
                    max_rounds=40,
                ),
                FuzzProfile(
                    params=(("n", 9), ("c", 4), ("claimed_resilience", 2)),
                    max_faults=2,
                    max_rounds=48,
                ),
            ),
        ),
        AlgorithmSemantics(
            name="randomized-follow-majority",
            description="randomised counter of [6, 7]: random states until a clear majority",
            model="broadcast",
            source="Table 1, [6, 7]",
            build=_build_randomized_follow_majority,
            parameters=(
                Parameter("n", 4, "number of nodes"),
                Parameter("f", 1, "tolerated faults"),
                Parameter("c", 2, "counter size"),
                Parameter("seed", 0, "per-node coin-flip seed offset"),
            ),
            batch_deterministic=False,
            kernel_binding="repro.counters.kernels:RandomizedFollowMajorityBatchKernel",
            rng_note="per-round coin flips until a clear majority emerges",
            fuzz=(
                FuzzProfile(
                    params=(("n", 7), ("f", 2), ("c", 2)),
                    max_faults=2,
                    max_rounds=90,
                ),
            ),
        ),
        AlgorithmSemantics(
            name="corollary1",
            description="optimal-resilience counter built from trivial counters (Corollary 1)",
            model="broadcast",
            source="Corollary 1",
            build=_build_corollary1,
            parameters=(
                Parameter("c", 2, "counter size"),
                Parameter("f", 1, "tolerated faults"),
            ),
            batch_deterministic=True,
            kernel_binding="repro.counters.kernels:BoostedBatchKernel",
            fuzz=(
                FuzzProfile(
                    params=(("f", 1), ("c", 2)), max_faults=1, max_rounds=260
                ),
            ),
        ),
        AlgorithmSemantics(
            name="figure2",
            description="recursive k=3 construction of Figure 2: A(4,1) -> A(12,3) -> A(36,7)",
            model="broadcast",
            source="Figure 2 / Theorem 1",
            build=_build_figure2,
            parameters=(
                Parameter("levels", 1, "recursion depth"),
                Parameter("c", 2, "counter size"),
            ),
            batch_deterministic=True,
            kernel_binding="repro.counters.kernels:BoostedBatchKernel",
            fuzz=(
                FuzzProfile(
                    params=(("levels", 1), ("c", 2)), max_faults=3, max_rounds=160
                ),
            ),
        ),
        AlgorithmSemantics(
            name="sampled-boosted",
            description="pulling-model boosted counter with sampled voting (Theorem 4)",
            model="pulling",
            source="Theorem 4 / Corollary 4",
            build=_build_sampled_boosted,
            parameters=(
                Parameter("c", 2, "counter size"),
                Parameter("k", 3, "blocks per level"),
                Parameter("inner_f", 1, "inner counter resilience"),
                Parameter("inner_c", 960, "inner counter size"),
                Parameter("sample_size", 4, "pulls per block per round (M)"),
            ),
            batch_deterministic=False,
            kernel_binding="repro.sampling.kernels:SampledBoostedBatchKernel",
            rng_note="fresh per-round pull samples (Theorem 4)",
            fuzz=(
                FuzzProfile(
                    params=(("sample_size", 2),), max_faults=1, max_rounds=40
                ),
            ),
        ),
        AlgorithmSemantics(
            name="pseudo-random-boosted",
            description="pulling-model counter with sampling fixed by a link seed (Corollary 5)",
            model="pulling",
            source="Corollary 5",
            build=_build_pseudo_random_boosted,
            parameters=(
                Parameter("c", 2, "counter size"),
                Parameter("k", 3, "blocks per level"),
                Parameter("inner_f", 1, "inner counter resilience"),
                Parameter("inner_c", 960, "inner counter size"),
                Parameter("sample_size", 4, "pulls per block per round (M)"),
                Parameter("link_seed", 0, "seed fixing the pull plans at construction"),
            ),
            # Construction consumes the link seed's randomness, but the fixed
            # plans are replayed purely per round — so the built counter is
            # not ``deterministic`` while the batch kernel is bit-identical.
            batch_deterministic=True,
            kernel_binding="repro.sampling.kernels:SampledBoostedBatchKernel",
            rng_note="pull plans fixed at construction from link_seed (Corollary 5)",
            fuzz=(
                FuzzProfile(
                    params=(("sample_size", 3),), max_faults=1, max_rounds=60
                ),
            ),
        ),
    )
}


#: Every adversary strategy name accepted by ``build_adversary``, including
#: the fault-free ``"none"``.
ADVERSARY_SEMANTICS: dict[str, AdversarySemantics] = {
    spec.name: spec
    for spec in (
        AdversarySemantics(
            name="none",
            description="fault-free adversary (F is empty); use for 0-fault grid rows",
            scalar_binding=None,
            kernel_binding=None,
            parameters=(),
            determinism=BIT_IDENTICAL,
        ),
        AdversarySemantics(
            name="crash",
            description="faulty nodes appear stuck, always broadcasting the default state",
            scalar_binding="repro.network.adversary:CrashAdversary",
            kernel_binding="repro.network.batch:CrashBatchKernel",
            parameters=(),
            determinism=BIT_IDENTICAL,
        ),
        AdversarySemantics(
            name="fixed-state",
            description="always broadcast one fixed attacker-chosen state (param 'state', default 0)",
            scalar_binding="repro.network.adversary:FixedStateAdversary",
            kernel_binding="repro.network.batch:FixedStateBatchKernel",
            parameters=(Parameter("state", 0, "the fixed (un-coerced) broadcast state"),),
            determinism=BIT_IDENTICAL,
            fuzz_param_choices=(("state", (0, 1, 2, 3)),),
        ),
        AdversarySemantics(
            name="random-state",
            description="independently random valid state to every receiver",
            scalar_binding="repro.network.adversary:RandomStateAdversary",
            kernel_binding="repro.network.batch:RandomStateBatchKernel",
            parameters=(),
            determinism=STATISTICAL,
        ),
        AdversarySemantics(
            name="split-state",
            description="one random state to even receivers, another to odd, redrawn each round",
            scalar_binding="repro.network.adversary:SplitStateAdversary",
            kernel_binding="repro.network.batch:SplitStateBatchKernel",
            parameters=(),
            determinism=STATISTICAL,
        ),
        AdversarySemantics(
            name="mimic",
            description="echo a rotating correct node's real state, inconsistently across receivers",
            scalar_binding="repro.network.adversary:MimicAdversary",
            kernel_binding="repro.network.batch:MimicBatchKernel",
            parameters=(),
            determinism=BIT_IDENTICAL,
        ),
        AdversarySemantics(
            name="phase-king-skew",
            description="copy a correct inner state but skew the phase king output register",
            scalar_binding="repro.network.adversary:PhaseKingSkewAdversary",
            kernel_binding="repro.network.batch:PhaseKingSkewBatchKernel",
            parameters=(Parameter("offset", 1, "shift applied to the a register"),),
            # Boosted forgeries copy the victim's state with only ``a``
            # skewed and draw nothing; flat counters get random states.
            determinism=DeterminismClass(flat=False, boosted=True),
            fuzz_param_choices=(("offset", (1, 2, -1)),),
        ),
        AdversarySemantics(
            name="adaptive-split",
            description="show each receiver the camp opposite its own output to keep votes split",
            scalar_binding="repro.network.adversary:AdaptiveSplitAdversary",
            kernel_binding="repro.network.batch:AdaptiveSplitBatchKernel",
            parameters=(),
            # Draws randomness only when fabricating states for camp-less
            # boosted targets.
            determinism=FLAT_ONLY,
        ),
    )
}


#: Every fault-schedule preset accepted by
#: :class:`~repro.campaigns.spec.CampaignSpec` and the ``--fault-schedule``
#: flag of ``repro run`` / ``campaign define``.  Schedules replace the per-run
#: adversary with a time-varying plan; none of them is vectorised, so the
#: batching layer degrades them to the scalar engine via a named fallback.
FAULT_SCHEDULE_SEMANTICS: dict[str, FaultScheduleSemantics] = {
    spec.name: spec
    for spec in (
        FaultScheduleSemantics(
            name="churn",
            description="nodes crash, return adversarial, then rejoin correct with arbitrary states",
            builder_binding="repro.faults.schedule:build_churn_schedule",
            parameters=(
                Parameter("start", 5, "round the cohort crashes"),
                Parameter("down", 6, "rounds of silence (crash phase)"),
                Parameter("adversarial", 6, "rounds of active Byzantine behaviour"),
                Parameter("num_faults", None, "cohort size (None -> algorithm f)"),
            ),
            fuzz_param_choices=(("start", (2, 5, 9)), ("down", (3, 6))),
        ),
        FaultScheduleSemantics(
            name="rolling",
            description="a fresh faulty set every period; previous cohort rejoins with random states",
            builder_binding="repro.faults.schedule:build_rolling_schedule",
            parameters=(
                Parameter("start", 0, "round the first rotation begins"),
                Parameter("period", 12, "rounds per rotation"),
                Parameter("rotations", 3, "number of rotations"),
                Parameter("strategy", "random-state", "strategy controlling each rotation"),
                Parameter("num_faults", None, "faults per rotation (None -> algorithm f)"),
            ),
            fuzz_param_choices=(("period", (8, 12)), ("rotations", (2, 3))),
        ),
        FaultScheduleSemantics(
            name="late-adversary",
            description="adversary wakes only after stabilisation, then releases its nodes",
            builder_binding="repro.faults.schedule:build_late_adversary_schedule",
            parameters=(
                Parameter("start", 30, "round the adversary wakes"),
                Parameter("duration", 10, "adversarial rounds (None -> until the end)"),
                Parameter("strategy", "random-state", "strategy controlling the window"),
                Parameter("num_faults", None, "nodes corrupted (None -> algorithm f)"),
            ),
            fuzz_param_choices=(("start", (20, 30)), ("duration", (6, 10))),
        ),
    )
}


# ---------------------------------------------------------------------- #
# Accessors
# ---------------------------------------------------------------------- #


def algorithm_names() -> tuple[str, ...]:
    """Algorithm names, in catalogue (sweep) order."""
    return tuple(ALGORITHM_SEMANTICS)


def _unknown_component(kind: str, name: str) -> ParameterError:
    """The one error for a name that is not a registered ``kind``.

    Algorithm and adversary names share one namespace, so a name of the
    other kind is called out as such rather than reported as unknown.
    """
    catalogues = {"algorithm": ALGORITHM_SEMANTICS, "adversary": ADVERSARY_SEMANTICS}
    other = "adversary" if kind == "algorithm" else "algorithm"
    plural = "algorithms" if kind == "algorithm" else "adversaries"
    known = ", ".join(sorted(catalogues[kind]))
    if name in catalogues[other]:
        return ParameterError(
            f"{name!r} is an {other}, not an {kind}; registered {plural}: {known}"
        )
    return ParameterError(f"unknown {kind} {name!r}; registered {plural}: {known}")


def algorithm_semantics(name: str) -> AlgorithmSemantics:
    """The semantics of one algorithm (:class:`ParameterError` if unknown)."""
    spec = ALGORITHM_SEMANTICS.get(name)
    if spec is None:
        raise _unknown_component("algorithm", name)
    return spec


def build_algorithm(name: str, **params: Any) -> Any:
    """Construct the algorithm ``name``, checking ``params`` against its schema.

    Returns a :class:`~repro.core.algorithm.SynchronousCountingAlgorithm`
    for broadcast-model entries and a
    :class:`~repro.network.pulling.PullingAlgorithm` for pulling-model ones.
    Unknown parameters raise :class:`ParameterError` carrying the schema.
    """
    spec = algorithm_semantics(name)
    spec.validate(params)
    return spec.build(**params)


def adversary_semantics(name: str) -> AdversarySemantics:
    """The semantics of one adversary strategy (``"none"`` included)."""
    spec = ADVERSARY_SEMANTICS.get(name)
    if spec is None:
        raise _unknown_component("adversary", name)
    return spec


def active_strategy_names() -> tuple[str, ...]:
    """Every strategy that controls faulty nodes, sorted (``"none"`` excluded)."""
    return tuple(sorted(name for name in ADVERSARY_SEMANTICS if name != "none"))


def strategy_names() -> tuple[str, ...]:
    """The full strategy vocabulary: ``"none"`` first, then sorted actives."""
    return ("none", *active_strategy_names())


def fault_schedule_names() -> tuple[str, ...]:
    """Fault-schedule preset names, in catalogue order."""
    return tuple(FAULT_SCHEDULE_SEMANTICS)


def fault_schedule_semantics(name: str) -> FaultScheduleSemantics:
    """The semantics of one fault-schedule preset."""
    try:
        return FAULT_SCHEDULE_SEMANTICS[name]
    except KeyError:
        known = ", ".join(fault_schedule_names())
        raise ParameterError(
            f"no semantics declared for fault schedule {name!r}; "
            f"declared schedules: {known}"
        ) from None


def adversary_coverage_notes() -> dict[str, str]:
    """Strategy name -> batch equivalence note, generated from the specs.

    The notes the discovery surfaces and the README coverage matrix show:
    derived from each strategy's declared :class:`DeterminismClass` (and
    cross-checked against the kernels' actual RNG consumption by
    :func:`repro.semantics.selfcheck.verify`), so they can never go stale
    the way a hand-written coverage table can.
    """
    return {
        name: ADVERSARY_SEMANTICS[name].coverage_note()
        for name in strategy_names()
    }
