"""Experiments E9–E10 — the pulling model: Theorem 4, Corollaries 4 and 5.

Section 5 replaces the full broadcast by random sampling in the pulling
model.  The quantitative claims checked here:

* **Theorem 4 / Corollary 4** — the sampled boosted counter stabilises (with
  high probability) within the same bound as the deterministic construction
  while every node pulls only ``O(k log η)`` messages per round.  We measure
  pulls per round for a sweep of sample sizes ``M``, the empirical
  stabilisation success and the post-stabilisation per-round failure rate.
* **Corollary 5** — fixing the sampling choices once (pseudo-random counter)
  still stabilises with high probability against an *oblivious* adversary,
  and after stabilisation the behaviour is deterministic.

Both experiments run through the campaign engine (:mod:`repro.campaigns`):
the trials are expressed as explicit :class:`RunSpec` objects over
pulling-model counters, which run in the pulling model their catalogue
entries declare (with the exact RNG derivation the pre-campaign loops used,
so every simulated trace and every measured value is unchanged) and executed
by any campaign executor — pass a
:class:`~repro.campaigns.executor.ParallelExecutor` or use the module's
``--jobs`` flag to fan trials out over worker processes.  One display-only
difference from the pre-campaign tables: non-stabilized Corollary 5 rows
show ``tail_rounds = "-"`` where the old code printed the (shorter than the
confirmation window) correct-suffix length, which the compact
:class:`~repro.campaigns.results.RunResult` does not carry.

Scale caveat (documented in DESIGN.md): the Chernoff margins of Lemma 8
require the faulty fraction to be bounded away from ``1/3`` *relative to the
sampling noise*; at laptop scale (``N = 12``) the recommended sample size
``M₀ = Θ(log η)`` exceeds ``N``, so the experiments inject a small number of
faults (fraction ``1/12``) to exhibit the high-probability behaviour, and a
separate sweep with the maximal fault budget shows the failure-probability
cliff for small ``M``.

Run with ``python -m repro experiment pulling [--jobs N]``.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.bounds import corollary4_pull_bound
from repro.analysis.metrics import post_agreement_failure_rate
from repro.campaigns.executor import ParallelExecutor, SerialExecutor
from repro.campaigns.results import RunResult
from repro.campaigns.spec import RunSpec
from repro.core.errors import ParameterError, SimulationError
from repro.experiments.common import ExperimentResult
from repro.network.adversary import random_faulty_set
from repro.sampling.thresholds import recommended_sample_size
from repro.semantics import build_algorithm
from repro.util.rng import derive_rng, ensure_rng

__all__ = ["run_corollary4", "run_corollary5", "post_agreement_failure_rate"]


def _execute_specs(
    specs: Sequence[RunSpec],
    executor: SerialExecutor | ParallelExecutor | None,
) -> dict[str, RunResult]:
    """Run the specs on the given executor and index the results by run id."""
    executor = executor or SerialExecutor()
    results = executor.run(list(specs))
    for result in results:
        if result.error is not None:
            raise SimulationError(f"run {result.run_id} failed: {result.error}")
    return {result.run_id: result for result in results}


def run_corollary4(
    sample_sizes: tuple[int, ...] = (2, 4, 8, 16, 32),
    trials: int = 3,
    max_rounds: int = 300,
    num_faults: int = 1,
    stress_faults: int = 3,
    seed: int = 0,
    executor: SerialExecutor | ParallelExecutor | None = None,
) -> ExperimentResult:
    """E9 — messages pulled per round, stabilisation and reliability vs sample size M."""
    if trials < 1:
        raise ParameterError(f"trials must be at least 1, got {trials}")
    result = ExperimentResult(name="Corollary 4 — pulling model: messages per round vs sample size")
    master = ensure_rng(seed)

    # The catalogue defaults build the 12-node A(12, 3)-equivalent counter
    # over the Corollary 1 base A(4, 1) with inner counter size 960.
    counters = {
        M: build_algorithm("sampled-boosted", sample_size=M) for M in sample_sizes
    }
    # The RNG derivation below (one "c4" stream then one "c4-stress" stream
    # per (M, trial), in grid order) matches the pre-campaign loop exactly,
    # so the published table values are unchanged.
    specs: list[RunSpec] = []
    for M in sample_sizes:
        counter = counters[M]
        for trial in range(trials):
            rng = derive_rng(master, "c4", M, trial)
            faulty = random_faulty_set(counter.n, num_faults, rng=rng)
            specs.append(
                RunSpec(
                    run_id=f"c4/M{M}/t{trial}",
                    algorithm=counter,
                    adversary="phase-king-skew",
                    faulty=tuple(sorted(faulty)),
                    sim_seed=rng.getrandbits(32),
                    max_rounds=max_rounds,
                    stop_after_agreement=None,
                    min_tail=20,
                )
            )
            stress_rng = derive_rng(master, "c4-stress", M, trial)
            stress_faulty = random_faulty_set(counter.n, stress_faults, rng=stress_rng)
            specs.append(
                RunSpec(
                    run_id=f"c4-stress/M{M}/t{trial}",
                    algorithm=counter,
                    adversary="phase-king-skew",
                    faulty=tuple(sorted(stress_faulty)),
                    sim_seed=stress_rng.getrandbits(32),
                    max_rounds=max_rounds // 2,
                    stop_after_agreement=None,
                    min_tail=20,
                )
            )

    by_id = _execute_specs(specs, executor)

    for M in sample_sizes:
        counter = counters[M]
        main_runs = [by_id[f"c4/M{M}/t{trial}"] for trial in range(trials)]
        stress_runs = [by_id[f"c4-stress/M{M}/t{trial}"] for trial in range(trials)]
        stabilized = sum(int(run.stabilized) for run in main_runs)
        max_pulls = max(run.max_pulls or 0 for run in main_runs)
        failure_rates = [run.post_agreement_failure_rate or 0.0 for run in main_runs]
        stress_failure_rates = [
            run.post_agreement_failure_rate or 0.0 for run in stress_runs
        ]
        result.add_row(
            M=M,
            pulls_per_round=counter.expected_pulls_per_round(),
            measured_max_pulls=max_pulls,
            broadcast_equivalent=counter.n,
            pull_bound_envelope=round(corollary4_pull_bound(counter.n, counter.f), 1),
            stabilized=f"{stabilized}/{trials}",
            failure_rate_f1=round(sum(failure_rates) / len(failure_rates), 4),
            failure_rate_f3=round(sum(stress_failure_rates) / len(stress_failure_rates), 4),
        )
    result.add_row(
        M="M0 (Lemma 8)",
        pulls_per_round="-",
        measured_max_pulls="-",
        broadcast_equivalent="-",
        pull_bound_envelope="-",
        stabilized="-",
        failure_rate_f1="-",
        failure_rate_f3=f"recommended M0 = {recommended_sample_size(12)} >> N at this scale",
    )
    result.add_note(
        "pulls_per_round = n + k*M + M + (F+2): own block, per-block samples, phase king "
        "samples and the F+2 candidate kings (see DESIGN.md for the king-pulling note)."
    )
    result.add_note(
        "failure_rate_f1 / failure_rate_f3: per-round disagreement rate after the first "
        "agreement with 1 resp. 3 Byzantine nodes.  The rate drops as M grows (Lemma 8's "
        "Chernoff shape); with the maximal fault budget the 3/12 faulty fraction leaves "
        "so little margin to the 2/3 threshold that laptop-scale M cannot absorb it — "
        "exactly why Lemma 8's M0 = Θ(log η) only beats broadcast for large η."
    )
    return result


def run_corollary5(
    link_seeds: tuple[int, ...] = (0, 1, 2, 3, 4, 5, 6, 7),
    sample_size: int = 6,
    max_rounds: int = 400,
    confirm_rounds: int = 60,
    num_faults: int = 1,
    seed: int = 0,
    executor: SerialExecutor | ParallelExecutor | None = None,
) -> ExperimentResult:
    """E10 — pseudo-random counters against an oblivious adversary."""
    if not link_seeds:
        raise ParameterError("link_seeds must list at least one seed")
    result = ExperimentResult(name="Corollary 5 — pseudo-random sampling, oblivious adversary")
    master = ensure_rng(seed)
    # Oblivious adversary: the faulty set is fixed before the link seeds are drawn.
    oblivious_faulty = frozenset(random_faulty_set(12, num_faults, rng=12345))
    specs: list[RunSpec] = []
    for link_seed in link_seeds:
        counter = build_algorithm(
            "pseudo-random-boosted", sample_size=sample_size, link_seed=link_seed
        )
        rng = derive_rng(master, "c5", link_seed)
        specs.append(
            RunSpec(
                run_id=f"c5/seed{link_seed}",
                algorithm=counter,
                adversary="random-state",
                faulty=tuple(sorted(oblivious_faulty)),
                sim_seed=rng.getrandbits(32),
                max_rounds=max_rounds,
                stop_after_agreement=None,
                min_tail=confirm_rounds,
            )
        )

    by_id = _execute_specs(specs, executor)

    successes = 0
    for link_seed in link_seeds:
        run = by_id[f"c5/seed{link_seed}"]
        successes += int(run.stabilized)
        # The compact RunResult does not keep sub-window correct suffixes, so
        # non-stabilized rows show "-" where the full trace would show the
        # (too short) suffix length.
        tail_rounds = (
            run.rounds_simulated - run.stabilization_round
            if run.stabilization_round is not None
            else "-"
        )
        result.add_row(
            link_seed=link_seed,
            stabilized=run.stabilized,
            round=run.stabilization_round if run.stabilization_round is not None else "-",
            tail_rounds=tail_rounds,
            failure_rate_after_agreement=round(
                run.post_agreement_failure_rate or 0.0, 4
            ),
        )
    result.add_row(
        link_seed="overall",
        stabilized=f"{successes}/{len(link_seeds)}",
        round="-",
        tail_rounds="-",
        failure_rate_after_agreement="-",
    )
    result.add_note(
        "The faulty set is chosen independently of the link seed (oblivious adversary); "
        "Corollary 5 predicts stabilisation for all but a vanishing fraction of link "
        "seeds and fully deterministic counting once the fixed links avoid bad samples "
        "(failure_rate_after_agreement = 0 for successful seeds)."
    )
    return result
