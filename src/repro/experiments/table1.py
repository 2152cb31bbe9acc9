"""Experiment E1 — Table 1: comparison of synchronous 2-counting algorithms.

The paper's Table 1 lists, for each algorithm, the resilience, stabilisation
time, number of state bits and whether it is deterministic.  This experiment
reproduces the table with two kinds of rows:

* **published** rows evaluate the formulas of the prior-work algorithms
  exactly as cited by the paper (those algorithms are not re-implemented —
  see DESIGN.md), and
* **measured** rows run the executable algorithms of this library
  (the randomised baseline of [6, 7], the Corollary 1 counter ``A(4, 1)``,
  and the Figure 2 counter ``A(12, 3)``) under Byzantine adversaries and
  report the observed stabilisation times next to the theoretical bounds.

Run with ``python -m repro experiment table1``.
"""

from __future__ import annotations


from repro.analysis.stats import summarize
from repro.campaigns.spec import AlgorithmSpec
from repro.core.recursion import figure2_counter, optimal_resilience_counter
from repro.counters.baselines import PRIOR_WORK_MODELS
from repro.counters.randomized import RandomizedFollowMajorityCounter
from repro.experiments.common import ExperimentResult, run_counter_trials, summarize_trials

__all__ = ["run_table1"]


def run_table1(
    trials: int = 10,
    max_rounds: int = 4000,
    randomized_trials: int = 20,
    randomized_max_rounds: int = 400,
    seed: int = 0,
    executor=None,
) -> ExperimentResult:
    """Regenerate Table 1 (published bounds plus measured rows)."""
    result = ExperimentResult(name="Table 1 — synchronous 2-counting algorithms")

    # Published rows (evaluated at the small reference point n = 4, f = 1 and
    # at the paper's asymptotic regime where applicable).
    for model in PRIOR_WORK_MODELS:
        row = model.row(n=4, f=1)
        result.add_row(
            algorithm=row["name"],
            kind="published",
            resilience=row["resilience"],
            deterministic=row["deterministic"],
            stabilization="%.3g" % row["stabilization_bound"],
            state_bits="%.3g" % row["state_bits"],
            notes=row["notes"],
        )

    # Measured row: the randomised follow-the-majority baseline of [6, 7].
    randomized = RandomizedFollowMajorityCounter(n=4, f=1, c=2, seed=seed)
    randomized_metrics = run_counter_trials(
        randomized,
        adversary="random-state",
        trials=randomized_trials,
        max_rounds=randomized_max_rounds,
        stop_after_agreement=8,
        seed=seed,
        executor=executor,
    )
    randomized_summary = summarize_trials(
        randomized_metrics, bound=randomized.stabilization_bound()
    )
    observed = summarize(
        [
            metric.stabilization_round
            for metric in randomized_metrics
            if metric.stabilization_round is not None
        ]
        or [0.0]
    )
    result.add_row(
        algorithm="Randomised follow-the-majority (measured)",
        kind="measured",
        resilience="f < n/3 (n=4, f=1)",
        deterministic=False,
        stabilization=f"mean {observed.mean:.1f} / max {observed.maximum:.0f}",
        state_bits=randomized.state_bits(),
        notes=f"{randomized_summary['stabilized']}/{randomized_summary['trials']} trials stabilised "
        f"(expected time ~ c^(n-f) = {randomized.expected_stabilization_rounds():.0f})",
    )

    # Measured row: the Corollary 1 counter A(4, 1), run from its catalogue
    # entry so the batch engine can group its trials.
    corollary1 = optimal_resilience_counter(f=1, c=2)
    corollary1_metrics = run_counter_trials(
        AlgorithmSpec.create("corollary1", {"f": 1, "c": 2}),
        adversary="phase-king-skew",
        trials=trials,
        max_rounds=max_rounds,
        stop_after_agreement=16,
        seed=seed + 1,
        executor=executor,
    )
    corollary1_summary = summarize_trials(
        corollary1_metrics, bound=corollary1.stabilization_bound()
    )
    result.add_row(
        algorithm="This work, Corollary 1 base A(4,1) (measured)",
        kind="measured",
        resilience="f = 1, n = 4",
        deterministic=True,
        stabilization=(
            f"mean {corollary1_summary['mean_stabilization']:.1f} / "
            f"max {corollary1_summary['max_stabilization']:.0f} "
            f"(bound {corollary1.stabilization_bound()})"
        ),
        state_bits=corollary1.state_bits(),
        notes=f"{corollary1_summary['stabilized']}/{corollary1_summary['trials']} trials stabilised, "
        f"all within bound: {corollary1_summary['within_bound']}",
    )

    # Measured row: the boosted counter A(12, 3) of Figure 2.
    boosted = figure2_counter(levels=1, c=2)
    boosted_metrics = run_counter_trials(
        AlgorithmSpec.create("figure2", {"levels": 1, "c": 2}),
        adversary="phase-king-skew",
        trials=max(3, trials // 2),
        max_rounds=max_rounds,
        stop_after_agreement=16,
        seed=seed + 2,
        executor=executor,
    )
    boosted_summary = summarize_trials(
        boosted_metrics, bound=boosted.stabilization_bound()
    )
    result.add_row(
        algorithm="This work, Theorem 1 boosted A(12,3) (measured)",
        kind="measured",
        resilience="f = 3, n = 12",
        deterministic=True,
        stabilization=(
            f"mean {boosted_summary['mean_stabilization']:.1f} / "
            f"max {boosted_summary['max_stabilization']:.0f} "
            f"(bound {boosted.stabilization_bound()})"
        ),
        state_bits=boosted.state_bits(),
        notes=f"{boosted_summary['stabilized']}/{boosted_summary['trials']} trials stabilised, "
        f"all within bound: {boosted_summary['within_bound']}",
    )

    result.add_note(
        "Published rows restate the bounds cited in the paper's Table 1; measured rows "
        "are empirical stabilisation times of this library's implementations under "
        "Byzantine adversaries (random-state / phase-king-skew strategies)."
    )
    result.add_note(
        "Measured stabilisation times are far below the worst-case bounds, as expected: "
        "the bounds cover the adversarially worst initial configuration and fault timing."
    )
    return result
