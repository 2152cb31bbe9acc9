"""Scalar-vs-batch engine benchmarks: whole campaigns as array programs.

The cases below are read by ``scripts/run_benchmarks.py``, which times both
engines with :func:`time_engines` (three alternating runs each, the median
reported) and emits the machine-readable
``BENCH_batch.json`` (``--require-speedup 10`` asserts the per-campaign
speedup the vectorised engine exists for on the headline Figure-1-style
case).

Case catalogue:

* ``figure1-style-randomized-n16`` — the acceptance workload: the randomised
  follow-the-majority counter on ``n = 16`` nodes under the random-state
  adversary, 200 trials.  Randomised, so it runs under ``engine="batch"``
  (statistical equivalence).
* ``naive-majority-n24-mimic`` — a deterministic n = 24 grid whose batch
  results are asserted bit-identical to the scalar engine.
* ``figure2-A12-crash`` — the real Theorem 1 construction ``A(12, 3)``:
  recursive inner counters, leader votes and the phase king, all vectorised.
* ``pseudo-random-boosted-pulling`` — the Corollary 5 pulling-model counter
  (fixed pull plans, bit-identical batch execution).
* ``fixed-state-corollary1`` — the fixed-state adversary kernel
  (deterministic, bit-identical) on the Corollary 1 construction.
* ``phase-king-skew-figure2`` — the targeted phase-king register attack on
  ``A(12, 3)``; on boosted states it draws nothing, so the batch results
  are asserted bit-identical.
* ``adaptive-split-naive-n24`` — the adaptive majority-splitting attack on
  the flat n = 24 baseline, where its kernel is deterministic and the batch
  results are asserted bit-identical.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, replace

from repro.campaigns.batching import BatchExecutor
from repro.campaigns.executor import SerialExecutor
from repro.campaigns.spec import AlgorithmSpec, CampaignSpec

__all__ = ["BatchBenchCase", "BENCH_CASES", "run_case", "time_engines"]


@dataclass(frozen=True)
class BatchBenchCase:
    """One scalar-vs-batch comparison: a campaign plus its batch mode."""

    name: str
    spec: CampaignSpec
    #: Engine for the vectorised run: "auto" for deterministic cases (the
    #: executor must prove bit-identity), "batch" for randomised ones.
    engine: str
    #: Whether scalar and batch results must be byte-identical.
    deterministic: bool
    #: Trial count used by the CI quick mode.
    quick_runs: int = 20


def _case_spec(**kwargs) -> CampaignSpec:
    return CampaignSpec(**{"seed": 0, "engine": "scalar", **kwargs})


BENCH_CASES: tuple[BatchBenchCase, ...] = (
    BatchBenchCase(
        name="figure1-style-randomized-n16",
        spec=_case_spec(
            name="figure1-style-randomized-n16",
            algorithms=(
                AlgorithmSpec.create(
                    "randomized-follow-majority", {"n": 16, "f": 5, "c": 2}
                ),
            ),
            adversaries=("random-state",),
            num_faults=(5,),
            runs_per_setting=200,
            max_rounds=300,
            stop_after_agreement=10,
        ),
        engine="batch",
        deterministic=False,
    ),
    BatchBenchCase(
        name="naive-majority-n24-mimic",
        spec=_case_spec(
            name="naive-majority-n24-mimic",
            algorithms=(
                AlgorithmSpec.create(
                    "naive-majority", {"n": 24, "c": 4, "claimed_resilience": 2}
                ),
            ),
            adversaries=("mimic",),
            num_faults=(2,),
            runs_per_setting=200,
            max_rounds=120,
            stop_after_agreement=8,
        ),
        engine="auto",
        deterministic=True,
    ),
    BatchBenchCase(
        name="figure2-A12-crash",
        spec=_case_spec(
            name="figure2-A12-crash",
            algorithms=(AlgorithmSpec.create("figure2", {"levels": 1, "c": 2}),),
            adversaries=("crash",),
            runs_per_setting=100,
            max_rounds=250,
            stop_after_agreement=10,
        ),
        engine="auto",
        deterministic=True,
    ),
    BatchBenchCase(
        name="pseudo-random-boosted-pulling",
        spec=_case_spec(
            name="pseudo-random-boosted-pulling",
            algorithms=(
                AlgorithmSpec.create("pseudo-random-boosted", {"sample_size": 3}),
            ),
            adversaries=("crash",),
            num_faults=(1,),
            runs_per_setting=100,
            max_rounds=60,
            stop_after_agreement=6,
        ),
        engine="auto",
        deterministic=True,
    ),
    BatchBenchCase(
        name="fixed-state-corollary1",
        spec=_case_spec(
            name="fixed-state-corollary1",
            algorithms=(AlgorithmSpec.create("corollary1", {"f": 1, "c": 2}),),
            adversaries=("fixed-state",),
            num_faults=(1,),
            runs_per_setting=200,
            max_rounds=250,
            stop_after_agreement=10,
        ),
        engine="auto",
        deterministic=True,
    ),
    BatchBenchCase(
        name="phase-king-skew-figure2",
        spec=_case_spec(
            name="phase-king-skew-figure2",
            algorithms=(AlgorithmSpec.create("figure2", {"levels": 1, "c": 2}),),
            adversaries=("phase-king-skew",),
            runs_per_setting=100,
            max_rounds=250,
            stop_after_agreement=10,
        ),
        engine="auto",
        deterministic=True,
    ),
    BatchBenchCase(
        name="adaptive-split-naive-n24",
        spec=_case_spec(
            name="adaptive-split-naive-n24",
            algorithms=(
                AlgorithmSpec.create(
                    "naive-majority", {"n": 24, "c": 4, "claimed_resilience": 2}
                ),
            ),
            adversaries=("adaptive-split",),
            num_faults=(2,),
            runs_per_setting=200,
            max_rounds=120,
            stop_after_agreement=8,
        ),
        engine="auto",
        deterministic=True,
    ),
)


def scaled(case: BatchBenchCase, runs: int | None) -> BatchBenchCase:
    """The case with its per-setting trial count overridden (quick mode)."""
    if runs is None:
        return case
    return replace(case, spec=replace(case.spec, runs_per_setting=runs))


def run_case(case: BatchBenchCase, engine: str):
    """Execute one case on one engine; returns (elapsed, cpu, results, stats).

    ``elapsed`` is wall-clock and ``cpu`` is process CPU time
    (:func:`time.process_time`) over the same window — on the serial
    executors the two track each other, but the CPU column survives noisy
    shared runners where wall-clock lies.
    """
    runs = case.spec.expand()
    if engine == "scalar":
        executor = SerialExecutor()
    else:
        executor = BatchExecutor(engine=engine)
    started = time.perf_counter()
    cpu_started = time.process_time()
    results = executor.run(runs)
    cpu = time.process_time() - cpu_started
    elapsed = time.perf_counter() - started
    return elapsed, cpu, results, executor.stats


def time_engines(case: BatchBenchCase, repeats: int = 1) -> dict:
    """Scalar-vs-batch comparison of one case (with a batch warm-up).

    The warm-up run keeps one-time costs (NumPy submodule imports, kernel
    construction) out of the timing, mirroring a long campaign where they
    amortise to nothing.  The two engines then run ``repeats`` times each,
    alternating, and each time column reports the median run (the spread
    in ``*_min`` / ``*_max``), so one slow run on a shared machine moves
    neither the reading nor the speedup.
    """
    warmup = scaled(case, 2)
    run_case(warmup, case.engine)
    runs: dict[str, list] = {"scalar": [], "batch": []}
    for _ in range(repeats):
        runs["scalar"].append(run_case(case, "scalar"))
        runs["batch"].append(run_case(case, case.engine))
    _, _, scalar_results, _ = runs["scalar"][-1]
    _, _, batch_results, batch_stats = runs["batch"][-1]
    identical = None
    if case.deterministic:
        identical = [r.to_json() for r in scalar_results] == [
            r.to_json() for r in batch_results
        ]
    comparison = {
        "case": case.name,
        "engine": case.engine,
        "runs": len(batch_results),
        "repeats": repeats,
        "deterministic": case.deterministic,
        "identical_results": identical,
        "batched_runs": batch_stats.batched,
        "fallback_runs": batch_stats.fallback,
        "failed_runs": batch_stats.failed,
    }
    for engine, results in (("scalar", scalar_results), ("batch", batch_results)):
        walls = sorted(elapsed for elapsed, _, _, _ in runs[engine])
        wall = statistics.median(walls)
        rounds = sum(r.rounds_simulated for r in results)
        comparison[f"{engine}_seconds"] = wall
        comparison[f"{engine}_seconds_min"] = walls[0]
        comparison[f"{engine}_seconds_max"] = walls[-1]
        comparison[f"{engine}_cpu_seconds"] = statistics.median(
            cpu for _, cpu, _, _ in runs[engine]
        )
        comparison[f"{engine}_rounds_per_second"] = rounds / wall
    comparison["speedup"] = (
        comparison["scalar_seconds"] / comparison["batch_seconds"]
        if comparison["batch_seconds"]
        else None
    )
    return comparison
