"""Parallel simulation-campaign engine.

The experiments of this reproduction all reduce to the same workload: run
:func:`~repro.network.simulator.run_simulation` many times over a grid of
{algorithm, adversary, fault pattern, seed} settings and aggregate
stabilisation statistics.  This package turns that workload into a first-class
subsystem:

* :mod:`repro.campaigns.spec` — declarative :class:`CampaignSpec` grids that
  expand into explicit, self-contained :class:`RunSpec` objects.  All
  randomness (fault sets, simulator seeds) is derived eagerly with
  :func:`repro.util.rng.derive_rng`, so a run's outcome is a pure function of
  its spec.  A run names catalogue entries only: each algorithm runs in the
  communication model its catalogue entry declares (Section 2 broadcast or
  Section 5 pulling, the latter recording ``max_pulls`` / ``max_bits`` per
  run), so one grid may mix models.
* :mod:`repro.campaigns.executor` — a :class:`SerialExecutor` (the reference)
  and a :class:`ParallelExecutor` that distributes chunks of runs over a
  :mod:`multiprocessing` pool.  Both produce **bit-identical per-run
  results**; parallelism changes throughput, never outcomes.  Failures are
  accounted per run (``RunResult.error``), never raised mid-campaign.
* :mod:`repro.campaigns.results` — the compact :class:`RunResult` reduction
  of a run summary (stabilisation round, agreement fraction, message
  counts, recovery), the append-only JSONL :class:`CampaignStore` with
  resume-by-skipping-completed-runs, and :func:`summarize_results`.
* :mod:`repro.campaigns.runner` — :func:`run_campaign`, the orchestration
  loop: expand, skip completed, execute, persist as results stream in.
* :mod:`repro.campaigns.cli` — the ``python -m repro campaign`` command with
  ``define`` / ``run`` / ``resume`` / ``summarize`` subcommands.

Quick start::

    from repro.campaigns import (
        AlgorithmSpec, CampaignSpec, CampaignStore, ParallelExecutor,
        run_campaign, summarize_results,
    )

    spec = CampaignSpec(
        name="figure2-sweep",
        algorithms=(AlgorithmSpec.create("figure2", {"levels": 1, "c": 2}),),
        adversaries=("crash", "phase-king-skew"),
        runs_per_setting=50,
        max_rounds=4000,
        stop_after_agreement=12,
    )
    report = run_campaign(
        spec,
        store=CampaignStore("figure2.jsonl"),
        executor=ParallelExecutor(),
    )
    print(summarize_results(report.results).format_table())

The experiment harness (:mod:`repro.experiments`) runs its trials through
this engine, so ``run_counter_trials`` and the scaling/ablation tables can be
parallelised with an ``executor`` argument or the modules' ``--jobs`` flag.
"""

from repro.campaigns.executor import (
    ExecutorStats,
    ParallelExecutor,
    SerialExecutor,
    default_executor,
    execute_run,
)
from repro.campaigns.results import (
    CampaignStore,
    RunResult,
    reduce_values,
    summarize_results,
)
from repro.campaigns.runner import CampaignReport, run_campaign
from repro.campaigns.spec import (
    FAULT_PATTERNS,
    AlgorithmSpec,
    CampaignSpec,
    RunSpec,
)

__all__ = [
    "AlgorithmSpec",
    "CampaignSpec",
    "RunSpec",
    "FAULT_PATTERNS",
    "RunResult",
    "CampaignStore",
    "reduce_values",
    "summarize_results",
    "execute_run",
    "ExecutorStats",
    "SerialExecutor",
    "ParallelExecutor",
    "default_executor",
    "CampaignReport",
    "run_campaign",
]
