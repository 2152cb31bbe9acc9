"""Campaign orchestration: expand, skip completed, execute, persist.

:func:`run_campaign` ties the pieces together: it expands a
:class:`~repro.campaigns.spec.CampaignSpec` (or takes pre-expanded run
specs), consults the :class:`~repro.campaigns.results.CampaignStore` for runs
that already finished, executes only the remainder on the chosen executor,
appends each result to the store the moment it completes, and returns a
:class:`CampaignReport` with the full result set in grid order.
"""

from __future__ import annotations

import contextlib
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.campaigns.executor import ParallelExecutor, SerialExecutor
from repro.campaigns.results import CampaignStore, RunResult
from repro.campaigns.spec import CampaignSpec, RunSpec
from repro.obs.events import CampaignFinished, CampaignStarted, RunsSkippedOnResume
from repro.obs.observer import Observer, active, default_observer

__all__ = ["CampaignReport", "run_campaign"]

#: Progress callback ``(done, total, result)`` invoked per completed run.
ProgressCallback = Callable[[int, int, RunResult], None]


@dataclass
class CampaignReport:
    """Outcome of one :func:`run_campaign` invocation.

    Attributes
    ----------
    results:
        One result per expanded run, in grid order — both the runs executed
        now and those recovered from the store.
    executed / skipped / failed:
        How many runs were executed in this invocation, skipped because the
        store already held them, and finished with an error.
    elapsed:
        Wall-clock seconds spent executing (zero when everything was skipped).
    fallback_reasons:
        Why groups of runs took the scalar path when a batch-capable
        executor handled the campaign (one ``"<group>: <reason>"`` line per
        group, from the unified
        :class:`~repro.campaigns.executor.ExecutorStats`); empty for scalar
        executors and fully vectorised campaigns.
    metrics:
        Snapshot of the observer's metrics registry taken when the campaign
        finished (``None`` when the campaign ran unobserved); excluded from
        equality so reports stay comparable by outcome.
    """

    results: list[RunResult] = field(default_factory=list)
    executed: int = 0
    skipped: int = 0
    failed: int = 0
    elapsed: float = 0.0
    fallback_reasons: list[str] = field(default_factory=list)
    metrics: dict[str, Any] | None = field(default=None, repr=False, compare=False)

    @property
    def total(self) -> int:
        """Number of runs in the campaign."""
        return len(self.results)


def run_campaign(
    campaign: CampaignSpec | Sequence[RunSpec] | Iterable[RunSpec],
    store: CampaignStore | None = None,
    executor: "SerialExecutor | ParallelExecutor | object | None" = None,
    progress: ProgressCallback | None = None,
    observer: Observer | None = None,
) -> CampaignReport:
    """Run a campaign (resuming from ``store`` when one is given).

    Parameters
    ----------
    campaign:
        A declarative campaign or an explicit list of run specs.
    store:
        Optional JSONL store.  Runs whose ids are already present with a
        successful result are skipped; newly completed runs are appended
        immediately, one flushed line each through one append handle held
        open while the runs execute, so interrupting and re-invoking
        continues where the previous invocation stopped.  With no run
        pending the store is not opened for writing.  Errored runs are
        retried.
    executor:
        Defaults to the executor selected by the campaign's ``engine``
        (``"auto"`` vectorises bit-identical run groups through the batch
        engine); explicit run-spec lists default to the in-process
        :class:`SerialExecutor`.
    progress:
        Optional callback ``(done, total, result)`` fired per completed run.
    observer:
        Optional :class:`~repro.obs.observer.Observer` for lifecycle events
        and metrics; defaults to the process-global default observer
        (installed by the CLI's ``--progress``/``--metrics-out``/
        ``--events-out`` flags), so surface layers can observe campaigns
        without threading the handle through every call site.  The observer
        is also attached to the executor (unless the executor already has
        one), which forwards it into the engines.
    """
    if observer is None:
        observer = default_observer()
    if isinstance(campaign, CampaignSpec):
        runs = campaign.expand()
        name = campaign.name
        if executor is None:
            from repro.campaigns.executor import default_executor

            executor = default_executor(engine=campaign.engine)
    else:
        runs = list(campaign)
        name = "runs"
    executor = executor or SerialExecutor()
    if (
        observer is not None
        and getattr(executor, "observer", "unsupported") is None
    ):
        executor.observer = observer

    recovered: dict[str, RunResult] = {}
    corrupt_lines = 0
    if store is not None:
        run_ids = {run.run_id for run in runs}
        recovered = {
            run_id: result
            for run_id, result in store.latest_by_id().items()
            if run_id in run_ids and result.error is None
        }
        corrupt_lines = store.corrupt_lines
        if corrupt_lines:
            warnings.warn(
                f"campaign store {store.path} contained {corrupt_lines} "
                "unparseable line(s); the affected runs will execute again",
                RuntimeWarning,
                stacklevel=2,
            )
    pending = [run for run in runs if run.run_id not in recovered]

    obs = active(observer)
    if obs is not None:
        metrics = obs.metrics
        metrics.counter("campaign.runs_total").inc(len(runs))
        if corrupt_lines:
            metrics.counter("campaign.store_corrupt_lines").inc(corrupt_lines)
        obs.emit(
            CampaignStarted(
                name=name,
                total_runs=len(runs),
                pending=len(pending),
                skipped=len(recovered),
            )
        )
        if recovered:
            # The resume gap fix: without this, a resumed campaign's
            # progress silently restarts from zero even though most of the
            # grid is already done.
            metrics.counter("campaign.runs_skipped_on_resume").inc(len(recovered))
            obs.emit(
                RunsSkippedOnResume(count=len(recovered), total=len(runs))
            )

    done = 0

    def on_result(result: RunResult) -> None:
        nonlocal done
        done += 1
        if store is not None:
            store.append(result)
        if progress is not None:
            progress(done, len(pending), result)

    started = time.perf_counter()
    executed: list[RunResult] = []
    if pending:
        # One append handle for the whole campaign, opened only when there
        # is something to write.
        with store if store is not None else contextlib.nullcontext():
            executed = executor.run(pending, on_result=on_result)
    elapsed = time.perf_counter() - started if pending else 0.0

    by_id = dict(recovered)
    by_id.update({result.run_id: result for result in executed})
    results = [by_id[run.run_id] for run in runs]
    stats = getattr(executor, "stats", None)
    failed = sum(1 for result in executed if result.error is not None)
    snapshot: dict[str, Any] | None = None
    if obs is not None:
        metrics = obs.metrics
        metrics.counter("campaign.runs_executed").inc(len(executed))
        metrics.counter("campaign.runs_failed").inc(failed)
        obs.emit(
            CampaignFinished(
                name=name,
                executed=len(executed),
                skipped=len(recovered),
                failed=failed,
                elapsed_seconds=elapsed,
            )
        )
        snapshot = metrics.snapshot()
    return CampaignReport(
        results=results,
        executed=len(executed),
        skipped=len(recovered),
        failed=failed,
        elapsed=elapsed,
        fallback_reasons=list(getattr(stats, "fallback_reasons", ()) or ()),
        metrics=snapshot,
    )
