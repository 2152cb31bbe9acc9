"""Serial and multiprocessing executors for campaign runs.

Both executors evaluate the same pure function, :func:`execute_run`, over a
list of :class:`~repro.campaigns.spec.RunSpec` objects.  Because every spec
pins its own faulty set and simulator seed, the per-run results are
bit-identical regardless of executor, process count or completion order —
parallelism changes throughput, never results.

The parallel executor distributes chunks of specs over a process pool
(:class:`concurrent.futures.ProcessPoolExecutor`) and streams results back
as they complete, so the runner can persist and report progress
incrementally.  Failures are *accounted*, not raised: a run that throws is
returned as a :class:`~repro.campaigns.results.RunResult` with its ``error``
field set.  A worker process dying outright (OOM kill, segfault) breaks the
pool; the executor detects :class:`~concurrent.futures.process.BrokenProcessPool`,
retries the unfinished runs once on the serial path, and records the event
as a named fallback — a dead worker costs throughput, never results.
"""

from __future__ import annotations

import copy
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.campaigns.results import RunResult, reduce_values
from repro.campaigns.spec import AlgorithmSpec, RunSpec
from repro.network.engine import ModelAdapter, run_engine
from repro.network.pulling import PullingModel
from repro.network.simulator import BroadcastModel
from repro.obs.events import FallbackTaken, RunFinished, RunStarted
from repro.obs.observer import Observer, active, default_observer
from repro.util.rng import derive_rng

__all__ = [
    "execute_run",
    "resolve_observer",
    "ExecutorStats",
    "SerialExecutor",
    "ParallelExecutor",
    "default_executor",
]

#: Callback invoked with every completed result (used for persistence and
#: progress display).
ResultCallback = Callable[[RunResult], None]


def execute_run(spec: RunSpec, observer: Observer | None = None) -> RunResult:
    """Execute one run spec and reduce its summary — the executors' work unit.

    The engine runs without recording a trace: the run's
    :class:`~repro.network.stabilization.RunSummary` goes straight to
    :func:`~repro.campaigns.results.reduce_values`.

    Never raises: any exception (unknown component name, simulation error, ...)
    is captured in the returned result's ``error`` field so one broken run
    cannot abort a campaign.

    Purity: a caller-provided algorithm *instance* is deep-copied so that
    runs never share mutable state (a shared instance would make results
    depend on execution order and process placement), the adversary is
    built afresh from its strategy name, and non-deterministic algorithms
    exposing ``reseed`` are reseeded from the spec's ``sim_seed`` so their
    internal randomness is pinned per run.
    ``observer`` is forwarded into the simulation engine (in-process callers
    only — pool workers always run unobserved and report timings back by
    value instead).
    """
    try:
        algorithm = spec.resolve_algorithm()
        if not isinstance(spec.algorithm, AlgorithmSpec):
            algorithm = copy.deepcopy(algorithm)
        reseed = getattr(algorithm, "reseed", None)
        if not algorithm.deterministic and callable(reseed):
            reseed(derive_rng(spec.sim_seed, "algorithm-rng").getrandbits(64))
        adversary = spec.resolve_adversary()
        # Loss/delay knobs and fault schedules (validated against the
        # algorithm and the baseline adversary inside the broadcast model;
        # RunSpec itself rejects perturbed pulling runs).
        model: ModelAdapter
        if spec.model == "pulling":
            model = PullingModel(algorithm, adversary)
        else:
            model = BroadcastModel(algorithm, adversary, spec.resolve_perturbations())
        summary, _ = run_engine(
            model,
            max_rounds=spec.max_rounds,
            stop_after_agreement=spec.stop_after_agreement,
            trace=False,
            seed=spec.sim_seed,
            observer=observer,
        )
        return reduce_values(spec, algorithm, summary)
    except Exception as exc:  # noqa: BLE001 - failure accounting by design
        return RunResult(
            run_id=spec.run_id,
            algorithm=spec.algorithm_label(),
            adversary=spec.adversary_label(),
            n=0,
            f=0,
            c=0,
            faulty=tuple(spec.faulty),
            sim_seed=spec.sim_seed,
            rounds_simulated=0,
            stabilized=False,
            stabilization_round=None,
            within_bound=None,
            agreement_fraction=0.0,
            stopped_early=False,
            messages_sent=0,
            error=f"{type(exc).__name__}: {exc}",
            model=spec.model,
        )


def _execute_chunk(
    items: list[tuple[int, RunSpec]]
) -> list[tuple[int, RunResult, float]]:
    """Pool work function: run one chunk, carrying submission indices through.

    Results are reassembled by position, not ``run_id``, so executors behave
    identically even when a caller-supplied spec list repeats an id.  Each
    run's wall time is measured in the worker and serialised back with the
    result — the parent merges it into its metrics at receive time, so no
    registry is ever shared across processes.
    """
    out: list[tuple[int, RunResult, float]] = []
    for index, spec in items:
        started = time.perf_counter()
        result = execute_run(spec)
        out.append((index, result, time.perf_counter() - started))
    return out


@dataclass
class ExecutorStats:
    """Progress, failure and execution-path accounting for one executor run.

    One dataclass serves every executor: the scalar executors only touch
    ``total``/``completed``/``failed``, while the batch executor also
    accounts the batched-vs-scalar path split (``batched`` / ``fallback`` /
    ``fallback_reasons``).  When ``metrics`` is set (an active observer's
    :class:`~repro.obs.metrics.MetricsRegistry`), every recording also bumps
    the corresponding ``executor.*`` counters, so reports and metric
    snapshots can never drift apart.
    """

    total: int = 0
    completed: int = 0
    failed: int = 0
    #: Runs executed through the vectorised batch engine.
    batched: int = 0
    #: Runs that a batched group handed back to the scalar engine (either
    #: no kernel coverage in ``auto`` mode, or a runtime batch failure).
    fallback: int = 0
    #: Why each scalar group fell back, as ``"<group>: <reason>"`` lines —
    #: one entry per group (not per run), in execution order.  This is the
    #: anti-silent-fallback surface: the CLI prints it, and the benchmark
    #: harness asserts it stays empty for kernel-covered campaigns.
    fallback_reasons: list[str] = field(default_factory=list)
    #: Backing metrics registry (``None`` when unobserved); excluded from
    #: equality so stats comparisons stay value-based.
    metrics: Any = field(default=None, repr=False, compare=False)

    def record(self, result: RunResult) -> None:
        """Account one finished run."""
        self.completed += 1
        if result.error is not None:
            self.failed += 1
        if self.metrics is not None:
            self.metrics.counter("executor.runs_completed").inc()
            if result.error is not None:
                self.metrics.counter("executor.runs_failed").inc()

    def record_batched(self, runs: int) -> None:
        """Account ``runs`` runs executed on the vectorised path."""
        self.batched += runs
        if self.metrics is not None:
            self.metrics.counter("executor.runs_batched").inc(runs)

    def record_fallback(self, label: str, runs: int, reason: str) -> None:
        """Account one group (of ``runs`` runs) taking the scalar path."""
        self.fallback += runs
        self.fallback_reasons.append(f"{label}: {reason}")
        if self.metrics is not None:
            self.metrics.counter("executor.fallback_runs").inc(runs)
            self.metrics.counter("executor.fallback_groups").inc()


def resolve_observer(observer: Observer | None) -> Observer | None:
    """An executor's active observer, falling back to the process default.

    Executors are the chokepoint every campaign *and* every experiment
    script runs through, so the default-observer fallback lives here: the
    CLI's ``--progress``/``--metrics-out``/``--events-out`` flags install a
    process default, and code that drives an executor directly (the
    experiment modules call ``executor.run`` without going through
    :func:`~repro.campaigns.runner.run_campaign`) is still observed.  Pass
    :data:`~repro.obs.observer.NULL_OBSERVER` explicitly to suppress
    observation regardless of the installed default — the batch executor
    does this for its inner scalar-leftover executor, which must not emit a
    second ``run_finished`` per run.
    """
    if observer is None:
        observer = default_observer()
    return active(observer)


def _emit_run_finished(
    obs: Observer, result: RunResult, seconds: float | None
) -> None:
    """Record one finished run into an active observer (events + metrics)."""
    if seconds is not None:
        obs.metrics.histogram("run.seconds").observe(seconds)
    obs.metrics.histogram("run.rounds").observe(result.rounds_simulated)
    obs.emit(
        RunFinished(
            run_id=result.run_id,
            error=result.error,
            stabilized=result.stabilized,
            stabilization_round=result.stabilization_round,
            rounds=result.rounds_simulated,
            seconds=seconds,
        )
    )


class SerialExecutor:
    """Run every spec in-process, in order — the reference executor."""

    def __init__(self, observer: Observer | None = None) -> None:
        self.observer = observer
        self.stats = ExecutorStats()

    def run(
        self, specs: Iterable[RunSpec], on_result: ResultCallback | None = None
    ) -> list[RunResult]:
        """Execute all specs and return their results in submission order."""
        spec_list = list(specs)
        obs = resolve_observer(self.observer)
        self.stats = ExecutorStats(
            total=len(spec_list), metrics=obs.metrics if obs is not None else None
        )
        results: list[RunResult] = []
        for spec in spec_list:
            if obs is not None:
                obs.emit(RunStarted(run_id=spec.run_id))
                started = time.perf_counter()
            result = execute_run(spec, observer=obs)
            if obs is not None:
                _emit_run_finished(obs, result, time.perf_counter() - started)
            self.stats.record(result)
            if on_result is not None:
                on_result(result)
            results.append(result)
        return results


class ParallelExecutor:
    """Distribute specs over a process pool in chunks.

    Parameters
    ----------
    processes:
        Worker count; defaults to the machine's CPU count.
    chunksize:
        Specs per task handed to a worker; defaults to roughly four tasks
        per worker, which amortises IPC overhead while keeping the work
        distribution balanced when run durations vary.
    observer:
        Optional :class:`~repro.obs.observer.Observer`.  Workers never see
        it — they measure locally (per-run wall time travels back with each
        result) and the parent records events and metrics at receive time,
        so there is no shared mutable state across processes.

    A worker dying outright (OOM kill, segfault, ``os._exit``) breaks the
    whole pool — :class:`~concurrent.futures.process.BrokenProcessPool` —
    and takes every in-flight chunk's results with it.  The executor treats
    that as a degradation, not a loss: the runs without a result are retried
    once on the serial path in-process, the event is recorded in
    :attr:`ExecutorStats.fallback_reasons` and (when observed) emitted as a
    :class:`~repro.obs.events.FallbackTaken` event.  A run that crashes the
    worker deterministically therefore surfaces as the *serial* retry
    crashing the parent — loudly — rather than hanging or vanishing.
    """

    def __init__(
        self,
        processes: int | None = None,
        chunksize: int | None = None,
        observer: Observer | None = None,
    ) -> None:
        self.processes = processes
        self.chunksize = chunksize
        self.observer = observer
        self.stats = ExecutorStats()

    def _resolve_pool_shape(self, num_specs: int) -> tuple[int, int]:
        """Pick (processes, chunksize) for the given workload size."""
        processes = self.processes or os.cpu_count() or 1
        processes = max(1, min(processes, num_specs))
        if self.chunksize is not None:
            chunksize = max(1, self.chunksize)
        else:
            chunksize = max(1, -(-num_specs // (processes * 4)))
        return processes, chunksize

    def run(
        self, specs: Iterable[RunSpec], on_result: ResultCallback | None = None
    ) -> list[RunResult]:
        """Execute all specs and return their results in submission order.

        Results stream back in completion order internally (so persistence
        and progress are incremental) but the returned list follows the
        submission order of ``specs``, matching :class:`SerialExecutor`.
        """
        spec_list = list(specs)
        obs = resolve_observer(self.observer)
        self.stats = ExecutorStats(
            total=len(spec_list), metrics=obs.metrics if obs is not None else None
        )
        if not spec_list:
            return []
        processes, chunksize = self._resolve_pool_shape(len(spec_list))
        if processes == 1:
            # A one-worker pool would only add IPC overhead.
            serial = SerialExecutor(observer=self.observer)
            results = serial.run(spec_list, on_result=on_result)
            self.stats = serial.stats
            return results

        collected: list[RunResult | None] = [None] * len(spec_list)

        def finish(index: int, result: RunResult, seconds: float) -> None:
            self.stats.record(result)
            if obs is not None:
                # Worker-side measurements are merged here, at the join
                # point — run_started is not emitted for pooled runs
                # because the parent only learns of a run when it is
                # already done.
                _emit_run_finished(obs, result, seconds)
            if on_result is not None:
                on_result(result)
            collected[index] = result

        indexed = list(enumerate(spec_list))
        chunks = [
            indexed[start : start + chunksize]
            for start in range(0, len(indexed), chunksize)
        ]
        pool_broken = False
        with ProcessPoolExecutor(max_workers=processes) as pool:
            futures = []
            try:
                for chunk in chunks:
                    futures.append(pool.submit(_execute_chunk, chunk))
            except BrokenProcessPool:
                # A worker died before the last chunk was submitted: the
                # chunks never submitted have no result either, so they are
                # retried below with every other run a dead worker lost.
                pool_broken = True
            for future in as_completed(futures):
                try:
                    batch = future.result()
                except BrokenProcessPool:
                    # A dead worker poisons the whole pool: this chunk and
                    # every still-pending one resolve to the same error.
                    # Keep draining — chunks that completed before the death
                    # still carry results — and recover below.
                    pool_broken = True
                    continue
                for index, result, seconds in batch:
                    finish(index, result, seconds)

        if pool_broken:
            missing = [
                index for index, result in enumerate(collected) if result is None
            ]
            reason = (
                "worker process died (BrokenProcessPool); retrying the "
                f"{len(missing)} affected run(s) on the serial executor"
            )
            self.stats.record_fallback("parallel-executor", len(missing), reason)
            if obs is not None:
                obs.emit(
                    FallbackTaken(
                        label="parallel-executor", runs=len(missing), reason=reason
                    )
                )
            for index in missing:
                started = time.perf_counter()
                result = execute_run(spec_list[index], observer=obs)
                finish(index, result, time.perf_counter() - started)
        return [result for result in collected if result is not None]


def default_executor(jobs: int | None = None, engine: str | None = None):
    """Executor factory used by the CLIs and :func:`~repro.campaigns.run_campaign`.

    ``engine`` selects the execution path: ``None`` / ``"scalar"`` keeps the
    per-run engines (serial for ``jobs in (None, 0, 1)``, multiprocessing
    otherwise); ``"auto"`` / ``"batch"`` return the
    :class:`~repro.campaigns.batching.BatchExecutor`, which vectorises
    kernel-covered run groups and delegates the rest to the scalar path
    (over ``jobs`` worker processes when ``jobs > 1``).
    """
    if engine is not None and engine not in ("scalar", "auto", "batch"):
        from repro.campaigns.spec import ENGINES
        from repro.core.errors import ParameterError

        raise ParameterError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    if engine in ("auto", "batch"):
        try:
            from repro.campaigns.batching import BatchExecutor
        except ImportError as exc:
            # The batch engine is built on NumPy; without it, "auto" simply
            # keeps the scalar path while an explicit "batch" request fails
            # loudly.
            if engine == "batch":
                from repro.core.errors import ParameterError

                raise ParameterError(
                    "engine='batch' requires numpy; install it or use "
                    "engine='scalar'"
                ) from exc
        else:
            return BatchExecutor(engine=engine, processes=jobs)
    if jobs is not None and jobs > 1:
        return ParallelExecutor(processes=jobs)
    return SerialExecutor()
