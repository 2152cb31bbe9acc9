"""Transparent batched execution of campaign runs.

:class:`BatchExecutor` is the engine-aware executor behind the
``engine="auto" | "batch"`` knob of :class:`~repro.campaigns.spec.CampaignSpec`
(``--engine`` of ``repro run`` and ``repro campaign``).  It partitions the
expanded :class:`~repro.campaigns.spec.RunSpec` list into *groups* of trials
that share one configuration — same declarative algorithm, same adversary
strategy and parameters, same fault count and simulation envelope, differing
only in seed and faulty set — and runs each kernel-covered group through the
vectorised batch engine (:func:`repro.network.batch.run_batch_summaries`)
instead of one scalar simulation per run.  Both paths reduce their per-run
:class:`~repro.network.stabilization.RunSummary` through the one
:func:`~repro.campaigns.results.reduce_values`.  Everything else (pre-built algorithm
instances, strategies without a kernel, algorithms whose parameters overflow
the kernels' int64 arithmetic) falls back to the scalar
:func:`~repro.campaigns.executor.execute_run`, so results exist for every
spec regardless of coverage.

Engine semantics:

* ``"auto"`` — batch only the groups whose execution is *provably
  bit-identical* to the scalar engine
  (:func:`~repro.network.batch.bit_identical`).  Randomised configurations
  keep the scalar path, so campaign results never silently change
  distribution-only.
* ``"batch"`` — batch every kernel-covered group, including randomised ones
  (statistically equivalent, with an ``rng`` note in the trace metadata);
  raise :class:`~repro.core.errors.ParameterError` for groups with no kernel
  coverage instead of silently falling back.

The executor's stats (the unified
:class:`~repro.campaigns.executor.ExecutorStats`) report how many runs took
which path (``batched`` / ``fallback``), which the benchmark harness and the
CI smoke job use to detect silent fallbacks; with an observer attached the
same information flows out as :class:`~repro.obs.events.BatchGroupScheduled`
/ :class:`~repro.obs.events.FallbackTaken` events and ``executor.*``
counters.
"""

from __future__ import annotations

from typing import Iterable

from repro.campaigns.executor import (
    ExecutorStats,
    ParallelExecutor,
    ResultCallback,
    _emit_run_finished,
    execute_run,
    resolve_observer,
)
from repro.campaigns.results import RunResult, reduce_values
from repro.campaigns.spec import AlgorithmSpec, RunSpec
from repro.core.errors import ParameterError
from repro.network.batch import (
    BatchTrial,
    adversary_kernel_available,
    bit_identical,
    build_batch_kernel,
    run_batch_summaries,
)
from repro.obs.events import BatchGroupScheduled, FallbackTaken
from repro.obs.observer import NULL_OBSERVER, Observer

__all__ = ["BatchExecutor", "group_runs"]

#: The batch path's reduction under the name the end-to-end benchmark's
#: ``campaigns.batching.reduce_summary`` span wraps; it is :func:`reduce_values`.
reduce_summary = reduce_values


def _group_label(spec: RunSpec, algorithm=None) -> str:
    """Human-readable identity of one batchable group.

    Names everything a user needs to recognise the offending grid
    coordinate — algorithm (with parameters), adversary strategy, and the
    ``n``/``f`` envelope — so fallback reasons and forced-batch errors never
    point at a bare strategy name.
    """
    label = f"{spec.algorithm_label()} x {spec.adversary_label()}"
    if algorithm is not None:
        label += f" (n={algorithm.n}, f={len(spec.faulty)})"
    else:
        label += f" (f={len(spec.faulty)})"
    return label

#: Engines the executor understands (``"scalar"`` is handled by
#: :func:`repro.campaigns.executor.default_executor` and never reaches here).
_ENGINES = ("auto", "batch")

#: Trials vectorised together per NumPy batch.
_BATCH_SIZE = 256


def group_runs(
    specs: Iterable[RunSpec],
) -> tuple[dict[tuple, list[int]], list[int]]:
    """Partition specs into batchable groups plus scalar-only leftovers.

    A group collects the indices of specs that share one configuration —
    the prerequisite for folding their trials into one batch.  The
    declarative algorithm also fixes the group's communication model.
    Specs with pre-built algorithm *instances* are never grouped (their
    mutable state cannot be assumed shareable across trials).
    """
    groups: dict[tuple, list[int]] = {}
    scalar: list[int] = []
    for index, spec in enumerate(specs):
        if not isinstance(spec.algorithm, AlgorithmSpec):
            scalar.append(index)
            continue
        key = (
            spec.algorithm,
            spec.adversary,
            spec.adversary_params,
            len(spec.faulty),
            spec.max_rounds,
            spec.stop_after_agreement,
            spec.loss,
            spec.delay,
            spec.fault_schedule,
            spec.fault_schedule_params,
        )
        groups.setdefault(key, []).append(index)
    return groups, scalar


class BatchExecutor:
    """Executor that routes kernel-covered run groups through the batch engine.

    Parameters
    ----------
    engine:
        ``"auto"`` (batch only bit-identical deterministic groups) or
        ``"batch"`` (batch everything covered, error on uncovered groups).
    processes:
        Worker processes for the scalar leftovers (``> 1`` uses the
        multiprocessing executor for them); batched groups always run
        in-process — they are the fast path already.
    observer:
        Optional :class:`~repro.obs.observer.Observer`.  Batched groups emit
        :class:`~repro.obs.events.BatchGroupScheduled` /
        :class:`~repro.obs.events.FallbackTaken` events and forward the
        observer into the batch engine's round loop; every run still gets
        exactly one :class:`~repro.obs.events.RunFinished` event (emitted
        here, not by the scalar leftovers' inner executor).
    """

    def __init__(
        self,
        engine: str = "auto",
        processes: int | None = None,
        observer: Observer | None = None,
    ) -> None:
        if engine not in _ENGINES:
            raise ParameterError(
                f"unknown batch engine {engine!r}; expected one of {_ENGINES}"
            )
        self.engine = engine
        self.processes = processes
        self.observer = observer
        self.stats = ExecutorStats()

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def run(
        self, specs: Iterable[RunSpec], on_result: ResultCallback | None = None
    ) -> list[RunResult]:
        """Execute all specs and return their results in submission order."""
        spec_list = list(specs)
        obs = resolve_observer(self.observer)
        self.stats = ExecutorStats(
            total=len(spec_list), metrics=obs.metrics if obs is not None else None
        )
        results: list[RunResult | None] = [None] * len(spec_list)

        def finish(index: int, result: RunResult) -> None:
            results[index] = result
            self.stats.record(result)
            if obs is not None:
                # One run_finished per run, whichever path executed it; the
                # group's cost is shared, so no per-run seconds here.
                _emit_run_finished(obs, result, None)
            if on_result is not None:
                on_result(result)

        def fall_back(label: str, runs: int, reason: str) -> None:
            self.stats.record_fallback(label, runs, reason)
            if obs is not None:
                obs.emit(FallbackTaken(label=label, runs=runs, reason=reason))

        groups, scalar_indices = group_runs(spec_list)
        if scalar_indices:
            fall_back(
                f"{len(scalar_indices)} run(s) with pre-built instances",
                len(scalar_indices),
                "pre-built algorithm instances are never grouped",
            )
        for key, indices in groups.items():
            group = [spec_list[index] for index in indices]
            batched, label, reason = self._try_batch(group)
            if batched is None:
                assert reason is not None
                fall_back(label, len(indices), reason)
                scalar_indices.extend(indices)
                continue
            for index, result in zip(indices, batched):
                finish(index, result)
            self.stats.record_batched(len(indices))

        if scalar_indices:
            scalar_indices.sort()
            leftovers = [spec_list[index] for index in scalar_indices]
            # The inner executor runs unobserved: finish() below is the one
            # place run_finished events and completion counters are emitted,
            # so routing leftovers through another observed executor would
            # double-account them.  NULL_OBSERVER (not None) pins that down
            # even when a process-default observer is installed.  The serial
            # path still forwards the observer into the engine itself —
            # engine-level metrics are distinct from the executor's run
            # accounting.
            if self.processes is not None and self.processes > 1 and len(leftovers) > 1:
                scalar_results = ParallelExecutor(
                    processes=self.processes, observer=NULL_OBSERVER
                ).run(leftovers)
            else:
                scalar_results = [
                    execute_run(spec, observer=obs) for spec in leftovers
                ]
            for index, result in zip(scalar_indices, scalar_results):
                finish(index, result)

        return [result for result in results if result is not None]

    # ------------------------------------------------------------------ #
    # Group planning
    # ------------------------------------------------------------------ #

    def _try_batch(
        self, group: list[RunSpec]
    ) -> tuple[list[RunResult] | None, str, str | None]:
        """Run one group through the batch engine.

        Returns ``(results, label, None)`` on the vectorised path, or
        ``(None, label, reason)`` when the group must take the scalar path —
        ``label`` names the group as completely as possible (including ``n``
        whenever the algorithm built) and the reason is recorded in
        :attr:`ExecutorStats.fallback_reasons`.  In ``engine="batch"``
        mode, missing kernel coverage raises a
        :class:`~repro.core.errors.ParameterError` naming the full offending
        group (algorithm, strategy, ``n``/``f``) instead of silently falling
        back.
        """
        spec = group[0]
        reason: str | None = None
        algorithm = None
        kernel = None
        if spec.fault_schedule is not None:
            # The schedule runtime (churn, per-window cohorts, recovery
            # markers) exists only in the scalar round loop; there is no
            # batch schedule path, so the fallback is always named.
            reason = (
                f"fault schedule {spec.fault_schedule!r} runs on the scalar "
                "engine (no batch schedule path)"
            )
            label = _group_label(spec)
            if self.engine == "batch":
                raise ParameterError(
                    f"engine='batch' requested but group {label} cannot "
                    f"batch: {reason}; use engine='auto' to fall back to the "
                    "scalar engine"
                )
            return None, label, reason
        try:
            algorithm = spec.algorithm.build()
        except Exception as exc:  # noqa: BLE001 - surfaced per-run by the fallback
            reason = f"algorithm {spec.algorithm_label()} failed to build: {exc}"
        if reason is None:
            kernel = build_batch_kernel(algorithm)
            if kernel is None:
                reason = (
                    f"algorithm {spec.algorithm_label()} advertises no "
                    "vectorised kernel"
                )
            elif not adversary_kernel_available(spec.adversary):
                reason = (
                    f"adversary strategy {spec.adversary!r} has no "
                    "vectorised kernel"
                )
        label = _group_label(spec, algorithm)
        if reason is not None:
            if self.engine == "batch":
                raise ParameterError(
                    f"engine='batch' requested but group {label} cannot "
                    f"batch: {reason}; use engine='auto' to fall back to the "
                    "scalar engine"
                )
            return None, label, reason
        assert kernel is not None
        deterministic = bit_identical(
            kernel,
            spec.adversary if spec.faulty else None,
            loss=spec.loss,
            delay=spec.delay,
        )
        if self.engine == "auto" and not deterministic:
            # auto never changes randomised result streams behind the
            # caller's back; engine='batch' opts into statistical
            # equivalence explicitly.
            return None, label, (
                "randomised configuration is only statistically equivalent; "
                "auto batches provably bit-identical groups (force "
                "engine='batch' to opt in)"
            )
        obs = resolve_observer(self.observer)
        if obs is not None:
            obs.emit(
                BatchGroupScheduled(
                    label=label,
                    runs=len(group),
                    engine=self.engine,
                    deterministic=deterministic,
                )
            )
        if self.engine == "batch":
            # Forced mode promises no silent fallback: a runtime failure of
            # the batch engine propagates instead of quietly rerunning the
            # group on the scalar path.
            return self._run_group(algorithm, kernel, group), label, None
        try:
            return self._run_group(algorithm, kernel, group), label, None
        except Exception as exc:  # noqa: BLE001 - the scalar rerun surfaces real
            # per-run errors through execute_run's failure accounting.
            return None, label, f"batch execution failed ({exc}); re-running scalar"

    def _run_group(self, algorithm, kernel, group: list[RunSpec]) -> list[RunResult]:
        """Vectorised execution of one homogeneous group."""
        spec = group[0]
        trials = [
            BatchTrial(sim_seed=member.sim_seed, faulty=member.faulty)
            for member in group
        ]
        summaries = run_batch_summaries(
            algorithm,
            kernel,
            trials,
            adversary_strategy=spec.adversary,
            adversary_params=dict(spec.adversary_params),
            max_rounds=spec.max_rounds,
            stop_after_agreement=spec.stop_after_agreement,
            batch_size=_BATCH_SIZE,
            observer=resolve_observer(self.observer),
            loss=spec.loss,
            delay=spec.delay,
        )
        return [
            reduce_values(member, algorithm, summary)
            for member, summary in zip(group, summaries)
        ]
