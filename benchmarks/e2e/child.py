"""Child process of the end-to-end benchmark: ``python child.py <repro args>``.

Runs ``repro.cli.main(<repro args>)`` in this process and writes what the
parent cannot observe from outside to the JSON file named by ``E2E_STAMPS``:

* ``main_entry``: ``time.perf_counter()`` just before ``repro.cli.main`` runs;
* ``first_run_entry`` / ``last_run_exit``: the first entry into and the last
  exit from a public executor ``run`` method (``SerialExecutor``,
  ``ParallelExecutor``, ``BatchExecutor``), outermost calls only;
* ``runs`` / ``rounds`` / ``failed`` / ``batched`` / ``fallback``: counts
  taken from the results and stats those outermost calls return.

On Linux ``perf_counter`` reads CLOCK_MONOTONIC, so these stamps share one
clock with the launch and exit stamps the parent takes.

``E2E_TRACE=1`` additionally wraps the layer functions named in
:data:`SPANS` and records calls, total and self time per span name.
``E2E_SETUP_ONLY=1`` exits at the first executor entry, which measures
set-up alone.  Every wrapper is installed at run time; the program's own
source is not modified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from typing import Any, Callable

#: Span name -> the functions it wraps, as ``"module:qualname"``.
#: ``Class.method`` wraps the method on ``Class`` and on every subclass that
#: defines its own (abstract declarations are skipped); a bare function name
#: wraps the function and every alias of it imported into another ``repro``
#: module.
SPANS: dict[str, tuple[str, ...]] = {
    "campaigns.results.CampaignStore.append": (
        "repro.campaigns.results:CampaignStore.append",
    ),
    "campaigns.results.RunResult.to_json": ("repro.campaigns.results:RunResult.to_json",),
    "campaigns.results.CampaignStore.latest_by_id": (
        "repro.campaigns.results:CampaignStore.latest_by_id",
    ),
    "campaigns.spec.CampaignSpec.expand": ("repro.campaigns.spec:CampaignSpec.expand",),
    "campaigns.batching.group_runs": ("repro.campaigns.batching:group_runs",),
    "campaigns.runner.run_campaign": ("repro.campaigns.runner:run_campaign",),
    "network.engine.resolve_initial_states": (
        "repro.network.engine:resolve_initial_states",
    ),
    "network.engine.derive_streams": ("repro.network.engine:derive_streams",),
    "network.adversary.build_adversary": ("repro.network.adversary:build_adversary",),
    "campaigns.batching.reduce_summary": ("repro.campaigns.batching:reduce_summary",),
    "network.stabilization.stabilization_from_values": (
        "repro.network.stabilization:stabilization_from_values",
    ),
    "network.batch.run_batch_summaries": ("repro.network.batch:run_batch_summaries",),
    "network.batch.build_batch_kernel": ("repro.network.batch:build_batch_kernel",),
    "network.batch.kernel.step": (
        "repro.network.batch:BatchKernel.step",
        "repro.network.batch:PullBatchKernel.step",
    ),
    "network.batch.kernel.outputs": ("repro.network.batch:_KernelBase.outputs",),
    "network.batch.adversary.forge": (
        "repro.network.batch:AdversaryBatchKernel.begin_round",
        "repro.network.batch:AdversaryBatchKernel.forge",
    ),
    "campaigns.executor.execute_run": ("repro.campaigns.executor:execute_run",),
    "network.simulator.run_simulation": ("repro.network.simulator:run_simulation",),
    "network.pulling.run_pull_simulation": ("repro.network.pulling:run_pull_simulation",),
    "network.engine.run_engine": ("repro.network.engine:run_engine",),
    "campaigns.results.reduce_trace": ("repro.campaigns.results:reduce_trace",),
    "network.model.step": ("repro.network.engine:ModelAdapter.step",),
    "algorithm.transition": (
        "repro.core.algorithm:SynchronousCountingAlgorithm.transition",
        "repro.network.pulling:PullingAlgorithm.transition",
    ),
    "network.adversary.forge": ("repro.network.adversary:Adversary.forge",),
    "experiments.figure2.run_figure2": ("repro.experiments.figure2:run_figure2",),
    "experiments.pulling.run_corollary4": ("repro.experiments.pulling:run_corollary4",),
    "experiments.pulling.run_corollary5": ("repro.experiments.pulling:run_corollary5",),
}

#: Every span name a traced child reports; ``cli.main`` wraps the entry point.
SPAN_NAMES: tuple[str, ...] = (*SPANS, "cli.main")

#: Modules imported before wrapping so that every subclass of a wrapped base
#: exists when the hierarchy is walked (several are otherwise imported lazily).
PRELOAD = (
    "repro.campaigns.batching",
    "repro.core.boosting",
    "repro.counters.naive",
    "repro.counters.randomized",
    "repro.counters.trivial",
    "repro.counters.kernels",
    "repro.sampling.pull_boosting",
    "repro.sampling.pseudo_random",
    "repro.sampling.kernels",
    "repro.network.simulator",
    "repro.experiments.figure2",
    "repro.experiments.pulling",
)

#: The public executor ``run`` methods; the first entry ends set-up.
EXECUTOR_RUNS = (
    "repro.campaigns.executor:SerialExecutor.run",
    "repro.campaigns.executor:ParallelExecutor.run",
    "repro.campaigns.batching:BatchExecutor.run",
)


class Tracer:
    """Calls, total time and self time per span name.

    A span's self time is its duration minus the time covered by its child
    spans.  A call made while a span of the same name is open runs untimed,
    so recursion and ``super()`` chains fold into the outermost span.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: name -> [calls, total seconds, self seconds, open flag]
        self.records: dict[str, list[Any]] = {}
        self._children: list[float] = []

    def wrap(self, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        """``function`` recorded under span ``name``."""
        record = self.records.setdefault(name, [0, 0.0, 0.0, False])
        children = self._children
        clock = self.clock

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if record[3]:
                return function(*args, **kwargs)
            record[3] = True
            children.append(0.0)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                duration = clock() - start
                covered = children.pop()
                record[3] = False
                if children:
                    children[-1] += duration
                record[0] += 1
                record[1] += duration
                record[2] += duration - covered

        return traced

    def spans(self) -> dict[str, dict[str, float]]:
        """``{name: {"calls", "total_s", "self_s"}}`` for every span called."""
        return {
            name: {"calls": calls, "total_s": total, "self_s": own}
            for name, (calls, total, own, _) in self.records.items()
            if calls
        }


def _resolve(target: str) -> tuple[Any, list[str]]:
    module_name, _, qualname = target.partition(":")
    return importlib.import_module(module_name), qualname.split(".")


def _subclasses(cls: type) -> list[type]:
    found: list[type] = []
    pending = [cls]
    while pending:
        current = pending.pop()
        if current not in found:
            found.append(current)
            pending.extend(current.__subclasses__())
    return found


def _replace_function(module: Any, attr: str, wrapper: Callable[..., Any]) -> None:
    """Point ``module.attr`` and every ``repro`` alias of it at ``wrapper``."""
    original = getattr(module, attr)
    for loaded in list(sys.modules.values()):
        if not getattr(loaded, "__name__", "").startswith("repro"):
            continue
        for key in [key for key, value in vars(loaded).items() if value is original]:
            setattr(loaded, key, wrapper)


def wrap_target(target: str, wrap: Callable[[Callable[..., Any]], Callable[..., Any]]) -> int:
    """Apply ``wrap`` to one ``"module:qualname"`` target; return the wrap count.

    A target missing from the tree wraps nothing (count 0) instead of
    failing, so a refactor that removes a layer leaves its span idle.
    """
    try:
        module, parts = _resolve(target)
        getattr(module, parts[0])
    except (ImportError, AttributeError):
        return 0
    if len(parts) == 1:
        _replace_function(module, parts[0], wrap(getattr(module, parts[0])))
        return 1
    base, method = getattr(module, parts[0]), parts[1]
    count = 0
    for cls in _subclasses(base):
        function = cls.__dict__.get(method)
        if inspect.isfunction(function) and not getattr(
            function, "__isabstractmethod__", False
        ):
            setattr(cls, method, wrap(function))
            count += 1
    return count


def install_spans(tracer: Tracer) -> list[str]:
    """Wrap every function of :data:`SPANS`; return the spans that wrap nothing."""
    for module_name in PRELOAD:
        try:
            importlib.import_module(module_name)
        except ImportError:
            pass
    return [
        name
        for name, targets in SPANS.items()
        if not sum(
            wrap_target(target, functools.partial(tracer.wrap, name))
            for target in targets
        )
    ]


class Stamps:
    """Executor entry/exit stamps and result counts of one child process."""

    def __init__(self, path: str, setup_only: bool) -> None:
        self.path = path
        self.setup_only = setup_only
        self.depth = 0
        self.data: dict[str, Any] = {
            "main_entry": None,
            "first_run_entry": None,
            "last_run_exit": None,
            "runs": 0,
            "rounds": 0,
            "failed": 0,
            "batched": 0,
            "fallback": 0,
            "spans": {},
            "unwrapped": [],
        }

    def write(self) -> None:
        with open(self.path, "w", encoding="utf-8") as handle:
            json.dump(self.data, handle)

    def wrap_run(self, run: Callable[..., Any]) -> Callable[..., Any]:
        """Stamp an executor ``run`` method; count outermost calls only."""
        data = self.data

        @functools.wraps(run)
        def stamped(executor: Any, *args: Any, **kwargs: Any) -> Any:
            if self.depth == 0 and data["first_run_entry"] is None:
                data["first_run_entry"] = time.perf_counter()
                if self.setup_only:
                    self.write()
                    os._exit(0)
            self.depth += 1
            try:
                results = run(executor, *args, **kwargs)
            finally:
                self.depth -= 1
            if self.depth == 0:
                data["last_run_exit"] = time.perf_counter()
                data["runs"] += len(results)
                data["rounds"] += sum(result.rounds_simulated for result in results)
                data["failed"] += sum(result.error is not None for result in results)
                data["batched"] += executor.stats.batched
                data["fallback"] += executor.stats.fallback
            return results

        return stamped


def main(argv: list[str]) -> int:
    import repro.cli

    stamps = Stamps(os.environ["E2E_STAMPS"], os.environ.get("E2E_SETUP_ONLY") == "1")
    for target in EXECUTOR_RUNS:
        wrap_target(target, stamps.wrap_run)
    entry = repro.cli.main
    tracer = None
    if os.environ.get("E2E_TRACE") == "1":
        tracer = Tracer()
        stamps.data["unwrapped"] = install_spans(tracer)
        entry = tracer.wrap("cli.main", entry)
    stamps.data["main_entry"] = time.perf_counter()
    try:
        return entry(argv)
    finally:
        if tracer is not None:
            stamps.data["spans"] = tracer.spans()
        stamps.write()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
