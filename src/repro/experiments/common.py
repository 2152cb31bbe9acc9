"""Shared infrastructure for the experiment modules.

* :class:`ExperimentResult` — a named list of dictionary rows with text and
  Markdown renderers (the same structure is consumed by the benchmarks and
  by EXPERIMENTS.md).
* :func:`run_counter_trials` — run a counter repeatedly under randomly drawn
  fault patterns and one named adversary strategy, returning per-trial
  metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.analysis.metrics import TrialMetrics
from repro.analysis.stats import summarize
from repro.campaigns.executor import ParallelExecutor, SerialExecutor
from repro.campaigns.spec import RunSpec
from repro.core.algorithm import SynchronousCountingAlgorithm
from repro.core.errors import ParameterError, SimulationError
from repro.network.adversary import random_faulty_set
from repro.util.rng import derive_rng, ensure_rng

__all__ = ["ExperimentResult", "run_counter_trials", "summarize_trials"]


@dataclass
class ExperimentResult:
    """Rows of an experiment plus free-form notes.

    Rows are plain dictionaries so they can be rendered as text tables,
    Markdown tables, or consumed programmatically by tests and benchmarks.
    """

    name: str
    rows: list[dict[str, Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        """Append one row."""
        self.rows.append(values)

    def add_note(self, note: str) -> None:
        """Append a free-form note shown below the table."""
        self.notes.append(note)

    def columns(self) -> list[str]:
        """Union of row keys, in first-appearance order."""
        seen: list[str] = []
        for row in self.rows:
            for key in row:
                if key not in seen:
                    seen.append(key)
        return seen

    def _render_cell(self, value: Any) -> str:
        if isinstance(value, float):
            if value == 0:
                return "0"
            if abs(value) >= 1e6 or abs(value) < 1e-3:
                return f"{value:.3g}"
            return f"{value:.3f}".rstrip("0").rstrip(".")
        return str(value)

    def format_table(self) -> str:
        """Render as an aligned plain-text table."""
        columns = self.columns()
        if not columns:
            return f"== {self.name} ==\n(no rows)"
        cells = [
            [self._render_cell(row.get(column, "")) for column in columns]
            for row in self.rows
        ]
        widths = [
            max(len(column), *(len(row[i]) for row in cells)) if cells else len(column)
            for i, column in enumerate(columns)
        ]
        lines = [f"== {self.name} =="]
        lines.append("  ".join(column.ljust(widths[i]) for i, column in enumerate(columns)))
        lines.append("  ".join("-" * widths[i] for i in range(len(columns))))
        for row in cells:
            lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(columns))))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """Render as a Markdown table."""
        columns = self.columns()
        if not columns:
            return f"### {self.name}\n\n(no rows)\n"
        lines = [f"### {self.name}", ""]
        lines.append("| " + " | ".join(columns) + " |")
        lines.append("|" + "|".join(["---"] * len(columns)) + "|")
        for row in self.rows:
            lines.append(
                "| "
                + " | ".join(self._render_cell(row.get(column, "")) for column in columns)
                + " |"
            )
        for note in self.notes:
            lines.append("")
            lines.append(f"*{note}*")
        return "\n".join(lines) + "\n"


def run_counter_trials(
    algorithm: SynchronousCountingAlgorithm,
    adversary: str,
    trials: int,
    max_rounds: int,
    num_faults: int | None = None,
    stop_after_agreement: int | None = 20,
    seed: int = 0,
    min_tail: int = 2,
    fault_sets: Sequence[Iterable[int]] | None = None,
    executor: SerialExecutor | ParallelExecutor | None = None,
) -> list[TrialMetrics]:
    """Run ``trials`` adversarial simulations of ``algorithm`` and collect metrics.

    The trials are expressed as campaign-engine run specs and executed by the
    given executor (serial by default); passing a
    :class:`~repro.campaigns.executor.ParallelExecutor` fans the trials out
    over worker processes.  The randomness derivation is independent of the
    executor, so results are identical either way.

    Parameters
    ----------
    algorithm:
        Counter under test.
    adversary:
        Strategy name from the catalogue (``repro list adversaries``); each
        trial builds it over its own faulty set.
    trials:
        Number of independent trials (different fault sets, initial states
        and adversary randomness); at least 1.
    max_rounds:
        Per-trial round cap (normally the theoretical stabilisation bound or
        a generous multiple of the typical stabilisation time).
    num_faults:
        Number of faults to inject per trial (defaults to the algorithm's
        resilience ``f``).
    stop_after_agreement:
        Early-stop window forwarded to the simulator.
    seed:
        Master seed; trial ``t`` derives its own seed from it.
    fault_sets:
        Optional explicit fault sets (cycled through) instead of random ones.
    executor:
        Campaign executor to run the trials on (default: serial, in-process).
    """
    if trials < 1:
        raise ParameterError(f"trials must be at least 1, got {trials}")
    faults = algorithm.f if num_faults is None else num_faults
    master = ensure_rng(seed)
    specs: list[RunSpec] = []
    for trial in range(trials):
        trial_rng = derive_rng(master, "trial", trial)
        if fault_sets is not None:
            faulty = frozenset(fault_sets[trial % len(fault_sets)])
        else:
            faulty = random_faulty_set(algorithm.n, faults, rng=trial_rng)
        specs.append(
            RunSpec(
                run_id=f"trial-{trial}",
                algorithm=algorithm,
                adversary=adversary,
                faulty=tuple(sorted(faulty)),
                sim_seed=trial_rng.getrandbits(32),
                max_rounds=max_rounds,
                stop_after_agreement=stop_after_agreement,
                min_tail=min_tail,
            )
        )
    executor = executor or SerialExecutor()
    results = executor.run(specs)
    for result in results:
        if result.error is not None:
            raise SimulationError(
                f"trial {result.run_id} failed: {result.error}"
            )
    return [result.to_trial_metrics() for result in results]


def summarize_trials(
    metrics: Sequence[TrialMetrics], bound: int | None = None
) -> dict[str, Any]:
    """Aggregate a list of :class:`TrialMetrics` into one table row.

    With the counter's stabilisation ``bound``, ``within_bound`` holds only
    when every trial stabilised at or before it — a trial that never
    stabilised counts against the bound.  Without one, only the trials'
    own ``within_bound`` verdicts count (``True`` when there are none).
    """
    stabilized = [metric for metric in metrics if metric.stabilized]
    rounds = [
        metric.stabilization_round
        for metric in stabilized
        if metric.stabilization_round is not None
    ]
    summary = summarize(rounds) if rounds else summarize([])
    if bound is None:
        within = [m.within_bound for m in metrics if m.within_bound is not None]
        within_bound = all(within)
    else:
        within_bound = all(
            m.stabilization_round is not None and m.stabilization_round <= bound
            for m in metrics
        )
    return {
        "trials": len(metrics),
        "stabilized": len(stabilized),
        "mean_stabilization": summary.mean,
        "median_stabilization": summary.median,
        "max_stabilization": summary.maximum,
        "within_bound": within_bound,
    }
