"""Compact per-run results and the JSONL campaign store.

A full :class:`~repro.network.trace.ExecutionTrace` is far too heavy to keep
for thousands of runs, so both engines reduce every executed run to a
:class:`~repro.network.stabilization.RunSummary`, and :func:`reduce_values`
turns that into a :class:`RunResult` — the stabilisation statistics the
experiments actually consume (stabilisation round, agreement fraction,
message counts, recovery) plus enough identifying information to make the
record self-describing.

:class:`CampaignStore` persists results as JSON Lines: one canonical-JSON
record per line, appended and flushed as runs complete, through one open
handle per campaign.  Because every record carries its ``run_id``, an
interrupted campaign resumes by skipping the runs already present in the
store.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping, Sequence, TextIO

from repro.analysis.metrics import (
    TrialMetrics,
    post_agreement_failure_rate_from_values,
)
from repro.network.stabilization import (
    RunSummary,
    recovery_from_values,
    stabilization_from_values,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.campaigns.spec import RunSpec
    from repro.core.algorithm import SynchronousCountingAlgorithm
    from repro.experiments.common import ExperimentResult

__all__ = ["RunResult", "CampaignStore", "reduce_values", "summarize_results"]


@dataclass(frozen=True)
class RunResult:
    """The compact, JSON-serialisable outcome of one campaign run.

    Attributes
    ----------
    run_id:
        Stable identifier of the run inside its campaign (the resume key).
    algorithm / adversary:
        Human-readable labels of the algorithm and adversary strategy.
    n, f, c:
        Parameters of the executed algorithm.
    faulty:
        The Byzantine node set of the run.
    sim_seed:
        The simulator seed (results are reproducible from the run spec).
    rounds_simulated:
        Number of rounds executed before the trace ended.
    stabilized / stabilization_round / within_bound / agreement_fraction:
        The stabilisation statistics of :class:`~repro.analysis.metrics.TrialMetrics`.
    stopped_early:
        Whether the simulator stopped on the agreement window.
    messages_sent:
        Total messages delivered to correct receivers: ``rounds × n ×
        |correct|`` in the broadcast model, the total number of pulls issued
        by correct nodes in the pulling model.
    model:
        The communication model the run executed in (``"broadcast"`` /
        ``"pulling"``).
    max_pulls / mean_pulls / max_bits:
        Pulling-model message complexity: the per-round maximum/mean number
        of pulls a correct node issued and the worst-case per-round bit count
        (the Theorem 4 / Corollary 4 quantities).  ``None`` for broadcast
        runs.
    post_agreement_failure_rate:
        Fraction of rounds after the first agreement in which agreement
        broke — the empirical per-round failure probability of a sampled
        counter.  ``None`` for broadcast runs.
    last_perturbation_round / recovered / recovery_round / re_stabilization_time:
        Fault-injection recovery metrics
        (:func:`repro.network.stabilization.recovery_from_values`): the round of
        the last fault-schedule transition, whether the correct nodes
        re-stabilised after it, the absolute round they did, and the
        re-stabilisation time measured *from* the perturbation.  All
        ``None`` for runs without an injected perturbation (loss/delay are
        continuous noise, not discrete perturbations, so they do not set
        these).
    rng:
        ``None`` for runs whose randomness came from the scalar engine's
        ``random.Random`` streams (including every deterministic batch
        execution, which is bit-identical to them); the
        :data:`~repro.network.batch.BATCH_RNG_NOTE` marker for randomised
        runs executed by the NumPy batch engine, so a result store mixing
        engines stays self-describing.
    error:
        ``None`` for successful runs; otherwise ``"ExcType: message"`` — the
        executors never let one failed run abort a campaign.
    """

    run_id: str
    algorithm: str
    adversary: str
    n: int
    f: int
    c: int
    faulty: tuple[int, ...]
    sim_seed: int
    rounds_simulated: int
    stabilized: bool
    stabilization_round: int | None
    within_bound: bool | None
    agreement_fraction: float
    stopped_early: bool
    messages_sent: int
    error: str | None = None
    model: str = "broadcast"
    max_pulls: int | None = None
    mean_pulls: float | None = None
    max_bits: int | None = None
    post_agreement_failure_rate: float | None = None
    last_perturbation_round: int | None = None
    recovered: bool | None = None
    recovery_round: int | None = None
    re_stabilization_time: int | None = None
    rng: str | None = None

    def to_dict(self) -> dict[str, Any]:
        """Plain-dictionary form (tuples become lists).

        Every field but ``faulty`` is a scalar, so the fields are read
        directly; ``dataclasses.asdict`` would deep-copy each one.
        """
        data = {name: getattr(self, name) for name in _RESULT_FIELDS}
        data["faulty"] = list(self.faulty)
        return data

    def to_json(self) -> str:
        """Canonical single-line JSON (sorted keys, no whitespace)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            run_id=data["run_id"],
            algorithm=data["algorithm"],
            adversary=data["adversary"],
            n=int(data["n"]),
            f=int(data["f"]),
            c=int(data["c"]),
            faulty=tuple(data.get("faulty", ())),
            sim_seed=int(data.get("sim_seed", 0)),
            rounds_simulated=int(data.get("rounds_simulated", 0)),
            stabilized=bool(data.get("stabilized", False)),
            stabilization_round=data.get("stabilization_round"),
            within_bound=data.get("within_bound"),
            agreement_fraction=float(data.get("agreement_fraction", 0.0)),
            stopped_early=bool(data.get("stopped_early", False)),
            messages_sent=int(data.get("messages_sent", 0)),
            error=data.get("error"),
            model=data.get("model", "broadcast"),
            max_pulls=data.get("max_pulls"),
            mean_pulls=data.get("mean_pulls"),
            max_bits=data.get("max_bits"),
            post_agreement_failure_rate=data.get("post_agreement_failure_rate"),
            last_perturbation_round=data.get("last_perturbation_round"),
            recovered=data.get("recovered"),
            recovery_round=data.get("recovery_round"),
            re_stabilization_time=data.get("re_stabilization_time"),
            rng=data.get("rng"),
        )

    def to_trial_metrics(self) -> TrialMetrics:
        """Convert to the :class:`TrialMetrics` shape the experiments consume."""
        return TrialMetrics(
            stabilized=self.stabilized,
            stabilization_round=self.stabilization_round,
            rounds_simulated=self.rounds_simulated,
            within_bound=self.within_bound,
            agreement_fraction=self.agreement_fraction,
            faulty=self.faulty,
        )


#: The :class:`RunResult` field names, in declaration order.
_RESULT_FIELDS = tuple(field.name for field in fields(RunResult))


def reduce_values(
    spec: "RunSpec",
    algorithm: Any,
    summary: RunSummary,
) -> RunResult:
    """Reduce one run's summary to its compact campaign result.

    The one reduction behind both engines: the empirical stabilisation
    suffix of :func:`~repro.network.stabilization.stabilization_from_values`,
    the agreement fraction and the message counts, the recovery metrics
    when a fault schedule perturbed the run, and for pulling runs the
    Theorem 4 statistics (``max_pulls`` / ``mean_pulls`` / ``max_bits``) and
    the post-agreement failure rate.  Pulling ``messages_sent`` counts the
    pulls correct nodes issued instead of ``rounds × n × correct``
    broadcasts.
    """
    agreed = summary.agreed
    total = summary.rounds
    c = algorithm.c
    stabilization = stabilization_from_values(agreed, c, min_tail=spec.min_tail)
    bound = algorithm.stabilization_bound()
    within: bool | None = None
    if bound is not None and stabilization.round is not None:
        within = stabilization.round <= bound
    agreements = sum(1 for value in agreed if value >= 0)

    last_perturbation = summary.last_perturbation_round
    recovered: bool | None = None
    recovered_round: int | None = None
    re_stabilization: int | None = None
    if last_perturbation is not None:
        recovery = recovery_from_values(
            agreed,
            c,
            min_tail=spec.min_tail,
            last_perturbation_round=last_perturbation,
        )
        recovered = recovery.recovered
        recovered_round = recovery.recovery_round
        re_stabilization = recovery.re_stabilization_time

    max_pulls: int | None = None
    mean_pulls: float | None = None
    max_bits: int | None = None
    failure_rate: float | None = None
    if spec.model == "pulling":
        max_pulls = summary.max_pulls or 0
        mean_pulls = summary.pull_sum / total
        max_bits = max_pulls * algorithm.message_bits()
        failure_rate = post_agreement_failure_rate_from_values(agreed)
        messages_sent = int(round(summary.pulls_issued))
    else:
        messages_sent = total * algorithm.n * (algorithm.n - len(summary.faulty))
    return RunResult(
        run_id=spec.run_id,
        algorithm=spec.algorithm_label(),
        adversary=spec.adversary_label(),
        n=algorithm.n,
        f=algorithm.f,
        c=c,
        faulty=summary.faulty,
        sim_seed=spec.sim_seed,
        rounds_simulated=total,
        stabilized=stabilization.stabilized,
        stabilization_round=stabilization.round,
        within_bound=within,
        agreement_fraction=agreements / total if total else 0.0,
        stopped_early=summary.stopped_early,
        messages_sent=messages_sent,
        error=None,
        model=spec.model,
        max_pulls=max_pulls,
        mean_pulls=mean_pulls,
        max_bits=max_bits,
        post_agreement_failure_rate=failure_rate,
        last_perturbation_round=last_perturbation,
        recovered=recovered,
        recovery_round=recovered_round,
        re_stabilization_time=re_stabilization,
        rng=summary.rng_note,
    )


#: The scalar path's reduction under the name the end-to-end benchmark's
#: ``campaigns.results.reduce_trace`` span wraps; it is :func:`reduce_values`.
reduce_trace = reduce_values


class CampaignStore:
    """Append-only JSONL persistence for campaign results.

    One :class:`RunResult` per line.  The write contract:

    * Entering the store (``with store:``) opens one append handle, creating
      the file and its parents.  A final line torn by a hard kill is
      terminated then, once, so only that partial record is lost (and
      re-run); the repair is flushed at once, so a process forked while the
      store is open never inherits buffered bytes.  Leaving the block
      closes the handle.
    * :meth:`append` writes one line per result and flushes it, so an
      interrupted campaign loses at most the in-flight run.  Outside a
      ``with`` block each append enters the store for itself: open, repair,
      write, close.
    * :func:`~repro.campaigns.runner.run_campaign` holds one append handle
      per campaign, and opens it only when runs are pending: a resume with
      nothing left to run neither creates nor rewrites the file.

    On resume, :meth:`completed_ids` tells the runner which runs to skip.
    Malformed lines (for example a partial line from a hard kill) are
    skipped — the corresponding runs simply execute again — but never
    silently: :attr:`corrupt_lines` counts them so the runner can warn on
    resume.
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self._path = Path(path)
        #: Number of unparseable lines encountered by the most recent full
        #: read of the store (0 before any read).
        self.corrupt_lines = 0
        self._handle: TextIO | None = None

    @property
    def path(self) -> Path:
        """Location of the JSONL file."""
        return self._path

    def __enter__(self) -> "CampaignStore":
        if self._handle is None:
            self._handle = self._open()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._handle is not None:
            handle, self._handle = self._handle, None
            handle.close()

    def _open(self) -> TextIO:
        """The append handle, after terminating a torn final line."""
        self._path.parent.mkdir(parents=True, exist_ok=True)
        # A hard kill can leave the file ending in a partial line; appending
        # directly would corrupt the next record too.
        needs_newline = False
        if self._path.exists() and self._path.stat().st_size > 0:
            with self._path.open("rb") as tail:
                tail.seek(-1, os.SEEK_END)
                needs_newline = tail.read(1) != b"\n"
        handle = self._path.open("a", encoding="utf-8")
        if needs_newline:
            handle.write("\n")
            handle.flush()
        return handle

    def append(self, result: RunResult) -> None:
        """Persist one result as one flushed line."""
        if self._handle is None:
            with self:
                self.append(result)
            return
        self._handle.write(result.to_json() + "\n")
        self._handle.flush()

    def __iter__(self) -> Iterator[RunResult]:
        if not self._path.exists():
            self.corrupt_lines = 0
            return
        corrupt = 0
        with self._path.open("r", encoding="utf-8") as handle:
            try:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        data = json.loads(line)
                        result = RunResult.from_dict(data)
                    except (ValueError, KeyError, TypeError):
                        corrupt += 1
                        continue
                    yield result
            finally:
                # Publish the count even when the consumer stops early, so a
                # partial read never reports a stale total from a prior pass.
                self.corrupt_lines = corrupt

    def load(self) -> list[RunResult]:
        """All parseable results, in file order."""
        return list(self)

    def latest_by_id(self) -> dict[str, RunResult]:
        """The most recent result per run id (later lines supersede earlier)."""
        latest: dict[str, RunResult] = {}
        for result in self:
            latest[result.run_id] = result
        return latest

    def completed_ids(self) -> set[str]:
        """Run ids that finished successfully (errored runs are retried)."""
        return {
            run_id
            for run_id, result in self.latest_by_id().items()
            if result.error is None
        }

    def __len__(self) -> int:
        return sum(1 for _ in self)


def summarize_results(
    results: Iterable[RunResult],
    group_by: Sequence[str] = ("algorithm", "adversary"),
    name: str = "Campaign summary",
) -> "ExperimentResult":
    """Aggregate run results into a stabilisation-statistics table.

    Groups by the given :class:`RunResult` attributes (default: algorithm and
    adversary) and reports, per group, how many runs stabilised and the
    distribution of stabilisation rounds.  ``within_bound`` is ``True`` only
    when every successful run stabilised at or before the counter's bound;
    a run that never stabilised counts against a bound that other runs show
    exists, and a group without any verdict reads ``"-"`` unless it has
    successful runs and every one of them stabilised (so a group whose runs
    all failed reads ``"-"``).
    """
    # Imported lazily: experiments.common itself builds on the campaign
    # engine, so a module-level import would be circular.
    from repro.analysis.stats import summarize
    from repro.experiments.common import ExperimentResult

    groups: dict[tuple, list[RunResult]] = {}
    for result in results:
        key = tuple(getattr(result, attribute) for attribute in group_by)
        groups.setdefault(key, []).append(result)

    table = ExperimentResult(name=name)
    for key in sorted(groups, key=str):
        bucket = groups[key]
        failed = [result for result in bucket if result.error is not None]
        ok = [result for result in bucket if result.error is None]
        stabilized = [result for result in ok if result.stabilized]
        rounds = [
            result.stabilization_round
            for result in stabilized
            if result.stabilization_round is not None
        ]
        stats = summarize(rounds) if rounds else None
        within_bound: bool | str
        if any(r.within_bound is not None for r in ok):
            # The counter has a bound, so a run without a verdict (it never
            # stabilised) counts against it.
            within_bound = all(r.within_bound for r in ok)
        else:
            # No verdicts.  If every successful run stabilised, the counter
            # has no bound to miss; otherwise (or with no successful run)
            # nothing tells whether it has one.
            within_bound = True if ok and len(stabilized) == len(ok) else "-"
        row: dict[str, Any] = dict(zip(group_by, key))
        row.update(
            runs=len(bucket),
            failed=len(failed),
            stabilized=len(stabilized),
            mean_round="-" if stats is None else round(stats.mean, 1),
            median_round="-" if stats is None else stats.median,
            p90_round="-" if stats is None else stats.p90,
            max_round="-" if stats is None else stats.maximum,
            within_bound=within_bound,
            mean_messages=(
                round(sum(r.messages_sent for r in ok) / len(ok), 1) if ok else 0
            ),
        )
        perturbed = [r for r in ok if r.last_perturbation_round is not None]
        if perturbed:
            # Fault-injection groups: how many runs re-stabilised after the
            # last perturbation, and how long re-convergence took.
            recovered = [r for r in perturbed if r.recovered]
            times = [
                r.re_stabilization_time
                for r in recovered
                if r.re_stabilization_time is not None
            ]
            row.update(
                perturbed=len(perturbed),
                recovered=len(recovered),
                mean_recovery=(
                    round(sum(times) / len(times), 1) if times else "-"
                ),
                max_recovery=max(times) if times else "-",
            )
        pulls = [r.max_pulls for r in ok if r.max_pulls is not None]
        if pulls:
            # Pulling-model groups: the Theorem 4 / Corollary 4 quantities.
            bits = [r.max_bits for r in ok if r.max_bits is not None]
            failure_rates = [
                r.post_agreement_failure_rate
                for r in ok
                if r.post_agreement_failure_rate is not None
            ]
            row.update(
                max_pulls=max(pulls),
                max_bits=max(bits) if bits else 0,
                failure_rate=(
                    round(sum(failure_rates) / len(failure_rates), 4)
                    if failure_rates
                    else "-"
                ),
            )
        table.add_row(**row)
    return table
