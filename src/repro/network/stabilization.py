"""Empirical stabilisation detection (the ``t``-stabilisation of Section 2).

An execution stabilises in time ``t`` when there is a round ``r0 <= t`` such
that from ``r0`` on all non-faulty nodes output the same value and that value
increases by one modulo ``c`` every round.  For a finite recorded trace we
report the earliest round from which this holds until the end of the trace —
an *empirical* stabilisation time.  A trailing confirmation window (the
``min_tail`` parameter) guards against declaring stabilisation on a short
coincidental suffix.

For small algorithms the exhaustive verifier (:mod:`repro.verification`)
complements this with a proof over *all* executions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.errors import SimulationError
from repro.network.trace import ExecutionTrace

__all__ = [
    "RunSummary",
    "StabilizationResult",
    "RecoveryResult",
    "stabilization_round",
    "stabilization_from_values",
    "recovery_round",
    "recovery_from_values",
    "is_counting_suffix",
    "agreement_round",
]


@dataclass(frozen=True)
class StabilizationResult:
    """Outcome of the stabilisation analysis of one trace.

    Attributes
    ----------
    stabilized:
        True when the trace ends in a correct counting suffix of length at
        least ``min_tail``.
    round:
        The earliest round index from which counting is correct until the end
        of the trace (``None`` when the trace never stabilised).
    tail_length:
        Length of the correct suffix.
    total_rounds:
        Total number of recorded rounds.
    """

    stabilized: bool
    round: int | None
    tail_length: int
    total_rounds: int


@dataclass(frozen=True)
class RunSummary:
    """One run reduced to what its campaign result needs, from either engine.

    The scalar engine (:func:`repro.network.engine.run_engine`) and the batch
    engine (:func:`repro.network.batch.run_batch_summaries`) both emit one
    per run; :func:`repro.campaigns.results.reduce_values` turns it into a
    :class:`~repro.campaigns.results.RunResult`.

    Attributes
    ----------
    faulty:
        The run's Byzantine set, ascending.
    agreed:
        Per recorded round, the common output of all correct nodes, or ``-1``
        when they disagreed — ``ExecutionTrace.agreed_values()`` with
        ``None`` encoded as ``-1``.
    stopped_early / agreement_streak:
        Whether the agreement window ended the run, and the streak it ended
        on (``None`` when the round cap did).
    max_pulls / pull_sum / pulls_issued:
        Pulling-model totals (``None`` / ``0`` for broadcast runs): the
        largest per-round maximum of pulls by one correct node, the sum of
        those per-round maxima, and the pulls issued by all correct nodes,
        summed round by round in float.
    last_perturbation_round:
        The last round a fault schedule injected or recovered nodes — the
        anchor of the recovery metrics (``None`` when never perturbed).
    rng_note:
        :data:`~repro.network.batch.BATCH_RNG_NOTE` when the execution
        consumed NumPy randomness, ``None`` for the scalar engine's streams
        and for deterministic — bit-identical — batch executions.
    """

    faulty: tuple[int, ...]
    agreed: tuple[int, ...]
    stopped_early: bool
    agreement_streak: int | None
    max_pulls: int | None = None
    pull_sum: int = 0
    pulls_issued: float = 0.0
    last_perturbation_round: int | None = None
    rng_note: str | None = None

    @property
    def rounds(self) -> int:
        """Number of recorded rounds."""
        return len(self.agreed)


def is_counting_suffix(values: Sequence[int | None], c: int) -> bool:
    """Check that ``values`` is a run of agreed outputs incrementing mod ``c``.

    ``values`` holds the per-round agreed output (``None`` when nodes
    disagreed); the run is correct when no entry is ``None`` and consecutive
    entries increase by exactly one modulo ``c``.
    """
    if any(value is None for value in values):
        return False
    for previous, current in zip(values, values[1:]):
        if (previous + 1) % c != current:
            return False
    return True


def agreement_round(trace: ExecutionTrace) -> int | None:
    """First round from which all non-faulty outputs agree until the end."""
    agreed = trace.agreed_values()
    last_disagreement = -1
    for index, value in enumerate(agreed):
        if value is None:
            last_disagreement = index
    start = last_disagreement + 1
    return start if start < len(agreed) else None


def stabilization_round(trace: ExecutionTrace, min_tail: int = 2) -> StabilizationResult:
    """Find the earliest round from which the trace counts correctly to the end.

    Parameters
    ----------
    trace:
        A recorded execution.
    min_tail:
        Minimum length of the correct suffix required to declare
        stabilisation.  Two rounds (one increment) is the logical minimum;
        experiments typically use a full counter period or more.
    """
    return stabilization_from_values(trace.agreed_values(), trace.c, min_tail)


def stabilization_from_values(
    values: Sequence[int | None], c: int, min_tail: int = 2
) -> StabilizationResult:
    """The stabilisation analysis on a bare per-round agreed-value sequence.

    ``values[t]`` is the common output of all correct nodes in round ``t``;
    disagreement is encoded as ``None`` (the trace representation) or any
    negative integer (:attr:`RunSummary.agreed`).  This is the one
    implementation behind both the trace analysis
    (:func:`stabilization_round`) and the campaign reduction
    (:func:`repro.campaigns.results.reduce_values`) of either engine.
    """
    if min_tail < 1:
        raise SimulationError(f"min_tail must be at least 1, got {min_tail}")
    total = len(values)
    if total == 0:
        return StabilizationResult(
            stabilized=False, round=None, tail_length=0, total_rounds=0
        )

    # Walk backwards to find the longest correct suffix.
    suffix_start = total
    for index in range(total - 1, -1, -1):
        value = values[index]
        if value is None or value < 0:
            break
        if index + 1 < total and (value + 1) % c != values[index + 1]:
            break
        suffix_start = index
    tail_length = total - suffix_start
    stabilized = tail_length >= min_tail
    return StabilizationResult(
        stabilized=stabilized,
        round=suffix_start if stabilized else None,
        tail_length=tail_length,
        total_rounds=total,
    )


@dataclass(frozen=True)
class RecoveryResult:
    """Re-stabilisation analysis of a trace with injected perturbations.

    Self-stabilisation promises convergence from *any* configuration, so a
    run perturbed mid-flight (fault-schedule churn, late adversaries) must
    re-converge once the perturbation ends.  This result measures how fast,
    counting from the last round in which a perturbation was injected.

    Attributes
    ----------
    recovered:
        True when the trace ends in a correct counting suffix (of length at
        least ``min_tail``) that starts at or after the last perturbation.
    recovery_round:
        Absolute round index from which counting is correct until the end of
        the trace (``None`` when the run never re-stabilised).
    re_stabilization_time:
        ``recovery_round - last_perturbation_round`` — the number of rounds
        convergence took, the headline robustness metric.  ``0`` means the
        very first post-perturbation outputs were already counting.
    last_perturbation_round:
        The round the measurement is anchored to (``None`` when the run was
        never perturbed, in which case the other fields are ``None`` too).
    total_rounds:
        Total number of recorded rounds.
    """

    recovered: bool
    recovery_round: int | None
    re_stabilization_time: int | None
    last_perturbation_round: int | None
    total_rounds: int


def recovery_round(trace: ExecutionTrace, min_tail: int = 2) -> RecoveryResult:
    """Recovery analysis of a trace, anchored to its recorded perturbations.

    Reads ``last_perturbation_round`` from the trace metadata (stamped by the
    engine when a fault schedule injects or recovers nodes); traces without
    one report ``recovered=False`` with every metric ``None``.
    """
    return recovery_from_values(
        trace.agreed_values(),
        trace.c,
        min_tail=min_tail,
        last_perturbation_round=trace.metadata.get("last_perturbation_round"),
    )


def recovery_from_values(
    values: Sequence[int | None],
    c: int,
    min_tail: int = 2,
    last_perturbation_round: int | None = None,
) -> RecoveryResult:
    """The recovery analysis on a bare per-round agreed-value sequence.

    The sequence is sliced from ``last_perturbation_round`` on — the first
    round whose outputs reflect the perturbed configuration — and the
    standard stabilisation analysis runs on the slice, so the usual
    ``min_tail`` confirmation window applies.  A perturbation round outside
    the recorded range (or no perturbation at all) yields a non-recovery
    with ``None`` metrics rather than an error.
    """
    if min_tail < 1:
        raise SimulationError(f"min_tail must be at least 1, got {min_tail}")
    total = len(values)
    if last_perturbation_round is None or last_perturbation_round < 0:
        return RecoveryResult(
            recovered=False,
            recovery_round=None,
            re_stabilization_time=None,
            last_perturbation_round=None,
            total_rounds=total,
        )
    if last_perturbation_round >= total:
        return RecoveryResult(
            recovered=False,
            recovery_round=None,
            re_stabilization_time=None,
            last_perturbation_round=last_perturbation_round,
            total_rounds=total,
        )
    tail = stabilization_from_values(
        values[last_perturbation_round:], c, min_tail=min_tail
    )
    if not tail.stabilized:
        return RecoveryResult(
            recovered=False,
            recovery_round=None,
            re_stabilization_time=None,
            last_perturbation_round=last_perturbation_round,
            total_rounds=total,
        )
    assert tail.round is not None
    recovery = last_perturbation_round + tail.round
    return RecoveryResult(
        recovered=True,
        recovery_round=recovery,
        re_stabilization_time=tail.round,
        last_perturbation_round=last_perturbation_round,
        total_rounds=total,
    )
