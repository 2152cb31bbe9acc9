"""Sampled threshold tests for the randomised phase king (Section 5.3, Lemma 8).

The deterministic phase king compares counts of received values against the
absolute thresholds ``N - F`` and ``F + 1``.  The randomised variant draws
``M`` samples (with repetition) and compares against the *fractional*
thresholds ``2M/3`` and ``M/3``.  Lemma 8 shows that for
``M >= M₀(η, κ, γ) = Θ(log η)`` samples and ``F < N / (3 + γ)``:

(a) a value held by **all** correct nodes is seen at least ``2M/3`` times,
(b) a value held by a **majority** of correct nodes is seen more than
    ``M/3`` times, and
(c) a value seen at least ``2M/3`` times is held by a majority of correct
    nodes,

each with probability at least ``1 - η^{-κ}`` (Chernoff bounds).

:func:`sampled_phase_king_step` mirrors
:func:`repro.core.phase_king.phase_king_step` with these thresholds (and
:func:`sampled_instruction_step` mirrors its non-coercing core
:func:`~repro.core.phase_king.instruction_step`), and
:func:`recommended_sample_size` evaluates an explicit, conservative ``M₀``.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

from repro.core.errors import ParameterError
from repro.core.phase_king import (
    INFINITY,
    PhaseKingRegisters,
    coerce_register_value,
    increment,
    schedule_length,
)

__all__ = [
    "recommended_sample_size",
    "high_threshold",
    "low_threshold",
    "sampled_instruction_step",
    "sampled_phase_king_step",
]


def recommended_sample_size(eta: int, kappa: float = 1.0, gamma: float = 0.5) -> int:
    """A concrete ``M₀(η, κ, γ) = Θ(log η)`` satisfying the Lemma 8 bounds.

    Lemma 8 uses ``δ = 1 - (2/3)·(3+γ)/(2+γ)`` and requires
    ``exp(-δ²/2 · E[X]) <= η^{-κ}`` where ``E[X] >= M·(2+γ)/(2(3+γ))``
    (the weakest of the three cases).  Solving for ``M`` gives::

        M₀ = ceil( 4 κ (3+γ) ln η / (δ² (2+γ)) )

    The constant is deliberately conservative; experiments sweep smaller ``M``
    to expose the failure-probability cliff.
    """
    if eta < 2:
        raise ParameterError(f"total system size eta must be at least 2, got {eta}")
    if kappa <= 0:
        raise ParameterError(f"kappa must be positive, got {kappa}")
    if gamma <= 0:
        raise ParameterError(f"gamma must be positive, got {gamma}")
    delta = 1.0 - (2.0 / 3.0) * (3.0 + gamma) / (2.0 + gamma)
    if delta <= 0:
        raise ParameterError(f"gamma={gamma} leaves no slack (delta <= 0)")
    bound = 4.0 * kappa * (3.0 + gamma) * math.log(eta) / (delta**2 * (2.0 + gamma))
    return max(1, math.ceil(bound))


def high_threshold(samples: int) -> int:
    """The sampled analogue of ``N - F``: at least ``⌈2M/3⌉`` matching samples."""
    if samples < 1:
        raise ParameterError(f"samples must be positive, got {samples}")
    return math.ceil(2 * samples / 3)


def low_threshold(samples: int) -> float:
    """The sampled analogue of ``F``: strictly more than ``M/3`` matching samples."""
    if samples < 1:
        raise ParameterError(f"samples must be positive, got {samples}")
    return samples / 3


def sampled_instruction_step(
    registers: PhaseKingRegisters,
    sampled_values: Sequence[int],
    king_value: int,
    round_value: int,
    F: int,
    C: int,
) -> PhaseKingRegisters:
    """Instruction set ``I_R`` of the randomised phase king, ``R = round_value mod τ``.

    The non-coercing core of :func:`sampled_phase_king_step`: the ``M``
    samples and the king's value are already in ``[C] ∪ {∞}``, as
    :func:`~repro.core.phase_king.coerce_register_value` reads them.
    """
    M = len(sampled_values)
    step = round_value % schedule_length(F) % 3
    counts = Counter(sampled_values)
    high = high_threshold(M)
    low = low_threshold(M)

    if step == 0:
        a = registers.a
        if counts.get(a, 0) < high:
            a = INFINITY
        return PhaseKingRegisters(a=increment(a, C), d=registers.d)

    if step == 1:
        own_support = counts.get(registers.a, 0)
        d = 1 if (registers.a != INFINITY and own_support >= high) else 0
        # Only sampled values can clear the threshold, so the distinct
        # samples (at most M) are the only candidates — no [C] scan.  As in
        # the scan, only genuine counter values in [C] qualify.
        a = INFINITY
        for value, count in counts.items():
            if (
                count > low
                and isinstance(value, int)
                and 0 <= value < C
                and (a == INFINITY or value < a)
            ):
                a = value
        return PhaseKingRegisters(a=increment(a, C), d=d)

    # step == 2: king instruction
    a = registers.a
    if a == INFINITY or registers.d == 0:
        a = C if king_value == INFINITY else min(C, king_value)
    return PhaseKingRegisters(a=(a + 1) % C, d=1)


def sampled_phase_king_step(
    registers: PhaseKingRegisters,
    sampled_values: Sequence[object],
    king_value: object,
    round_value: int,
    F: int,
    C: int,
) -> PhaseKingRegisters:
    """One step of the randomised phase king (Section 5.3).

    Identical to :func:`repro.core.phase_king.phase_king_step` except that the
    received vector is a multiset of ``M`` sampled register values and the
    thresholds are ``2M/3`` (instead of ``N - F``) and ``M/3`` (instead of
    ``F``).  The king's value is pulled directly and passed separately.
    Arbitrary values are coerced first.
    """
    if C < 2:
        raise ParameterError(f"counter size C must be at least 2, got {C}")
    if not sampled_values:
        raise ParameterError("sampled_values must not be empty")
    return sampled_instruction_step(
        registers,
        [coerce_register_value(value, C) for value in sampled_values],
        coerce_register_value(king_value, C),
        round_value,
        F,
        C,
    )
