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

:func:`sampled_phase_king_step` is the one Table 2 step,
:func:`repro.core.phase_king.instruction_step`, with these thresholds
(:func:`high_threshold` and :func:`low_threshold`) and the king's value
pulled directly; :func:`recommended_sample_size` evaluates an explicit,
conservative ``M₀``.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core.errors import ParameterError
from repro.core.phase_king import (
    PhaseKingRegisters,
    coerce_register_value,
    instruction_step,
    schedule_length,
)

__all__ = [
    "recommended_sample_size",
    "high_threshold",
    "low_threshold",
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


def sampled_phase_king_step(
    registers: PhaseKingRegisters,
    sampled_values: Sequence[object],
    king_value: object,
    round_value: int,
    F: int,
    C: int,
) -> PhaseKingRegisters:
    """One step of the randomised phase king (Section 5.3).

    :func:`~repro.core.phase_king.instruction_step` on a multiset of ``M``
    sampled register values with the thresholds ``⌈2M/3⌉`` (instead of
    ``N - F``) and ``M/3`` (instead of ``F``), exactly as
    :func:`~repro.core.phase_king.phase_king_step` runs it on all ``N``
    senders.  The king's value is pulled directly and passed separately.
    Arbitrary values are coerced first.
    """
    if C < 2:
        raise ParameterError(f"counter size C must be at least 2, got {C}")
    if not sampled_values:
        raise ParameterError("sampled_values must not be empty")
    schedule_length(F)  # rejects a negative F, as phase_king_step does
    samples = len(sampled_values)
    a, d = instruction_step(
        registers.a,
        registers.d,
        [coerce_register_value(value, C) for value in sampled_values],
        coerce_register_value(king_value, C),
        round_value,
        C,
        high=high_threshold(samples),
        low=low_threshold(samples),
    )
    return PhaseKingRegisters(a=a, d=d)
