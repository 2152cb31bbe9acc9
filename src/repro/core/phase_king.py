"""Self-stabilising adaptation of the phase king protocol (Section 3.4, Table 2).

The boosting construction needs a (non-self-stabilising) ``F``-resilient
``C``-counting algorithm that

1. establishes agreement within ``τ = 3(F+2)`` rounds whenever the underlying
   round counter is consistent at all non-faulty nodes (Lemma 4), and
2. never loses agreement once it is established, regardless of the round
   counter (Lemma 5).

The paper adapts the classic phase king protocol of Berman, Garay and Perry
to this end.  Every node ``v`` keeps an output register ``a[v] ∈ [C] ∪ {∞}``
(``∞`` is a reset marker) and an auxiliary bit ``d[v]``.  In every round the
node executes one of the instruction sets ``I_{3ℓ}``, ``I_{3ℓ+1}``,
``I_{3ℓ+2}`` of Table 2, selected by the current value ``R ∈ [τ]`` of the
voted round counter; ``ℓ = ⌊R/3⌋ ∈ [F+2]`` identifies the *king* node of the
current phase.

One Table 2 step serves both models of the paper.  :func:`instruction_step`
takes the node's registers ``(a, d)`` as plain ints, the ``a``-values it
read this round, the king's value and two thresholds, and returns the new
``(a, d)``; it is pure.  The broadcast model reads all ``N`` senders and
compares against ``N - F`` and ``F`` (:func:`phase_king_step`); the pulling
model of Section 5 reads ``M`` samples and compares against ``⌈2M/3⌉`` and
``M/3`` (Lemma 8, :func:`repro.sampling.thresholds.sampled_phase_king_step`).
Both boosted counters call :func:`instruction_step` on values they have
already read once, on receipt; the two wrappers coerce arbitrary values for
direct callers (the Table 2 experiment and the Lemma 4/5 tests) and hold the
registers in a :class:`PhaseKingRegisters`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from repro.core.errors import ParameterError

__all__ = [
    "INFINITY",
    "PhaseKingRegisters",
    "coerce_register_value",
    "increment",
    "instruction_step",
    "phase_king_step",
    "schedule_length",
]

#: Sentinel encoding the reset value ``∞`` of the output register ``a``.
#: It is an integer (rather than ``None`` or ``float("inf")``) so that states
#: stay hashable, compact and easy to serialise; it is negative so it can
#: never collide with a counter value in ``[C]``.
INFINITY: int = -1


@dataclass(frozen=True)
class PhaseKingRegisters:
    """The per-node registers of the adapted phase king protocol.

    Attributes
    ----------
    a:
        Output register, a value in ``[C]`` or :data:`INFINITY`.
    d:
        Auxiliary bit recording whether the node saw ``N - F`` support (with
        sampling, ``⌈2M/3⌉``) for its own value in the most recent voting
        step.
    """

    a: int
    d: int

    def __post_init__(self) -> None:
        if self.d not in (0, 1):
            raise ParameterError(f"d must be 0 or 1, got {self.d}")

    def output(self, C: int) -> int:
        """The counter output derived from the register (``0`` while reset)."""
        if self.a == INFINITY or not 0 <= self.a < C:
            return 0
        return self.a


def schedule_length(F: int) -> int:
    """Return ``τ = 3(F+2)``, the number of distinct instruction sets."""
    if F < 0:
        raise ParameterError(f"F must be non-negative, got {F}")
    return 3 * (F + 2)


def coerce_register_value(value: object, C: int) -> int:
    """Coerce an arbitrary received ``a``-value into ``[C] ∪ {∞}``.

    Byzantine senders may transmit garbage; receivers interpret anything that
    is not a valid counter value as the reset marker ``∞``.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        return INFINITY
    if value == INFINITY:
        return INFINITY
    if 0 <= value < C:
        return value
    return INFINITY


def increment(a: int, C: int) -> int:
    """The guarded increment of the paper: ``a + 1 mod C`` unless ``a = ∞``."""
    if a == INFINITY:
        return INFINITY
    return (a + 1) % C


def instruction_step(
    a: int,
    d: int,
    values: Sequence[int],
    king_value: int,
    round_value: int,
    C: int,
    high: int,
    low: float,
) -> tuple[int, int]:
    """Execute instruction set ``I_R`` of Table 2 on the registers ``(a, d)``.

    ``values`` are the ``a``-values the node read this round and
    ``king_value`` is the register of the phase's king ``ℓ = ⌊R/3⌋``, all
    already in ``[C] ∪ {∞}``, as :func:`coerce_register_value` reads them.
    Returns the new ``(a, d)``.  ``τ = 3(F+2)`` is a multiple of 3, so
    ``R mod 3`` selects the instruction for ``R = round_value mod τ``; with
    ``z_j`` the number of ``values`` equal to ``j``:

    * ``I_{3ℓ}``: if ``z_{a[v]} < high``, reset ``a[v] ← ∞``; increment.
    * ``I_{3ℓ+1}``: set ``d[v] ← 1`` iff ``a[v]`` is a counter value with
      ``z_{a[v]} >= high`` (so ``d = 1`` certifies that a *counter value*
      had that support, the reading that makes the Lemma 4 argument
      airtight); set ``a[v] ← min{j ∈ [C] : z_j > low}``, or ``∞`` when no
      value qualifies (the king step repairs it); increment.
    * ``I_{3ℓ+2}``: if ``a[v] = ∞`` or ``d[v] = 0``, adopt
      ``a[v] ← min{C, king_value}`` (a king sending ``∞`` is read as the
      cap ``C``); set ``d[v] ← 1`` and increment.

    The broadcast model passes ``high = N - F`` and ``low = F``; the pulling
    model passes ``high = ⌈2M/3⌉`` and ``low = M/3`` (Lemma 8).  The boosted
    counters call this on every node and round, so it takes and returns
    plain ints; :class:`PhaseKingRegisters` is for the two wrappers.
    """
    step = round_value % 3
    if step == 0:
        if values.count(a) < high:
            return INFINITY, d
        return increment(a, C), d
    if step == 1:
        counts = Counter(values)
        d = 1 if (a != INFINITY and counts.get(a, 0) >= high) else 0
        # min{j in [C] : z_j > low} without scanning all C counter values:
        # only values read can have positive support, so the distinct values
        # are the only candidates — but exactly as in the [C] scan, only
        # genuine counter values qualify.
        a = INFINITY
        for value, count in counts.items():
            if (
                count > low
                and isinstance(value, int)
                and 0 <= value < C
                and (a == INFINITY or value < a)
            ):
                a = value
        return increment(a, C), d
    if a == INFINITY or d == 0:
        a = C if king_value == INFINITY else min(C, king_value)
    return (a + 1) % C, 1


def phase_king_step(
    registers: PhaseKingRegisters,
    received: Sequence[object],
    round_value: int,
    N: int,
    F: int,
    C: int,
) -> PhaseKingRegisters:
    """Execute instruction set ``I_R`` for ``R = round_value ∈ [τ]`` (broadcast model).

    :func:`instruction_step` on the values of all ``N`` senders with the
    thresholds ``N - F`` and ``F``; the king ``ℓ = ⌊R/3⌋`` is sender ``ℓ``.

    Parameters
    ----------
    registers:
        The node's current ``(a, d)`` registers.
    received:
        The vector of ``a``-values received from all ``N`` nodes this round
        (arbitrary objects from Byzantine senders; they are coerced).
    round_value:
        The common round counter value ``R``; ``ℓ = ⌊R/3⌋`` is the phase's
        king and ``R mod 3`` selects the instruction inside the phase.
    """
    if len(received) != N:
        raise ParameterError(
            f"expected {N} received values, got {len(received)}"
        )
    if C < 2:
        raise ParameterError(f"counter size C must be at least 2, got {C}")
    king, step = divmod(round_value % schedule_length(F), 3)
    if step == 2 and not 0 <= king < N:
        raise ParameterError(f"king index must be in [0, {N}), got {king}")
    values = [coerce_register_value(value, C) for value in received]
    # Only the king instruction reads the king's value.
    king_value = values[king] if step == 2 else INFINITY
    a, d = instruction_step(
        registers.a, registers.d, values, king_value, round_value, C, high=N - F, low=F
    )
    return PhaseKingRegisters(a=a, d=d)
