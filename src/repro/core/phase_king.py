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

The functions in this module are pure: they take the register values and the
vector of received ``a``-values and return the new register values.
:func:`phase_king_step` reads arbitrary received values (the Table 2
experiment and the Lemma 4/5 tests call it); :func:`instruction_step` is its
non-coercing core, which :class:`repro.core.boosting.BoostedCounter` calls on
registers it has already read once, on receipt.
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
    "instruction_broadcast",
    "instruction_vote",
    "instruction_king",
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
        Auxiliary bit recording whether the node saw ``N - F`` support for its
        own value in the most recent voting step.
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


def instruction_broadcast(
    registers: PhaseKingRegisters, received: Sequence[int], N: int, F: int, C: int
) -> PhaseKingRegisters:
    """Instruction set ``I_{3ℓ}`` of Table 2.

    1. If fewer than ``N - F`` nodes sent ``a[v]`` (the node's own value),
       reset ``a[v] ← ∞``.
    2. Increment ``a[v]``.
    """
    support = sum(1 for value in received if value == registers.a)
    a = registers.a
    if support < N - F:
        a = INFINITY
    return PhaseKingRegisters(a=increment(a, C), d=registers.d)


def instruction_vote(
    registers: PhaseKingRegisters, received: Sequence[int], N: int, F: int, C: int
) -> PhaseKingRegisters:
    """Instruction set ``I_{3ℓ+1}`` of Table 2.

    1. Count ``z_j``, the number of received values equal to ``j``.
    2. If ``z_{a[v]} >= N - F`` set ``d[v] ← 1``, otherwise ``d[v] ← 0``.
       The counts ``z_j`` are defined for counter values ``j ∈ [C]``; a node
       whose own register is the reset marker ``∞`` therefore sets
       ``d[v] ← 0`` (this is the reading that makes the Lemma 4 argument
       airtight: ``d = 1`` certifies that a *counter value* had ``N - F``
       support).
    3. Set ``a[v] ← min{ j : z_j > F }`` (over counter values ``j ∈ [C]``;
       if no value has more than ``F`` support the register is reset to ``∞``
       — the subsequent king step will repair it).
    4. Increment ``a[v]``.
    """
    counts = Counter(received)
    own_support = counts.get(registers.a, 0)
    d = 1 if (registers.a != INFINITY and own_support >= N - F) else 0
    # min{j in [C] : z_j > F} without scanning all C counter values: only
    # received values can have positive support, so the distinct received
    # values (at most N of them) are the only candidates — but exactly as in
    # the [C] scan, only genuine counter values qualify (uncoerced garbage
    # from a caller bypassing phase_king_step must not be adopted).
    a = INFINITY
    for value, count in counts.items():
        if (
            count > F
            and isinstance(value, int)
            and 0 <= value < C
            and (a == INFINITY or value < a)
        ):
            a = value
    return PhaseKingRegisters(a=increment(a, C), d=d)


def instruction_king(
    registers: PhaseKingRegisters,
    received: Sequence[int],
    king: int,
    N: int,
    F: int,
    C: int,
) -> PhaseKingRegisters:
    """Instruction set ``I_{3ℓ+2}`` of Table 2.

    1. If ``a[v] = ∞`` or ``d[v] = 0``, adopt the king's value:
       ``a[v] ← min{C, a[ℓ]}`` (so a king broadcasting ``∞`` is read as the
       capped value ``C``).
    2. Set ``d[v] ← 1`` and increment ``a[v]``.
    """
    if not 0 <= king < N:
        raise ParameterError(f"king index must be in [0, {N}), got {king}")
    a = registers.a
    if a == INFINITY or registers.d == 0:
        king_value = received[king]
        if king_value == INFINITY:
            a = C
        else:
            a = min(C, king_value)
    return PhaseKingRegisters(a=(a + 1) % C, d=1)


def instruction_step(
    registers: PhaseKingRegisters,
    received: Sequence[int],
    round_value: int,
    N: int,
    F: int,
    C: int,
) -> PhaseKingRegisters:
    """Execute instruction set ``I_R`` for ``R = round_value mod τ``.

    The non-coercing core of :func:`phase_king_step`: ``received`` holds
    ``N`` values already in ``[C] ∪ {∞}``, as :func:`coerce_register_value`
    reads them.  ``ℓ = ⌊R/3⌋`` is the phase's king and ``R mod 3`` selects
    the instruction inside the phase.
    """
    phase, step = divmod(round_value % schedule_length(F), 3)
    if step == 0:
        return instruction_broadcast(registers, received, N, F, C)
    if step == 1:
        return instruction_vote(registers, received, N, F, C)
    return instruction_king(registers, received, king=phase, N=N, F=F, C=C)


def phase_king_step(
    registers: PhaseKingRegisters,
    received: Sequence[object],
    round_value: int,
    N: int,
    F: int,
    C: int,
) -> PhaseKingRegisters:
    """Execute instruction set ``I_R`` for ``R = round_value ∈ [τ]``.

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
    coerced = [coerce_register_value(value, C) for value in received]
    return instruction_step(registers, coerced, round_value, N, F, C)
