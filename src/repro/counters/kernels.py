"""Vectorised broadcast-model kernels for the catalogue algorithms.

Each kernel implements :class:`repro.network.batch.BatchKernel` for one
algorithm family, executing a synchronous round for a whole ``(B, n)`` batch
of trials with array operations:

* :class:`TrivialBatchKernel` — the single-node modulo counter.
* :class:`NaiveMajorityBatchKernel` — one-hot tallies over the received
  matrix, strict-majority selection, minimum fallback.
* :class:`RandomizedFollowMajorityBatchKernel` — the ``n - f`` threshold test
  plus vectorised random re-draws (NumPy randomness; statistically
  equivalent to the scalar per-node ``random.Random`` stream).
* :class:`BoostedBatchKernel` — the full Theorem 1 construction
  (Corollary 1 / Figure 2 stacks): recursive inner-counter transitions,
  leader-pointer decomposition and two-level majority votes, and the
  vectorised phase king of Table 2.  Deterministic and bit-identical to
  :meth:`repro.core.boosting.BoostedCounter.next_state`.

The boosted kernel represents a node state as the concatenation of its inner
counter's fields plus the phase king registers ``(a, d)``, mirroring
:class:`~repro.core.boosting.BoostedState`; recursion over
``BoostedCounter``/``TrivialCounter`` stacks therefore yields a fixed-width
integer encoding for every counter the planner instantiates.  Constructions
whose counter periods would overflow int64 (Corollary 1 beyond ``f = 4``)
report no kernel and fall back to the scalar engine.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.core.boosting import BoostedCounter, BoostedState
from repro.core.phase_king import INFINITY
from repro.counters.naive import NaiveMajorityCounter
from repro.counters.randomized import RandomizedFollowMajorityCounter
from repro.counters.trivial import TrivialCounter
from repro.network.batch import BatchKernel

__all__ = [
    "TrivialBatchKernel",
    "NaiveMajorityBatchKernel",
    "RandomizedFollowMajorityBatchKernel",
    "BoostedBatchKernel",
    "build_broadcast_kernel",
]

#: Largest counter period the boosted kernel vectorises; beyond this the
#: int64 modular arithmetic of the leader-pointer decomposition would
#: overflow and the scalar engine (arbitrary-precision ints) must be used.
_INT64_SAFE = 2**62

_BIG = np.iinfo(np.int64).max


def strict_majority(values: np.ndarray, default: int) -> np.ndarray:
    """Vectorised ``majority(values, default)`` over the last axis.

    A value wins when it occurs strictly more than half the time — at most
    one value can, so any max-count representative is the winner; otherwise
    ``default`` is returned, matching :func:`repro.core.voting.majority`.
    """
    size = values.shape[-1]
    counts = (values[..., :, None] == values[..., None, :]).sum(axis=-1)
    best = counts.argmax(axis=-1)
    best_count = np.take_along_axis(counts, best[..., None], axis=-1)[..., 0]
    best_value = np.take_along_axis(values, best[..., None], axis=-1)[..., 0]
    return np.where(2 * best_count > size, best_value, default)


def _guarded_increment(a: np.ndarray, c: int) -> np.ndarray:
    """The paper's guarded increment: ``a + 1 mod c`` unless ``a = ∞``."""
    return np.where(a == INFINITY, INFINITY, (a + 1) % c)


def vectorized_phase_king(
    own_a: np.ndarray,
    own_d: np.ndarray,
    values: np.ndarray,
    eligible: np.ndarray,
    own_support: np.ndarray,
    high: "int | np.ndarray",
    king_value: np.ndarray,
    step: np.ndarray,
    c: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The Table 2 instruction sets, vectorised, shared by both boosted kernels.

    All three instruction kinds are computed and selected per element by
    ``step = R mod 3`` (receivers may disagree on ``R`` before
    stabilisation).  The deterministic construction passes the absolute
    thresholds (``high = N - F``, ``eligible`` from ``z_j > F``) and reads
    the king's broadcast column; the sampled construction (Lemma 8) passes
    ``high = ⌈2M/3⌉``, ``eligible`` from ``z_j > M/3`` and the directly
    pulled king value.

    Parameters are element-wise aligned arrays: ``values`` holds the
    received/sampled ``a``-registers (last axis = senders/samples),
    ``eligible`` marks the entries that qualify for the vote instruction's
    ``min{j : z_j > threshold}``, and ``king_value`` the already-gathered
    king register per receiver.
    """
    # I_{3l}: broadcast — keep a only with enough support, increment.
    a_broadcast = _guarded_increment(np.where(own_support >= high, own_a, INFINITY), c)

    # I_{3l+1}: vote — d certifies support for a counter value; adopt the
    # smallest qualifying value (reset when none qualifies), increment.
    d_vote = ((own_a != INFINITY) & (own_support >= high)).astype(np.int64)
    minimum = np.where(eligible, values, _BIG).min(axis=-1)
    a_vote = _guarded_increment(np.where(minimum == _BIG, INFINITY, minimum), c)

    # I_{3l+2}: king — nodes without certified support adopt the king's
    # value (∞ read as the cap C), then increment unguarded.
    adopted = np.where(king_value == INFINITY, c, np.minimum(c, king_value))
    a_king = np.where((own_a == INFINITY) | (own_d == 0), adopted, own_a)
    a_king = (a_king + 1) % c

    new_a = np.where(step == 0, a_broadcast, np.where(step == 1, a_vote, a_king))
    new_d = np.where(step == 0, own_d, np.where(step == 1, d_vote, 1))
    return new_a, new_d


class BoostedStateCodec:
    """Field encoding of :class:`BoostedState` over an inner core.

    Shared by the broadcast :class:`BoostedBatchKernel` and the pulling
    :class:`repro.sampling.kernels.SampledBoostedBatchKernel`: the state is
    the inner core's fields followed by the phase king registers ``(a, d)``.
    """

    def __init__(self, inner_core, c: int) -> None:
        self.inner_core = inner_core
        self.c = c
        self.fields = inner_core.fields + 2

    def encode(self, state: Any) -> tuple[int, ...]:
        return (*self.inner_core.encode(state.inner), int(state.a), int(state.d))

    def decode(self, row: Sequence[int]) -> BoostedState:
        inner_fields = self.inner_core.fields
        return BoostedState(
            inner=self.inner_core.decode(row[:inner_fields]),
            a=int(row[inner_fields]),
            d=int(row[inner_fields + 1]),
        )

    def outputs(self, states: np.ndarray) -> np.ndarray:
        a = states[..., self.inner_core.fields]
        return np.where((a >= 0) & (a < self.c), a, 0)

    def random_fields(
        self, rng: np.random.Generator, shape: tuple[int, ...]
    ) -> np.ndarray:
        inner = self.inner_core.random_fields(rng, shape)
        # random_state draws a uniformly from [c] ∪ {∞}: c + 1 choices with
        # the last one mapping to the INFINITY sentinel.
        a = rng.integers(0, self.c + 1, size=shape, dtype=np.int64)
        a = np.where(a == self.c, INFINITY, a)
        d = rng.integers(0, 2, size=shape, dtype=np.int64)
        return np.concatenate([inner, a[..., None], d[..., None]], axis=-1)


# ---------------------------------------------------------------------- #
# Flat integer counters
# ---------------------------------------------------------------------- #


class _IntStateKernel(BatchKernel):
    """Shared encoding for algorithms whose state is one integer in [c]."""

    fields = 1

    def encode(self, state: Any) -> tuple[int, ...]:
        return (int(state),)

    def decode(self, row: Sequence[int]) -> int:
        return int(row[0])

    def outputs(self, states: np.ndarray) -> np.ndarray:
        return states[..., 0]

    def random_fields(self, rng, shape):
        return rng.integers(0, self.algorithm.c, size=shape + (1,), dtype=np.int64)


class TrivialBatchKernel(_IntStateKernel):
    """The single-node modulo-``c`` counter (Section 4.1)."""

    deterministic = True

    def step(self, view, round_index, rng):
        # The node's only message is its own state; no adversary can exist
        # (f = 0), so the shared sender states are the received messages.
        return (view.states + 1) % self.algorithm.c


class NaiveMajorityBatchKernel(_IntStateKernel):
    """Fault-intolerant follow-the-majority (the negative baseline)."""

    deterministic = True

    def step(self, view, round_index, rng):
        algorithm = self.algorithm
        counts = view.field_counts(0, algorithm.c)  # (B, receiver, value)
        best = counts.argmax(axis=-1)
        best_count = np.take_along_axis(counts, best[..., None], axis=-1)[..., 0]
        fallback = view.field_min(0)
        agreed = np.where(2 * best_count > algorithm.n, best, fallback)
        return (((agreed + 1) % algorithm.c))[..., None]


class RandomizedFollowMajorityBatchKernel(_IntStateKernel):
    """The folklore randomised counter: follow an ``n - f`` majority or redraw.

    The redraw uses the batch's NumPy generator instead of the algorithm's
    per-instance ``random.Random``, so stabilisation-time distributions match
    the scalar engine statistically but not sample-by-sample.
    """

    deterministic = False

    def step(self, view, round_index, rng):
        algorithm = self.algorithm
        threshold = algorithm.n - algorithm.f
        counts = view.field_counts(0, algorithm.c)  # (B, receiver, value)
        supported = counts >= threshold
        any_supported = supported.any(axis=-1)
        # argmax over booleans finds the first (smallest) supported value —
        # at most one value can reach n - f anyway (n > 3f).
        minimum_supported = supported.argmax(axis=-1)
        draws = rng.integers(
            0, algorithm.c, size=(view.batch, view.n), dtype=np.int64
        )
        follow = (minimum_supported + 1) % algorithm.c
        return np.where(any_supported, follow, draws)[..., None]


# ---------------------------------------------------------------------- #
# The Theorem 1 construction
# ---------------------------------------------------------------------- #


class _TrivialCore:
    """Recursion base: a block of one trivial node, one int64 field."""

    fields = 1

    def __init__(self, algorithm: TrivialCounter) -> None:
        self.algorithm = algorithm

    def encode(self, state: Any) -> tuple[int, ...]:
        return (int(state),)

    def decode(self, row: Sequence[int]) -> int:
        return int(row[0])

    def outputs(self, states: np.ndarray) -> np.ndarray:
        return states[..., 0]

    def random_fields(self, rng, shape):
        return rng.integers(0, self.algorithm.c, size=shape + (1,), dtype=np.int64)

    def transition(self, messages: np.ndarray, receiver_index: np.ndarray) -> np.ndarray:
        # One node per block: the single message is the node's own state.
        return ((messages[..., 0, 0] + 1) % self.algorithm.c)[..., None]


class _BoostedCore:
    """One Theorem 1 level: inner blocks, leader votes, phase king.

    ``transition`` consumes per-receiver message matrices of shape
    ``(B, R, n, fields)`` — receiver slot ``r`` holds the coerced states this
    receiver read from all ``n`` members of the *current* level — plus the
    receivers' within-level node indices ``(R,)``.  Nested levels reuse the
    same interface on the sliced own-block columns, mirroring the recursion
    of :meth:`repro.core.boosting.BoostedCounter.next_state` exactly.
    """

    def __init__(self, algorithm: BoostedCounter, inner: "_TrivialCore | _BoostedCore"):
        self.algorithm = algorithm
        self.inner = inner
        self.codec = BoostedStateCodec(inner, algorithm.c)
        self.fields = self.codec.fields
        layout = algorithm.layout
        interpretation = algorithm.interpretation
        self.k = layout.k
        self.block_size = layout.n
        self.tau = interpretation.tau
        self.m = interpretation.m
        member_block = np.arange(layout.total_nodes) // layout.n
        self.member_block = member_block
        self.periods = np.array(
            [interpretation.block_period(int(block)) for block in member_block],
            dtype=np.int64,
        )
        self.pointer_divisor = np.array(
            [interpretation.base ** int(block) for block in member_block],
            dtype=np.int64,
        )

    # -- state encoding (delegated to the shared codec) ------------------- #

    def encode(self, state: Any) -> tuple[int, ...]:
        return self.codec.encode(state)

    def decode(self, row: Sequence[int]) -> BoostedState:
        return self.codec.decode(row)

    def outputs(self, states: np.ndarray) -> np.ndarray:
        return self.codec.outputs(states)

    def random_fields(self, rng, shape):
        return self.codec.random_fields(rng, shape)

    # -- the round -------------------------------------------------------- #

    def transition(self, messages: np.ndarray, receiver_index: np.ndarray) -> np.ndarray:
        algorithm = self.algorithm
        inner_fields = self.inner.fields
        batch, receivers, members = messages.shape[0], messages.shape[1], messages.shape[2]
        n, f, c = algorithm.n, algorithm.f, algorithm.c

        # Step 1: the block-level copy of the inner algorithm, fed with the
        # receiver's own-block columns of the message matrix.
        blocks = receiver_index // self.block_size
        block_columns = blocks[:, None] * self.block_size + np.arange(self.block_size)
        inner_messages = messages[
            :, np.arange(receivers)[:, None], block_columns, :inner_fields
        ]
        new_inner = self.inner.transition(inner_messages, receiver_index % self.block_size)

        # Step 2: the voted round counter R (Section 3.3) — decompose every
        # member's announced inner output into (r, y) and the leader pointer,
        # then take the two-level strict majorities.
        announced = self.inner.outputs(messages[..., :inner_fields])
        reduced = announced % self.periods
        round_component = reduced % self.tau
        pointer = ((reduced // self.tau) // self.pointer_divisor) % self.m
        pointer_blocks = pointer.reshape(batch, receivers, self.k, self.block_size)
        block_votes = strict_majority(pointer_blocks, 0)
        leader = strict_majority(block_votes, 0)
        round_blocks = round_component.reshape(batch, receivers, self.k, self.block_size)
        leader_rounds = np.take_along_axis(
            round_blocks, leader[..., None, None], axis=2
        )[..., 0, :]
        round_value = strict_majority(leader_rounds, 0)

        # Step 3: instruction set I_R of the phase king (Table 2) with the
        # absolute thresholds N - F and F; the king's register is read from
        # its broadcast column.
        a_received = messages[..., inner_fields]
        own_a = np.take_along_axis(a_received, receiver_index[None, :, None], axis=2)[
            ..., 0
        ]
        own_d = np.take_along_axis(
            messages[..., inner_fields + 1], receiver_index[None, :, None], axis=2
        )[..., 0]
        support = (a_received[..., :, None] == a_received[..., None, :]).sum(axis=-1)
        own_support = (a_received == own_a[..., None]).sum(axis=-1)

        schedule = round_value % self.tau
        king_value = np.take_along_axis(
            a_received, (schedule // 3)[..., None], axis=2
        )[..., 0]
        new_a, new_d = vectorized_phase_king(
            own_a=own_a,
            own_d=own_d,
            values=a_received,
            eligible=(a_received != INFINITY) & (support > f),
            own_support=own_support,
            high=n - f,
            king_value=king_value,
            step=schedule % 3,
            c=c,
        )
        return np.concatenate(
            [new_inner, new_a[..., None], new_d[..., None]], axis=-1
        )


def build_boosted_core(algorithm: Any) -> "_TrivialCore | _BoostedCore | None":
    """Recursive core for a TrivialCounter/BoostedCounter stack, or ``None``.

    ``None`` signals an unsupported inner algorithm or a parameterisation
    whose counter periods exceed the int64-safe range.
    """
    if isinstance(algorithm, TrivialCounter):
        if algorithm.c >= _INT64_SAFE:
            return None
        return _TrivialCore(algorithm)
    if isinstance(algorithm, BoostedCounter):
        inner = build_boosted_core(algorithm.inner)
        if inner is None:
            return None
        if algorithm.interpretation.max_period() >= _INT64_SAFE:
            return None
        return _BoostedCore(algorithm, inner)
    return None


class BoostedBatchKernel(BatchKernel):
    """Batch kernel for the deterministic Theorem 1 counters.

    Covers every planner instantiation over the trivial base (``corollary1``,
    ``figure2`` and hand-built :class:`~repro.core.boosting.BoostedCounter`
    stacks) whose counter periods fit in int64.
    """

    deterministic = True

    def __init__(self, algorithm: BoostedCounter, core: _BoostedCore) -> None:
        super().__init__(algorithm)
        self.core = core
        self.fields = core.fields

    def encode(self, state: Any) -> tuple[int, ...]:
        return self.core.encode(state)

    def decode(self, row: Sequence[int]) -> BoostedState:
        return self.core.decode(row)

    def outputs(self, states: np.ndarray) -> np.ndarray:
        return self.core.outputs(states)

    def random_fields(self, rng, shape):
        return self.core.random_fields(rng, shape)

    def step(self, view, round_index, rng):
        messages = view.received_stack()
        return self.core.transition(messages, np.arange(self.algorithm.n))


def build_broadcast_kernel(algorithm: Any) -> BatchKernel | None:
    """The vectorised kernel for a broadcast-model algorithm, or ``None``."""
    if isinstance(algorithm, TrivialCounter):
        return TrivialBatchKernel(algorithm)
    if isinstance(algorithm, NaiveMajorityCounter):
        return NaiveMajorityBatchKernel(algorithm)
    if isinstance(algorithm, RandomizedFollowMajorityCounter):
        return RandomizedFollowMajorityBatchKernel(algorithm)
    if isinstance(algorithm, BoostedCounter):
        core = build_boosted_core(algorithm)
        if isinstance(core, _BoostedCore):
            return BoostedBatchKernel(algorithm, core)
    return None
