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
  :meth:`repro.core.boosting.BoostedCounter.next_states` for every correct
  receiver.

The boosted kernel represents a node state as the concatenation of its inner
counter's fields plus the phase king registers ``(a, d)``, mirroring
:class:`~repro.core.boosting.BoostedState`; recursion over
``BoostedCounter``/``TrivialCounter`` stacks therefore yields a fixed-width
integer encoding for every counter the planner instantiates.  Constructions
whose counter periods would overflow int64 (Corollary 1 beyond ``f = 4``)
report no kernel and fall back to the scalar engine.

Like the scalar round, the boosted kernel reads each delivered state once:
once per trial for the correct senders of a broadcast, once per link under
loss or delay, and once per receiver only for the forged entries, which are
then patched into per-receiver arrays of round values, leader pointers and
registers (:class:`_BoostedCore`).  Its votes read each receiver's sorted
entries: a strict majority is the median, and the phase king's
``min{j : z_j > F}`` starts the first run of ``F + 1`` equal values.
Faulty nodes' own rows are placeholders, as :class:`BatchKernel` allows.
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

    A value that occurs strictly more than half the time is the median of
    the entries, so the median is the only candidate: it wins when it holds
    a strict majority, and ``default`` is returned otherwise, matching
    :func:`repro.core.voting.majority`.
    """
    size = values.shape[-1]
    if size == 1:
        return values[..., 0]
    median = np.sort(values, axis=-1)[..., size // 2]
    count = (values == median[..., None]).sum(axis=-1)
    return np.where(count > size // 2, median, default)


def vote_minimum(values: np.ndarray, support: int) -> np.ndarray:
    """``min{j : z_j >= support}`` over the last axis, ``∞`` when none.

    ``z_j`` counts the entries equal to ``j``; the reset marker ``∞`` never
    qualifies.  In sorted order a value with support ``s`` is a run of ``s``
    equal entries, so the smallest qualifying value starts the first run.
    """
    size = values.shape[-1]
    if support > size:
        return np.full(values.shape[:-1], INFINITY, dtype=np.int64)
    ordered = np.sort(values, axis=-1)
    first = ordered[..., : size - support + 1]
    runs = (first == ordered[..., support - 1 :]) & (first != INFINITY)
    minimum = np.where(runs, first, _BIG).min(axis=-1)
    return np.where(minimum == _BIG, INFINITY, minimum)


def vectorized_phase_king(
    own_a: np.ndarray,
    own_d: np.ndarray,
    own_support: np.ndarray,
    high: "int | np.ndarray",
    minimum: np.ndarray,
    king_value: np.ndarray,
    step: np.ndarray,
    c: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The Table 2 instruction sets, vectorised, shared by both boosted kernels.

    Every instruction sets ``a`` and then increments it, guarded (``∞``
    stays ``∞``), so the three instruction kinds are selected per element by
    ``step = R mod 3`` (receivers may disagree on ``R`` before
    stabilisation) and the result is incremented once.  The deterministic
    construction passes the absolute threshold ``high = N - F``, the vote
    over ``z_j > F`` and the king's broadcast register; the sampled
    construction (Lemma 8) passes ``high = ⌈2M/3⌉``, the vote over ``z_j >
    M/3`` and the directly pulled king value.

    Parameters are element-wise aligned arrays: ``own_support`` is
    ``z_{a[v]}``, ``minimum`` the vote instruction's ``min{j : z_j > low}``
    (``∞`` when no value qualifies, see :func:`vote_minimum`) and
    ``king_value`` the king's register as the receiver read it.
    """
    supported = own_support >= high
    counter_value = own_a != INFINITY
    # I_{3l}: broadcast — keep a only with enough support.
    kept = np.where(supported, own_a, INFINITY)
    # I_{3l+1}: vote — adopt the smallest qualifying value (``minimum``);
    # d certifies support for a counter value.
    # I_{3l+2}: king — nodes without certified support adopt the king's
    # value, ∞ read as the cap C (never ∞, so the guard never applies).
    adopted = np.where(king_value == INFINITY, c, np.minimum(c, king_value))
    king = np.where(counter_value & (own_d != 0), own_a, adopted)

    broadcast, vote = step == 0, step == 1
    a = np.where(broadcast, kept, np.where(vote, minimum, king))
    new_a = np.where(a == INFINITY, INFINITY, (a + 1) % c)
    new_d = np.where(broadcast, own_d, np.where(vote, counter_value & supported, 1))
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


class TrivialBatchKernel(_IntStateKernel):
    """The single-node modulo-``c`` counter (Section 4.1)."""

    deterministic = True

    def step(self, view, rng):
        # The node's only message is its own state; no adversary can exist
        # (f = 0), so the shared sender states are the received messages.
        return (view.states + 1) % self.algorithm.c


class NaiveMajorityBatchKernel(_IntStateKernel):
    """Fault-intolerant follow-the-majority (the negative baseline)."""

    deterministic = True

    def step(self, view, rng):
        algorithm = self.algorithm
        counts = view.field_counts(0, algorithm.c)  # (B, receiver, value)
        fallback = view.field_min(0)
        agreed = np.where(
            2 * counts.max(axis=-1) > algorithm.n, counts.argmax(axis=-1), fallback
        )
        return (((agreed + 1) % algorithm.c))[..., None]


class RandomizedFollowMajorityBatchKernel(_IntStateKernel):
    """The folklore randomised counter: follow an ``n - f`` majority or redraw.

    The redraw uses the batch's NumPy generator instead of the algorithm's
    per-instance ``random.Random``, so stabilisation-time distributions match
    the scalar engine statistically but not sample-by-sample.
    """

    deterministic = False

    def step(self, view, rng):
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

    def transition(
        self,
        delivered: np.ndarray,
        faulty: np.ndarray | None = None,
        forged: np.ndarray | None = None,
    ) -> np.ndarray:
        # One node per block: its only message is its own state (a forged
        # own entry would make the node faulty, so forgeries are not read).
        return (delivered[:, :, 0] + 1) % self.algorithm.c


def _patched(values: np.ndarray, columns: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """``values`` per receiver, with ``entries`` written at ``columns``.

    ``values`` is ``(..., B, 1 or R, S)``, ``columns`` ``(B, q)`` in
    ``[0, S]`` and ``entries`` ``(..., B, R, q)``; entries at the column
    ``S`` are dropped.
    """
    *lead, batch, receivers, _ = entries.shape
    size = values.shape[-1]
    out = np.empty((*lead, batch, receivers, size + 1), dtype=np.int64)
    out[..., :size] = values
    rows = np.arange(batch)[:, None, None], np.arange(receivers)[:, None]
    out[(..., *rows, columns[:, None])] = entries
    return out[..., :size]


class _BoostedCore:
    """One Theorem 1 level: inner blocks, leader votes, phase king.

    :meth:`transition` runs one round of the level's ``S = k·n`` nodes,
    each receiving from all ``S``, given as three arrays:

    * ``delivered`` — the states the receivers read: ``(B, 1, S, fields)``
      when every receiver reads the same broadcast, ``(B, S, S, fields)``
      when each reads its own (per-link delays, pulled samples);
    * ``faulty`` — ``(B, q)`` sender columns whose entries differ per
      receiver, where the column ``S`` stands for a sender outside this
      level;
    * ``forged`` — ``(B, S, q, fields)``: those entries, per receiver.

    Each delivered state is read as its round value ``r``, leader pointer
    ``b`` and register ``a`` once, each forged entry once per receiver, and
    the forged reads are patched into per-receiver arrays.  The blocks'
    copies of the inner algorithm are the inner level run on ``(trial,
    block)`` rows, which mirrors the recursion of
    :meth:`repro.core.boosting.BoostedCounter.next_states`.  Every vote
    reads each receiver's sorted entries: a strict majority is the median,
    and the Table 2 ``min{j : z_j > F}`` starts the first run of ``F + 1``
    equal values.
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
        nodes = np.arange(layout.total_nodes)
        member_block = (nodes // layout.n).tolist()
        # Per sender column, then the column S: a sender outside this level,
        # whose reads are dropped.
        self.periods = np.array(
            [interpretation.block_period(block) for block in member_block] + [1],
            dtype=np.int64,
        )
        self.pointer_divisor = np.array(
            [self.tau * interpretation.base**block for block in member_block] + [1],
            dtype=np.int64,
        )
        self.nodes = nodes
        self.own_block = (nodes - nodes % layout.n)[:, None] + np.arange(layout.n)
        self.blocks = np.arange(self.k)[:, None]

    # -- state encoding (delegated to the shared codec) ------------------- #

    def encode(self, state: Any) -> tuple[int, ...]:
        return self.codec.encode(state)

    def decode(self, row: Sequence[int]) -> BoostedState:
        return self.codec.decode(row)

    def outputs(self, states: np.ndarray) -> np.ndarray:
        return self.codec.outputs(states)

    # -- the round -------------------------------------------------------- #

    def _read(
        self, states: np.ndarray, periods: np.ndarray, divisors: np.ndarray
    ) -> np.ndarray:
        """``(r, b, a)`` of each state, stacked: what its sender announces."""
        inner_fields = self.inner.fields
        reads = np.empty((3, *states.shape[:-1]), dtype=np.int64)
        reduced = self.inner.outputs(states[..., :inner_fields]) % periods
        np.remainder(reduced, self.tau, out=reads[0])
        np.floor_divide(reduced, divisors, out=reads[1])
        reads[1] %= self.m
        reads[2] = states[..., inner_fields]
        return reads

    def transition(
        self,
        delivered: np.ndarray,
        faulty: np.ndarray | None = None,
        forged: np.ndarray | None = None,
    ) -> np.ndarray:
        algorithm = self.algorithm
        inner_fields = self.inner.fields
        batch, size = delivered.shape[0], delivered.shape[2]
        k, n = self.k, self.block_size
        per_receiver = delivered.shape[1] > 1

        # Step 1: each block's copy of the inner algorithm, run as the inner
        # level on (trial, block) rows of the receivers' own-block columns.
        if per_receiver:
            own_block = delivered[:, self.nodes[:, None], self.own_block, :inner_fields]
        else:
            own_block = delivered[..., :inner_fields]
        inner_faulty = inner_forged = None
        # A block of one node reads only its own state, which is forged only
        # for a faulty receiver.
        if faulty is not None and n > 1:
            columns = faulty[:, None]
            inner_faulty = np.where(
                columns // n == self.blocks, columns % n, n
            ).reshape(batch * k, -1)
            inner_forged = forged[..., :inner_fields].reshape(
                batch * k, n, -1, inner_fields
            )
        new_inner = self.inner.transition(
            own_block.reshape(batch * k, -1, n, inner_fields), inner_faulty, inner_forged
        ).reshape(batch, size, inner_fields)

        # Step 2: the voted round counter R (Section 3.3).  Each delivered
        # state is read once and each forged entry once per receiver.
        reads = self._read(delivered, self.periods[:size], self.pointer_divisor[:size])
        if faulty is not None:
            forged_reads = self._read(
                forged,
                self.periods[faulty][:, None],
                self.pointer_divisor[faulty][:, None],
            )
            reads = _patched(reads, faulty, forged_reads)
        rounds, pointers, a = reads
        block_votes = strict_majority(pointers.reshape(batch, -1, k, n), 0)
        leader = strict_majority(block_votes, 0)
        trials, receivers = np.arange(batch)[:, None], np.arange(leader.shape[1])
        leader_rounds = rounds.reshape(batch, -1, k, n)[trials, receivers, leader]
        round_value = strict_majority(leader_rounds, 0)

        # Step 3: instruction set I_R of the phase king (Table 2) with the
        # absolute thresholds N - F and F; the king ⌊R/3⌋ is a sender, read
        # as each receiver read it.
        own = delivered[:, self.nodes, self.nodes] if per_receiver else delivered[:, 0]
        own_a = own[..., inner_fields]
        new_a, new_d = vectorized_phase_king(
            own_a=own_a,
            own_d=own[..., inner_fields + 1],
            own_support=(a == own_a[..., None]).sum(axis=-1),
            high=algorithm.n - algorithm.f,
            minimum=vote_minimum(a, algorithm.f + 1),
            king_value=a[trials, receivers, round_value // 3],
            step=round_value % 3,
            c=algorithm.c,
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

    def step(self, view, rng):
        faulty = None if view.forged is None else view.faulty_idx
        return self.core.transition(view.delivered, faulty, view.forged)


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
