"""Vectorised pulling-model kernels (Theorem 4 / Corollary 5).

:class:`SampledBoostedBatchKernel` executes the sampled boosting construction
for a whole batch of trials at once: the per-round pull plans become integer
target arrays, the responses one gather over the ``(B, n, fields)`` state
array (with faulty targets patched by the adversary kernel), and the sampled
leader votes become the same sorted-entry majorities the broadcast boosted
kernel uses.  The phase king is the one vectorised Table 2 step,
:func:`~repro.counters.kernels.vectorized_phase_king`, with the Lemma 8
thresholds ``⌈2M/3⌉`` and ``M/3`` where the broadcast kernel passes ``N - F``
and ``F``, exactly as both scalar counters call
:func:`~repro.core.phase_king.instruction_step`.  The block structure and the
thresholds are read from the algorithm, not rebuilt.

Randomness:

* :class:`~repro.sampling.pull_boosting.SampledBoostedCounter` draws fresh
  per-round samples — the batch kernel draws them from the NumPy generator,
  so executions are *statistically equivalent* to the scalar engine (same
  per-round distributions, different sample values).
* :class:`~repro.sampling.pseudo_random.PseudoRandomBoostedCounter` fixes its
  pull plans at construction (Corollary 5) and consumes no per-round
  randomness at all, so its batch executions are **bit-identical** to the
  scalar engine under deterministic adversaries.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.core.boosting import BoostedState
from repro.counters.kernels import (
    _INT64_SAFE,
    BoostedStateCodec,
    build_boosted_core,
    strict_majority,
    vectorized_phase_king,
    vote_minimum,
)
from repro.network.batch import PullBatchKernel
from repro.sampling.pull_boosting import SampledBoostedCounter
from repro.sampling.pseudo_random import PseudoRandomBoostedCounter
from repro.sampling.thresholds import high_threshold

__all__ = ["SampledBoostedBatchKernel", "build_pulling_kernel"]


class SampledBoostedBatchKernel(PullBatchKernel):
    """Batch kernel for the sampled (and pseudo-random) boosted counters."""

    def __init__(self, algorithm: SampledBoostedCounter, inner_core: Any) -> None:
        super().__init__(algorithm)
        self.inner_core = inner_core
        self.codec = BoostedStateCodec(inner_core, algorithm.c)
        self.fields = self.codec.fields
        layout = algorithm.layout
        self.k = layout.k
        self.block_size = layout.n
        self.samples = algorithm.sample_size
        self.kings = algorithm.f + 2
        interpretation = algorithm.interpretation
        self.tau = interpretation.tau
        self.m = interpretation.m
        self.block_periods = np.array(
            [interpretation.block_period(block) for block in range(self.k)],
            dtype=np.int64,
        )
        self.block_pointer_divisor = np.array(
            [interpretation.base**block for block in range(self.k)], dtype=np.int64
        )
        # Lemma 8 thresholds: >= ⌈2M/3⌉ instead of N - F, > M/3 instead of F.
        self.high_threshold = high_threshold(self.samples)
        node_ids = np.arange(algorithm.n)
        #: Slots 0..n-1 of every plan: the node's own block, in order.
        self.own_block_columns = (
            (node_ids // self.block_size)[:, None] * self.block_size
            + np.arange(self.block_size)[None, :]
        )
        self.fixed_plans: np.ndarray | None = None
        if isinstance(algorithm, PseudoRandomBoostedCounter):
            # Corollary 5: the plans are fixed at construction and reused
            # every round — no per-round randomness is consumed, so batch
            # executions are bit-identical to the scalar engine.
            self.fixed_plans = np.array(
                [algorithm.fixed_plan(node) for node in range(algorithm.n)],
                dtype=np.int64,
            )
        self.deterministic = self.fixed_plans is not None

    # -- state encoding (delegated to the shared BoostedState codec) ------- #

    def encode(self, state: Any) -> tuple[int, ...]:
        return self.codec.encode(state)

    def decode(self, row: Sequence[int]) -> BoostedState:
        return self.codec.decode(row)

    def outputs(self, states: np.ndarray) -> np.ndarray:
        return self.codec.outputs(states)

    # -- the pull plan ----------------------------------------------------- #

    def _targets(self, batch: int, rng: np.random.Generator) -> np.ndarray:
        """Per-round pull targets ``(B, n, P)`` in the scalar plan layout.

        Positional layout (consumed by :meth:`step` exactly like the scalar
        ``next_state``): own block, ``M`` samples per block grouped by block,
        ``M`` whole-network samples for the phase king, the ``F + 2``
        potential kings.
        """
        n = self.algorithm.n
        if self.fixed_plans is not None:
            return np.broadcast_to(
                self.fixed_plans[None, :, :],
                (batch, n, self.fixed_plans.shape[1]),
            )
        block_offsets = (np.arange(self.k) * self.block_size)[None, None, :, None]
        block_samples = (
            rng.integers(
                0, self.block_size, size=(batch, n, self.k, self.samples), dtype=np.int64
            )
            + block_offsets
        ).reshape(batch, n, self.k * self.samples)
        king_samples = rng.integers(
            0, self.algorithm.n, size=(batch, n, self.samples), dtype=np.int64
        )
        own = np.broadcast_to(self.own_block_columns[None], (batch, n, self.block_size))
        kings = np.broadcast_to(
            np.arange(self.kings)[None, None, :], (batch, n, self.kings)
        )
        return np.concatenate([own, block_samples, king_samples, kings], axis=2)

    # -- the round --------------------------------------------------------- #

    def step(self, network, rng):
        algorithm = self.algorithm
        states = network.states
        batch, n = states.shape[0], states.shape[1]
        inner_fields = self.inner_core.fields
        c = algorithm.c
        samples = self.samples

        targets = self._targets(batch, rng)
        responses = network.respond(targets)  # (B, n, P, fields)

        # 1. Inner algorithm update from the own-block responses: the inner
        #    level run per (trial, sampled block), each member reading its
        #    own pulled copies of the block.
        block_size = self.block_size
        own_block = responses[:, :, :block_size, :inner_fields].reshape(
            batch * self.k, block_size, block_size, inner_fields
        )
        new_inner = self.inner_core.transition(own_block).reshape(
            batch, n, inner_fields
        )

        # 2. Sampled leader-block voting (Lemma 9).
        offset = self.block_size
        block_responses = responses[
            :, :, offset : offset + self.k * samples, :inner_fields
        ].reshape(batch, n, self.k, samples, inner_fields)
        announced = self.inner_core.outputs(block_responses)  # (B, n, k, M)
        reduced = announced % self.block_periods[None, None, :, None]
        round_component = reduced % self.tau
        pointer = (
            (reduced // self.tau) // self.block_pointer_divisor[None, None, :, None]
        ) % self.m
        block_votes = strict_majority(pointer, 0)  # (B, n, k)
        leader = strict_majority(block_votes, 0)  # (B, n)
        trials, nodes = np.arange(batch)[:, None], np.arange(n)
        leader_rounds = round_component[trials, nodes, leader]  # (B, n, M)
        round_value = strict_majority(leader_rounds, 0)  # (B, n)

        # 3. Sampled phase king (Lemma 8) — the king is pulled directly.
        offset += self.k * samples
        phase_a = responses[:, :, offset : offset + samples, inner_fields]
        offset += samples
        kings_a = responses[:, :, offset : offset + self.kings, inner_fields]

        own_a = states[:, :, inner_fields]
        own_d = states[:, :, inner_fields + 1]
        schedule = round_value % self.tau
        # Lemma 8: the same Table 2 instructions with the fractional
        # thresholds 2M/3 and M/3 (z_j > M/3 is z_j >= ⌊M/3⌋ + 1), and the
        # king pulled directly.
        new_a, new_d = vectorized_phase_king(
            own_a=own_a,
            own_d=own_d,
            own_support=(phase_a == own_a[..., None]).sum(axis=-1),
            high=self.high_threshold,
            minimum=vote_minimum(phase_a, samples // 3 + 1),
            king_value=kings_a[trials, nodes, schedule // 3],
            step=schedule % 3,
            c=c,
        )
        new_states = np.concatenate(
            [new_inner, new_a[..., None], new_d[..., None]], axis=-1
        )
        return new_states, targets.shape[2]


def build_pulling_kernel(algorithm: Any) -> SampledBoostedBatchKernel | None:
    """The vectorised kernel for a pulling-model algorithm, or ``None``."""
    if not isinstance(algorithm, SampledBoostedCounter):
        return None
    inner_core = build_boosted_core(algorithm.inner)
    if inner_core is None:
        return None
    if algorithm.interpretation.max_period() >= _INT64_SAFE:
        return None
    return SampledBoostedBatchKernel(algorithm, inner_core)
