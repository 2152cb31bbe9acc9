"""The randomised resilience boosting construction for the pulling model (Theorem 4).

:class:`SampledBoostedCounter` is the pulling-model counterpart of
:class:`~repro.core.boosting.BoostedCounter`.  The structure is the same
code — ``k`` blocks running copies of an inner counter, one
:class:`~repro.core.boosting.BoostedState` space and one ``(r, b)`` read
(:class:`~repro.core.boosting.BoostedStructure`), leader-pointer voting, and
the one Table 2 step :func:`~repro.core.phase_king.instruction_step` — but
the two steps that relied on hearing from *all* nodes read random samples
instead (Sections 5.3–5.4):

* **Block-majority voting** — instead of reading the leader pointer of every
  node in every block, the node uniformly samples ``M`` members of each block
  (with repetition) and takes majorities over the samples (Lemma 9).
* **Phase king thresholds** — instead of the absolute thresholds ``N - F``
  and ``F``, the node samples ``M`` output registers and passes the phase
  king step ``⌈2M/3⌉`` and ``M/3`` (Lemma 8).

The node still pulls the full state of its **own block** (it must execute the
inner algorithm ``A_i`` exactly) and of the ``F + 2`` potential phase kings
(the identity of the current king is only known once the sampled round
counter has been computed, so all candidates are pulled up front; the paper
leaves this detail unspecified — see DESIGN.md).  The per-round pull count is
therefore::

    n  +  k·M  +  M  +  (F + 2)

messages, i.e. ``O(k log η)`` for ``M = Θ(log η)`` as claimed by Theorem 4.

The resulting counter is *probabilistic*: in every round after stabilisation
the sampled majorities fail with probability at most ``η^{-κ}``; with fresh
per-round randomness a failure can perturb the phase king registers of a few
nodes, which the construction subsequently repairs.

A round of the pulling model runs through :meth:`SampledBoostedCounter.next_states`
for every correct node at once: every correct node's block counter is read
once per round into a table the samples index, since every pull of a correct
node returns the same state, and each node reads only its forged responses.
"""

from __future__ import annotations

import random
from typing import Any, Mapping, Sequence, cast

from repro.core.algorithm import AlgorithmInfo, State, SynchronousCountingAlgorithm
from repro.core.boosting import BoostedState, BoostedStructure, block_next_states
from repro.core.errors import ParameterError
from repro.core.phase_king import instruction_step
from repro.core.voting import majority
from repro.network.pulling import PullingAlgorithm
from repro.sampling.thresholds import (
    high_threshold,
    low_threshold,
    recommended_sample_size,
)

__all__ = ["SampledBoostedCounter"]


class SampledBoostedCounter(BoostedStructure, PullingAlgorithm):
    """Pulling-model boosted counter with sampled voting (Theorem 4).

    The parameters, state space, bounds, output map and ``(r, b)`` read are
    those of :class:`~repro.core.boosting.BoostedStructure`; this class adds
    the sampling plan and the Lemma 8 thresholds.  Its ``default_state`` is
    the pulling model's (:meth:`PullingAlgorithm.default_state`), which the
    crash adversary forges.
    """

    def __init__(
        self,
        inner: SynchronousCountingAlgorithm,
        k: int,
        counter_size: int,
        resilience: int | None = None,
        sample_size: int | None = None,
        eta: int | None = None,
        kappa: float = 1.0,
        gamma: float = 0.5,
        name: str | None = None,
    ) -> None:
        """Create the sampled boosted counter.

        Parameters
        ----------
        inner:
            Inner counter ``A ∈ A(n, f, c)`` (its counter size must be a
            multiple of ``3(F+2)(2m)^k`` exactly as in Theorem 1).
        k, counter_size, resilience:
            As in :class:`~repro.core.boosting.BoostedCounter`.
        sample_size:
            Number of samples ``M`` drawn per block and for the phase king.
            Defaults to :func:`recommended_sample_size` evaluated at ``eta``.
        eta:
            Total system size ``η`` used for the high-probability bounds
            (defaults to ``N = k·n``).
        kappa, gamma:
            The exponent ``κ`` and slack ``γ`` of Theorem 4 (used only when
            ``sample_size`` is derived automatically).
        """
        params = self._init_structure(inner, k, counter_size, resilience)
        if eta is None:
            eta = params.total_nodes
        if sample_size is None:
            sample_size = min(
                recommended_sample_size(eta, kappa=kappa, gamma=gamma),
                inner.n,
            ) if inner.n > 1 else 1
            sample_size = max(1, sample_size)
        if sample_size < 1:
            raise ParameterError(f"sample_size must be positive, got {sample_size}")
        self._sample_size = sample_size
        #: ``(start, size)`` of the ranges :meth:`_sample_plan` samples ``M``
        #: times each: every block, then the whole network.
        self._sample_ranges = (
            *((block * inner.n, inner.n) for block in range(k)),
            (0, params.total_nodes),
        )
        # Lemma 8: >= ⌈2M/3⌉ instead of N - F, > M/3 instead of F.
        self._high = high_threshold(sample_size)
        self._low = low_threshold(sample_size)
        info = AlgorithmInfo(
            name=name or f"SampledBoosted[{inner.info.name}, k={k}, M={sample_size}]",
            deterministic=False,
            source="Theorem 4",
            notes="pulling-model boosting with sampled voting and phase king",
        )
        super().__init__(n=params.total_nodes, f=params.resilience, c=counter_size, info=info)

    @property
    def sample_size(self) -> int:
        """The per-purpose sample size ``M``."""
        return self._sample_size

    def expected_pulls_per_round(self) -> int:
        """``n + k·M + M + (F+2)`` — the deterministic per-round pull count."""
        return (
            self._inner.n
            + self._layout.k * self._sample_size
            + self._sample_size
            + self.f
            + 2
        )

    # ------------------------------------------------------------------ #
    # Sampling plan
    # ------------------------------------------------------------------ #

    def _sample_plan(self, node: int, rng: random.Random) -> list[int]:
        """Draw the per-round pull targets for ``node``.

        Layout of the returned list (consumed positionally by
        :meth:`next_state`):

        1. the ``n`` members of the node's own block (in order),
        2. ``M`` uniform samples (with repetition) from each of the ``k``
           blocks, grouped by block,
        3. ``M`` uniform samples from the whole network for the phase king,
        4. the ``F + 2`` potential phase kings (nodes ``0 … F+1``).
        """
        block, _ = self._layout.split(node)
        targets: list[int] = list(self._layout.block_members(block))
        append = targets.append
        getrandbits = rng.getrandbits
        samples = range(self._sample_size)
        # Each sample is ``start + rng.randrange(bound)``, drawn the way
        # CPython's randrange draws it (``_randbelow_with_getrandbits``):
        # ``getrandbits(bound.bit_length())``, redrawn while ``>= bound``.  The
        # stream yields the same plan and ends at the same position.
        for start, bound in self._sample_ranges:
            bits = bound.bit_length()
            for _ in samples:
                draw = getrandbits(bits)
                while draw >= bound:
                    draw = getrandbits(bits)
                append(start + draw)
        targets.extend(range(self.f + 2))
        return targets

    def pull_targets(self, node: int, state: Any, rng: random.Random) -> list[int]:
        return self._sample_plan(node, rng)

    # ------------------------------------------------------------------ #
    # Transition
    # ------------------------------------------------------------------ #

    def next_state(
        self,
        node: int,
        state: Any,
        targets: Sequence[int],
        responses: Sequence[Any],
        rng: random.Random,
    ) -> BoostedState:
        """One round of ``node``: the one-node case of :meth:`next_states`.

        Every response counts as forged, so each is read where it sits in
        the plan.
        """
        shared: list[Any] = [None] * self.n
        shared[node] = state
        new_states = self.next_states(
            shared, {node: targets}, {node: dict(enumerate(responses))}, rng
        )
        return cast(BoostedState, new_states[node])

    def next_states(
        self,
        shared: Sequence[Any],
        targets: Mapping[int, Sequence[int]],
        forged: Mapping[int, Mapping[int, Any]],
        rng: random.Random,
    ) -> dict[int, State]:
        """One round of every pulling node, as
        :meth:`~repro.network.pulling.PullingAlgorithm.next_states` describes.

        Each correct node's ``(r, b)`` is read once per round into a table
        that every sample of it indexes; per node only the forged responses
        are read.  Every plan must follow :meth:`_sample_plan`'s layout.
        """
        n = self._inner.n
        M = self._sample_size
        k = self._layout.k
        C, high, low = self.c, self._high, self._low
        votes_end = n + k * M
        phase_end = votes_end + M
        expected = self.expected_pulls_per_round()
        read = self._read

        # 1. Inner algorithm update: each block's pulling nodes read their
        #    whole block (the first n plan positions, in member order).
        own_block: dict[int, dict[int, Any]] = {}
        for node, plan in targets.items():
            if len(plan) != expected:
                raise ParameterError(
                    f"expected {expected} responses (the sampling plan), got {len(plan)}"
                )
            own_block[node] = {
                position: response.inner
                for position, response in forged[node].items()
                if position < n
            }
        new_inner = block_next_states(self._inner, shared, own_block)

        # 2. The read tables: every correct node's round component, leader
        #    pointer and output register, read once.
        round_table, pointer_table = self._reads(shared)
        a_table = [None if state is None else state.a for state in shared]

        new_states: dict[int, State] = {}
        for node, plan in targets.items():
            entries = forged[node]
            sampled = plan[n:votes_end]
            rounds = [round_table[target] for target in sampled]
            pointers = [pointer_table[target] for target in sampled]
            a_values = [a_table[target] for target in plan[votes_end:phase_end]]
            for position, response in entries.items():
                if n <= position < votes_end:
                    # A sample of block ``other`` is its member plan[position].
                    other = (position - n) // M
                    rounds[position - n], pointers[position - n] = read(
                        plan[position], response, other
                    )
                elif votes_end <= position < phase_end:
                    a_values[position - votes_end] = response.a

            #    Sampled leader-block voting (Lemma 9).
            block_votes = [
                majority(pointers[other * M : (other + 1) * M], 0) for other in range(k)
            ]
            leader = majority(block_votes, 0)
            round_value = majority(rounds[leader * M : (leader + 1) * M], 0)

            # 3. Sampled phase king (Lemma 8) — the king ℓ = ⌊R/3⌋ is pulled
            #    directly, among the F + 2 candidates after the phase samples.
            king_position = phase_end + round_value // 3
            king = (
                entries[king_position]
                if king_position in entries
                else shared[plan[king_position]]
            )
            own = shared[node]
            a, d = instruction_step(
                own.a, own.d, a_values, king.a, round_value, C, high, low
            )
            new_states[node] = BoostedState(new_inner[node], a, d)
        return new_states
