"""The randomised resilience boosting construction for the pulling model (Theorem 4).

:class:`SampledBoostedCounter` is the pulling-model counterpart of
:class:`~repro.core.boosting.BoostedCounter`.  The structural ingredients are
identical — ``k`` blocks running copies of an inner counter, leader-pointer
voting, and the phase king — but the two steps that relied on hearing from
*all* nodes are replaced by random sampling (Sections 5.3–5.4):

* **Block-majority voting** — instead of reading the leader pointer of every
  node in every block, the node uniformly samples ``M`` members of each block
  (with repetition) and takes majorities over the samples (Lemma 9).
* **Phase king thresholds** — instead of the absolute thresholds ``N - F``
  and ``F + 1``, the node samples ``M`` output registers and compares against
  ``2M/3`` and ``M/3`` (Lemma 8).

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
"""

from __future__ import annotations

import random
from typing import Any, Sequence

from repro.core.algorithm import AlgorithmInfo, SynchronousCountingAlgorithm
from repro.core.blocks import BlockLayout, CounterInterpretation
from repro.core.boosting import BoostedState
from repro.core.errors import ParameterError
from repro.core.parameters import BoostingParameters
from repro.core.phase_king import INFINITY, PhaseKingRegisters, coerce_register_value
from repro.core.voting import majority
from repro.network.pulling import PullingAlgorithm
from repro.sampling.thresholds import recommended_sample_size, sampled_instruction_step
from repro.util.rng import ensure_rng

__all__ = ["SampledBoostedCounter"]


class SampledBoostedCounter(PullingAlgorithm):
    """Pulling-model boosted counter with sampled voting (Theorem 4)."""

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
        params = BoostingParameters.for_inner(
            inner_n=inner.n,
            inner_f=inner.f,
            k=k,
            counter_size=counter_size,
            resilience=resilience,
        )
        params.validate_inner_counter(inner.c)
        self._params = params
        self._inner = inner
        self._layout = BlockLayout(k=k, n=inner.n)
        self._interpretation = CounterInterpretation(k=k, F=params.resilience)
        #: The values of the output register ``a``: ``[C] ∪ {∞}``.
        self._a_values = (*range(counter_size), INFINITY)
        self._eta = eta if eta is not None else params.total_nodes
        if sample_size is None:
            sample_size = min(
                recommended_sample_size(self._eta, kappa=kappa, gamma=gamma),
                inner.n,
            ) if inner.n > 1 else 1
            sample_size = max(1, sample_size)
        if sample_size < 1:
            raise ParameterError(f"sample_size must be positive, got {sample_size}")
        self._sample_size = sample_size
        info = AlgorithmInfo(
            name=name or f"SampledBoosted[{inner.info.name}, k={k}, M={sample_size}]",
            deterministic=False,
            source="Theorem 4",
            notes="pulling-model boosting with sampled voting and phase king",
        )
        super().__init__(n=params.total_nodes, f=params.resilience, c=counter_size, info=info)

    # ------------------------------------------------------------------ #
    # Structure accessors
    # ------------------------------------------------------------------ #

    @property
    def inner(self) -> SynchronousCountingAlgorithm:
        """The inner counter ``A``."""
        return self._inner

    @property
    def parameters(self) -> BoostingParameters:
        """The Theorem 1/4 parameter set."""
        return self._params

    @property
    def layout(self) -> BlockLayout:
        """Block layout."""
        return self._layout

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

    def num_states(self) -> int:
        return self._inner.num_states() * (self.c + 1) * 2

    def state_bits(self) -> int:
        """Same space bound as the deterministic construction (Theorem 4)."""
        return self._params.space_bound(self._inner.state_bits())

    def stabilization_bound(self) -> int | None:
        """``T(P) = T(A) + 3(F+2)(2m)^k`` (holds with high probability)."""
        return self._params.stabilization_bound(self._inner.stabilization_bound())

    # ------------------------------------------------------------------ #
    # States
    # ------------------------------------------------------------------ #

    def random_state(self, rng: Any = None) -> BoostedState:
        generator = ensure_rng(rng)
        return BoostedState(
            inner=self._inner.random_state(generator),
            a=generator.choice(self._a_values),
            d=generator.randrange(2),
        )

    def coerce_message(self, message: Any) -> BoostedState:
        if isinstance(message, tuple) and len(message) == 3:
            inner, a, d = message
        else:
            inner, a, d = None, INFINITY, 0
        return BoostedState(
            inner=self._inner.coerce_message(inner),
            a=coerce_register_value(a, self.c),
            d=d if d in (0, 1) else 0,
        )

    def output(self, node: int, state: Any) -> int:
        """The output register ``a`` (0 while reset), read as a receiver reads it."""
        if not isinstance(state, tuple) or len(state) != 3:
            return 0
        a = state[1]
        if isinstance(a, int) and not isinstance(a, bool) and 0 <= a < self.c:
            return a
        return 0

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
        n = self._inner.n
        for other in range(self._layout.k):
            start = other * n
            targets.extend(start + rng.randrange(n) for _ in range(self._sample_size))
        targets.extend(rng.randrange(self.n) for _ in range(self._sample_size))
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
        n = self._inner.n
        M = self._sample_size
        _, index = self._layout.split(node)
        if len(responses) != self.expected_pulls_per_round():
            raise ParameterError(
                f"expected {self.expected_pulls_per_round()} responses "
                f"(the sampling plan), got {len(responses)}"
            )

        # 1. Inner algorithm update from the own-block responses.
        new_inner = self._inner.next_state(
            index, [response.inner for response in responses[:n]]
        )

        # 2. Sampled leader-block voting (Lemma 9): interpretation.decompose
        #    of every sampled value, inline, from the per-block tables.
        tau = self._interpretation.tau
        m = self._interpretation.m
        output = self._inner.output
        offset = n
        block_votes: list[int] = []
        block_round_samples: list[list[int]] = []
        for other, (period, divisor) in enumerate(self._interpretation.block_tables):
            start = other * n
            reduced = [
                output(targets[position] - start, responses[position].inner) % period
                for position in range(offset, offset + M)
            ]
            offset += M
            pointers = [value // tau // divisor % m for value in reduced]
            block_votes.append(majority(pointers, 0))
            block_round_samples.append([value % tau for value in reduced])
        leader = majority(block_votes, 0)
        round_value = majority(block_round_samples[leader], 0)

        # 3. Sampled phase king (Lemma 8) — the king ℓ = ⌊R/3⌋ is pulled
        #    directly, among the F + 2 candidates after the phase samples.
        phase_samples = responses[offset : offset + M]
        king = responses[offset + M + round_value // 3]
        updated = sampled_instruction_step(
            PhaseKingRegisters(a=state.a, d=state.d),
            [sample.a for sample in phase_samples],
            king_value=king.a,
            round_value=round_value,
            F=self.f,
            C=self.c,
        )
        return BoostedState(inner=new_inner, a=updated.a, d=updated.d)
