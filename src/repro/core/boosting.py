"""The resilience boosting construction (Theorem 1 of the paper).

Given an inner synchronous ``c``-counter ``A ∈ A(n, f, c)`` and a number of
blocks ``k >= 3``, :class:`BoostedCounter` realises the counter
``B ∈ A(N, F, C)`` of Theorem 1 with ``N = k·n`` and ``F < (f+1)·⌈k/2⌉``:

* the ``N`` nodes are divided into ``k`` blocks of ``n`` nodes; each block
  ``i`` runs its own copy ``A_i`` of the inner counter (Section 3.2),
* the block counters are reinterpreted as pairs ``(r, y)`` and leader
  pointers ``b[i, j]`` that eventually all point at one candidate leader
  block for at least ``τ = 3(F+2)`` consecutive rounds (Lemmas 1 and 2),
* a two-level majority vote extracts a round counter ``R`` that is
  temporarily consistent across all non-faulty nodes (Section 3.3, Lemma 3),
* ``R`` drives the self-stabilising phase king adaptation of Section 3.4
  which establishes — and then forever maintains — agreement on the output
  ``C``-counter (Lemmas 4 and 5).

Every node's state is a :class:`BoostedState` consisting of the inner state
of its block algorithm plus the phase king registers ``(a, d)``, so the
space complexity is exactly ``S(A) + ⌈log2(C+1)⌉ + 1`` bits as claimed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, NamedTuple, Sequence

from repro.core.algorithm import AlgorithmInfo, State, SynchronousCountingAlgorithm
from repro.core.blocks import BlockLayout, CounterInterpretation
from repro.core.parameters import BoostingParameters
from repro.core.phase_king import (
    INFINITY,
    PhaseKingRegisters,
    coerce_register_value,
    instruction_step,
)
from repro.core.voting import majority
from repro.util.rng import ensure_rng

__all__ = ["BoostedState", "BoostedCounter", "VoteDiagnostics", "boost"]


class BoostedState(NamedTuple):
    """Per-node state of the boosted counter.

    Attributes
    ----------
    inner:
        The state of the node's block-level copy of the inner algorithm.
    a:
        Phase king output register in ``[C] ∪ {∞}`` (``∞`` encoded as
        :data:`repro.core.phase_king.INFINITY`).
    d:
        Phase king auxiliary bit.
    """

    inner: State
    a: int
    d: int


@dataclass(frozen=True)
class VoteDiagnostics:
    """Intermediate values of the voting scheme, exposed for tracing.

    Attributes
    ----------
    block_pointers:
        ``b[i, j]`` as read by this node, one list per block.
    block_rounds:
        ``r[i, j]`` as read by this node, one list per block.
    block_votes:
        ``b^i = majority_j b[i, j]`` for each block ``i``.
    leader:
        ``B = majority_i b^i``.
    round_value:
        ``R = majority_j r[B, j]``.
    """

    block_pointers: list[list[int]]
    block_rounds: list[list[int]]
    block_votes: list[int]
    leader: int
    round_value: int


class BoostedCounter(SynchronousCountingAlgorithm):
    """Synchronous ``C``-counter obtained by boosting an inner counter (Theorem 1)."""

    def __init__(
        self,
        inner: SynchronousCountingAlgorithm,
        k: int,
        counter_size: int,
        resilience: int | None = None,
        name: str | None = None,
    ) -> None:
        """Create the boosted counter.

        Parameters
        ----------
        inner:
            The inner counter ``A ∈ A(n, f, c)``.  Its counter size ``c`` must
            be a multiple of ``3(F+2)(2m)^k``.
        k:
            Number of blocks (``>= 3``).
        counter_size:
            The output counter size ``C > 1``.
        resilience:
            The boosted resilience ``F``.  Defaults to the largest value
            allowed by Theorem 1 together with the phase king requirement
            ``F < N/3``.
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
        info = AlgorithmInfo(
            name=name or f"Boosted[{inner.info.name}, k={k}]",
            deterministic=inner.deterministic,
            source="Theorem 1",
            notes="resilience boosting construction",
        )
        super().__init__(
            n=params.total_nodes, f=params.resilience, c=counter_size, info=info
        )

    # ------------------------------------------------------------------ #
    # Structure accessors
    # ------------------------------------------------------------------ #

    @property
    def inner(self) -> SynchronousCountingAlgorithm:
        """The inner counter ``A``."""
        return self._inner

    @property
    def parameters(self) -> BoostingParameters:
        """The validated Theorem 1 parameter set."""
        return self._params

    @property
    def layout(self) -> BlockLayout:
        """The block layout of the ``N = k·n`` nodes."""
        return self._layout

    @property
    def interpretation(self) -> CounterInterpretation:
        """The leader-pointer interpretation of the block counters."""
        return self._interpretation

    @property
    def tau(self) -> int:
        """``τ = 3(F+2)``."""
        return self._params.tau

    # ------------------------------------------------------------------ #
    # (X, g, h)
    # ------------------------------------------------------------------ #

    def num_states(self) -> int:
        return self._inner.num_states() * (self.c + 1) * 2

    def state_bits(self) -> int:
        """``S(B) = S(A) + ⌈log2(C+1)⌉ + 1`` (Theorem 1)."""
        return self._params.space_bound(self._inner.state_bits())

    def stabilization_bound(self) -> int | None:
        """``T(B) <= T(A) + 3(F+2)(2m)^k`` (Theorem 1)."""
        return self._params.stabilization_bound(self._inner.stabilization_bound())

    def default_state(self) -> BoostedState:
        return BoostedState(inner=self._inner.default_state(), a=INFINITY, d=0)

    def random_state(self, rng: Any = None) -> BoostedState:
        generator = ensure_rng(rng)
        return BoostedState(
            inner=self._inner.random_state(generator),
            a=generator.choice(self._a_values),
            d=generator.randrange(2),
        )

    def states(self) -> Iterator[BoostedState]:
        """Enumerate the full state space (only feasible for tiny inner counters)."""
        for inner_state in self._inner.states():
            for a in self._a_values:
                for d in (0, 1):
                    yield BoostedState(inner=inner_state, a=a, d=d)

    def is_valid_state(self, state: Any) -> bool:
        if not isinstance(state, tuple) or len(state) != 3:
            return False
        inner, a, d = state
        if d not in (0, 1):
            return False
        # ``a`` is valid when a receiver reads it as itself (so no bool is).
        if coerce_register_value(a, self.c) != a:
            return False
        return self._inner.is_valid_state(inner)

    def coerce_message(self, message: Any) -> BoostedState:
        """Interpret an arbitrary received object as a :class:`BoostedState`.

        Byzantine senders may transmit anything; each field is coerced
        independently so a partially valid forgery is read field-by-field,
        matching the "arbitrary bit pattern" interpretation of the model.
        """
        if isinstance(message, tuple) and len(message) == 3:
            inner, a, d = message
        else:
            inner, a, d = None, INFINITY, 0
        coerced_inner = self._inner.coerce_message(inner)
        coerced_a = coerce_register_value(a, self.c)
        coerced_d = d if d in (0, 1) else 0
        return BoostedState(inner=coerced_inner, a=coerced_a, d=coerced_d)

    def output(self, node: int, state: State) -> int:
        """``h(v, s)``: the phase king output register (0 while reset).

        ``a`` is read as :func:`coerce_register_value` reads it, so a bool
        is the reset marker.
        """
        if not isinstance(state, tuple) or len(state) != 3:
            return 0
        a = state[1]
        if isinstance(a, int) and not isinstance(a, bool) and 0 <= a < self.c:
            return a
        return 0

    def next_state(self, node: int, states: Sequence[Any]) -> BoostedState:
        """One round of the boosted counter for node ``v = (i, j)``.

        ``states`` are :class:`BoostedState` values, read once on receipt.
        Mirrors the three steps listed in Section 3.5:

        1. update the state of the block algorithm ``A_i``,
        2. compute the voted round counter ``R``,
        3. execute instruction set ``I_R`` of the phase king protocol.
        """
        block, index = self._layout.split(node)
        n = self._layout.n

        # Step 1: update the block-level copy of the inner algorithm using the
        # states received from the node's own block.
        own_block = states[block * n : (block + 1) * n]
        new_inner = self._inner.next_state(index, [state.inner for state in own_block])

        # Step 2: derive the voted round counter R from the broadcast states.
        diagnostics = self._compute_votes(states)

        # Step 3: run the phase king instruction set selected by R.
        own = states[node]
        updated = instruction_step(
            PhaseKingRegisters(a=own.a, d=own.d),
            [state.a for state in states],
            round_value=diagnostics.round_value,
            N=self.n,
            F=self.f,
            C=self.c,
        )
        return BoostedState(inner=new_inner, a=updated.a, d=updated.d)

    # ------------------------------------------------------------------ #
    # Voting internals (exposed for tracing and experiments)
    # ------------------------------------------------------------------ #

    def _compute_votes(self, states: Sequence[BoostedState]) -> VoteDiagnostics:
        n = self._layout.n
        tau = self._interpretation.tau
        m = self._interpretation.m
        output = self._inner.output

        block_pointers: list[list[int]] = []
        block_rounds: list[list[int]] = []
        for block, (period, divisor) in enumerate(self._interpretation.block_tables):
            # interpretation.decompose(value, block), inline: the value mod
            # the block period c_i, its round component r and the pointer b.
            members = states[block * n : (block + 1) * n]
            reduced = [
                output(index, state.inner) % period
                for index, state in enumerate(members)
            ]
            block_rounds.append([value % tau for value in reduced])
            block_pointers.append([value // tau // divisor % m for value in reduced])

        block_votes = [majority(pointers, 0) for pointers in block_pointers]
        leader = majority(block_votes, 0)
        round_value = majority(block_rounds[leader], 0)
        return VoteDiagnostics(
            block_pointers=block_pointers,
            block_rounds=block_rounds,
            block_votes=block_votes,
            leader=leader,
            round_value=round_value,
        )

    def vote_diagnostics(self, messages: Sequence[State]) -> VoteDiagnostics:
        """Compute the voting scheme's intermediate values for a message vector.

        Useful for tracing executions (for example the Figure 1 experiment
        reads ``block_votes`` and ``leader`` directly from a running system).
        """
        coerced = [self.coerce_message(message) for message in messages]
        return self._compute_votes(coerced)

    def block_counter_value(self, node: int, state: State) -> tuple[int, int, int]:
        """Return ``(r, y, b)`` as announced by ``node`` in ``state``."""
        block, index = self._layout.split(node)
        coerced = self.coerce_message(state)
        value = self._inner.output(index, coerced.inner)
        decomposed = self._interpretation.decompose(value, block)
        return decomposed.r, decomposed.y, decomposed.pointer


def boost(
    inner: SynchronousCountingAlgorithm,
    k: int,
    counter_size: int,
    resilience: int | None = None,
) -> BoostedCounter:
    """Convenience wrapper around :class:`BoostedCounter` (Theorem 1)."""
    return BoostedCounter(
        inner=inner, k=k, counter_size=counter_size, resilience=resilience
    )
