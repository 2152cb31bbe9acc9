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

One broadcast round runs through :meth:`BoostedCounter.next_states` for every
correct receiver at once: every correct sender's block counter is read once
per round, since all receivers receive the same state from it, and each
receiver reads only the entries forged for it.

The pulling-model counter of Theorem 4
(:class:`repro.sampling.pull_boosting.SampledBoostedCounter`) is the same
construction read through samples.  :class:`BoostedStructure` holds what the
two share: the parameters, the blocks, the :class:`BoostedState` space and its
bounds, the output map and the per-sender ``(r, b)`` read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Mapping, NamedTuple, Sequence, cast

from repro.core.algorithm import AlgorithmInfo, State, SynchronousCountingAlgorithm
from repro.core.blocks import BlockLayout, CounterInterpretation
from repro.core.parameters import BoostingParameters
from repro.core.phase_king import INFINITY, coerce_register_value, instruction_step
from repro.core.voting import majority
from repro.util.rng import ensure_rng, randbelow

__all__ = [
    "BoostedState",
    "BoostedStructure",
    "BoostedCounter",
    "VoteDiagnostics",
    "block_next_states",
    "boost",
]


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


class BoostedStructure:
    """The Theorem 1 structure both boosted counters share.

    The validated parameters, the blocks, the :class:`BoostedState` space
    with its bounds, the output map and the per-sender ``(r, b)`` read of
    :class:`BoostedCounter` and of the pulling-model
    :class:`~repro.sampling.pull_boosting.SampledBoostedCounter` (Theorem 4).
    Each counter calls :meth:`_init_structure` before its algorithm base
    class and adds which states a node reads and its phase king thresholds.
    """

    def _init_structure(
        self,
        inner: SynchronousCountingAlgorithm,
        k: int,
        counter_size: int,
        resilience: int | None,
    ) -> BoostingParameters:
        """Validate the Theorem 1 parameters and lay out the blocks.

        ``F`` defaults to the largest value Theorem 1 allows together with
        the phase king requirement ``F < N/3``; the inner counter size must
        be a multiple of ``3(F+2)(2m)^k``.
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
        return params

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
    # The state space X and the output map h
    # ------------------------------------------------------------------ #

    def num_states(self) -> int:
        return self._inner.num_states() * (self._params.counter_size + 1) * 2

    def state_bits(self) -> int:
        """``S(B) = S(A) + ⌈log2(C+1)⌉ + 1`` (Theorem 1)."""
        return self._params.space_bound(self._inner.state_bits())

    def stabilization_bound(self) -> int | None:
        """``T(B) <= T(A) + 3(F+2)(2m)^k`` (Theorem 1; Theorem 4 with high probability)."""
        return self._params.stabilization_bound(self._inner.stabilization_bound())

    def random_state(self, rng: Any = None) -> BoostedState:
        generator = ensure_rng(rng)
        # choice(self._a_values) and randrange(2), at the cost of their bits.
        return BoostedState(
            inner=self._inner.random_state(generator),
            a=self._a_values[randbelow(generator, len(self._a_values))],
            d=randbelow(generator, 2),
        )

    def is_valid_state(self, state: Any) -> bool:
        """Whether ``state`` is a valid :class:`BoostedState`.

        Each register is valid when a receiver reads it as itself
        (:meth:`coerce_message`), so neither ``a`` nor ``d`` is a bool.
        """
        if not isinstance(state, tuple) or len(state) != 3:
            return False
        inner_state, a, d = state
        if isinstance(d, bool) or d not in (0, 1):
            return False
        if coerce_register_value(a, self._params.counter_size) != a:
            return False
        return self._inner.is_valid_state(inner_state)

    def coerce_message(self, message: Any) -> BoostedState:
        """Interpret an arbitrary received object as a :class:`BoostedState`.

        Byzantine senders may transmit anything; each field is coerced
        independently so a partially valid forgery is read field-by-field,
        matching the "arbitrary bit pattern" interpretation of the model.  A
        bool is no register value: ``a`` reads it as the reset marker ``∞``
        (:func:`coerce_register_value`) and ``d`` as 0.

        A :class:`BoostedState` whose inner state reads as itself and whose
        registers are plain ints in range is returned as it is: the
        field-by-field read would rebuild an equal state from the same
        fields.  Every correct sender's state is such a state.
        """
        if isinstance(message, tuple) and len(message) == 3:
            inner_state, a, d = message
        else:
            inner_state, a, d = None, INFINITY, 0
        inner = self._inner.coerce_message(inner_state)
        C = self._params.counter_size
        if (
            inner is inner_state
            and type(message) is BoostedState
            and type(a) is int
            and (0 <= a < C or a == INFINITY)
            and type(d) is int
            and (d == 0 or d == 1)
        ):
            return message
        return BoostedState(
            inner=inner,
            a=coerce_register_value(a, C),
            d=d if d in (0, 1) and not isinstance(d, bool) else 0,
        )

    def output(self, node: int, state: State) -> int:
        """``h(v, s)``: the phase king output register (0 while reset).

        ``a`` is read as :func:`coerce_register_value` reads it, so a bool
        is the reset marker.
        """
        if not isinstance(state, tuple) or len(state) != 3:
            return 0
        a = state[1]
        if isinstance(a, int) and not isinstance(a, bool) and 0 <= a < self._params.counter_size:
            return a
        return 0

    # ------------------------------------------------------------------ #
    # The per-sender read of the voting scheme
    # ------------------------------------------------------------------ #

    def _read(self, sender: int, state: BoostedState, block: int) -> tuple[int, int]:
        """``(r, b)``: what ``sender`` announces, read as a member of ``block``.

        A receiver reads node ``sender`` of block ``block`` (index
        ``sender - block·n`` inside it); a pulled sample is read as a member
        of the block its plan slot samples, forged or not.
        """
        return self._interpretation.round_and_pointer(
            self._inner.output(sender - block * self._layout.n, state.inner), block
        )

    def _reads(self, states: Sequence[Any]) -> tuple[list[Any], list[Any]]:
        """Every sender's ``r`` and ``b``, one read each (``None`` stays ``None``)."""
        read = self._read
        n = self._layout.n
        rounds: list[Any] = []
        pointers: list[Any] = []
        for sender, state in enumerate(states):
            r, b = (None, None) if state is None else read(sender, state, sender // n)
            rounds.append(r)
            pointers.append(b)
        return rounds, pointers


class BoostedCounter(BoostedStructure, SynchronousCountingAlgorithm):
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
        params = self._init_structure(inner, k, counter_size, resilience)
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
    # (X, g, h)
    # ------------------------------------------------------------------ #

    def default_state(self) -> BoostedState:
        return BoostedState(inner=self._inner.default_state(), a=INFINITY, d=0)

    def states(self) -> Iterator[BoostedState]:
        """Enumerate the full state space (only feasible for tiny inner counters)."""
        for inner_state in self._inner.states():
            for a in self._a_values:
                for d in (0, 1):
                    yield BoostedState(inner=inner_state, a=a, d=d)

    def next_state(self, node: int, states: Sequence[Any]) -> BoostedState:
        """One round of the boosted counter for node ``v``.

        The one-receiver case of :meth:`next_states`: ``states`` are
        :class:`BoostedState` values, read once on receipt.
        """
        return cast(BoostedState, self.next_states(states, {node: {}})[node])

    def next_states(
        self,
        shared: Sequence[Any],
        forged: Mapping[int, Mapping[int, Any]],
    ) -> dict[int, State]:
        """One round of the boosted counter for every receiver ``v = (i, j)``.

        ``shared`` and ``forged`` hold :class:`BoostedState` values, read
        once on receipt, as
        :meth:`~repro.core.algorithm.SynchronousCountingAlgorithm.next_states`
        describes.  Mirrors the three steps listed in Section 3.5:

        1. update the state of the block algorithm ``A_i``: one
           ``inner.next_states`` call per block covers its receivers;
        2. compute the voted round counter ``R``: each correct sender's
           ``(r, b)`` is read once per round and the vote of every block
           without a forged entry is taken once, so per receiver only the
           forged entries are read and only their blocks voted again;
        3. execute instruction set ``I_R`` of the phase king protocol.
        """
        n = self._layout.n
        F, C = self.f, self.c
        high = self.n - F
        read = self._read
        block_vote = self._block_vote

        # Step 1: each receiver's block-level copy of the inner algorithm,
        # on the states received from the receiver's own block.
        own_block: dict[int, dict[int, Any]] = {}
        for receiver, entries in forged.items():
            start = receiver - receiver % n
            own_block[receiver] = {
                sender - start: state.inner
                for sender, state in entries.items()
                if start <= sender < start + n
            }
        new_inner = block_next_states(self._inner, shared, own_block)

        # Step 2: the per-sender reads and block votes every receiver shares.
        rounds, pointers = self._reads(shared)
        votes = [block_vote(pointers, block) for block in range(self._layout.k)]
        forged_blocks = sorted(
            {sender // n for sender, state in enumerate(shared) if state is None}
        )
        a_values = [None if state is None else state.a for state in shared]

        new_states: dict[int, State] = {}
        for receiver, entries in forged.items():
            # Every receiver's entries overwrite the same senders, so one
            # set of buffers serves the whole round.
            for sender, state in entries.items():
                rounds[sender], pointers[sender] = read(sender, state, sender // n)
                a_values[sender] = state.a
            for block in forged_blocks:
                votes[block] = block_vote(pointers, block)
            _, round_value = self._round_value(rounds, votes)

            # Step 3: run the phase king instruction set selected by R, with
            # the absolute thresholds N - F and F; the king ⌊R/3⌋ is a sender.
            own = shared[receiver]
            if own is None:
                own = entries[receiver]
            a, d = instruction_step(
                own.a, own.d, a_values, a_values[round_value // 3], round_value, C, high, F
            )
            new_states[receiver] = BoostedState(new_inner[receiver], a, d)
        return new_states

    # ------------------------------------------------------------------ #
    # Voting internals (exposed for tracing and experiments)
    # ------------------------------------------------------------------ #

    def _block_vote(self, pointers: Sequence[int], block: int) -> int:
        """``b^i = majority_j b[i, j]``: the leader block ``block`` supports."""
        n = self._layout.n
        return majority(pointers[block * n : (block + 1) * n], 0)

    def _round_value(self, rounds: Sequence[int], votes: Sequence[int]) -> tuple[int, int]:
        """``B = majority_i b^i`` and ``R = majority_j r[B, j]``."""
        n = self._layout.n
        leader = majority(votes, 0)
        return leader, majority(rounds[leader * n : (leader + 1) * n], 0)

    def vote_diagnostics(self, messages: Sequence[State]) -> VoteDiagnostics:
        """Compute the voting scheme's intermediate values for a message vector.

        Useful for tracing executions (for example the Figure 1 experiment
        reads ``block_votes`` and ``leader`` directly from a running system).
        """
        n = self._layout.n
        blocks = range(self._layout.k)
        rounds, pointers = self._reads([self.coerce_message(message) for message in messages])
        votes = [self._block_vote(pointers, block) for block in blocks]
        leader, round_value = self._round_value(rounds, votes)
        return VoteDiagnostics(
            block_pointers=[pointers[block * n : (block + 1) * n] for block in blocks],
            block_rounds=[rounds[block * n : (block + 1) * n] for block in blocks],
            block_votes=votes,
            leader=leader,
            round_value=round_value,
        )

    def block_counter_value(self, node: int, state: State) -> tuple[int, int, int]:
        """Return ``(r, y, b)`` as announced by ``node`` in ``state``."""
        block, index = self._layout.split(node)
        coerced = self.coerce_message(state)
        value = self._inner.output(index, coerced.inner)
        decomposed = self._interpretation.decompose(value, block)
        return decomposed.r, decomposed.y, decomposed.pointer


def block_next_states(
    inner: SynchronousCountingAlgorithm,
    shared: Sequence[Any],
    own_block: Mapping[int, Mapping[int, State]],
) -> dict[int, State]:
    """Step 1 of a boosted round for every receiver: the block copies ``A_i``.

    ``shared`` holds the boosted states every receiver receives (``None``
    where they differ per receiver) and ``own_block`` maps each receiver, in
    update order, to its forged inner states from its own block, keyed by
    index inside the block; every receiver of a block has entries at the same
    members.  Each block with a receiver makes one ``inner.next_states`` call
    on its members' inner states, with ``None`` at those members; the result
    maps each receiver to its new inner state.
    """
    n = inner.n
    by_block: dict[int, dict[int, Mapping[int, State]]] = {}
    for receiver, entries in own_block.items():
        block, index = divmod(receiver, n)
        by_block.setdefault(block, {})[index] = entries
    new_inner: dict[int, State] = {}
    for block, receivers in by_block.items():
        start = block * n
        members = [
            None if state is None else state.inner for state in shared[start : start + n]
        ]
        for entries in receivers.values():
            for index in entries:
                members[index] = None
        for index, state in inner.next_states(members, receivers).items():
            new_inner[start + index] = state
    return new_inner


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
