"""Byzantine adversary strategies for the synchronous broadcast model.

In the model of Section 2 up to ``f`` nodes are Byzantine: they may send
arbitrary messages and, crucially, *different* messages to different
receivers in the same round.  The adversary implementations here are
omniscient — they see the true states of all correct nodes before choosing
what each faulty node sends to each receiver — which is exactly the power the
model grants (worst-case behaviour subject only to the cardinality bound
``|F| <= f``).

The strategies range from benign (crash/fixed values) to actively adversarial
(per-receiver splits, phase king register skewing, adaptive majority
attacks).  None of them can be *the* worst case in general — Byzantine
worst-case behaviour is algorithm specific — but together they exercise the
failure modes that the paper's construction defends against: inconsistent
leader votes, split majorities and corrupted phase king registers.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections import Counter
from typing import Any, Iterable, Mapping, Sequence

from repro.core.algorithm import State, SynchronousCountingAlgorithm
from repro.core.boosting import BoostedState
from repro.core.errors import SimulationError
from repro.core.phase_king import INFINITY
from repro.semantics import ADVERSARY_SEMANTICS, flat_states, strategy_names
from repro.util.rng import ensure_rng

__all__ = [
    "Adversary",
    "NoAdversary",
    "CrashAdversary",
    "FixedStateAdversary",
    "RandomStateAdversary",
    "SplitStateAdversary",
    "MimicAdversary",
    "PhaseKingSkewAdversary",
    "AdaptiveSplitAdversary",
    "build_adversary",
    "random_faulty_set",
    "block_concentrated_faults",
    "spread_faults",
]


class Adversary(ABC):
    """Base class for Byzantine adversaries.

    Subclasses control a fixed set of faulty nodes and implement
    :meth:`forge`, which decides the message a faulty ``sender`` delivers to
    ``receiver`` in a given round.  The returned object is passed through the
    algorithm's ``coerce_message`` by the simulator, so adversaries may return
    arbitrary garbage.
    """

    def __init__(self, faulty: Iterable[int]) -> None:
        self._faulty = frozenset(int(node) for node in faulty)

    @property
    def faulty(self) -> frozenset[int]:
        """The set ``F`` of Byzantine node identifiers."""
        return self._faulty

    def validate(self, algorithm: SynchronousCountingAlgorithm) -> None:
        """Check the fault set against the algorithm's node count and resilience."""
        for node in sorted(self._faulty):
            if not 0 <= node < algorithm.n:
                raise SimulationError(
                    f"faulty node {node} is outside the node range [0, {algorithm.n})"
                )
        if len(self._faulty) > algorithm.f:
            raise SimulationError(
                f"adversary controls {len(self._faulty)} nodes but the algorithm only "
                f"tolerates f={algorithm.f}"
            )

    def on_round_start(
        self,
        round_index: int,
        states: Mapping[int, State],
        algorithm: SynchronousCountingAlgorithm,
        rng: random.Random,
    ) -> None:
        """Hook invoked once per round before messages are forged.

        Adaptive adversaries use it to precompute a per-round attack plan.
        """

    @abstractmethod
    def forge(
        self,
        round_index: int,
        sender: int,
        receiver: int,
        states: Mapping[int, State],
        algorithm: SynchronousCountingAlgorithm,
        rng: random.Random,
    ) -> Any:
        """Return the message ``sender`` (faulty) delivers to ``receiver``.

        Parameters
        ----------
        round_index:
            Current round.
        sender:
            The faulty node whose message is being forged.
        receiver:
            The non-faulty node that will receive the message.
        states:
            The true states of all *non-faulty* nodes at the start of the
            round (the adversary is omniscient about correct nodes).
        algorithm:
            The algorithm under attack (gives access to state structure).
        rng:
            Dedicated adversary randomness.
        """

    def describe(self) -> dict[str, Any]:
        """Summary dictionary for experiment records."""
        return {"strategy": type(self).__name__, "faulty": sorted(self._faulty)}


class NoAdversary(Adversary):
    """The fault-free adversary (``F = ∅``)."""

    def __init__(self) -> None:
        super().__init__(faulty=())

    def forge(  # noqa: D102
        self,
        round_index: int,
        sender: int,
        receiver: int,
        states: Mapping[int, State],
        algorithm: SynchronousCountingAlgorithm,
        rng: random.Random,
    ) -> Any:
        raise SimulationError("NoAdversary controls no nodes and never forges messages")


class CrashAdversary(Adversary):
    """Faulty nodes appear stuck: they always broadcast the algorithm's default state."""

    def __init__(self, faulty: Iterable[int]) -> None:
        super().__init__(faulty)
        self._round_index = -1
        self._default: State | None = None

    def on_round_start(  # noqa: D102
        self,
        round_index: int,
        states: Mapping[int, State],
        algorithm: SynchronousCountingAlgorithm,
        rng: random.Random,
    ) -> None:
        # forge() runs once per (faulty sender, receiver) pair, so the
        # default state is built once per round here.  States are immutable,
        # so every receiver may read the same one; no randomness is drawn.
        self._round_index = round_index
        self._default = algorithm.default_state()

    def forge(  # noqa: D102
        self,
        round_index: int,
        sender: int,
        receiver: int,
        states: Mapping[int, State],
        algorithm: SynchronousCountingAlgorithm,
        rng: random.Random,
    ) -> Any:
        if round_index == self._round_index:
            return self._default
        return algorithm.default_state()


class FixedStateAdversary(Adversary):
    """Faulty nodes always broadcast one fixed, attacker-chosen state.

    The ``state`` parameter defaults to ``0`` so the strategy is usable from
    parameter-less campaign grids; whatever is passed is piped through the
    algorithm's ``coerce_message`` by the simulator, so arbitrary garbage is
    read as *some* valid state, exactly like any other forgery.
    """

    def __init__(self, faulty: Iterable[int], state: State = 0) -> None:
        super().__init__(faulty)
        self._state = state

    @property
    def state(self) -> State:
        """The fixed (un-coerced) state every faulty node broadcasts."""
        return self._state

    def forge(  # noqa: D102
        self,
        round_index: int,
        sender: int,
        receiver: int,
        states: Mapping[int, State],
        algorithm: SynchronousCountingAlgorithm,
        rng: random.Random,
    ) -> Any:
        return self._state


class RandomStateAdversary(Adversary):
    """Faulty nodes draw a fresh uniformly random state per receiver.

    This is the canonical "arbitrary behaviour" adversary: per-receiver
    inconsistency plus uniformly random content.
    """

    def forge(  # noqa: D102
        self,
        round_index: int,
        sender: int,
        receiver: int,
        states: Mapping[int, State],
        algorithm: SynchronousCountingAlgorithm,
        rng: random.Random,
    ) -> Any:
        return algorithm.random_state(rng)


class SplitStateAdversary(Adversary):
    """Send one state to half of the receivers and a different one to the rest.

    The two states are re-drawn each round; receivers are split by parity of
    their identifier.  This targets majority-style votes by keeping the two
    halves of the network exposed to conflicting evidence.
    """

    def __init__(self, faulty: Iterable[int]) -> None:
        super().__init__(faulty)
        self._round_states: tuple[State, State] | None = None
        self._round_index = -1

    def on_round_start(  # noqa: D102
        self,
        round_index: int,
        states: Mapping[int, State],
        algorithm: SynchronousCountingAlgorithm,
        rng: random.Random,
    ) -> None:
        self._round_states = (algorithm.random_state(rng), algorithm.random_state(rng))
        self._round_index = round_index

    def forge(  # noqa: D102
        self,
        round_index: int,
        sender: int,
        receiver: int,
        states: Mapping[int, State],
        algorithm: SynchronousCountingAlgorithm,
        rng: random.Random,
    ) -> Any:
        if self._round_states is None or round_index != self._round_index:
            self.on_round_start(round_index, states, algorithm, rng)
        assert self._round_states is not None
        return self._round_states[receiver % 2]


class MimicAdversary(Adversary):
    """Echo the state of a rotating correct node (a subtle, plausible-looking attack).

    The faulty node replays a real state of some correct node, choosing a
    different victim per receiver, so its messages always look legitimate yet
    are mutually inconsistent.
    """

    def __init__(self, faulty: Iterable[int]) -> None:
        super().__init__(faulty)
        self._round_index = -1
        self._correct: list[int] = []

    def on_round_start(  # noqa: D102
        self,
        round_index: int,
        states: Mapping[int, State],
        algorithm: SynchronousCountingAlgorithm,
        rng: random.Random,
    ) -> None:
        # forge() is hot — one call per (sender, receiver) pair — so the
        # sorted node list is hoisted here, once per round.  No randomness is
        # drawn: the RNG streams of seeded runs must not shift.
        self._round_index = round_index
        self._correct = sorted(states)

    def forge(  # noqa: D102
        self,
        round_index: int,
        sender: int,
        receiver: int,
        states: Mapping[int, State],
        algorithm: SynchronousCountingAlgorithm,
        rng: random.Random,
    ) -> Any:
        correct = (
            self._correct if round_index == self._round_index else sorted(states)
        )
        if not correct:
            return algorithm.default_state()
        victim = correct[(receiver + round_index) % len(correct)]
        return states[victim]


class PhaseKingSkewAdversary(Adversary):
    """Targeted attack on the boosted counter's phase king registers.

    For :class:`~repro.core.boosting.BoostedState` messages the adversary
    copies a correct node's state (so the block counters and leader votes
    look plausible) but reports a skewed output register ``a`` — alternating
    between a shifted value and the reset marker — trying to prevent the
    ``N - F`` and ``F + 1`` thresholds of the phase king from being met.
    The copied auxiliary bit ``d`` is kept: no receiver reads another node's
    ``d`` (Table 2 reads its ``a`` and the ``(r, b)`` of its inner state), so
    the boosted forgery draws nothing.  For other state types it falls back
    to random states.
    """

    def __init__(self, faulty: Iterable[int], offset: int = 1) -> None:
        super().__init__(faulty)
        self._offset = offset
        self._round_index = -1
        self._correct: list[int] = []

    def on_round_start(  # noqa: D102
        self,
        round_index: int,
        states: Mapping[int, State],
        algorithm: SynchronousCountingAlgorithm,
        rng: random.Random,
    ) -> None:
        # Hoists the per-forge sorted(states) scan to once per round; draws
        # no randomness so seeded RNG streams are unchanged.
        self._round_index = round_index
        self._correct = sorted(states)

    def forge(  # noqa: D102
        self,
        round_index: int,
        sender: int,
        receiver: int,
        states: Mapping[int, State],
        algorithm: SynchronousCountingAlgorithm,
        rng: random.Random,
    ) -> Any:
        correct = (
            self._correct if round_index == self._round_index else sorted(states)
        )
        if not correct:
            return algorithm.default_state()
        victim_state = states[correct[receiver % len(correct)]]
        if isinstance(victim_state, BoostedState):
            if receiver % 2 == 0:
                skewed_a = (
                    (victim_state.a + self._offset) % algorithm.c
                    if victim_state.a != INFINITY
                    else 0
                )
            else:
                skewed_a = INFINITY
            # The positional constructor: about half the cost of _replace.
            return BoostedState(victim_state.inner, skewed_a, victim_state.d)
        return algorithm.random_state(rng)


class AdaptiveSplitAdversary(Adversary):
    """Adaptive attack that keeps the correct nodes' outputs split.

    Each round the adversary inspects the outputs of the correct nodes and
    identifies the two largest camps.  Every faulty node then shows each
    receiver evidence for the camp *opposite* to the receiver's own value, so
    that from the receiver's local perspective its camp never reaches a
    strict majority.  Against majority-following algorithms without further
    defences (the naive baseline) this keeps an even split alive forever;
    against the paper's construction the phase king breaks the symmetry and
    the attack eventually fails — the contrast is exercised in the tests and
    ablations.
    """

    def __init__(self, faulty: Iterable[int]) -> None:
        super().__init__(faulty)
        self._camps: tuple[int, int] = (0, 1)
        self._round_index = -1
        self._outputs: dict[int, int] = {}
        self._state_by_output: dict[int, State] = {}
        self._flat = False

    def on_round_start(  # noqa: D102
        self,
        round_index: int,
        states: Mapping[int, State],
        algorithm: SynchronousCountingAlgorithm,
        rng: random.Random,
    ) -> None:
        # forge() is called once per (sender, receiver) pair, so everything
        # derivable from the round's states is precomputed here: the per-node
        # outputs, the two camps, whether states are plain ints (for
        # _fabricate_state), and — for _state_with_output — the first state
        # exhibiting each output value (first in states iteration order,
        # matching the former per-forge linear scan exactly).  No randomness
        # is drawn, so seeded RNG streams are unchanged.
        self._round_index = round_index
        self._flat = flat_states(algorithm)
        self._outputs = {
            node: algorithm.output(node, state) for node, state in states.items()
        }
        by_output: dict[int, State] = {}
        for node, state in states.items():
            by_output.setdefault(self._outputs[node], state)
        self._state_by_output = by_output

        counts = Counter(
            self._outputs[node] for node in sorted(self._outputs)
        ).most_common(2)
        if len(counts) >= 2:
            self._camps = (counts[0][0], counts[1][0])
        elif counts:
            value = counts[0][0]
            self._camps = (value, (value + 1) % algorithm.c)
        else:
            self._camps = (0, 1 % algorithm.c)

    def forge(  # noqa: D102
        self,
        round_index: int,
        sender: int,
        receiver: int,
        states: Mapping[int, State],
        algorithm: SynchronousCountingAlgorithm,
        rng: random.Random,
    ) -> Any:
        cached = round_index == self._round_index
        receiver_state = states.get(receiver)
        if receiver_state is None:
            target = self._camps[receiver % 2]
        else:
            receiver_output = (
                self._outputs[receiver]
                if cached and receiver in self._outputs
                else algorithm.output(receiver, receiver_state)
            )
            target = (
                self._camps[1] if receiver_output == self._camps[0] else self._camps[0]
            )
        if cached:
            if target in self._state_by_output:
                return self._state_by_output[target]
            return self._fabricate_state(algorithm, target, rng, self._flat)
        return self._state_with_output(algorithm, states, target, rng)

    @classmethod
    def _state_with_output(
        cls,
        algorithm: SynchronousCountingAlgorithm,
        states: Mapping[int, State],
        target: int,
        rng: random.Random,
    ) -> State:
        """Find or fabricate a state whose output equals ``target``."""
        for node, state in states.items():
            if algorithm.output(node, state) == target:
                return state
        return cls._fabricate_state(algorithm, target, rng, flat_states(algorithm))

    @staticmethod
    def _fabricate_state(
        algorithm: SynchronousCountingAlgorithm,
        target: int,
        rng: random.Random,
        flat: bool,
    ) -> State:
        """Fabricate a plausible state whose output equals ``target``.

        ``flat`` says whether the algorithm's states are plain ints.
        """
        if flat:
            return target
        candidate = algorithm.random_state(rng)
        if isinstance(candidate, BoostedState):
            return BoostedState(inner=candidate.inner, a=target % algorithm.c, d=1)
        return candidate


# ---------------------------------------------------------------------- #
# Strategy factory (names and classes come from the semantics catalogue)
# ---------------------------------------------------------------------- #


def build_adversary(
    strategy: str, faulty: Iterable[int] = (), **params: Any
) -> Adversary:
    """Construct an adversary strategy declared in the catalogue by name.

    ``"none"`` returns the fault-free :class:`NoAdversary` (and requires the
    faulty set to be empty).  Every other strategy is built from the scalar
    class its :class:`~repro.semantics.AdversarySemantics` binds, as
    ``cls(faulty, **params)``, and requires a *non-empty* faulty set — an
    active strategy with no nodes to control would silently behave exactly
    like ``"none"``, which turns campaign grid rows into accidental
    duplicates.  Parameters outside the strategy's declared schema raise
    :class:`ParameterError` with the schema in the message instead of a
    bare ``TypeError`` from the constructor.
    """
    faulty_set = frozenset(faulty)
    spec = ADVERSARY_SEMANTICS.get(strategy)
    if spec is None:
        known = ", ".join(strategy_names())
        raise SimulationError(
            f"unknown adversary strategy '{strategy}'; known strategies: {known}"
        )
    if strategy == "none":
        if faulty_set:
            raise SimulationError(
                f"strategy 'none' cannot control faulty nodes {sorted(faulty_set)}"
            )
        spec.validate(params)
        return NoAdversary()
    if not faulty_set:
        raise SimulationError(
            f"adversary strategy '{strategy}' requires a non-empty faulty set; "
            "use strategy 'none' for fault-free runs"
        )
    spec.validate(params)
    cls: type[Adversary] = spec.scalar_class()
    return cls(faulty, **params)


# ---------------------------------------------------------------------- #
# Fault pattern generators
# ---------------------------------------------------------------------- #


def random_faulty_set(n: int, f: int, rng: random.Random | int | None = None) -> frozenset[int]:
    """Pick ``f`` faulty nodes uniformly at random from ``[n]``."""
    if f < 0 or f > n:
        raise SimulationError(f"cannot pick {f} faulty nodes out of {n}")
    generator = ensure_rng(rng)
    return frozenset(generator.sample(range(n), f))


def block_concentrated_faults(
    block_size: int, blocks: Sequence[int], per_block: int
) -> frozenset[int]:
    """Concentrate ``per_block`` faults in each of the given blocks.

    Used to reproduce the fault pattern drawn in Figure 2, where whole blocks
    are faulty (more than ``f`` of their members misbehave) while others stay
    clean.
    """
    if per_block < 0 or per_block > block_size:
        raise SimulationError(
            f"per_block must be in [0, {block_size}], got {per_block}"
        )
    faulty: set[int] = set()
    for block in blocks:
        start = block * block_size
        faulty.update(range(start, start + per_block))
    return frozenset(faulty)


def spread_faults(n: int, f: int) -> frozenset[int]:
    """Spread ``f`` faults as evenly as possible over the identifier space."""
    if f < 0 or f > n:
        raise SimulationError(f"cannot pick {f} faulty nodes out of {n}")
    if f == 0:
        return frozenset()
    step = n / f
    return frozenset(min(n - 1, int(i * step)) for i in range(f))
