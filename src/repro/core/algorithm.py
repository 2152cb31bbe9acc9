"""The synchronous counting algorithm abstraction ``A = (X, g, h)``.

Section 2 of the paper defines a deterministic algorithm as a tuple
``A = (X, g, h)`` where

* ``X`` is the set of per-node states,
* ``g : [n] × X^n -> X`` is the state transition function applied to the
  vector of messages (states) received from all ``n`` nodes, and
* ``h : [n] × X -> [c]`` maps a node's state to its counter output.

:class:`SynchronousCountingAlgorithm` captures exactly this interface plus
the metadata needed by the simulators, the exhaustive verifier and the
experiment harness: the resilience ``f``, counter size ``c``, the space
complexity ``S(A) = ⌈log |X|⌉`` and an upper bound on the stabilisation time
``T(A)``.  That metadata is :class:`CountingAlgorithm`, which the pulling
model's :class:`~repro.network.pulling.PullingAlgorithm` inherits too.

A receiver reads an arbitrary bit pattern as *some* state exactly once, on
receipt (:meth:`~SynchronousCountingAlgorithm.coerce_message`).  Algorithms
therefore implement :meth:`~SynchronousCountingAlgorithm.next_state`, the map
``g`` on ``X^n`` whose entries are already valid states.
:meth:`~SynchronousCountingAlgorithm.transition` is the one entry point for
direct callers (the model checker, tests): it checks the node and the message
count, coerces every message and delegates to ``next_state``.

The broadcast engine runs an unperturbed round through one call of
:meth:`~SynchronousCountingAlgorithm.next_states`, ``g`` for every correct
receiver at once.  In the broadcast model every correct receiver receives the
same vector except at the faulty senders, so the call takes that shared
vector, with ``None`` at the faulty senders, plus each receiver's own forged
entries for them.  The base class runs ``next_state`` once per receiver; an
algorithm whose receivers can share work overrides it (the boosted counter
reads each correct sender's block counter once per round instead of once
per receiver).

Algorithms are *pure*: :meth:`next_state`, :meth:`next_states` and
:meth:`output` must not mutate any shared state, so the same algorithm object
can be exercised by the broadcast simulator, the pulling simulator and the
model checker.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Iterator, Mapping, Sequence

from repro.core.errors import ParameterError
from repro.util.intmath import ceil_log2
from repro.util.rng import ensure_rng

__all__ = [
    "State",
    "AlgorithmInfo",
    "CountingAlgorithm",
    "SynchronousCountingAlgorithm",
    "check_counting_parameters",
]

#: Type alias for node states.  States must be hashable and immutable
#: (tuples, frozen dataclasses, ints, ...), so that configurations can be
#: used as dictionary keys by the verifier and traced cheaply.
State = Hashable


def check_counting_parameters(n: int, f: int, c: int) -> None:
    """Validate the basic well-formedness of an ``A(n, f, c)`` family.

    Counting with ``f >= n/3`` Byzantine faults is impossible (the paper
    inherits the consensus lower bound of Pease, Shostak and Lamport), except
    in the degenerate fault-free case ``f = 0``.
    """
    if n < 1:
        raise ParameterError(f"number of nodes n must be at least 1, got {n}")
    if f < 0:
        raise ParameterError(f"resilience f must be non-negative, got {f}")
    if c < 2:
        raise ParameterError(f"counter size c must be at least 2, got {c}")
    if f > 0 and 3 * f >= n:
        raise ParameterError(
            f"resilience f={f} requires n > 3f (impossible with n={n} nodes); "
            "counting with f >= n/3 Byzantine faults cannot be solved"
        )


@dataclass(frozen=True)
class AlgorithmInfo:
    """Descriptive metadata attached to an algorithm.

    Attributes
    ----------
    name:
        Human readable identifier (used by the Table 1 harness).
    deterministic:
        Whether the transition function is deterministic.  Randomised
        algorithms (Section 5 and the baselines of [6, 7]) set this to False.
    source:
        Short pointer to where in the paper (or in prior work) the algorithm
        comes from, e.g. ``"Theorem 1"`` or ``"Corollary 1"``.
    notes:
        Free-form remarks (substitutions, simplifications, ...).
    """

    name: str
    deterministic: bool = True
    source: str = ""
    notes: str = ""
    extra: dict[str, Any] = field(default_factory=dict)


class CountingAlgorithm(ABC):
    """What every ``c``-counter on ``n`` nodes has, whatever its model.

    The parameters ``n``, ``f`` and ``c``, the :class:`AlgorithmInfo`
    metadata, the output map ``h``, the space complexity and the
    stabilisation bound.  :class:`SynchronousCountingAlgorithm` (the
    broadcast model) and :class:`~repro.network.pulling.PullingAlgorithm`
    (the pulling model of Section 5) inherit it and add their own
    transition.
    """

    def __init__(self, n: int, f: int, c: int, info: AlgorithmInfo | None = None) -> None:
        check_counting_parameters(n, f, c)
        self._n = n
        self._f = f
        self._c = c
        self._info = info or AlgorithmInfo(name=type(self).__name__)

    @property
    def n(self) -> int:
        """Number of nodes the algorithm runs on."""
        return self._n

    @property
    def f(self) -> int:
        """Resilience: the maximum number of Byzantine nodes tolerated."""
        return self._f

    @property
    def c(self) -> int:
        """Counter size: outputs are in ``[c] = {0, ..., c-1}``."""
        return self._c

    @property
    def info(self) -> AlgorithmInfo:
        """Descriptive metadata."""
        return self._info

    @property
    def deterministic(self) -> bool:
        """Whether the algorithm is deterministic."""
        return self._info.deterministic

    @abstractmethod
    def output(self, node: int, state: State) -> int:
        """The output function ``h(i, s) ∈ [c]``."""

    @abstractmethod
    def num_states(self) -> int:
        """Return ``|X|``, the number of distinct per-node states."""

    def state_bits(self) -> int:
        """Space complexity ``S(A) = ⌈log2 |X|⌉`` in bits per node."""
        return ceil_log2(max(2, self.num_states()))

    def stabilization_bound(self) -> int | None:
        """An upper bound on the stabilisation time ``T(A)``, if known.

        Returns ``None`` when no closed-form bound is available (for example
        for heuristic baselines).
        """
        return None

    def describe(self) -> dict[str, Any]:
        """A dictionary summary used by the experiment harness."""
        return {
            "name": self._info.name,
            "n": self.n,
            "f": self.f,
            "c": self.c,
            "deterministic": self.deterministic,
            "state_bits": self.state_bits(),
            "stabilization_bound": self.stabilization_bound(),
            "source": self._info.source,
        }


class SynchronousCountingAlgorithm(CountingAlgorithm):
    """Abstract base class for synchronous ``c``-counters on ``n`` nodes.

    Subclasses set :attr:`n`, :attr:`f` and :attr:`c` (via the constructor
    of :class:`CountingAlgorithm`) and implement :meth:`next_state`,
    :meth:`output` and :meth:`num_states`.
    """

    # ------------------------------------------------------------------ #
    # The (X, g, h) triple
    # ------------------------------------------------------------------ #

    def transition(self, node: int, messages: Sequence[State]) -> State:
        """The transition function ``g(i, x)`` on arbitrary received messages.

        Checks that ``node`` is in ``[n]`` and that there are ``n`` messages,
        reads every message as a state (:meth:`coerce_message`) and returns
        :meth:`next_state` of the result.  This is the entry point for direct
        callers; the engines coerce each message once, on receipt, and call
        :meth:`next_states` (the broadcast model) or :meth:`next_state`
        themselves.

        Parameters
        ----------
        node:
            Identifier ``i`` of the node performing the update, ``0 <= i < n``.
        messages:
            The vector of messages received from all ``n`` nodes this round
            (``messages[j]`` is the message from node ``j``; ``messages[i]``
            is the node's own state).  Messages originating from Byzantine
            nodes may be arbitrary objects and may differ per receiver.

        Returns
        -------
        The node's new state.
        """
        if not 0 <= node < self._n:
            raise ParameterError(f"node must be in [0, {self._n}), got {node}")
        if len(messages) != self._n:
            raise ParameterError(f"expected {self._n} messages, got {len(messages)}")
        coerce = self.coerce_message
        return self.next_state(node, [coerce(message) for message in messages])

    @abstractmethod
    def next_state(self, node: int, states: Sequence[State]) -> State:
        """The paper's ``g(i, x)`` on ``x ∈ X^n``: every entry is a valid state.

        ``states[j]`` is what node ``i`` received from node ``j``, already
        read as a state by :meth:`coerce_message`, and ``0 <= i < n``.
        Implementations read ``states`` without coercing it again and must
        not mutate it: the engines share one vector between receivers.
        """

    def next_states(
        self,
        shared: Sequence[State | None],
        forged: Mapping[int, Mapping[int, State]],
    ) -> dict[int, State]:
        """``g(i, x)`` for every correct receiver ``i`` of one round.

        ``shared`` is the vector every receiver receives, read as states,
        with ``None`` at each sender whose message differs per receiver (a
        faulty one).  ``forged`` maps each receiver, in update order, to its
        own entries ``{sender: state}`` for exactly those senders, also read
        as states.  Returns ``{i: next_state(i, x_i)}`` in that order, where
        ``x_i`` is ``shared`` with ``forged[i]`` filled in.  (The engines
        never make a receiver one of those senders, but a nested level may:
        the sampled counter's one-node case reads its whole block from its
        responses.)

        This default calls :meth:`next_state` once per receiver, on one
        buffer that every receiver's entries overwrite; an algorithm whose
        receivers can share work overrides it.  Implementations do not
        mutate their arguments.
        """
        next_state = self.next_state
        messages = list(shared)
        new_states: dict[int, State] = {}
        for receiver, entries in forged.items():
            for sender, state in entries.items():
                messages[sender] = state
            new_states[receiver] = next_state(receiver, messages)
        return new_states

    # ------------------------------------------------------------------ #
    # Hooks with sensible defaults
    # ------------------------------------------------------------------ #

    def default_state(self) -> State:
        """A canonical valid state, used when coercing garbage messages."""
        return next(iter(self.states()))

    def states(self) -> Iterator[State]:
        """Iterate over the full state space ``X``.

        The default implementation raises :class:`NotImplementedError`;
        algorithms with small, enumerable state spaces (the trivial counter,
        synthesised counters) override this so the exhaustive verifier can
        enumerate configurations.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not enumerate its state space"
        )

    def random_state(self, rng: Any = None) -> State:
        """Return a uniformly random valid state (used for arbitrary
        initialisation and by randomised adversaries).

        The default implementation samples from :meth:`states`; subclasses
        with large state spaces should override it with a direct sampler.
        """
        generator = ensure_rng(rng)
        all_states = list(self.states())
        return generator.choice(all_states)

    def coerce_message(self, message: Any) -> State:
        """Map an arbitrary received object to a valid state.

        In the model, Byzantine nodes can transmit arbitrary bit patterns;
        a receiver always interprets them as *some* state in ``X``.  The
        default implementation returns the message unchanged if it is a valid
        state and otherwise falls back to :meth:`default_state`.  Subclasses
        with structured states override this to coerce field-by-field.

        Coercion is pure, draws no randomness and is idempotent (every valid
        state maps to itself), so reading a message once, where it arrives,
        is the same as reading it again at every use.
        """
        if self.is_valid_state(message):
            return message
        return self.default_state()

    def is_valid_state(self, state: Any) -> bool:
        """Return True if ``state`` is a member of ``X``.

        The default implementation checks membership in :meth:`states`,
        which is only suitable for small state spaces.
        """
        try:
            return any(state == candidate for candidate in self.states())
        except NotImplementedError:
            return True

    def initial_states(self, rng: Any = None) -> list[State]:
        """Return an arbitrary (random) initial state for every node.

        Self-stabilisation means correctness must hold from *every* initial
        configuration; simulations use this to draw adversarial starting
        points uniformly at random.
        """
        generator = ensure_rng(rng)
        return [self.random_state(generator) for _ in range(self.n)]

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #

    def outputs(self, states: Sequence[State]) -> list[int]:
        """Vector of outputs ``h(i, states[i])`` for all nodes."""
        return [self.output(i, states[i]) for i in range(self.n)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(n={self.n}, f={self.f}, c={self.c}, "
            f"bits={self.state_bits()})"
        )


def iter_message_vectors(
    algorithm: SynchronousCountingAlgorithm,
    fixed: dict[int, State],
    free_nodes: Iterable[int],
) -> Iterator[list[State]]:
    """Enumerate all message vectors consistent with ``fixed`` states.

    Every node in ``free_nodes`` (typically the Byzantine nodes) ranges over
    the full state space; all other indices are taken from ``fixed``.  Used by
    the exhaustive verifier to compute the reachable-configuration relation.
    """
    free = list(free_nodes)
    state_space = list(algorithm.states())

    def fill(prefix: dict[int, State], remaining: list[int]) -> Iterator[list[State]]:
        if not remaining:
            vector = []
            for i in range(algorithm.n):
                if i in prefix:
                    vector.append(prefix[i])
                else:
                    vector.append(fixed[i])
            yield vector
            return
        head, *tail = remaining
        for candidate in state_space:
            prefix[head] = candidate
            yield from fill(prefix, tail)
        prefix.pop(head, None)

    yield from fill({}, free)
