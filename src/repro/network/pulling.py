"""The pulling communication model of Section 5, with message accounting.

In the pulling model a node does not receive a full broadcast; instead, in
every synchronous round it

1. contacts a subset of nodes by *pulling* their state,
2. receives the state (as of the beginning of the round) of every contacted
   node — except that faulty nodes may answer arbitrarily and differently to
   different pullers, and
3. updates its local state from the responses.

The per-node *message complexity* is the maximum number of pulls a correct
node issues in a round and the *bit complexity* multiplies this by the state
size — the quantities bounded by Theorem 4 and Corollary 4.  The
:class:`PullingModel` adapter below records both for every round; the round
loop, RNG stream derivation, initial-state validation and early stopping are
the shared kernel's (:mod:`repro.network.engine`), so the pulling path
reports missing/invalid initial states, ``stopped_early`` and
``agreement_streak`` exactly like the broadcast path.

A round reaches the algorithm through one call of
:meth:`PullingAlgorithm.next_states`, the update of every correct node at
once: every correct node answers every pull of it with the same state, so
the call takes the vector of those states (``None`` at faulty nodes), each
node's pull plan and each node's forged responses.  The model first draws
every node's plan (``pull_targets``) from the ``sampling`` stream and every
forged response from the ``adversary`` stream, node by node as before, and
then makes that call.  The default runs :meth:`PullingAlgorithm.next_state`
once per node, in the same order, with the ``sampling`` generator, so a
``next_state`` that draws from it now draws after the round's last plan
rather than right after its own node's plan.  No catalogued algorithm draws
there.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.core.algorithm import AlgorithmInfo, State, check_counting_parameters
from repro.core.errors import ParameterError, SimulationError
from repro.network.adversary import Adversary, NoAdversary
from repro.network.engine import ModelAdapter, derive_streams, run_engine
from repro.network.trace import ExecutionTrace
from repro.util.intmath import ceil_log2
from repro.util.rng import ensure_rng

__all__ = [
    "PullingAlgorithm",
    "PullSimulationConfig",
    "PullingModel",
    "run_pull_simulation",
]


class PullingAlgorithm(ABC):
    """A synchronous counting algorithm for the pulling model.

    The interface mirrors :class:`~repro.core.algorithm.SynchronousCountingAlgorithm`
    but communication is initiated by the receiver: :meth:`pull_targets`
    names the nodes whose state is requested this round (repetitions allowed —
    the paper samples with repetition so Chernoff bounds apply directly) and
    :meth:`next_state` consumes the aligned list of responses, each already
    read as a state.  :meth:`next_states` runs it for every correct node of
    a round; :meth:`transition` is the entry point for direct callers: it
    reads the own state and every response as a state first.
    """

    def __init__(self, n: int, f: int, c: int, info: AlgorithmInfo | None = None) -> None:
        check_counting_parameters(n, f, c)
        self._n = n
        self._f = f
        self._c = c
        self._info = info or AlgorithmInfo(name=type(self).__name__, deterministic=False)

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def f(self) -> int:
        """Resilience."""
        return self._f

    @property
    def c(self) -> int:
        """Counter size."""
        return self._c

    @property
    def info(self) -> AlgorithmInfo:
        """Descriptive metadata."""
        return self._info

    @property
    def deterministic(self) -> bool:
        """Whether the algorithm is deterministic (sampling usually is not)."""
        return self._info.deterministic

    # ------------------------------------------------------------------ #
    # Abstract interface
    # ------------------------------------------------------------------ #

    @abstractmethod
    def pull_targets(self, node: int, state: State, rng: random.Random) -> list[int]:
        """The nodes whose state ``node`` pulls this round (repetitions allowed)."""

    def transition(
        self,
        node: int,
        state: State,
        targets: Sequence[int],
        responses: Sequence[State],
        rng: random.Random,
    ) -> State:
        """Update ``node``'s state from arbitrary pulled ``responses``.

        Checks that ``node`` is in ``[n]`` and that ``responses`` align with
        ``targets``, reads the own state and every response as a state
        (:meth:`coerce_message`) and returns :meth:`next_state` of the
        result.  The pulling model coerces each state once, on receipt, and
        calls :meth:`next_states` itself.
        """
        if not 0 <= node < self._n:
            raise ParameterError(f"node must be in [0, {self._n}), got {node}")
        if len(targets) != len(responses):
            raise ParameterError("targets and responses must be aligned")
        coerce = self.coerce_message
        received = [coerce(response) for response in responses]
        return self.next_state(node, coerce(state), targets, received, rng)

    @abstractmethod
    def next_state(
        self,
        node: int,
        state: State,
        targets: Sequence[int],
        responses: Sequence[State],
        rng: random.Random,
    ) -> State:
        """Update ``node``'s ``state`` from ``responses`` (aligned with ``targets``).

        The own state and every response are valid states, already read by
        :meth:`coerce_message`; implementations do not coerce them again and
        do not mutate them.
        """

    def next_states(
        self,
        shared: Sequence[State | None],
        targets: Mapping[int, Sequence[int]],
        forged: Mapping[int, Mapping[int, State]],
        rng: random.Random,
    ) -> dict[int, State]:
        """:meth:`next_state` for every correct node of one round.

        ``shared[j]`` is the state every pull of node ``j`` returns, read as
        a state, and ``None`` for a node whose answers differ per pull (a
        faulty one); a pulling node's own state is its entry.  ``targets``
        maps each pulling node, in update order, to its plan, and ``forged``
        maps it to its responses from those nodes, ``{position: state}`` by
        plan position, also read as states.  Returns ``{node: new state}``
        in that order.

        This default calls :meth:`next_state` once per node with the
        responses its plan selects; an algorithm whose nodes can share work
        overrides it.  Implementations do not mutate their arguments.
        """
        next_state = self.next_state
        new_states: dict[int, State] = {}
        for node, plan in targets.items():
            responses = [shared[target] for target in plan]
            for position, state in forged[node].items():
                responses[position] = state
            new_states[node] = next_state(node, shared[node], plan, responses, rng)
        return new_states

    @abstractmethod
    def output(self, node: int, state: State) -> int:
        """The counter output ``h(i, s) ∈ [c]``."""

    @abstractmethod
    def random_state(self, rng: Any = None) -> State:
        """A uniformly random valid state (arbitrary initialisation)."""

    @abstractmethod
    def coerce_message(self, message: Any) -> State:
        """Interpret an arbitrary pulled response as a valid state."""

    # ------------------------------------------------------------------ #
    # Defaults
    # ------------------------------------------------------------------ #

    def default_state(self) -> State:
        """A canonical valid state."""
        return self.random_state(ensure_rng(0))

    def is_valid_state(self, state: Any) -> bool:
        """Whether ``state`` belongs to the algorithm's state space.

        Pulling algorithms coerce every received message into a valid state,
        so the default check is the coercion fixed point: a state is valid
        exactly when :meth:`coerce_message` leaves it unchanged.  Subclasses
        with a cheaper membership test override this.
        """
        try:
            return self.coerce_message(state) == state
        except Exception:  # noqa: BLE001 - arbitrary garbage must test False
            return False

    def state_bits(self) -> int:
        """Space complexity in bits (subclasses with exact counts override)."""
        return ceil_log2(max(2, self.num_states()))

    def num_states(self) -> int:
        """Number of distinct states (subclasses override)."""
        raise NotImplementedError

    def message_bits(self) -> int:
        """Bits transferred per pulled message (one state)."""
        return self.state_bits()

    def stabilization_bound(self) -> int | None:
        """An upper bound on the stabilisation time, if known."""
        return None

    def describe(self) -> dict[str, Any]:
        """Summary dictionary used by the experiment harness."""
        return {
            "name": self._info.name,
            "n": self.n,
            "f": self.f,
            "c": self.c,
            "deterministic": self._info.deterministic,
        }


@dataclass(frozen=True)
class PullSimulationConfig:
    """Configuration of a pulling-model simulation.

    Mirrors :class:`~repro.network.simulator.SimulationConfig`, including the
    ``metadata`` entries merged into the trace metadata (simulator-owned keys
    win on collision).
    """

    max_rounds: int = 1000
    stop_after_agreement: int | None = None
    record_states: bool = False
    seed: int | None = 0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise SimulationError(f"max_rounds must be positive, got {self.max_rounds}")
        if self.stop_after_agreement is not None and self.stop_after_agreement < 1:
            raise SimulationError(
                f"stop_after_agreement must be positive, got {self.stop_after_agreement}"
            )


class PullingModel(ModelAdapter):
    """The Section 5 pulling model as a kernel adapter.

    Derives three RNG streams from the master seed — ``initial-states``,
    ``adversary``, then ``sampling`` — and records per-round pull statistics
    (``max_pulls`` / ``mean_pulls`` / ``max_bits``) in the round metadata,
    which the Corollary 4 experiment aggregates.
    """

    def bind(self, master_rng: random.Random) -> None:
        self._init_rng, self._adversary_rng, self._sample_rng = derive_streams(
            master_rng, "initial-states", "adversary", "sampling"
        )

    @property
    def init_rng(self) -> random.Random:
        return self._init_rng

    def trace_metadata(self) -> dict[str, Any]:
        return {"model": "pulling", "adversary": self.adversary.describe()}

    def step(
        self, states: Mapping[int, State], round_index: int
    ) -> tuple[dict[int, State], dict[str, Any]]:
        algorithm = self.algorithm
        adversary = self.adversary
        faulty = adversary.faulty
        n = algorithm.n
        coerce = algorithm.coerce_message
        adversary.on_round_start(round_index, states, algorithm, self._adversary_rng)
        # Every response is read as a state once, where it arrives: each
        # correct node's state once per round (it answers every pull of it,
        # and is its own node's state), each forged response once per pull.
        # Every plan and every forge is drawn first, node by node; then one
        # ``next_states`` call updates every node.
        shared = tuple(None if node in faulty else coerce(states[node]) for node in range(n))
        # One lookup per pulled position both checks the target and says
        # whether its answer is forged.
        is_faulty = {node: node in faulty for node in range(n)}
        plans: dict[int, list[int]] = {}
        forged: dict[int, dict[int, State]] = {}
        for node in states:
            plan = algorithm.pull_targets(node, states[node], self._sample_rng)
            entries: dict[int, State] = {}
            for position, target in enumerate(plan):
                try:
                    forges = is_faulty[target]
                except KeyError:
                    raise SimulationError(
                        f"node {node} pulled invalid target {target}"
                    ) from None
                if forges:
                    entries[position] = coerce(
                        adversary.forge(
                            round_index, target, node, states, algorithm, self._adversary_rng
                        )
                    )
            plans[node] = plan
            forged[node] = entries
        new_states = algorithm.next_states(shared, plans, forged, self._sample_rng)
        pull_counts = [len(plan) for plan in plans.values()]
        max_pulls = max(pull_counts) if pull_counts else 0
        metadata = {
            "max_pulls": max_pulls,
            "mean_pulls": (sum(pull_counts) / len(pull_counts)) if pull_counts else 0.0,
            "max_bits": max_pulls * algorithm.message_bits(),
        }
        return new_states, metadata


def run_pull_simulation(
    algorithm: PullingAlgorithm,
    adversary: Adversary | None = None,
    config: PullSimulationConfig | None = None,
    initial_states: Mapping[int, State] | Sequence[State] | None = None,
    observer: Any = None,
) -> ExecutionTrace:
    """Simulate a pulling-model algorithm and record outputs plus pull counts.

    The returned trace carries, per round, the metadata keys
    ``max_pulls`` / ``mean_pulls`` (messages pulled by correct nodes) and
    ``max_bits`` (messages times the per-message bit size), which the
    Corollary 4 experiment aggregates.  ``observer`` is forwarded to the
    engine; observers only read, so the trace is unchanged by one.
    """
    adversary = adversary or NoAdversary()
    config = config or PullSimulationConfig()
    _, trace = run_engine(
        PullingModel(algorithm, adversary),
        max_rounds=config.max_rounds,
        stop_after_agreement=config.stop_after_agreement,
        record_states=config.record_states,
        seed=config.seed,
        metadata=config.metadata,
        initial_states=initial_states,
        observer=observer,
    )
    assert trace is not None
    return trace
