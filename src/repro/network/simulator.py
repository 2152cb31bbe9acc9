"""The synchronous broadcast-model execution engine (Section 2 of the paper).

In every round each correct node receives the vector of states broadcast by
all nodes — with the entries of Byzantine senders replaced, per receiver, by
whatever the adversary forges — reads each message as a state once, where it
arrives, and applies the algorithm's transition function: one
``next_states`` call per round covers every correct receiver.
The round loop, RNG stream derivation, trace recording and early stopping
live in the shared kernel (:mod:`repro.network.engine`); this module
contributes the broadcast-specific pieces: the per-round message-vector
construction (:func:`run_round`) and the :class:`BroadcastModel` adapter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.core.algorithm import State, SynchronousCountingAlgorithm
from repro.core.errors import SimulationError
from repro.network.adversary import Adversary, NoAdversary
from repro.network.engine import ModelAdapter, derive_streams, run_engine
from repro.network.trace import ExecutionTrace

__all__ = ["SimulationConfig", "BroadcastModel", "run_simulation", "run_round"]


@dataclass(frozen=True)
class SimulationConfig:
    """Configuration of a broadcast-model simulation.

    Attributes
    ----------
    max_rounds:
        Hard cap on the number of simulated rounds.
    stop_after_agreement:
        If set, stop the simulation once the correct nodes have been counting
        in agreement for this many consecutive rounds (the trace still
        records everything up to that point).  ``None`` disables early
        stopping.
    record_states:
        Whether to store the full per-round states in the trace (memory
        heavy; off by default).
    seed:
        Seed for all randomness used by the run (adversary, random initial
        states).  Runs with equal seeds and deterministic algorithms are
        bit-for-bit reproducible.
    metadata:
        Caller-provided entries merged into the trace metadata
        (simulator-owned keys win on collision).
    perturbations:
        Optional :class:`~repro.faults.schedule.Perturbations` — a fault
        schedule and/or message loss/delay knobs.  Inactive perturbations
        (all knobs at their defaults) behave exactly like ``None``.
    """

    max_rounds: int = 1000
    stop_after_agreement: int | None = None
    record_states: bool = False
    seed: int | None = 0
    metadata: dict = field(default_factory=dict)
    perturbations: Any = None

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise SimulationError(f"max_rounds must be positive, got {self.max_rounds}")
        if self.stop_after_agreement is not None and self.stop_after_agreement < 1:
            raise SimulationError(
                f"stop_after_agreement must be positive, got {self.stop_after_agreement}"
            )


def run_round(
    algorithm: SynchronousCountingAlgorithm,
    states: Mapping[int, State],
    adversary: Adversary,
    round_index: int,
    rng: random.Random,
) -> dict[int, State]:
    """Execute one synchronous round and return the new states of correct nodes.

    ``states`` maps every *correct* node to its current state.  Faulty nodes
    have no tracked state; their messages are produced by the adversary,
    potentially differently for every receiver.
    """
    faulty = adversary.faulty
    adversary.on_round_start(round_index, states, algorithm, rng)
    coerce = algorithm.coerce_message
    forge = adversary.forge
    faulty_senders = sorted(faulty)

    # Every message is read as a state once, where it arrives.  Correct
    # senders broadcast the same state to every receiver, so the shared
    # vector is built — and coerced — once per round; only the entries of
    # faulty senders differ per receiver.  They are forged receiver by
    # receiver in ``states`` order, faulty senders ascending (the order the
    # adversary's generator is drawn in), before the one ``next_states``
    # call runs the paper's ``g`` for every receiver.
    shared = tuple(
        None if sender in faulty else coerce(states[sender])
        for sender in range(algorithm.n)
    )
    forged = {
        receiver: {
            sender: coerce(forge(round_index, sender, receiver, states, algorithm, rng))
            for sender in faulty_senders
        }
        for receiver in states
    }
    return algorithm.next_states(shared, forged)


class BroadcastModel(ModelAdapter):
    """The Section 2 broadcast model as a kernel adapter.

    Derives two RNG streams from the master seed — ``initial-states`` then
    ``adversary`` — and executes rounds through :func:`run_round`.  With
    active perturbations a third ``"faults"`` stream is derived *after* the
    first two, feeding schedule draws and the loss/delay plane — unperturbed
    runs derive exactly the historical streams, so their fixed-seed traces
    stay bit-identical.
    """

    def __init__(
        self, algorithm: Any, adversary: Any, perturbations: Any = None
    ) -> None:
        super().__init__(algorithm, adversary)
        self.perturbations = (
            perturbations
            if perturbations is not None and perturbations.active
            else None
        )
        self._runtime = None

    def validate(self) -> None:
        super().validate()
        if self.perturbations is not None:
            self.perturbations.validate(self.algorithm, self.adversary)

    def bind(self, master_rng: random.Random) -> None:
        self._init_rng, self._adversary_rng = derive_streams(
            master_rng, "initial-states", "adversary"
        )
        if self.perturbations is not None:
            from repro.faults.runtime import PerturbationRuntime

            (faults_rng,) = derive_streams(master_rng, "faults")
            self._runtime = PerturbationRuntime(
                self.algorithm, self.adversary, self.perturbations, faults_rng
            )

    @property
    def init_rng(self) -> random.Random:
        return self._init_rng

    def step(
        self, states: Mapping[int, State], round_index: int
    ) -> tuple[dict[int, State], dict[str, Any] | None]:
        if self._runtime is not None:
            return self._runtime.step(states, round_index, self._adversary_rng)
        return (
            run_round(self.algorithm, states, self.adversary, round_index, self._adversary_rng),
            None,
        )

    def trace_metadata(self) -> dict[str, Any]:
        metadata = super().trace_metadata()
        if self.perturbations is not None:
            metadata["perturbations"] = self.perturbations.describe()
        return metadata

    def stop_gate(self) -> int:
        # Never let the agreement window end the run while the schedule
        # still has pending windows: the later injections — and the
        # re-stabilisation they force — must execute, and the window's
        # streak must count post-perturbation rounds only.
        schedule = getattr(self.perturbations, "schedule", None)
        if schedule is None:
            return 0
        horizon: int | None = schedule.last_change_round()
        return horizon or 0


def run_simulation(
    algorithm: SynchronousCountingAlgorithm,
    adversary: Adversary | None = None,
    config: SimulationConfig | None = None,
    initial_states: Mapping[int, State] | Sequence[State] | None = None,
    observer: Any = None,
) -> ExecutionTrace:
    """Simulate the algorithm under the given adversary from an arbitrary start.

    Parameters
    ----------
    algorithm:
        The synchronous counter to execute.
    adversary:
        Byzantine adversary (defaults to the fault-free :class:`NoAdversary`).
    config:
        Simulation parameters; defaults to :class:`SimulationConfig`'s
        defaults.
    initial_states:
        Either a mapping from correct node ids to initial states, a sequence
        of ``n`` states (faulty entries are ignored), or ``None`` to draw a
        uniformly random initial configuration — self-stabilisation demands
        correctness from *any* starting point, so random starts are the
        default workload.
    observer:
        Optional :class:`~repro.obs.observer.Observer`, forwarded to the
        engine; observers only read, so the trace is unchanged by one.

    Returns
    -------
    ExecutionTrace
        The recorded execution (outputs per round for all correct nodes).
    """
    adversary = adversary or NoAdversary()
    config = config or SimulationConfig()
    _, trace = run_engine(
        BroadcastModel(algorithm, adversary, config.perturbations),
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
