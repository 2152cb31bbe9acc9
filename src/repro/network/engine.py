"""The shared simulation kernel driving both communication models.

The broadcast engine (Section 2) and the pulling engine (Section 5) share
everything except how one round of communication happens: master-seed
handling, the derivation of the per-purpose RNG streams, initial-state
resolution and validation, the round loop, trace recording and early
stopping.  This module owns that shared machinery:

* :class:`ModelAdapter` — the plug-in point for a communication model.  An
  adapter names the RNG streams its model consumes (derived from the master
  seed in a fixed, documented order so fixed-seed traces are reproducible
  across releases) and implements :meth:`ModelAdapter.step`, one synchronous
  round mapping the correct nodes' states to their successors plus optional
  per-round metadata (e.g. pull counts).
* :func:`stop_step` — the agreement-window / round-cap / gate arithmetic
  shared with the batch engine: stop once the correct nodes have been
  counting in agreement for a confirmation window, or at the round cap.
* :func:`resolve_initial_states` — normalise and validate a user-provided
  initial configuration (mapping, sequence or ``None`` for a uniformly
  random start) with uniform error reporting for both models.
* :func:`run_engine` — the round loop itself, reducing every run to a
  :class:`~repro.network.stabilization.RunSummary` and recording an
  :class:`~repro.network.trace.ExecutionTrace` only on request.

:func:`repro.network.simulator.run_simulation` and
:func:`repro.network.pulling.run_pull_simulation` are thin adapters over
this kernel; their fixed-seed traces are bit-identical to the standalone
loops they replaced (asserted by ``tests/network/test_engine.py`` against
verbatim copies of the legacy engines).
"""

from __future__ import annotations

import random
import time
from abc import ABC, abstractmethod
from typing import Any, Mapping, Sequence

from repro.core.errors import SimulationError
from repro.network.stabilization import RunSummary
from repro.network.trace import ExecutionTrace, RoundRecord
from repro.obs.events import FaultInjected, NodeRecovered, RoundObserved
from repro.obs.observer import Observer, active
from repro.util.rng import derive_rng, ensure_rng

__all__ = [
    "stop_step",
    "ModelAdapter",
    "resolve_initial_states",
    "run_engine",
    "derive_streams",
]


# ---------------------------------------------------------------------- #
# The stop step
# ---------------------------------------------------------------------- #


def stop_step(
    agreed: Any,
    prev: Any,
    streak: Any,
    round_index: Any,
    *,
    c: int,
    window: int | None,
    max_rounds: int,
    gate: int = 0,
) -> tuple[Any, Any, Any, Any]:
    """Account one round of the agreement window and the round cap.

    ``agreed`` is the round's agreed value (``-1`` when the correct nodes
    disagreed), ``prev`` the previous round's and ``streak`` the number of
    consecutive rounds the agreed value has advanced by one modulo ``c`` —
    mere frozen agreement never grows it.  Returns the updated ``(prev,
    streak)`` plus ``(early, stop)``: whether the window of ``window``
    rounds filled, and whether the run ends — the window wins over the cap
    when both fire in the same round.  ``window=None`` disables early
    stopping.  Before the ``gate`` round the window sees nothing (``streak
    = 0``), so a run cannot stop early while a fault schedule still has
    pending windows.

    Written in plain arithmetic, so the scalar engine calls it with Python
    ints and the batch engine with ``(B,)`` arrays, one trial per entry.
    Both engines check ``max_rounds`` and ``window`` once per run, before
    the first round.
    """
    # ``prev`` only counts where ``streak`` is positive: after a disagreement
    # (``prev = -1``) and before the gate the streak is 0, so the next
    # agreeing round restarts it at 1 whatever ``prev`` holds.
    counting = (prev + 1) % c == agreed
    streak = (round_index >= gate) * (agreed >= 0) * (counting * streak + 1)
    early = streak >= (max_rounds + 1 if window is None else window)
    return agreed, streak, early, early | (round_index + 1 >= max_rounds)


# ---------------------------------------------------------------------- #
# Model adapters
# ---------------------------------------------------------------------- #


class ModelAdapter(ABC):
    """One communication model plugged into the engine's round loop.

    An adapter wraps an algorithm and an adversary and knows how to execute
    one synchronous round.  The ``algorithm`` may be any object exposing the
    simulation surface shared by
    :class:`~repro.core.algorithm.SynchronousCountingAlgorithm` and
    :class:`~repro.network.pulling.PullingAlgorithm`: ``n``, ``c``, ``info``,
    ``output``, ``random_state`` and ``is_valid_state``.  A model's
    :meth:`step` reads each message as a state once, where it arrives
    (``coerce_message``), and hands the round to ``next_states``.
    """

    def __init__(self, algorithm: Any, adversary: Any) -> None:
        self.algorithm = algorithm
        self.adversary = adversary
        self._correct_nodes: list[int] | None = None

    # -- wiring --------------------------------------------------------- #

    @abstractmethod
    def bind(self, master_rng: random.Random) -> None:
        """Derive the model's RNG streams from the master generator.

        Streams must be derived in a fixed order per model (the derivation
        itself consumes master randomness), so adapters document and own
        their order: broadcast derives ``initial-states`` then ``adversary``;
        pulling additionally derives ``sampling`` third.
        """

    @property
    @abstractmethod
    def init_rng(self) -> random.Random:
        """Stream for drawing random initial states (set by :meth:`bind`)."""

    def validate(self) -> None:
        """Check the adversary against the algorithm before the run."""
        self.adversary.validate(self.algorithm)

    # -- execution ------------------------------------------------------ #

    @property
    def correct_nodes(self) -> list[int]:
        """Identifiers of the non-faulty nodes, ascending.

        Computed once and cached — the adversary's faulty set is fixed at
        construction.
        """
        if self._correct_nodes is None:
            faulty = self.adversary.faulty
            self._correct_nodes = [
                i for i in range(self.algorithm.n) if i not in faulty
            ]
        return self._correct_nodes

    @abstractmethod
    def step(
        self, states: Mapping[int, Any], round_index: int
    ) -> tuple[dict[int, Any], dict[str, Any] | None]:
        """Execute one round: new states of the correct nodes plus optional
        per-round metadata (recorded on the :class:`RoundRecord`; the
        engine also totals its ``max_pulls`` / ``mean_pulls`` entries and
        reads its fault-schedule markers)."""

    def trace_metadata(self) -> dict[str, Any]:
        """Model-specific entries for the trace header."""
        return {"adversary": self.adversary.describe()}

    def stop_gate(self) -> int:
        """The first round the agreement window may observe (see
        :func:`stop_step`); ``0`` unless a fault schedule is pending."""
        return 0


# ---------------------------------------------------------------------- #
# Initial states
# ---------------------------------------------------------------------- #


def resolve_initial_states(
    algorithm: Any,
    correct_nodes: Sequence[int],
    initial_states: Mapping[int, Any] | Sequence[Any] | None,
    rng: random.Random,
) -> dict[int, Any]:
    """Normalise and validate a user-provided initial configuration.

    ``None`` draws a uniformly random state per correct node —
    self-stabilisation demands correctness from *any* starting point, so
    random starts are the default workload.  A mapping must cover every
    correct node; a sequence must have length ``n`` (faulty entries are
    ignored).  Explicitly provided states are validated against the
    algorithm's state space and rejected with a :class:`SimulationError`
    naming the offending node.
    """
    if initial_states is None:
        return {node: algorithm.random_state(rng) for node in correct_nodes}
    if isinstance(initial_states, Mapping):
        missing = [node for node in correct_nodes if node not in initial_states]
        if missing:
            raise SimulationError(
                f"initial_states mapping is missing correct nodes {missing}"
            )
        resolved = {node: initial_states[node] for node in correct_nodes}
    else:
        sequence = list(initial_states)
        if len(sequence) != algorithm.n:
            raise SimulationError(
                f"initial_states sequence must have length n={algorithm.n}, "
                f"got {len(sequence)}"
            )
        resolved = {node: sequence[node] for node in correct_nodes}
    for node, state in resolved.items():
        if not algorithm.is_valid_state(state):
            raise SimulationError(
                f"initial state for node {node} is not a valid state: {state!r}"
            )
    return resolved


# ---------------------------------------------------------------------- #
# The round loop
# ---------------------------------------------------------------------- #


def run_engine(
    model: ModelAdapter,
    *,
    max_rounds: int,
    stop_after_agreement: int | None = None,
    trace: bool = True,
    record_states: bool = False,
    seed: int | None = 0,
    metadata: Mapping[str, Any] | None = None,
    initial_states: Mapping[int, Any] | Sequence[Any] | None = None,
    observer: Observer | None = None,
) -> tuple[RunSummary, ExecutionTrace | None]:
    """Run a simulation of ``model``; return its summary and, optionally, trace.

    Parameters
    ----------
    model:
        The bound communication model (algorithm + adversary).
    max_rounds / stop_after_agreement:
        The round cap and the optional agreement window, evaluated by
        :func:`stop_step` from the model's :meth:`~ModelAdapter.stop_gate`.
    trace:
        Whether to record an :class:`ExecutionTrace` of per-round outputs.
        Without one (``trace=False``, the campaign path) the engine builds
        no per-round records and returns ``(summary, None)``.
    record_states:
        Whether to store full per-round states in the trace (memory heavy).
    seed:
        Master seed from which the model derives its RNG streams.
    metadata:
        Caller-provided entries merged into the trace metadata;
        simulator-owned keys win on collision.
    initial_states:
        Forwarded to :func:`resolve_initial_states`.
    observer:
        Optional :class:`~repro.obs.observer.Observer`.  Observers only
        read — they never draw randomness — so attaching one cannot change
        the run.  With a positive ``round_stride`` every N-th round is
        emitted as a :class:`~repro.obs.events.RoundObserved` event;
        run-level counters and timing histograms are always recorded when
        an active observer is present.
    """
    if max_rounds < 1:
        raise SimulationError(f"max_rounds must be positive, got {max_rounds}")
    if stop_after_agreement is not None and stop_after_agreement < 1:
        raise SimulationError(
            f"stop_after_agreement must be positive, got {stop_after_agreement}"
        )
    model.validate()

    master_rng = ensure_rng(seed)
    model.bind(master_rng)

    algorithm = model.algorithm
    correct_nodes = model.correct_nodes
    states = resolve_initial_states(
        algorithm, correct_nodes, initial_states, model.init_rng
    )

    record: ExecutionTrace | None = None
    if trace:
        record = ExecutionTrace(
            algorithm_name=algorithm.info.name,
            n=algorithm.n,
            c=algorithm.c,
            faulty=model.adversary.faulty,
            initial_outputs={
                node: algorithm.output(node, state) for node, state in states.items()
            },
            metadata={
                **dict(metadata or {}),
                **model.trace_metadata(),
                "seed": seed,
                "max_rounds": max_rounds,
            },
        )

    # Hot loop: the bound output method is hoisted; without a trace the
    # per-round work is one set of outputs, and with one the outputs mapping
    # is owned by the stored RoundRecord, so it cannot be a reused buffer.
    # Observation costs one ``is not None`` check per round when disabled;
    # the stride gate keeps event construction out of unsampled rounds.
    obs = active(observer)
    stride = obs.round_stride if obs is not None else 0
    started = time.perf_counter() if obs is not None else 0.0
    output = algorithm.output
    c = algorithm.c
    gate = model.stop_gate()
    agreed_values: list[int] = []
    prev, streak = -1, 0
    max_pulls: int | None = None
    pull_sum = 0
    pulls_issued = 0.0
    last_perturbation: int | None = None
    round_index = 0
    while True:
        states, round_metadata = model.step(states, round_index)
        if record is None:
            values = {output(node, state) for node, state in states.items()}
        else:
            outputs = {node: output(node, state) for node, state in states.items()}
            record.append(
                RoundRecord(
                    round_index=round_index,
                    outputs=outputs,
                    states=dict(states) if record_states else None,
                    metadata=round_metadata if round_metadata is not None else {},
                )
            )
            values = set(outputs.values())
        # min() of the singleton set: order-independent element pick.
        agreed = min(values) if len(values) == 1 else -1
        agreed_values.append(agreed)

        if round_metadata is not None:
            pulls = round_metadata.get("max_pulls")
            if pulls is not None:
                # Pulling-model totals; the float sum keeps round order so
                # the reduced message counts are reproducible to the bit.
                max_pulls = pulls if max_pulls is None else max(max_pulls, pulls)
                pull_sum += pulls
                pulls_issued += round_metadata["mean_pulls"] * len(correct_nodes)
            # Fault-schedule markers (stamped by the perturbation runtime):
            # track the anchor of the recovery metrics and surface the
            # injection/recovery as typed events.
            injected = round_metadata.get("fault_injected")
            recovered = round_metadata.get("nodes_recovered")
            if injected is not None or recovered is not None:
                last_perturbation = round_index
                if obs is not None:
                    if injected is not None:
                        obs.emit(
                            FaultInjected(
                                round_index=round_index,
                                strategy=injected["strategy"],
                                nodes=tuple(injected["nodes"]),
                            )
                        )
                    if recovered is not None:
                        obs.emit(
                            NodeRecovered(
                                round_index=round_index,
                                nodes=tuple(recovered["nodes"]),
                            )
                        )
                    obs.metrics.counter("engine.fault_transitions").inc()

        if stride and round_index % stride == 0:
            obs.emit(
                RoundObserved(
                    source="engine",
                    round_index=round_index,
                    live_trials=1,
                    agreed_value=agreed if agreed >= 0 else None,
                )
            )

        prev, streak, early, stop = stop_step(
            agreed,
            prev,
            streak,
            round_index,
            c=c,
            window=stop_after_agreement,
            max_rounds=max_rounds,
            gate=gate,
        )
        if stop:
            break
        round_index += 1

    if record is not None:
        record.metadata.update(
            {"stopped_early": True, "agreement_streak": streak}
            if early
            else {"stopped_early": False}
        )
        if last_perturbation is not None:
            record.metadata["last_perturbation_round"] = last_perturbation
    if obs is not None:
        rounds = round_index + 1
        metrics = obs.metrics
        metrics.counter("engine.runs").inc()
        metrics.counter("engine.rounds").inc(rounds)
        metrics.histogram("engine.run_rounds").observe(rounds)
        metrics.histogram("engine.run_seconds").observe(time.perf_counter() - started)
    summary = RunSummary(
        faulty=tuple(sorted(model.adversary.faulty)),
        agreed=tuple(agreed_values),
        stopped_early=bool(early),
        agreement_streak=streak if early else None,
        max_pulls=max_pulls,
        pull_sum=pull_sum,
        pulls_issued=pulls_issued,
        last_perturbation_round=last_perturbation,
    )
    return summary, record


def derive_streams(
    master_rng: random.Random, *names: str
) -> tuple[random.Random, ...]:
    """Derive the named RNG streams from the master generator, in order.

    A convenience for adapters: stream order matters (each derivation
    consumes master randomness), so deriving them in one call keeps the
    order explicit and greppable.
    """
    return tuple(derive_rng(master_rng, name) for name in names)
