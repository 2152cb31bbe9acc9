"""Scalar execution of fault schedules and message-plane perturbations.

:class:`PerturbationRuntime` is the piece the broadcast model plugs into its
round loop when a run carries :class:`~repro.faults.schedule.Perturbations`:
it advances the schedule's window state machine (corrupting and recovering
nodes at window boundaries) and routes messages through the loss/delay
plane.  All randomness — drawn faulty sets, arbitrary rejoin states, link
staleness — comes from the run's dedicated ``"faults"`` stream, derived via
:mod:`repro.util.rng`, so the adversary and initial-state streams of
unperturbed runs are untouched and fixed-seed traces stay bit-identical.

The loss/delay model (mirrored by the batch engine's masked array ops): a
correct sender's link to another node delivers the sender's start-of-round
state from ``delta`` rounds ago, where ``delta`` is ``Uniform{0..delay}``
plus one with probability ``loss`` — a synchronous-model rendering of lossy,
laggy links that keeps every round well-defined.  Self-links and Byzantine
links are never perturbed (a node knows its own state; forged messages are
adversary-chosen anyway).
"""

from __future__ import annotations

import random
from collections import deque
from typing import Any, Mapping, Sequence

from repro.faults.schedule import FaultSchedule, FaultWindow, Perturbations

__all__ = ["PerturbationRuntime", "run_perturbed_round"]


def run_perturbed_round(
    algorithm: Any,
    states: Mapping[int, Any],
    adversary: Any,
    round_index: int,
    rng: random.Random,
    faults_rng: random.Random,
    loss: float,
    delay: int,
    history: Sequence[Mapping[int, Any]],
) -> dict[int, Any]:
    """One synchronous round with per-link loss and delay applied.

    ``history`` holds start-of-round state snapshots, freshest first —
    ``history[0]`` **must** be this round's ``states`` (the caller pushes it
    before calling).  Staleness is clamped to the oldest available snapshot,
    and a sender missing from an old snapshot (it was faulty back then)
    falls back to its current state.  Receivers are visited in sorted order
    and senders in identifier order, so the ``faults_rng`` draw sequence is
    deterministic for a fixed seed.  Every delivered message is read as a
    state where it arrives, and the receiver runs ``next_state`` on them.
    """
    faulty = adversary.faulty
    adversary.on_round_start(round_index, states, algorithm, rng)
    coerce = algorithm.coerce_message
    forge = adversary.forge
    oldest = len(history) - 1
    new_states: dict[int, Any] = {}
    for receiver in sorted(states):
        messages: list[Any] = []
        for sender in range(algorithm.n):
            if sender in faulty:
                messages.append(
                    coerce(forge(round_index, sender, receiver, states, algorithm, rng))
                )
                continue
            if sender == receiver:
                messages.append(coerce(states[sender]))
                continue
            staleness = faults_rng.randrange(delay + 1) if delay > 0 else 0
            if loss > 0.0 and faults_rng.random() < loss:
                staleness += 1
            snapshot = history[min(staleness, oldest)]
            messages.append(coerce(snapshot.get(sender, states[sender])))
        new_states[receiver] = algorithm.next_state(receiver, messages)
    return new_states


class PerturbationRuntime:
    """Per-run state machine threading perturbations through the round loop.

    Owns the schedule's current window, the cohort faulty-set cache, and the
    bounded snapshot history of the delay plane.  :meth:`step` replaces the
    broadcast model's plain ``run_round`` call: it first applies any window
    transition due at this round (returning markers the engine turns into
    :class:`~repro.obs.events.FaultInjected` /
    :class:`~repro.obs.events.NodeRecovered` events and the
    ``last_perturbation_round`` trace stamp), then executes the round
    through the perturbed or plain message plane.
    """

    def __init__(
        self,
        algorithm: Any,
        adversary: Any,
        perturbations: Perturbations,
        faults_rng: random.Random,
    ) -> None:
        self.algorithm = algorithm
        self.perturbations = perturbations
        self.rng = faults_rng
        self.schedule: FaultSchedule | None = perturbations.schedule
        self._baseline = adversary
        self._adversary = adversary
        self._window: FaultWindow | None = None
        self._cohorts: dict[int, frozenset[int]] = {}
        self._history: deque[Mapping[int, Any]] | None = (
            deque(maxlen=perturbations.delay + 2)
            if perturbations.message_plane_active
            else None
        )

    @property
    def adversary(self) -> Any:
        """The adversary controlling the current round's faulty set."""
        return self._adversary

    def step(
        self,
        states: Mapping[int, Any],
        round_index: int,
        adversary_rng: random.Random,
    ) -> tuple[dict[int, Any], dict[str, Any] | None]:
        """Execute one round; returns new states plus round markers (or None)."""
        from repro.network.simulator import run_round

        markers: dict[str, Any] = {}
        if self.schedule is not None:
            states = self._advance_schedule(round_index, states, markers)
        if self._history is not None:
            self._history.appendleft(dict(states))
            new_states = run_perturbed_round(
                self.algorithm,
                states,
                self._adversary,
                round_index,
                adversary_rng,
                self.rng,
                self.perturbations.loss,
                self.perturbations.delay,
                self._history,
            )
        else:
            new_states = run_round(
                self.algorithm, states, self._adversary, round_index, adversary_rng
            )
        return new_states, (markers or None)

    # -- schedule state machine ----------------------------------------- #

    def _advance_schedule(
        self,
        round_index: int,
        states: Mapping[int, Any],
        markers: dict[str, Any],
    ) -> Mapping[int, Any]:
        """Apply the window transition due at ``round_index``, if any."""
        assert self.schedule is not None
        window = self.schedule.window_at(round_index)
        if window is self._window:
            return states
        old_faulty = frozenset(self._adversary.faulty)
        new_faulty = (
            self._faulty_for(window) if window is not None else frozenset()
        )
        corrupted = sorted(new_faulty - old_faulty)
        recovered = sorted(old_faulty - new_faulty)
        if corrupted or recovered:
            mutated = dict(states)
            for node in corrupted:
                mutated.pop(node, None)
            for node in recovered:
                # Arbitrary rejoin states: the self-stabilisation workload —
                # recovery must work from any configuration, so rejoining
                # nodes restart from uniformly random states.
                mutated[node] = self.algorithm.random_state(self.rng)
            states = mutated
        if window is None:
            self._adversary = self._baseline
        else:
            from repro.network.adversary import build_adversary

            self._adversary = build_adversary(
                window.strategy, sorted(new_faulty), **dict(window.params)
            )
        self._window = window
        if corrupted:
            assert window is not None
            markers["fault_injected"] = {
                "strategy": window.strategy,
                "nodes": corrupted,
            }
        if recovered:
            markers["nodes_recovered"] = {"nodes": recovered}
        return states

    def _faulty_for(self, window: FaultWindow) -> frozenset[int]:
        """The faulty set of a window (cohorts share one drawn set)."""
        if window.cohort is not None and window.cohort in self._cohorts:
            return self._cohorts[window.cohort]
        count = (
            window.num_faults if window.num_faults is not None else self.algorithm.f
        )
        drawn = frozenset(self.rng.sample(range(self.algorithm.n), count))
        if window.cohort is not None:
            self._cohorts[window.cohort] = drawn
        return drawn
