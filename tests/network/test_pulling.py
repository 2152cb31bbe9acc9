"""Unit tests for the pulling-model simulator."""

from __future__ import annotations

import random
from typing import Any, Sequence

import pytest

from repro.core.algorithm import AlgorithmInfo
from repro.core.errors import SimulationError
from repro.network.adversary import CrashAdversary, NoAdversary, build_adversary
from repro.network.pulling import (
    PullingAlgorithm,
    PullingModel,
    PullSimulationConfig,
    run_pull_simulation,
)
from repro.semantics import build_algorithm
from repro.util.rng import ensure_rng


class PullEchoCounter(PullingAlgorithm):
    """Minimal pulling-model counter used to exercise the engine.

    Every node pulls a fixed set of neighbours, adopts the maximum value seen
    (its own included) and increments it modulo ``c``.  Fault free it counts;
    it makes no resilience claims beyond ``f``.
    """

    def __init__(self, n: int = 4, f: int = 1, c: int = 5, pulls: int = 2) -> None:
        super().__init__(n=n, f=f, c=c, info=AlgorithmInfo(name="PullEcho", deterministic=False))
        self._pulls = pulls

    def num_states(self) -> int:
        return self.c

    def pull_targets(self, node: int, state: Any, rng: random.Random) -> list[int]:
        return [(node + offset) % self.n for offset in range(1, self._pulls + 1)]

    def next_state(self, node, state, targets, responses, rng) -> int:
        values = [self.coerce_message(state)] + [self.coerce_message(r) for r in responses]
        return (max(values) + 1) % self.c

    def output(self, node: int, state: Any) -> int:
        return self.coerce_message(state)

    def random_state(self, rng: Any = None) -> int:
        return ensure_rng(rng).randrange(self.c)

    def coerce_message(self, message: Any) -> int:
        if isinstance(message, bool) or not isinstance(message, int):
            return 0
        return message % self.c


class BadTargetCounter(PullEchoCounter):
    """Pulls an out-of-range target to exercise the engine's validation."""

    def pull_targets(self, node, state, rng):
        return [self.n + 5]


class TestPullSimulationConfig:
    def test_defaults(self):
        config = PullSimulationConfig()
        assert config.max_rounds == 1000

    def test_rejects_bad_rounds(self):
        with pytest.raises(SimulationError):
            PullSimulationConfig(max_rounds=0)

    def test_rejects_bad_window(self):
        with pytest.raises(SimulationError):
            PullSimulationConfig(stop_after_agreement=0)


class TestRunPullSimulation:
    def test_records_pull_metadata(self):
        counter = PullEchoCounter(pulls=2)
        trace = run_pull_simulation(
            counter, config=PullSimulationConfig(max_rounds=5, seed=0)
        )
        assert trace.num_rounds == 5
        assert trace.rounds[0].metadata["max_pulls"] == 2
        assert trace.rounds[0].metadata["max_bits"] == 2 * counter.message_bits()
        assert trace.metadata["model"] == "pulling"

    def test_outputs_recorded_for_correct_nodes_only(self):
        counter = PullEchoCounter()
        trace = run_pull_simulation(
            counter,
            adversary=CrashAdversary([1]),
            config=PullSimulationConfig(max_rounds=3, seed=0),
        )
        assert set(trace.rounds[0].outputs) == {0, 2, 3}

    def test_deterministic_for_fixed_seed(self):
        counter = PullEchoCounter()
        config = PullSimulationConfig(max_rounds=10, seed=5)
        first = run_pull_simulation(counter, adversary=CrashAdversary([2]), config=config)
        second = run_pull_simulation(counter, adversary=CrashAdversary([2]), config=config)
        assert first.output_rows() == second.output_rows()

    def test_rejects_excess_faults(self):
        counter = PullEchoCounter(f=1)
        with pytest.raises(SimulationError):
            run_pull_simulation(counter, adversary=CrashAdversary([0, 1]))

    def test_rejects_out_of_range_fault(self):
        counter = PullEchoCounter(f=1)
        with pytest.raises(SimulationError):
            run_pull_simulation(counter, adversary=CrashAdversary([40]))

    def test_rejects_invalid_pull_target(self):
        counter = BadTargetCounter()
        with pytest.raises(SimulationError):
            run_pull_simulation(counter, config=PullSimulationConfig(max_rounds=1, seed=0))

    def test_early_stop_on_agreement(self):
        counter = PullEchoCounter(n=4, f=0, c=5)
        trace = run_pull_simulation(
            counter,
            adversary=NoAdversary(),
            config=PullSimulationConfig(max_rounds=200, stop_after_agreement=5, seed=1),
        )
        assert trace.metadata.get("stopped_early") is True

    def test_explicit_initial_states(self):
        counter = PullEchoCounter(n=4, f=0, c=5)
        trace = run_pull_simulation(
            counter,
            config=PullSimulationConfig(max_rounds=1, seed=0),
            initial_states={0: 1, 1: 1, 2: 1, 3: 1},
        )
        assert trace.rounds[0].outputs == {0: 2, 1: 2, 2: 2, 3: 2}

    def test_each_response_is_coerced_once_where_it_arrives(self):
        # Each correct node's state is read once per round (it answers every
        # pull of it), and each forged response once for its puller.
        counter = build_algorithm("sampled-boosted", sample_size=8)
        calls = []
        coerce = counter.coerce_message

        def counting(message):
            calls.append(message)
            return coerce(message)

        counter.coerce_message = counting
        adversary = build_adversary("random-state", [4])
        forged = []
        forge = adversary.forge

        def counting_forge(*args):
            forged.append(args)
            return forge(*args)

        adversary.forge = counting_forge
        model = PullingModel(counter, adversary)
        model.bind(random.Random(0))
        rng = random.Random(1)
        states = {node: counter.random_state(rng) for node in range(counter.n) if node != 4}
        new_states, _ = model.step(states, 0)
        assert forged
        assert len(calls) == len(states) + len(forged)
        assert all(counter.is_valid_state(state) for state in new_states.values())

    def test_describe(self):
        counter = PullEchoCounter()
        summary = counter.describe()
        assert summary["name"] == "PullEcho"
        assert summary["n"] == 4


class TestDefaultState:
    @pytest.mark.parametrize(
        "build",
        [
            PullEchoCounter,
            lambda: build_algorithm("sampled-boosted", sample_size=2),
            lambda: build_algorithm("pseudo-random-boosted", sample_size=3),
        ],
        ids=["pull-echo", "sampled-boosted", "pseudo-random-boosted"],
    )
    def test_is_the_first_state_of_random_zero_built_once(self, build, monkeypatch):
        counter = build()
        draw = counter.random_state
        calls = []

        def counting_random_state(rng=None):
            calls.append(rng)
            return draw(rng)

        monkeypatch.setattr(counter, "random_state", counting_random_state)
        first = counter.default_state()
        assert first == draw(random.Random(0))
        assert all(counter.default_state() is first for _ in range(3))
        assert len(calls) == 1
