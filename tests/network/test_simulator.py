"""Unit tests for the broadcast-model simulator."""

from __future__ import annotations

import pytest

from repro.core.errors import SimulationError
from repro.counters.naive import NaiveMajorityCounter
from repro.counters.trivial import TrivialCounter
from repro.network.adversary import (
    CrashAdversary,
    NoAdversary,
    RandomStateAdversary,
    build_adversary,
)
from repro.network import simulator
from repro.network.simulator import SimulationConfig, run_round, run_simulation
from repro.network.stabilization import stabilization_round
from repro.semantics import active_strategy_names, build_algorithm


class TestSimulationConfig:
    def test_defaults(self):
        config = SimulationConfig()
        assert config.max_rounds == 1000
        assert config.record_states is False

    def test_rejects_bad_max_rounds(self):
        with pytest.raises(SimulationError):
            SimulationConfig(max_rounds=0)

    def test_rejects_bad_agreement_window(self):
        with pytest.raises(SimulationError):
            SimulationConfig(stop_after_agreement=0)


class TestRunRound:
    def test_trivial_counter_advances(self):
        counter = TrivialCounter(c=5)
        new_states = run_round(counter, {0: 3}, NoAdversary(), 0, rng=None)
        assert new_states == {0: 4}

    def test_faulty_senders_replaced_by_adversary(self):
        counter = NaiveMajorityCounter(n=4, c=4, claimed_resilience=1)

        class RecordingAdversary(CrashAdversary):
            def __init__(self):
                super().__init__([3])
                self.calls = []

            def forge(self, round_index, sender, receiver, states, algorithm, rng):
                self.calls.append((sender, receiver))
                return 3

        adversary = RecordingAdversary()
        import random

        run_round(counter, {0: 0, 1: 0, 2: 0}, adversary, 0, rng=random.Random(0))
        # One forged message per (faulty sender, correct receiver) pair.
        assert sorted(adversary.calls) == [(3, 0), (3, 1), (3, 2)]

    def test_each_message_is_coerced_once_where_it_arrives(self):
        # A(12, 3) with 3 faulty nodes: the 9 correct states are read once
        # per round (they are shared by every receiver), and each of the
        # 9 x 3 forged messages once for its receiver — 36 top-level
        # coercions, none repeated inside the transition.  The same holds
        # for the block counters the votes read: 36 top-level
        # ``inner.output`` calls, not one per sender per receiver (108).
        import random

        counter = build_algorithm("figure2", levels=1, c=2)
        calls = []
        reads = []
        coerce = counter.coerce_message
        inner_output = counter.inner.output

        def counting(message):
            calls.append(message)
            return coerce(message)

        def counting_output(node, state):
            reads.append(node)
            return inner_output(node, state)

        counter.coerce_message = counting
        counter.inner.output = counting_output
        rng = random.Random(3)
        faulty = [0, 5, 10]
        states = {
            node: counter.random_state(rng) for node in range(counter.n) if node not in faulty
        }
        adversary = build_adversary("random-state", faulty)
        new_states = run_round(counter, states, adversary, 0, rng=rng)
        assert len(calls) == 9 + 9 * 3
        assert len(reads) == 9 + 9 * 3
        assert all(counter.is_valid_state(state) for state in new_states.values())


def reference_round(algorithm, states, adversary, round_index, rng):
    """One broadcast round built receiver by receiver: each receiver's whole
    vector is formed from scratch (every faulty sender's entry forged for it,
    senders ascending), every message is read as a state, and ``next_state``
    runs on the result."""
    adversary.on_round_start(round_index, states, algorithm, rng)
    coerce = algorithm.coerce_message
    new_states = {}
    for receiver in states:
        messages = [
            coerce(
                adversary.forge(round_index, sender, receiver, states, algorithm, rng)
                if sender in adversary.faulty
                else states[sender]
            )
            for sender in range(algorithm.n)
        ]
        new_states[receiver] = algorithm.next_state(receiver, messages)
    return new_states


class TestRoundLevelTransition:
    """``run_round``'s one ``next_states`` call replays the per-receiver loop."""

    @pytest.mark.parametrize("strategy", active_strategy_names())
    @pytest.mark.parametrize(
        "name, params, faulty",
        [("figure2", {"levels": 1}, [0, 5, 10]), ("corollary1", {"f": 1, "c": 2}, [1])],
    )
    def test_trace_matches_per_receiver_reference(
        self, monkeypatch, name, params, faulty, strategy
    ):
        algorithm = build_algorithm(name, **params)
        config = SimulationConfig(max_rounds=60, seed=5, record_states=True)
        live = run_simulation(algorithm, build_adversary(strategy, faulty), config)
        monkeypatch.setattr(simulator, "run_round", reference_round)
        reference = run_simulation(algorithm, build_adversary(strategy, faulty), config)
        assert [record.states for record in live.rounds] == [
            record.states for record in reference.rounds
        ]
        assert live.output_rows() == reference.output_rows()


class TestRunSimulation:
    def test_records_requested_rounds(self):
        counter = TrivialCounter(c=4)
        trace = run_simulation(counter, config=SimulationConfig(max_rounds=7, seed=0))
        assert trace.num_rounds == 7

    def test_trivial_counter_counts_from_any_start(self):
        counter = TrivialCounter(c=4)
        trace = run_simulation(
            counter,
            config=SimulationConfig(max_rounds=10, seed=3),
            initial_states=[2],
        )
        assert trace.output_series(0) == [(3 + i) % 4 for i in range(10)]

    def test_same_seed_same_trace(self):
        counter = NaiveMajorityCounter(n=4, c=3, claimed_resilience=1)
        adversary = RandomStateAdversary(frozenset({1}))
        config = SimulationConfig(max_rounds=20, seed=11)
        first = run_simulation(counter, adversary=adversary, config=config)
        second = run_simulation(counter, adversary=adversary, config=config)
        assert first.output_rows() == second.output_rows()

    def test_different_seed_changes_initial_states(self):
        counter = NaiveMajorityCounter(n=6, c=10)
        one = run_simulation(counter, config=SimulationConfig(max_rounds=1, seed=1))
        two = run_simulation(counter, config=SimulationConfig(max_rounds=1, seed=2))
        assert one.initial_outputs != two.initial_outputs

    def test_faulty_nodes_absent_from_outputs(self):
        counter = NaiveMajorityCounter(n=4, c=3, claimed_resilience=1)
        trace = run_simulation(
            counter,
            adversary=CrashAdversary(frozenset({2})),
            config=SimulationConfig(max_rounds=5, seed=0),
        )
        assert set(trace.rounds[0].outputs) == {0, 1, 3}

    def test_early_stop_on_agreement(self):
        counter = TrivialCounter(c=4)
        trace = run_simulation(
            counter,
            config=SimulationConfig(max_rounds=500, stop_after_agreement=5, seed=0),
        )
        assert trace.num_rounds <= 10
        assert trace.metadata.get("stopped_early") is True

    def test_record_states(self):
        counter = TrivialCounter(c=4)
        trace = run_simulation(
            counter, config=SimulationConfig(max_rounds=3, seed=0, record_states=True)
        )
        assert trace.rounds[0].states is not None

    def test_states_not_recorded_by_default(self):
        counter = TrivialCounter(c=4)
        trace = run_simulation(counter, config=SimulationConfig(max_rounds=3, seed=0))
        assert trace.rounds[0].states is None

    def test_rejects_adversary_exceeding_resilience(self):
        counter = TrivialCounter(c=4)
        with pytest.raises(SimulationError):
            run_simulation(counter, adversary=CrashAdversary([0]))

    def test_initial_states_mapping(self):
        counter = NaiveMajorityCounter(n=3, c=5)
        trace = run_simulation(
            counter,
            config=SimulationConfig(max_rounds=1, seed=0),
            initial_states={0: 1, 1: 1, 2: 1},
        )
        assert trace.initial_outputs == {0: 1, 1: 1, 2: 1}

    def test_initial_states_mapping_missing_node_rejected(self):
        counter = NaiveMajorityCounter(n=3, c=5)
        with pytest.raises(SimulationError):
            run_simulation(
                counter,
                config=SimulationConfig(max_rounds=1, seed=0),
                initial_states={0: 1},
            )

    def test_initial_states_wrong_length_rejected(self):
        counter = NaiveMajorityCounter(n=3, c=5)
        with pytest.raises(SimulationError):
            run_simulation(
                counter,
                config=SimulationConfig(max_rounds=1, seed=0),
                initial_states=[1, 1],
            )

    def test_initial_states_invalid_state_rejected(self):
        counter = NaiveMajorityCounter(n=3, c=5)
        with pytest.raises(SimulationError):
            run_simulation(
                counter,
                config=SimulationConfig(max_rounds=1, seed=0),
                initial_states=[1, 99, 1],
            )

    def test_naive_counter_stabilizes_without_faults(self):
        counter = NaiveMajorityCounter(n=5, c=3)
        trace = run_simulation(counter, config=SimulationConfig(max_rounds=20, seed=4))
        assert stabilization_round(trace, min_tail=5).stabilized

    def test_config_metadata_merged_into_trace(self):
        counter = TrivialCounter(c=4)
        trace = run_simulation(
            counter,
            config=SimulationConfig(
                max_rounds=2, seed=0, metadata={"campaign": "demo", "run_id": "r7"}
            ),
        )
        assert trace.metadata["campaign"] == "demo"
        assert trace.metadata["run_id"] == "r7"
        # Simulator-owned keys are still present and win on collision.
        assert trace.metadata["seed"] == 0
        assert trace.metadata["max_rounds"] == 2

    def test_config_metadata_cannot_clobber_simulator_keys(self):
        counter = TrivialCounter(c=4)
        trace = run_simulation(
            counter,
            config=SimulationConfig(max_rounds=3, seed=5, metadata={"seed": "bogus"}),
        )
        assert trace.metadata["seed"] == 5

    def test_metadata_mentions_adversary(self):
        counter = NaiveMajorityCounter(n=4, c=3, claimed_resilience=1)
        trace = run_simulation(
            counter,
            adversary=RandomStateAdversary([3]),
            config=SimulationConfig(max_rounds=2, seed=0),
        )
        assert trace.metadata["adversary"]["strategy"] == "RandomStateAdversary"
        assert trace.faulty == frozenset({3})


class _CaptureAlgorithm(NaiveMajorityCounter):
    """Stores the received message vector as the new state (for fast-path tests)."""

    def next_state(self, node, states):
        return tuple(states)

    def is_valid_state(self, state):
        return True

    def coerce_message(self, message):
        return message

    def output(self, node, state):
        return 0


class TestRunRoundFastPath:
    """The shared-message-vector optimisation must be observationally identical
    to building the vector from scratch for every receiver."""

    def test_per_receiver_forgeries_patch_only_faulty_entries(self):
        import random

        capture = _CaptureAlgorithm(n=4, c=2, claimed_resilience=1)

        class PerReceiverAdversary(CrashAdversary):
            def forge(self, round_index, sender, receiver, states, algorithm, rng):
                return f"forged-for-{receiver}"

        new_states = run_round(
            capture,
            {0: "s0", 2: "s2", 3: "s3"},
            PerReceiverAdversary([1]),
            0,
            rng=random.Random(0),
        )
        assert new_states[0] == ("s0", "forged-for-0", "s2", "s3")
        assert new_states[2] == ("s0", "forged-for-2", "s2", "s3")
        assert new_states[3] == ("s0", "forged-for-3", "s2", "s3")

    def test_fault_free_shared_vector_matches_states(self):
        capture = _CaptureAlgorithm(n=3, c=2)
        new_states = run_round(capture, {0: "a", 1: "b", 2: "c"}, NoAdversary(), 0, None)
        assert new_states == {
            0: ("a", "b", "c"),
            1: ("a", "b", "c"),
            2: ("a", "b", "c"),
        }

    def test_fast_path_preserves_rng_stream(self):
        # The refactored loop must consume adversary randomness in the same
        # order as the original per-receiver reconstruction, so seeded runs
        # stay bit-for-bit reproducible across versions.  The golden sequence
        # below was recorded with the pre-refactor run_round (per-receiver
        # rebuild over all senders): receivers in states order, and for each
        # receiver the faulty senders in ascending order, drawing from one
        # shared RNG.
        import random

        golden = [
            (0, 2, 0, 3), (0, 5, 0, 3), (0, 2, 1, 1), (0, 5, 1, 4),
            (0, 2, 3, 1), (0, 5, 3, 1), (0, 2, 4, 1), (0, 5, 4, 1),
            (0, 2, 6, 0), (0, 5, 6, 2), (1, 2, 0, 5), (1, 5, 0, 3),
            (1, 2, 1, 4), (1, 5, 1, 5), (1, 2, 3, 5), (1, 5, 3, 4),
            (1, 2, 4, 0), (1, 5, 4, 4), (1, 2, 6, 3), (1, 5, 6, 1),
        ]

        class Recording(RandomStateAdversary):
            def __init__(self, faulty):
                super().__init__(faulty)
                self.calls = []

            def forge(self, round_index, sender, receiver, states, algorithm, rng):
                value = super().forge(
                    round_index, sender, receiver, states, algorithm, rng
                )
                self.calls.append((round_index, sender, receiver, value))
                return value

        counter = NaiveMajorityCounter(n=7, c=6, claimed_resilience=2)
        adversary = Recording([2, 5])
        rng = random.Random(99)
        states = {0: 0, 1: 1, 3: 3, 4: 4, 6: 5}
        for round_index in range(2):
            states = run_round(counter, states, adversary, round_index, rng)
        assert adversary.calls == golden


class _FrozenCounter(NaiveMajorityCounter):
    """Outputs a constant value: agreement without counting."""

    def next_state(self, node, states):
        return states[node]


class TestStopAfterAgreementWraparound:
    def test_streak_counts_across_modulo_wraparound(self):
        # Starting from state c-2 = 1 the outputs run 2, 0, 1, 2 — the streak
        # must keep growing across the c-1 -> 0 step.
        counter = TrivialCounter(c=3)
        trace = run_simulation(
            counter,
            config=SimulationConfig(max_rounds=50, stop_after_agreement=4, seed=0),
            initial_states=[1],
        )
        assert trace.num_rounds == 4
        assert trace.metadata["agreement_streak"] == 4
        assert trace.output_series(0) == [2, 0, 1, 2]

    def test_streak_requires_increments_not_mere_agreement(self):
        # All nodes agree on a frozen value forever; without increments the
        # streak must never exceed 1, so the simulation runs to max_rounds.
        frozen = _FrozenCounter(n=3, c=3)
        trace = run_simulation(
            frozen,
            config=SimulationConfig(max_rounds=12, stop_after_agreement=2, seed=0),
            initial_states=[1, 1, 1],
        )
        assert trace.num_rounds == 12
        assert trace.metadata.get("stopped_early") is False
        assert set(trace.agreed_values()) == {1}

    def test_streak_resets_on_skipped_value(self):
        # A counter that jumps by 2 mod c agrees every round but never
        # produces consecutive increments, so early stopping never triggers.
        class SkippingCounter(NaiveMajorityCounter):
            def next_state(self, node, states):
                return (states[node] + 2) % self.c

        skipping = SkippingCounter(n=2, c=5)
        trace = run_simulation(
            skipping,
            config=SimulationConfig(max_rounds=15, stop_after_agreement=2, seed=0),
            initial_states=[0, 0],
        )
        assert trace.num_rounds == 15
        assert trace.metadata.get("stopped_early") is False

    def test_wraparound_streak_on_two_counter(self):
        # c = 2 alternates 0, 1, 0, 1 — every step is a wraparound increment.
        counter = TrivialCounter(c=2)
        trace = run_simulation(
            counter,
            config=SimulationConfig(max_rounds=40, stop_after_agreement=6, seed=0),
        )
        assert trace.num_rounds == 6
        assert trace.metadata["agreement_streak"] == 6
