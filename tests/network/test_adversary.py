"""Unit tests for the Byzantine adversary strategies and fault-pattern helpers."""

from __future__ import annotations

import random

import pytest

from repro.core.boosting import BoostedState
from repro.core.errors import SimulationError
from repro.core.phase_king import INFINITY
from repro.counters.trivial import TrivialCounter
from repro.counters.naive import NaiveMajorityCounter
from repro.network.adversary import (
    AdaptiveSplitAdversary,
    CrashAdversary,
    FixedStateAdversary,
    MimicAdversary,
    NoAdversary,
    PhaseKingSkewAdversary,
    RandomStateAdversary,
    SplitStateAdversary,
    build_adversary,
    block_concentrated_faults,
    random_faulty_set,
    spread_faults,
)


def forge_args(algorithm, states, seed=0):
    """Common keyword arguments for forge() calls in these tests."""
    return {
        "round_index": 0,
        "states": states,
        "algorithm": algorithm,
        "rng": random.Random(seed),
    }


class TestAdversaryBase:
    def test_faulty_set_exposed(self):
        adversary = CrashAdversary([1, 3])
        assert adversary.faulty == frozenset({1, 3})

    def test_validate_accepts_within_resilience(self):
        counter = NaiveMajorityCounter(n=4, c=2, claimed_resilience=1)
        CrashAdversary([2]).validate(counter)

    def test_validate_rejects_excess_faults(self):
        counter = NaiveMajorityCounter(n=4, c=2, claimed_resilience=1)
        with pytest.raises(SimulationError):
            CrashAdversary([1, 2]).validate(counter)

    def test_validate_rejects_out_of_range(self):
        counter = NaiveMajorityCounter(n=4, c=2, claimed_resilience=1)
        with pytest.raises(SimulationError):
            CrashAdversary([9]).validate(counter)

    def test_describe(self):
        description = RandomStateAdversary([2, 0]).describe()
        assert description["strategy"] == "RandomStateAdversary"
        assert description["faulty"] == [0, 2]

    def test_no_adversary_never_forges(self):
        counter = TrivialCounter(c=4)
        adversary = NoAdversary()
        assert adversary.faulty == frozenset()
        with pytest.raises(SimulationError):
            adversary.forge(0, 0, 0, {}, counter, random.Random(0))


class TestSimpleStrategies:
    def test_crash_sends_default_state(self):
        counter = NaiveMajorityCounter(n=4, c=5)
        adversary = CrashAdversary([3])
        forged = adversary.forge(sender=3, receiver=0, **forge_args(counter, {0: 1, 1: 2, 2: 3}))
        assert forged == counter.default_state()

    def test_crash_builds_the_default_state_once_per_round(self, monkeypatch):
        # figure2:levels=1 with faults [0, 5, 10]: 9 receivers times 3 faulty
        # senders forge 27 messages a round, all one default state.
        from repro.core.recursion import figure2_counter
        from repro.network.simulator import run_round

        counter = figure2_counter(levels=1, c=2)
        calls = []
        build = counter.default_state

        def counting_default_state():
            calls.append(1)
            return build()

        monkeypatch.setattr(counter, "default_state", counting_default_state)
        adversary = CrashAdversary([0, 5, 10])
        rng = random.Random(0)
        states = {
            node: counter.random_state(rng)
            for node in range(counter.n)
            if node not in adversary.faulty
        }
        for round_index in range(4):
            states = run_round(counter, states, adversary, round_index, rng)
            assert len(calls) == round_index + 1

    def test_fixed_state(self):
        counter = NaiveMajorityCounter(n=4, c=5)
        adversary = FixedStateAdversary([3], state=4)
        forged = adversary.forge(sender=3, receiver=1, **forge_args(counter, {0: 1}))
        assert forged == 4

    def test_random_state_is_valid(self):
        counter = NaiveMajorityCounter(n=4, c=5)
        adversary = RandomStateAdversary([3])
        for receiver in range(3):
            forged = adversary.forge(sender=3, receiver=receiver, **forge_args(counter, {0: 1}))
            assert counter.is_valid_state(forged)

    def test_split_state_differs_by_receiver_parity(self):
        counter = NaiveMajorityCounter(n=6, c=50)
        adversary = SplitStateAdversary([5])
        states = {i: i for i in range(5)}
        even = adversary.forge(sender=5, receiver=0, **forge_args(counter, states))
        even2 = adversary.forge(sender=5, receiver=2, **forge_args(counter, states))
        odd = adversary.forge(sender=5, receiver=1, **forge_args(counter, states))
        assert even == even2
        # With a 50-value state space the two halves almost surely differ.
        assert even != odd or counter.c < 3

    def test_mimic_replays_a_correct_state(self):
        counter = NaiveMajorityCounter(n=4, c=9)
        adversary = MimicAdversary([3])
        states = {0: 4, 1: 5, 2: 6}
        forged = adversary.forge(sender=3, receiver=1, **forge_args(counter, states))
        assert forged in states.values()

    def test_mimic_with_no_correct_nodes(self):
        counter = NaiveMajorityCounter(n=2, c=4)
        adversary = MimicAdversary([0, 1])
        forged = adversary.forge(sender=0, receiver=1, **forge_args(counter, {}))
        assert forged == counter.default_state()


class TestPhaseKingSkew:
    def test_skews_boosted_state(self, small_boosted_counter):
        counter = small_boosted_counter
        adversary = PhaseKingSkewAdversary([2])
        states = {
            0: BoostedState(inner=10, a=1, d=1),
            1: BoostedState(inner=20, a=1, d=1),
        }
        even = adversary.forge(sender=2, receiver=0, **forge_args(counter, states))
        odd = adversary.forge(sender=2, receiver=1, **forge_args(counter, states))
        assert isinstance(even, BoostedState)
        assert even.a != 1  # shifted value
        assert odd.a == INFINITY

    def test_falls_back_to_random_for_plain_states(self):
        counter = NaiveMajorityCounter(n=4, c=5)
        adversary = PhaseKingSkewAdversary([3])
        forged = adversary.forge(sender=3, receiver=0, **forge_args(counter, {0: 1, 1: 2, 2: 0}))
        assert counter.is_valid_state(forged)


class TestAdaptiveSplit:
    def test_shows_each_receiver_the_opposite_camp(self):
        counter = NaiveMajorityCounter(n=5, c=2, claimed_resilience=1)
        adversary = AdaptiveSplitAdversary([4])
        states = {0: 0, 1: 0, 2: 1, 3: 1}
        adversary.on_round_start(0, states, counter, random.Random(0))
        vote_for_camp0_receiver = adversary.forge(
            sender=4, receiver=0, **forge_args(counter, states)
        )
        vote_for_camp1_receiver = adversary.forge(
            sender=4, receiver=2, **forge_args(counter, states)
        )
        assert counter.output(4, vote_for_camp0_receiver) == 1
        assert counter.output(4, vote_for_camp1_receiver) == 0

    def test_decides_flat_states_once_per_round(self, monkeypatch):
        # figure2:levels=1 with faults [0, 5, 10]: most of the 27 forges a
        # round fabricate a boosted state, and whether the states are plain
        # ints is decided once per round, from one default state.
        from repro.core.recursion import figure2_counter
        from repro.network.simulator import run_round

        counter = figure2_counter(levels=1, c=2)
        calls = []
        build = counter.default_state

        def counting_default_state():
            calls.append(1)
            return build()

        monkeypatch.setattr(counter, "default_state", counting_default_state)
        adversary = AdaptiveSplitAdversary([0, 5, 10])
        fabricated = []
        fabricate = adversary._fabricate_state

        def counting_fabricate_state(*args):
            fabricated.append(1)
            return fabricate(*args)

        monkeypatch.setattr(adversary, "_fabricate_state", counting_fabricate_state)
        rng = random.Random(0)
        states = {
            node: counter.random_state(rng)
            for node in range(counter.n)
            if node not in adversary.faulty
        }
        for round_index in range(4):
            states = run_round(counter, states, adversary, round_index, rng)
            assert len(calls) <= round_index + 1
        assert len(fabricated) > 4

    @pytest.mark.parametrize("flat", (True, False))
    def test_forge_without_round_start_fabricates_the_target(self, flat):
        # No on_round_start: the camps stay (0, 1), so receiver 0 is shown
        # the camp its own output is not in; no state has that output, so
        # the uncached path fabricates one.
        from repro.core.recursion import figure2_counter

        counter = NaiveMajorityCounter(n=5, c=3, claimed_resilience=1) if flat else (
            figure2_counter(levels=1, c=3)
        )
        rng = random.Random(0)
        states = {0: counter.random_state(rng)}
        target = 1 if counter.output(0, states[0]) == 0 else 0
        forged = AdaptiveSplitAdversary([1]).forge(
            round_index=3, sender=1, receiver=0, states=states, algorithm=counter, rng=rng
        )
        assert counter.is_valid_state(forged)
        assert counter.output(1, forged) == target
        assert isinstance(forged, int) == flat

    def test_single_camp_still_produces_valid_state(self):
        counter = NaiveMajorityCounter(n=5, c=3, claimed_resilience=1)
        adversary = AdaptiveSplitAdversary([4])
        states = {0: 2, 1: 2, 2: 2, 3: 2}
        adversary.on_round_start(0, states, counter, random.Random(0))
        forged = adversary.forge(sender=4, receiver=0, **forge_args(counter, states))
        assert counter.is_valid_state(forged)


class LegacyMimicAdversary(MimicAdversary):
    """The pre-optimisation forge: re-sorts the states on every call."""

    def on_round_start(self, round_index, states, algorithm, rng):
        pass

    def forge(self, round_index, sender, receiver, states, algorithm, rng):
        correct = sorted(states)
        if not correct:
            return algorithm.default_state()
        victim = correct[(receiver + round_index) % len(correct)]
        return states[victim]


class LegacyPhaseKingSkewAdversary(PhaseKingSkewAdversary):
    """The pre-optimisation forge: re-sorts the states on every call."""

    def on_round_start(self, round_index, states, algorithm, rng):
        pass

    def forge(self, round_index, sender, receiver, states, algorithm, rng):
        correct = sorted(states)
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
            return BoostedState(inner=victim_state.inner, a=skewed_a, d=rng.randrange(2))
        return algorithm.random_state(rng)


class LegacyAdaptiveSplitAdversary(AdaptiveSplitAdversary):
    """The pre-optimisation version: per-forge output scan, no caches."""

    def on_round_start(self, round_index, states, algorithm, rng):
        outputs = [
            algorithm.output(node, state) for node, state in sorted(states.items())
        ]
        from collections import Counter

        counts = Counter(outputs).most_common(2)
        if len(counts) >= 2:
            self._camps = (counts[0][0], counts[1][0])
        elif counts:
            value = counts[0][0]
            self._camps = (value, (value + 1) % algorithm.c)
        else:
            self._camps = (0, 1 % algorithm.c)

    def forge(self, round_index, sender, receiver, states, algorithm, rng):
        receiver_state = states.get(receiver)
        if receiver_state is None:
            target = self._camps[receiver % 2]
        else:
            receiver_output = algorithm.output(receiver, receiver_state)
            target = (
                self._camps[1] if receiver_output == self._camps[0] else self._camps[0]
            )
        for node, state in states.items():
            if algorithm.output(node, state) == target:
                return state
        if isinstance(algorithm.default_state(), int):
            return target
        candidate = algorithm.random_state(rng)
        if isinstance(candidate, BoostedState):
            return BoostedState(inner=candidate.inner, a=target % algorithm.c, d=1)
        return candidate


class TestHotPathCachingEquivalence:
    """The per-round caches must not change any forged message or RNG draw.

    Full fixed-seed simulations with the optimised adversaries must produce
    traces identical to the pre-optimisation implementations above.
    """

    @pytest.mark.parametrize("seed", (0, 1, 2, 3, 4))
    @pytest.mark.parametrize(
        "optimized_cls, legacy_cls",
        [
            (MimicAdversary, LegacyMimicAdversary),
            (PhaseKingSkewAdversary, LegacyPhaseKingSkewAdversary),
            (AdaptiveSplitAdversary, LegacyAdaptiveSplitAdversary),
        ],
    )
    def test_simulation_traces_identical(self, seed, optimized_cls, legacy_cls):
        from repro.network.simulator import SimulationConfig, run_simulation

        counter = NaiveMajorityCounter(n=7, c=4, claimed_resilience=2)
        config = SimulationConfig(max_rounds=30, record_states=True, seed=seed)
        optimized = run_simulation(counter, adversary=optimized_cls([2, 5]), config=config)
        legacy = run_simulation(counter, adversary=legacy_cls([2, 5]), config=config)
        assert optimized.rounds == legacy.rounds

    @pytest.mark.parametrize("seed", (0, 1))
    @pytest.mark.parametrize(
        "optimized_cls, legacy_cls",
        [
            (PhaseKingSkewAdversary, LegacyPhaseKingSkewAdversary),
            (AdaptiveSplitAdversary, LegacyAdaptiveSplitAdversary),
        ],
    )
    def test_boosted_state_traces_identical(self, seed, optimized_cls, legacy_cls):
        # BoostedState messages exercise the skew and fabrication branches.
        from repro.core.recursion import figure2_counter
        from repro.network.simulator import SimulationConfig, run_simulation

        counter = figure2_counter(levels=1, c=2)
        config = SimulationConfig(max_rounds=25, seed=seed)
        optimized = run_simulation(counter, adversary=optimized_cls([1, 6, 9]), config=config)
        legacy = run_simulation(counter, adversary=legacy_cls([1, 6, 9]), config=config)
        assert optimized.rounds == legacy.rounds

    def test_forge_without_round_start_falls_back(self):
        # Direct forge() calls (no on_round_start) must still work: the cache
        # is keyed by round index and recomputes on mismatch.
        counter = NaiveMajorityCounter(n=4, c=9)
        adversary = MimicAdversary([3])
        states = {0: 4, 1: 5, 2: 6}
        forged = adversary.forge(
            round_index=7, sender=3, receiver=1, states=states,
            algorithm=counter, rng=random.Random(0),
        )
        assert forged in states.values()

    def test_stale_cache_not_used_for_other_round(self):
        counter = NaiveMajorityCounter(n=5, c=4, claimed_resilience=1)
        adversary = MimicAdversary([4])
        first = {0: 0, 1: 1, 2: 2, 3: 3}
        adversary.on_round_start(0, first, counter, random.Random(0))
        # A forge for a different round must not reuse round 0's node list.
        later = {0: 0, 2: 2, 3: 3}
        forged = adversary.forge(
            round_index=5, sender=4, receiver=0, states=later,
            algorithm=counter, rng=random.Random(0),
        )
        assert forged in later.values()


class TestBuildAdversary:
    def test_none_returns_no_adversary(self):
        assert isinstance(build_adversary("none"), NoAdversary)

    def test_none_rejects_faulty_nodes(self):
        with pytest.raises(SimulationError):
            build_adversary("none", [1])

    def test_builds_registered_strategy(self):
        adversary = build_adversary("crash", [2, 4])
        assert isinstance(adversary, CrashAdversary)
        assert adversary.faulty == frozenset({2, 4})

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SimulationError, match="unknown adversary strategy"):
            build_adversary("does-not-exist", [1])

    def test_active_strategy_with_empty_faulty_set_rejected(self):
        # Accepting it would make the run silently equivalent to 'none'.
        for strategy in ("crash", "random-state", "adaptive-split"):
            with pytest.raises(SimulationError, match=strategy):
                build_adversary(strategy)


class TestFaultPatterns:
    def test_random_faulty_set_size_and_range(self):
        faulty = random_faulty_set(10, 3, rng=1)
        assert len(faulty) == 3
        assert all(0 <= node < 10 for node in faulty)

    def test_random_faulty_set_reproducible(self):
        assert random_faulty_set(10, 3, rng=5) == random_faulty_set(10, 3, rng=5)

    def test_random_faulty_set_rejects_bad_count(self):
        with pytest.raises(SimulationError):
            random_faulty_set(4, 5)

    def test_block_concentrated_faults(self):
        faulty = block_concentrated_faults(block_size=4, blocks=[1], per_block=2)
        assert faulty == frozenset({4, 5})

    def test_block_concentrated_multiple_blocks(self):
        faulty = block_concentrated_faults(block_size=3, blocks=[0, 2], per_block=1)
        assert faulty == frozenset({0, 6})

    def test_block_concentrated_rejects_bad_per_block(self):
        with pytest.raises(SimulationError):
            block_concentrated_faults(block_size=3, blocks=[0], per_block=4)

    def test_spread_faults(self):
        faulty = spread_faults(12, 3)
        assert len(faulty) == 3
        assert all(0 <= node < 12 for node in faulty)

    def test_spread_faults_zero(self):
        assert spread_faults(12, 0) == frozenset()

    def test_spread_faults_rejects_excess(self):
        with pytest.raises(SimulationError):
            spread_faults(3, 4)
