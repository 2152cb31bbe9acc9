"""Unit tests for the sampled boosted counter (Theorem 4)."""

from __future__ import annotations

import random

import pytest

from repro.core.boosting import BoostedState
from repro.core.errors import ParameterError
from repro.core.parameters import BoostingParameters
from repro.core.phase_king import INFINITY
from repro.counters.naive import NaiveMajorityCounter
from repro.counters.trivial import TrivialCounter
from repro.network.adversary import NoAdversary, RandomStateAdversary
from repro.network.pulling import PullSimulationConfig, run_pull_simulation
from repro.network.stabilization import stabilization_round
from repro.sampling.pull_boosting import SampledBoostedCounter


def make_counter(sample_size: int = 3, counter_size: int = 2) -> SampledBoostedCounter:
    """k = 4 single-node blocks, F = 1 — the smallest sampled instance with resilience."""
    inner = TrivialCounter(c=3 * 3 * 4**4)
    return SampledBoostedCounter(
        inner=inner, k=4, counter_size=counter_size, resilience=1, sample_size=sample_size
    )


def make_large_counter(sample_size: int = 16) -> SampledBoostedCounter:
    """k = 4 blocks of an inner A(4,1): N = 16, F = 3.

    A single injected fault is then only 1/16 of the network, which gives the
    sampled thresholds of Lemma 8 a realistic margin at laptop scale.
    """
    from repro.core.recursion import optimal_resilience_counter

    inner = optimal_resilience_counter(f=1, c=3 * 5 * 4**4)
    return SampledBoostedCounter(
        inner=inner, k=4, counter_size=2, resilience=3, sample_size=sample_size
    )


class TestConstruction:
    def test_parameters(self):
        counter = make_counter()
        assert (counter.n, counter.f, counter.c) == (4, 1, 2)
        assert counter.sample_size == 3
        assert not counter.info.deterministic

    def test_pulls_per_round_formula(self):
        counter = make_counter(sample_size=3)
        # n + k*M + M + (F+2) = 1 + 12 + 3 + 3
        assert counter.expected_pulls_per_round() == 19

    def test_space_matches_deterministic_construction(self):
        counter = make_counter()
        assert counter.state_bits() == counter.inner.state_bits() + 2 + 1

    def test_stabilization_bound(self):
        counter = make_counter()
        assert counter.stabilization_bound() == 3 * 3 * 4**4

    def test_requires_counter_multiple(self):
        with pytest.raises(ParameterError):
            SampledBoostedCounter(
                inner=TrivialCounter(c=100), k=4, counter_size=2, sample_size=2
            )

    def test_rejects_bad_sample_size(self):
        inner = TrivialCounter(c=3 * 3 * 4**4)
        with pytest.raises(ParameterError):
            SampledBoostedCounter(inner=inner, k=4, counter_size=2, sample_size=0)

    def test_default_sample_size_is_positive(self):
        inner = TrivialCounter(c=3 * 3 * 4**4)
        counter = SampledBoostedCounter(inner=inner, k=4, counter_size=2)
        assert counter.sample_size >= 1


class TestSamplingPlan:
    def test_plan_layout(self):
        counter = make_counter(sample_size=3)
        rng = random.Random(0)
        targets = counter.pull_targets(1, counter.random_state(0), rng)
        assert len(targets) == counter.expected_pulls_per_round()
        # First segment: the node's own block (block 1 = node 1 for single-node blocks).
        assert targets[: counter.inner.n] == [1]
        # Per-block samples stay within their block.
        M = counter.sample_size
        offset = counter.inner.n
        for block in range(4):
            segment = targets[offset : offset + M]
            assert all(t // counter.inner.n == block for t in segment)
            offset += M
        # Phase king samples are arbitrary nodes; kings are nodes 0..F+1.
        assert targets[-(counter.f + 2):] == [0, 1, 2]

    @pytest.mark.parametrize("k", (3, 4))
    @pytest.mark.parametrize("n", range(1, 10))
    def test_plan_draws_what_randrange_draws(self, n, k):
        # Block sizes 1-9 with k = 3 and 4 cover bounds that are powers of
        # two (n = 1, 2, 4, 8; N = 4, 8, 16, 32) and bounds that are not.
        params = BoostingParameters.for_inner(inner_n=n, inner_f=0, k=k, counter_size=2)
        inner = NaiveMajorityCounter(n=n, c=params.minimal_inner_counter())
        counter = SampledBoostedCounter(inner=inner, k=k, counter_size=2, sample_size=5)
        M, N = counter.sample_size, counter.n
        for seed in range(10):
            for node in range(N):
                rng, reference = random.Random(seed), random.Random(seed)
                plan = counter._sample_plan(node, rng)
                start = node - node % n
                expected = list(range(start, start + n))
                for block in range(k):
                    expected.extend(block * n + reference.randrange(n) for _ in range(M))
                expected.extend(reference.randrange(N) for _ in range(M))
                expected.extend(range(counter.f + 2))
                assert plan == expected
                # The stream is left where the randrange loop leaves it.
                assert rng.getrandbits(32) == reference.getrandbits(32)

    def test_plan_is_random_per_call(self):
        counter = make_counter(sample_size=4)
        rng = random.Random(0)
        state = counter.random_state(0)
        first = counter.pull_targets(0, state, rng)
        second = counter.pull_targets(0, state, rng)
        assert first != second  # fresh randomness each round (Theorem 4 variant)


class TestStatesAndOutput:
    def test_random_state_valid_boosted_state(self):
        counter = make_counter()
        state = counter.random_state(0)
        assert isinstance(state, BoostedState)

    def test_coerce_garbage(self):
        counter = make_counter()
        coerced = counter.coerce_message("junk")
        assert isinstance(coerced, BoostedState)
        assert coerced.a == INFINITY

    def test_output(self):
        counter = make_counter()
        assert counter.output(0, BoostedState(inner=0, a=1, d=1)) == 1
        assert counter.output(0, "junk") == 0


class TestTransition:
    def test_rejects_misaligned_responses(self):
        counter = make_counter()
        with pytest.raises(ParameterError):
            counter.transition(0, counter.random_state(0), [0, 1], [counter.random_state(0)], random.Random(0))

    def test_next_state_reads_its_block_from_the_responses(self):
        # The own registers come from ``state``; the inner update reads the
        # whole own block, the node itself included, from the responses.
        counter = make_large_counter(sample_size=3)
        rng = random.Random(8)
        node, n = 6, counter.inner.n
        state = counter.random_state(rng)
        targets = counter.pull_targets(node, state, rng)
        responses = [counter.random_state(rng) for _ in targets]
        assert responses[node % n] != state
        new_state = counter.next_state(node, state, targets, responses, rng)
        assert new_state.inner == counter.inner.next_state(
            node % n, [response.inner for response in responses[:n]]
        )

    def test_agreement_persists_with_clean_samples(self):
        """Lemma 5 analogue: agreed registers keep counting when samples are clean."""
        counter = make_counter(sample_size=5, counter_size=4)
        rng = random.Random(1)
        states = {v: BoostedState(inner=0, a=2, d=1) for v in range(counter.n)}
        expected = 2
        for _ in range(6):
            new_states = {}
            for v in range(counter.n):
                targets = counter.pull_targets(v, states[v], rng)
                responses = [states[t] for t in targets]
                new_states[v] = counter.transition(v, states[v], targets, responses, rng)
            states = new_states
            expected = (expected + 1) % counter.c
            assert all(state.a == expected for state in states.values())

    def test_stabilizes_fault_free(self):
        counter = make_counter(sample_size=4)
        trace = run_pull_simulation(
            counter,
            adversary=NoAdversary(),
            config=PullSimulationConfig(max_rounds=300, stop_after_agreement=20, seed=2),
        )
        assert stabilization_round(trace, min_tail=10).stabilized

    def test_stabilizes_with_single_fault_and_large_samples(self):
        """Theorem 4 behaviour at a fault fraction the sampling margins can absorb."""
        counter = make_large_counter(sample_size=16)
        trace = run_pull_simulation(
            counter,
            adversary=RandomStateAdversary(frozenset({5})),
            config=PullSimulationConfig(max_rounds=250, stop_after_agreement=25, seed=4),
        )
        assert stabilization_round(trace, min_tail=10).stabilized
