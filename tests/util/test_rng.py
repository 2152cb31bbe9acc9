"""Unit tests for repro.util.rng."""

from __future__ import annotations

import random

import pytest

from repro.core.boosting import BoostedState, BoostedStructure
from repro.core.phase_king import INFINITY
from repro.network.adversary import PhaseKingSkewAdversary
from repro.semantics import build_algorithm
from repro.util.rng import (
    derivation_base,
    derive_rng,
    derive_rng_from_base,
    ensure_rng,
    randbelow,
    sample_without_replacement,
    spawn_rngs,
)
from repro.verification.synthesis import SymmetricTableCounter


class TestEnsureRng:
    def test_passthrough(self):
        rng = random.Random(1)
        assert ensure_rng(rng) is rng

    def test_from_seed_is_deterministic(self):
        assert ensure_rng(7).random() == ensure_rng(7).random()

    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), random.Random)

    def test_rejects_strings(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")  # type: ignore[arg-type]


class TestDeriveRng:
    def test_same_labels_same_stream(self):
        a = derive_rng(42, "adversary", 3)
        b = derive_rng(42, "adversary", 3)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_labels_differ(self):
        a = derive_rng(42, "adversary", 3)
        b = derive_rng(42, "adversary", 4)
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_different_base_seed_differs(self):
        a = derive_rng(1, "x")
        b = derive_rng(2, "x")
        assert a.random() != b.random()

    def test_drawn_base_gives_the_same_stream(self):
        base = derivation_base(42)
        assert base == derivation_base(42)
        for labels in [(), ("adversary",), ("campaign", "trivial(c=3)", "crash", 1, 7)]:
            a = derive_rng(42, *labels)
            b = derive_rng_from_base(base, *labels)
            assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_reproducible(self):
        first = [rng.random() for rng in spawn_rngs(3, 4)]
        second = [rng.random() for rng in spawn_rngs(3, 4)]
        assert first == second

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)


class TestSampleWithoutReplacement:
    def test_subset(self):
        result = sample_without_replacement(random.Random(0), range(10), 4)
        assert len(result) == 4
        assert len(set(result)) == 4

    def test_whole_population_when_k_too_large(self):
        result = sample_without_replacement(random.Random(0), range(3), 10)
        assert sorted(result) == [0, 1, 2]


class TestRandbelow:
    """Draws at the cost of their bits give what ``randrange`` and ``choice``
    give, and leave the stream where they leave it."""

    @pytest.mark.parametrize("bound", [1, 2, 3, 4, 5, 7, 8, 9, 960, 2304, 2305])
    def test_draws_what_randrange_draws(self, bound):
        rng, reference = random.Random(bound), random.Random(bound)
        assert [randbelow(rng, bound) for _ in range(200)] == [
            reference.randrange(bound) for _ in range(200)
        ]
        assert rng.getrandbits(32) == reference.getrandbits(32)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_algorithm("trivial", c=5),
            lambda: build_algorithm("naive-majority", n=4, c=4, claimed_resilience=1),
            lambda: build_algorithm("randomized-follow-majority", n=4, f=1, c=3),
            lambda: SymmetricTableCounter(n=1, c=6, table={}),
            lambda: build_algorithm("corollary1", f=1, c=2),
            lambda: build_algorithm("figure2", levels=1, c=3),
            lambda: build_algorithm("sampled-boosted", sample_size=2),
            lambda: build_algorithm("pseudo-random-boosted", sample_size=3),
        ],
        ids=[
            "trivial",
            "naive-majority",
            "randomized-follow-majority",
            "symmetric-table",
            "corollary1",
            "figure2",
            "sampled-boosted",
            "pseudo-random-boosted",
        ],
    )
    def test_random_state_draws_what_randrange_draws(self, build):
        algorithm = build()

        def reference_state(algorithm, rng):
            # The randrange / choice calls random_state made before.
            if isinstance(algorithm, BoostedStructure):
                inner = reference_state(algorithm.inner, rng)
                a = rng.choice((*range(algorithm.c), INFINITY))
                return BoostedState(inner, a, rng.randrange(2))
            return rng.randrange(algorithm.c)

        for seed in range(20):
            rng, reference = random.Random(seed), random.Random(seed)
            assert [algorithm.random_state(rng) for _ in range(10)] == [
                reference_state(algorithm, reference) for _ in range(10)
            ]
            assert rng.getrandbits(32) == reference.getrandbits(32)

    def test_boosted_skew_forge_leaves_the_stream_and_changes_only_a(self):
        algorithm = build_algorithm("figure2", levels=1, c=2)
        faulty = [0, 5, 10]
        states = {
            node: algorithm.random_state(random.Random(node))
            for node in range(algorithm.n)
            if node not in faulty
        }
        correct = sorted(states)
        adversary = PhaseKingSkewAdversary(faulty)
        for seed in range(10):
            rng = random.Random(seed)
            before = rng.getstate()
            for receiver in range(algorithm.n):
                victim = states[correct[receiver % len(correct)]]
                if receiver % 2:
                    a = INFINITY
                else:
                    a = 0 if victim.a == INFINITY else (victim.a + 1) % algorithm.c
                forged = adversary.forge(3, 0, receiver, states, algorithm, rng)
                assert forged == victim._replace(a=a)
                assert type(forged) is BoostedState
            assert rng.getstate() == before
