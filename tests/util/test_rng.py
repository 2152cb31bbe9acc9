"""Unit tests for repro.util.rng."""

from __future__ import annotations

import random

import pytest

from repro.util.rng import (
    derivation_base,
    derive_rng,
    derive_rng_from_base,
    ensure_rng,
    sample_without_replacement,
    spawn_rngs,
)


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
