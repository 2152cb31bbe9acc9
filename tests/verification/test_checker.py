"""Unit tests for the exhaustive model checker."""

from __future__ import annotations

from typing import Any, Iterator, Sequence

import pytest

from repro.core.algorithm import AlgorithmInfo, State, SynchronousCountingAlgorithm
from repro.counters.naive import NaiveMajorityCounter
from repro.counters.trivial import TrivialCounter
from repro.util.rng import ensure_rng
from repro.verification.checker import verify_counter


class FrozenCounter(SynchronousCountingAlgorithm):
    """A broken 'counter' that never changes its state (never counts)."""

    def __init__(self, c: int = 2) -> None:
        super().__init__(n=1, f=0, c=c, info=AlgorithmInfo(name="Frozen"))

    def num_states(self) -> int:
        return self.c

    def states(self) -> Iterator[int]:
        return iter(range(self.c))

    def random_state(self, rng: Any = None) -> int:
        return ensure_rng(rng).randrange(self.c)

    def next_state(self, node: int, states: Sequence[State]) -> int:
        return states[node]

    def output(self, node: int, state: State) -> int:
        return int(state)


class TestTrivialCounter:
    def test_is_certified(self):
        report = verify_counter(TrivialCounter(c=3))
        assert report.is_synchronous_counter
        assert report.stabilization_time == 0

    def test_single_fault_pattern_checked(self):
        report = verify_counter(TrivialCounter(c=3))
        assert len(report.patterns) == 1
        assert report.patterns[0].faulty == frozenset()
        assert report.patterns[0].good_configurations == 3
        assert report.patterns[0].total_configurations == 3


class TestBrokenCounters:
    def test_frozen_counter_rejected(self):
        report = verify_counter(FrozenCounter())
        assert not report.is_synchronous_counter
        assert report.stabilization_time is None
        assert report.failing_patterns()

    def test_naive_counter_fails_with_one_byzantine_node(self):
        counter = NaiveMajorityCounter(n=5, c=2, claimed_resilience=1)
        report = verify_counter(counter, max_faults=1)
        # Fault-free pattern is fine ...
        fault_free = [p for p in report.patterns if not p.faulty]
        assert all(p.stabilizes for p in fault_free)
        # ... but some single-fault pattern admits an execution that never stabilises.
        assert not report.is_synchronous_counter
        failing = report.failing_patterns()
        assert failing
        assert all(len(p.faulty) == 1 for p in failing)
        assert failing[0].counterexample is not None

    def test_naive_counter_passes_fault_free(self):
        counter = NaiveMajorityCounter(n=5, c=2)
        report = verify_counter(counter, max_faults=0)
        assert report.is_synchronous_counter
        assert report.stabilization_time is not None
        assert report.stabilization_time <= 2

    def test_naive_counter_passes_fault_free_larger_counter(self):
        counter = NaiveMajorityCounter(n=3, c=4)
        report = verify_counter(counter, max_faults=0)
        assert report.is_synchronous_counter


class TestFaultPatternSelection:
    def test_explicit_patterns(self):
        counter = NaiveMajorityCounter(n=4, c=2, claimed_resilience=1)
        report = verify_counter(counter, fault_patterns=[(3,)])
        assert len(report.patterns) == 1
        assert report.patterns[0].faulty == frozenset({3})

    def test_enumerates_all_subsets_up_to_max(self):
        counter = NaiveMajorityCounter(n=4, c=2, claimed_resilience=1)
        report = verify_counter(counter, max_faults=1)
        # 1 empty pattern + 4 singletons
        assert len(report.patterns) == 5

    def test_rejects_negative_max_faults(self):
        from repro.core.errors import VerificationError

        with pytest.raises(VerificationError):
            verify_counter(TrivialCounter(c=2), max_faults=-1)
