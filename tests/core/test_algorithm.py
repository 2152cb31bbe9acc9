"""Unit tests for the algorithm abstraction (repro.core.algorithm)."""

from __future__ import annotations

import pytest

from repro.core.algorithm import (
    AlgorithmInfo,
    SynchronousCountingAlgorithm,
    check_counting_parameters,
    iter_message_vectors,
)
from repro.core.errors import ParameterError
from repro.counters.trivial import TrivialCounter


class TestCheckCountingParameters:
    def test_valid(self):
        check_counting_parameters(4, 1, 2)
        check_counting_parameters(1, 0, 2)
        check_counting_parameters(10, 3, 5)

    def test_rejects_f_geq_n_over_3(self):
        with pytest.raises(ParameterError):
            check_counting_parameters(3, 1, 2)
        with pytest.raises(ParameterError):
            check_counting_parameters(9, 3, 2)

    def test_rejects_bad_counter(self):
        with pytest.raises(ParameterError):
            check_counting_parameters(4, 1, 1)

    def test_rejects_bad_n(self):
        with pytest.raises(ParameterError):
            check_counting_parameters(0, 0, 2)

    def test_rejects_negative_f(self):
        with pytest.raises(ParameterError):
            check_counting_parameters(4, -1, 2)


class TestAlgorithmInfo:
    def test_defaults(self):
        info = AlgorithmInfo(name="x")
        assert info.deterministic is True
        assert info.source == ""

    def test_describe_includes_metadata(self):
        counter = TrivialCounter(c=4)
        summary = counter.describe()
        assert summary["n"] == 1
        assert summary["c"] == 4
        assert summary["deterministic"] is True
        assert summary["state_bits"] == 2


class TestBaseClassDefaults:
    def test_state_bits_from_num_states(self):
        assert TrivialCounter(c=6).state_bits() == 3
        assert TrivialCounter(c=8).state_bits() == 3
        assert TrivialCounter(c=9).state_bits() == 4

    def test_outputs_vector(self):
        counter = TrivialCounter(c=6)
        assert counter.outputs([3]) == [3]

    def test_initial_states_are_valid(self):
        counter = TrivialCounter(c=6)
        states = counter.initial_states(rng=0)
        assert len(states) == 1
        assert all(counter.is_valid_state(state) for state in states)

    def test_initial_states_reproducible(self):
        counter = TrivialCounter(c=6)
        assert counter.initial_states(rng=5) == counter.initial_states(rng=5)

    def test_default_state_valid(self):
        counter = TrivialCounter(c=6)
        assert counter.is_valid_state(counter.default_state())

    def test_repr_mentions_parameters(self):
        assert "n=1" in repr(TrivialCounter(c=6))


class TestIterMessageVectors:
    def test_enumerates_free_positions(self):
        counter = TrivialCounter(c=3)
        vectors = list(iter_message_vectors(counter, fixed={0: 1}, free_nodes=[]))
        assert vectors == [[1]]

    def test_free_nodes_range_over_state_space(self):
        class TwoNodeCounter(SynchronousCountingAlgorithm):
            """Minimal two-node algorithm used only for message enumeration."""

            def __init__(self):
                super().__init__(n=2, f=0, c=2)

            def next_state(self, node, states):
                return states[node]

            def output(self, node, state):
                return state

            def num_states(self):
                return 2

            def states(self):
                return iter(range(2))

        algorithm = TwoNodeCounter()
        vectors = list(iter_message_vectors(algorithm, fixed={0: 1}, free_nodes=[1]))
        assert vectors == [[1, 0], [1, 1]]
