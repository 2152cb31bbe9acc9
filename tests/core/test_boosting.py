"""Unit tests for the resilience boosting construction (Theorem 1)."""

from __future__ import annotations

import pytest

from repro.core.boosting import BoostedCounter, BoostedState, boost
from repro.core.errors import ParameterError, SimulationError
from repro.core.phase_king import INFINITY
from repro.counters.trivial import TrivialCounter
from repro.network.simulator import SimulationConfig, run_simulation
from repro.semantics import build_algorithm
from repro.util.rng import ensure_rng


def make_small_counter(counter_size: int = 2) -> BoostedCounter:
    """k = 3 single-node blocks, F = 0: the smallest legal Theorem 1 instance."""
    inner = TrivialCounter(c=3 * 2 * 4**3)
    return BoostedCounter(inner=inner, k=3, counter_size=counter_size, resilience=0)


def make_figure2_counter(counter_size: int = 2) -> BoostedCounter:
    """The Corollary 1 shape A(4, 1): k = 4 single-node (trivial) blocks, F = 1.

    This is the smallest Theorem 1 instance with positive resilience; the
    nested Figure 2 stack is exercised by the integration tests.
    """
    inner = TrivialCounter(c=3 * 3 * 4**4)
    return BoostedCounter(inner=inner, k=4, counter_size=counter_size, resilience=1)


class TestConstruction:
    def test_parameters_exposed(self):
        counter = make_small_counter()
        assert counter.n == 3
        assert counter.f == 0
        assert counter.c == 2
        assert counter.tau == 6

    def test_requires_counter_multiple(self):
        inner = TrivialCounter(c=100)  # not a multiple of 3*2*6^3
        with pytest.raises(ParameterError):
            BoostedCounter(inner=inner, k=3, counter_size=2, resilience=0)

    def test_requires_k_at_least_3(self):
        inner = TrivialCounter(c=3 * 2 * 4**2)
        with pytest.raises(ParameterError):
            BoostedCounter(inner=inner, k=2, counter_size=2, resilience=0)

    def test_boost_helper(self):
        inner = TrivialCounter(c=3 * 2 * 4**3)
        counter = boost(inner, k=3, counter_size=2)
        assert isinstance(counter, BoostedCounter)
        assert counter.f == 0  # largest feasible for single-node blocks, k=3

    def test_default_resilience_is_largest_feasible(self):
        inner = TrivialCounter(c=3 * 3 * 4**4)
        counter = boost(inner, k=4, counter_size=2)
        assert counter.f == 1

    def test_space_complexity_formula(self):
        counter = make_figure2_counter(counter_size=5)
        expected = counter.inner.state_bits() + 3 + 1  # ceil(log2(6)) = 3, plus d bit
        assert counter.state_bits() == expected

    def test_stabilization_bound_formula(self):
        counter = make_figure2_counter()
        # T(trivial) = 0, overhead = 3(F+2)(2m)^k = 3*3*4^4 = 2304
        assert counter.stabilization_bound() == 2304

    def test_num_states(self):
        counter = make_small_counter(counter_size=4)
        assert counter.num_states() == counter.inner.num_states() * 5 * 2


class TestStates:
    def test_default_state(self):
        counter = make_small_counter()
        state = counter.default_state()
        assert state.a == INFINITY
        assert state.d == 0

    def test_random_state_valid(self):
        counter = make_small_counter()
        rng = ensure_rng(0)
        for _ in range(20):
            assert counter.is_valid_state(counter.random_state(rng))

    def test_is_valid_state_rejects_garbage(self):
        counter = make_small_counter()
        assert not counter.is_valid_state("junk")
        assert not counter.is_valid_state((1, 2))
        assert not counter.is_valid_state(BoostedState(inner=0, a=99, d=0))
        assert not counter.is_valid_state(BoostedState(inner=0, a=0, d=5))

    def test_coerce_message_roundtrip(self):
        counter = make_small_counter()
        state = BoostedState(inner=7, a=1, d=1)
        assert counter.coerce_message(state) == state

    def test_coerce_message_garbage(self):
        counter = make_small_counter()
        coerced = counter.coerce_message("garbage")
        assert counter.is_valid_state(coerced)
        assert coerced.a == INFINITY

    def test_coerce_message_partial_garbage(self):
        counter = make_small_counter()
        coerced = counter.coerce_message(("bad-inner", 1, 7))
        assert counter.is_valid_state(coerced)
        assert coerced.a == 1
        assert coerced.d == 0

    def test_output_reads_a_register(self):
        counter = make_small_counter()
        assert counter.output(0, BoostedState(inner=0, a=1, d=1)) == 1
        assert counter.output(0, BoostedState(inner=0, a=INFINITY, d=1)) == 0
        assert counter.output(0, "garbage") == 0

    @pytest.mark.parametrize("name", ["corollary1", "sampled-boosted"])
    @pytest.mark.parametrize("field", ["a", "d"])
    @pytest.mark.parametrize("register", [True, False])
    def test_bool_register_reads_as_reset(self, name, field, register):
        # A bool is no register value: a receiver reads a bool ``a`` as the
        # reset marker and a bool ``d`` as 0, so neither is a valid state.
        counter = build_algorithm(name)
        state = BoostedState(inner=counter.inner.default_state(), a=0, d=0)._replace(
            **{field: register}
        )
        read = counter.coerce_message(state)
        assert getattr(read, field) == (INFINITY if field == "a" else 0)
        assert type(read.d) is int
        assert not counter.is_valid_state(state)
        assert counter.output(0, state) == 0

    @pytest.mark.parametrize("field", ["a", "d"])
    def test_bool_register_initial_state_is_rejected(self, field):
        counter = build_algorithm("corollary1", f=1, c=2)
        states = [counter.default_state() for _ in range(counter.n)]
        states[2] = BoostedState(inner=0, a=1, d=1)._replace(**{field: True})
        with pytest.raises(SimulationError, match="initial state for node 2 "):
            run_simulation(
                counter, config=SimulationConfig(max_rounds=3), initial_states=states
            )

    def test_states_enumeration_small(self):
        inner = TrivialCounter(c=3 * 2 * 4**3)
        counter = BoostedCounter(inner=inner, k=3, counter_size=2, resilience=0)
        sample = []
        for state in counter.states():
            sample.append(state)
            if len(sample) >= 10:
                break
        assert all(counter.is_valid_state(state) for state in sample)


class TestTransition:
    def test_wrong_message_count_rejected(self):
        counter = make_small_counter()
        with pytest.raises(ParameterError):
            counter.transition(0, [counter.default_state()])

    def test_inner_counter_advances(self):
        counter = make_small_counter()
        states = [BoostedState(inner=10 * (i + 1), a=0, d=1) for i in range(3)]
        new_state = counter.transition(0, states)
        # Block 0 consists of node 0 only; its trivial counter increments.
        assert new_state.inner == 11

    def test_transition_is_pure(self):
        counter = make_small_counter()
        states = [BoostedState(inner=5, a=0, d=1) for _ in range(3)]
        first = counter.transition(1, states)
        second = counter.transition(1, states)
        assert first == second

    def test_vote_diagnostics_shapes(self):
        counter = make_figure2_counter()
        states = [BoostedState(inner=0, a=0, d=1) for _ in range(counter.n)]
        diagnostics = counter.vote_diagnostics(states)
        assert len(diagnostics.block_votes) == 4
        assert len(diagnostics.block_pointers) == 4
        assert 0 <= diagnostics.leader < counter.interpretation.m
        assert 0 <= diagnostics.round_value < counter.tau

    def test_vote_diagnostics_follow_inner_counters(self):
        counter = make_figure2_counter()
        interpretation = counter.interpretation
        # All blocks at the same counter value v: everyone points at the same leader
        # and announces the same round component.
        value = 4242 % counter.inner.c
        states = [BoostedState(inner=value, a=0, d=1) for _ in range(counter.n)]
        diagnostics = counter.vote_diagnostics(states)
        expected_round = interpretation.decompose(value, diagnostics.leader).r
        assert diagnostics.round_value == expected_round

    def test_block_counter_value(self):
        counter = make_figure2_counter()
        # Node 1 is the single member of block 1 (blocks have one node each).
        r, y, pointer = counter.block_counter_value(
            1, BoostedState(inner=100, a=0, d=1)
        )
        decomposed = counter.interpretation.decompose(100, 1)
        assert (r, y, pointer) == (decomposed.r, decomposed.y, decomposed.pointer)

    def test_agreement_persists_once_reached(self):
        """Lemma 5 at the level of the full boosted transition."""
        counter = make_figure2_counter(counter_size=4)
        # Aligned inner counters, agreed phase king registers with d = 1.
        states = [BoostedState(inner=0, a=2, d=1) for _ in range(counter.n)]
        expected = 2
        for _ in range(10):
            new_states = [counter.transition(v, states) for v in range(counter.n)]
            expected = (expected + 1) % counter.c
            assert all(state.a == expected for state in new_states)
            assert all(state.d == 1 for state in new_states)
            states = new_states

    def test_outputs_increment_after_agreement(self):
        counter = make_small_counter(counter_size=3)
        states = [BoostedState(inner=i, a=1, d=1) for i in range(3)]
        new_states = [counter.transition(v, states) for v in range(counter.n)]
        outputs = [counter.output(v, state) for v, state in enumerate(new_states)]
        assert outputs == [2, 2, 2]
