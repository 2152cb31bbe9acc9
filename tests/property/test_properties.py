"""Property-based tests (hypothesis) for the core data structures and invariants."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import CounterInterpretation, common_pointer_intervals, ideal_pointer_trace
from repro.core.boosting import BoostedState
from repro.core.phase_king import (
    INFINITY,
    PhaseKingRegisters,
    coerce_register_value,
    increment,
    instruction_step,
    phase_king_step,
    schedule_length,
)
from repro.core.voting import has_majority, majority
from repro.counters.trivial import TrivialCounter
from repro.network.adversary import RandomStateAdversary
from repro.network.pulling import PullingAlgorithm, PullSimulationConfig, run_pull_simulation
from repro.network.simulator import SimulationConfig, run_simulation
from repro.network.stabilization import is_counting_suffix
from repro.network.trace import ExecutionTrace, RoundRecord
from repro.network.stabilization import stabilization_round
from repro.sampling.thresholds import (
    high_threshold,
    low_threshold,
    sampled_phase_king_step,
)
from repro.semantics import ALGORITHM_SEMANTICS, build_algorithm
from repro.util.intmath import ceil_div, ceil_log2, next_multiple


# --------------------------------------------------------------------------- #
# Integer math
# --------------------------------------------------------------------------- #


@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=10**6))
def test_ceil_div_bounds(a, b):
    q = ceil_div(a, b)
    assert (q - 1) * b < a or a == 0
    assert q * b >= a


@given(st.integers(min_value=1, max_value=2**64))
def test_ceil_log2_is_tight(value):
    bits = ceil_log2(value)
    assert 2**bits >= value
    assert bits == 0 or 2 ** (bits - 1) < value


@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=10**6))
def test_next_multiple_properties(value, base):
    result = next_multiple(value, base)
    assert result % base == 0
    assert result >= max(value, base)
    assert result - base < max(value, base)


# --------------------------------------------------------------------------- #
# Majority voting
# --------------------------------------------------------------------------- #


@given(
    st.lists(st.one_of(st.none(), st.integers(min_value=0, max_value=5)), max_size=25),
    st.one_of(st.none(), st.integers(min_value=-1, max_value=5)),
)
def test_majority_is_correct_when_it_exists(values, default):
    """The strict majority by ``collections.Counter``, else ``default``;
    with ``None`` entries and the empty list."""
    expected = default
    if values:
        value, count = Counter(values).most_common(1)[0]
        if 2 * count > len(values):
            expected = value
    assert majority(values, default) == expected


@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=25), st.randoms())
def test_majority_is_permutation_invariant(values, rng):
    shuffled = list(values)
    rng.shuffle(shuffled)
    assert majority(values, default=-1) == majority(shuffled, default=-1)


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=20))
def test_at_most_one_majority(values):
    holders = [candidate for candidate in set(values) if has_majority(values, candidate)]
    assert len(holders) <= 1


# --------------------------------------------------------------------------- #
# Block counters: Lemmas 1 and 2 on ideal schedules
# --------------------------------------------------------------------------- #


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=3, max_value=5),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)
def test_decompose_invariants(k, F, value, shift):
    interp = CounterInterpretation(k=k, F=F)
    for block in range(k):
        decomposed = interp.decompose(value, block)
        assert 0 <= decomposed.r < interp.tau
        assert 0 <= decomposed.pointer < interp.m
        successor = interp.decompose(value + 1, block)
        assert successor.r == (decomposed.r + 1) % interp.tau
    # Reduction modulo the block period leaves the interpretation unchanged.
    block = k - 1
    period = interp.block_period(block)
    assert interp.decompose(value + shift * period, block) == interp.decompose(value % period, block)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)
def test_lemma2_common_interval_for_every_leader(offset0, offset1, offset2):
    """Stabilised blocks with arbitrary phases share every leader for >= tau rounds."""
    interp = CounterInterpretation(k=3, F=0)
    offsets = (offset0, offset1, offset2)
    horizon = interp.block_period(2)
    traces = [
        ideal_pointer_trace(interp, block, offset % interp.block_period(block), horizon)
        for block, offset in enumerate(offsets)
    ]
    for beta in range(interp.m):
        intervals = common_pointer_intervals(traces, beta)
        assert any(end - start >= interp.tau for start, end in intervals)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=3, max_value=5), st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=10**5))
def test_lemma1_dwell_time(k, F, offset):
    """Once a block's pointer changes it keeps the value for exactly c_{i-1} rounds."""
    interp = CounterInterpretation(k=k, F=F)
    block = k - 2
    dwell = interp.pointer_dwell_time(block)
    trace = ideal_pointer_trace(interp, block, offset, 3 * dwell + 1)
    changes = [t for t in range(1, len(trace)) if trace[t] != trace[t - 1]]
    for first, second in zip(changes, changes[1:]):
        assert second - first == dwell


# --------------------------------------------------------------------------- #
# Phase king persistence (Lemma 5) under arbitrary Byzantine values
# --------------------------------------------------------------------------- #


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=4),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=26),  # round value R
            st.lists(st.integers(min_value=-1, max_value=6), min_size=2, max_size=2),
        ),
        min_size=1,
        max_size=15,
    ),
)
def test_phase_king_agreement_persists(start_value, rounds):
    """Lemma 5 as a property: any R sequence, any Byzantine register values."""
    N, F, C = 7, 2, 5
    correct = list(range(5))
    value = start_value % C
    registers = {i: PhaseKingRegisters(a=value, d=1) for i in correct}
    expected = value
    for round_value, byzantine_values in rounds:
        new_registers = {}
        for node in correct:
            received = [registers[i].a for i in correct] + list(byzantine_values)
            new_registers[node] = phase_king_step(
                registers[node], received, round_value, N=N, F=F, C=C
            )
        registers = new_registers
        expected = (expected + 1) % C
        assert {registers[i].a for i in correct} == {expected}
        assert all(registers[i].d == 1 for i in correct)


# --------------------------------------------------------------------------- #
# Message coercion robustness
# --------------------------------------------------------------------------- #

junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.text(max_size=5),
    st.floats(allow_nan=False),
    st.tuples(st.integers(), st.integers()),
    st.tuples(st.text(max_size=3), st.integers(), st.integers()),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_broadcast_and_sampled_phase_king_are_one_step(data):
    """With N = M = 3F the thresholds coincide (N - F = ⌈2M/3⌉, F = M/3).

    The broadcast step on all N senders and the sampled step on M = N
    samples, with the king's value pulled from the broadcast king, must then
    agree on any received objects: they are one algorithm.
    """
    F = data.draw(st.integers(min_value=1, max_value=4), label="F")
    N = 3 * F
    C = data.draw(st.integers(min_value=2, max_value=6), label="C")
    registers = PhaseKingRegisters(
        a=data.draw(st.integers(min_value=-1, max_value=C + 1), label="a"),
        d=data.draw(st.integers(min_value=0, max_value=1), label="d"),
    )
    round_value = data.draw(st.integers(min_value=0, max_value=10**4), label="R")
    received = data.draw(
        st.lists(
            st.one_of(st.integers(min_value=-1, max_value=C), junk),
            min_size=N,
            max_size=N,
        ),
        label="received",
    )
    king = round_value % schedule_length(F) // 3
    assert phase_king_step(
        registers, received, round_value, N, F, C
    ) == sampled_phase_king_step(
        registers, received, received[king], round_value, F, C
    )


@given(junk)
def test_trivial_coercion_always_valid(message):
    counter = TrivialCounter(c=6)
    assert counter.is_valid_state(counter.coerce_message(message))


@settings(max_examples=60, deadline=None)
@given(message=junk)
def test_boosted_coercion_always_valid(message, small_boosted_counter):
    counter = small_boosted_counter
    assert counter.is_valid_state(counter.coerce_message(message))


@settings(max_examples=40, deadline=None)
@given(messages=st.lists(junk, min_size=3, max_size=3))
def test_boosted_transition_survives_garbage_messages(messages, small_boosted_counter):
    """The transition function must produce a valid state from arbitrary inputs."""
    counter = small_boosted_counter
    state = counter.transition(0, messages)
    assert counter.is_valid_state(state)


# --------------------------------------------------------------------------- #
# Reading a message once: coercion is idempotent and transition == next_state
# of the coerced messages, for every catalogue algorithm
# --------------------------------------------------------------------------- #

#: Every catalogue algorithm at its first parity-fuzz parameterisation.
CATALOGUE = {
    name: build_algorithm(name, **dict(semantics.fuzz[0].params))
    for name, semantics in ALGORITHM_SEMANTICS.items()
}


def received(algorithm):
    """Junk, or a valid state of ``algorithm`` drawn from a seeded generator."""
    return st.one_of(
        junk,
        st.integers(min_value=0, max_value=2**32).map(
            lambda seed: algorithm.random_state(random.Random(seed))
        ),
    )


@pytest.mark.parametrize("name", sorted(CATALOGUE))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_coercion_is_idempotent(name, data):
    algorithm = CATALOGUE[name]
    coerced = algorithm.coerce_message(data.draw(received(algorithm)))
    assert algorithm.coerce_message(coerced) == coerced


@pytest.mark.parametrize("name", sorted(CATALOGUE))
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_random_state_is_a_coercion_fixed_point(name, seed):
    algorithm = CATALOGUE[name]
    state = algorithm.random_state(random.Random(seed))
    assert algorithm.coerce_message(state) == state


@pytest.mark.parametrize("name", sorted(CATALOGUE))
@settings(max_examples=25, deadline=None)
@given(data=st.data(), seed=st.integers(min_value=0, max_value=2**32))
def test_transition_is_next_state_of_coerced_messages(name, data, seed):
    """Both sides run under equally seeded generators (randomised algorithms)."""
    algorithm = CATALOGUE[name]
    coerce = algorithm.coerce_message
    node = data.draw(st.integers(min_value=0, max_value=algorithm.n - 1))
    if isinstance(algorithm, PullingAlgorithm):
        state = data.draw(received(algorithm))
        targets = algorithm.pull_targets(node, state, random.Random(seed))
        responses = data.draw(
            st.lists(received(algorithm), min_size=len(targets), max_size=len(targets))
        )
        direct = algorithm.transition(node, state, targets, responses, random.Random(seed))
        delivered = algorithm.next_state(
            node,
            coerce(state),
            targets,
            [coerce(response) for response in responses],
            random.Random(seed),
        )
    else:
        messages = data.draw(
            st.lists(received(algorithm), min_size=algorithm.n, max_size=algorithm.n)
        )
        if not algorithm.deterministic:
            algorithm.reseed(seed)
        direct = algorithm.transition(node, messages)
        if not algorithm.deterministic:
            algorithm.reseed(seed)
        delivered = algorithm.next_state(node, [coerce(message) for message in messages])
    assert direct == delivered
    assert algorithm.is_valid_state(direct)


def forged_senders(algorithm):
    """Senders whose messages differ per receiver: none, some inside one
    block, some among the phase kings (nodes ``0 … F+1``), or any."""
    n = algorithm.n
    layout = getattr(algorithm, "layout", None)
    size = layout.n if layout is not None else n
    return st.one_of(
        st.just(frozenset()),
        st.integers(min_value=0, max_value=n // size - 1).flatmap(
            lambda block: st.frozensets(
                st.sampled_from(range(block * size, (block + 1) * size)), min_size=1
            )
        ),
        st.frozensets(st.sampled_from(range(min(n, algorithm.f + 2))), min_size=1),
        st.frozensets(st.integers(min_value=0, max_value=n - 1), min_size=1),
    )


@pytest.mark.parametrize("name", sorted(CATALOGUE))
@settings(max_examples=25, deadline=None)
@given(data=st.data(), seed=st.integers(min_value=0, max_value=2**32))
def test_next_states_is_next_state_per_receiver(name, data, seed):
    """The round-level transition equals ``next_state`` run receiver by
    receiver on the shared vector with that receiver's forged entries filled
    in; both sides run under equally seeded generators."""
    algorithm = CATALOGUE[name]
    coerce = algorithm.coerce_message

    def read():
        return coerce(data.draw(received(algorithm)))

    faulty = data.draw(forged_senders(algorithm))
    shared = tuple(None if node in faulty else read() for node in range(algorithm.n))
    correct = [node for node in range(algorithm.n) if node not in faulty]
    receivers = sorted(data.draw(st.sets(st.sampled_from(correct)))) if correct else []
    expected = {}
    if isinstance(algorithm, PullingAlgorithm):
        plan_rng = random.Random(seed)
        targets = {node: algorithm.pull_targets(node, shared[node], plan_rng) for node in receivers}
        forged = {
            node: {
                position: read() for position, target in enumerate(plan) if target in faulty
            }
            for node, plan in targets.items()
        }
        rng = random.Random(seed)
        for node, plan in targets.items():
            responses = [
                forged[node].get(position, shared[target]) for position, target in enumerate(plan)
            ]
            expected[node] = algorithm.next_state(node, shared[node], plan, responses, rng)
        actual = algorithm.next_states(shared, targets, forged, random.Random(seed))
    else:
        forged = {node: {sender: read() for sender in sorted(faulty)} for node in receivers}
        if not algorithm.deterministic:
            algorithm.reseed(seed)
        for node, entries in forged.items():
            messages = [entries.get(sender, state) for sender, state in enumerate(shared)]
            expected[node] = algorithm.next_state(node, messages)
        if not algorithm.deterministic:
            algorithm.reseed(seed)
        actual = algorithm.next_states(shared, forged)
    assert list(actual.items()) == list(expected.items())


# --------------------------------------------------------------------------- #
# Stabilisation detection
# --------------------------------------------------------------------------- #


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.one_of(st.none(), st.integers(min_value=0, max_value=3)), max_size=15),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=2, max_value=12),
)
def test_stabilization_detected_after_appended_counting_suffix(prefix, start, suffix_length):
    """Appending a valid counting suffix always yields a stabilised trace."""
    c = 4
    suffix = [(start + i) % c for i in range(suffix_length)]
    values = list(prefix) + suffix
    trace = ExecutionTrace(algorithm_name="p", n=2, c=c, faulty=frozenset())
    for index, value in enumerate(values):
        outputs = {0: value, 1: value} if value is not None else {0: 0, 1: 1}
        trace.append(RoundRecord(round_index=index, outputs=outputs))
    result = stabilization_round(trace, min_tail=2)
    assert result.stabilized
    assert result.round is not None
    assert result.round <= len(prefix)
    # The detected suffix really is a counting run.
    assert is_counting_suffix(trace.agreed_values()[result.round :], c)


# --------------------------------------------------------------------------- #
# Exactness of the scalar fast paths: a valid state passes coercion as
# itself, and the Table 2 step runs on plain registers
# --------------------------------------------------------------------------- #

#: The catalogue algorithms whose ``coerce_message`` returns a valid state
#: itself: the trivial counter and the four boosted ones.
IDENTITY_COERCION = (
    "corollary1",
    "figure2",
    "pseudo-random-boosted",
    "sampled-boosted",
    "trivial",
)


class Register(int):
    """An int subclass: compares like an int, but is no plain int."""


def reference_coerce(algorithm, message):
    """The field-by-field read every message took before the identity
    shortcut, kept verbatim as the reference for arbitrary objects."""
    if isinstance(algorithm, TrivialCounter):
        if isinstance(message, bool) or not isinstance(message, int):
            return 0
        return message % algorithm.c
    if isinstance(message, tuple) and len(message) == 3:
        inner_state, a, d = message
    else:
        inner_state, a, d = None, INFINITY, 0
    return BoostedState(
        inner=reference_coerce(algorithm.inner, inner_state),
        a=coerce_register_value(a, algorithm.c),
        d=d if d in (0, 1) and not isinstance(d, bool) else 0,
    )


def same(left, right):
    """Equal, with the same types all the way down (a bool is no int)."""
    if type(left) is not type(right):
        return False
    if isinstance(left, tuple):
        return len(left) == len(right) and all(map(same, left, right))
    return left == right


def registers(bound):
    """Register values around ``[bound]``: valid ints, out-of-range ints,
    bools, int subclasses and non-ints."""
    return st.one_of(
        st.integers(min_value=-2, max_value=bound + 1),
        st.booleans(),
        st.integers(min_value=-2, max_value=bound + 1).map(Register),
        st.none(),
        st.floats(min_value=-2, max_value=bound + 1),
        st.text(max_size=2),
    )


def garbage(algorithm):
    """Valid states of ``algorithm`` and near misses at every nesting level:
    boosted states and plain tuples with any field garbled, wrong lengths."""
    valid = st.integers(min_value=0, max_value=2**32).map(
        lambda seed: algorithm.random_state(random.Random(seed))
    )
    if isinstance(algorithm, TrivialCounter):
        return st.one_of(valid, registers(2 * algorithm.c))
    fields = st.tuples(garbage(algorithm.inner), registers(algorithm.c), registers(2))
    return st.one_of(
        valid,
        fields.map(lambda values: BoostedState(*values)),
        fields,
        st.lists(registers(algorithm.c), max_size=5).filter(lambda x: len(x) != 3).map(tuple),
        junk,
    )


@pytest.mark.parametrize("name", IDENTITY_COERCION)
def test_valid_states_pass_coercion_as_themselves(name):
    # A trivial counter modulo 1000 holds ints above CPython's small-int
    # cache, where a rebuilt int is a new object.
    algorithm = build_algorithm("trivial", c=1000) if name == "trivial" else CATALOGUE[name]
    rng = random.Random(2015)
    for _ in range(2000):
        state = algorithm.random_state(rng)
        assert algorithm.coerce_message(state) is state


@pytest.mark.parametrize("name", sorted(CATALOGUE))
def test_states_a_run_reaches_read_as_themselves(name):
    """Every state the correct nodes hold in a run is a coercion fixed
    point, and the identical object for the identity-coercion algorithms."""
    algorithm = CATALOGUE[name]
    adversary = RandomStateAdversary([algorithm.n - 1]) if algorithm.f else None
    if isinstance(algorithm, PullingAlgorithm):
        config = PullSimulationConfig(max_rounds=15, record_states=True, seed=3)
        trace = run_pull_simulation(algorithm, adversary=adversary, config=config)
    else:
        config = SimulationConfig(max_rounds=15, record_states=True, seed=3)
        trace = run_simulation(algorithm, adversary=adversary, config=config)
    for record in trace.rounds:
        for state in record.states.values():
            coerced = algorithm.coerce_message(state)
            assert same(coerced, state)
            if name in IDENTITY_COERCION:
                assert coerced is state


def near_misses(algorithm, state):
    """``state`` with one register, or the inner state, made a near miss: a
    bool, an int subclass, an out-of-range or non-int value; and ``state``
    as a plain tuple or with the wrong length."""
    if isinstance(algorithm, TrivialCounter):
        c = algorithm.c
        return [True, False, Register(state), state + c, -1, float(state), None, str(state)]
    bad = [True, False, Register(0), Register(1), Register(INFINITY), -2, algorithm.c]
    bad += [algorithm.c + 1, 0.0, 1.0, None, "0"]
    inner, a, d = state
    misses = [BoostedState(inner, value, d) for value in bad]
    misses += [BoostedState(inner, a, value) for value in bad]
    misses += [BoostedState(miss, a, d) for miss in near_misses(algorithm.inner, inner)]
    return misses + [tuple(state), state[:2], (*state, 0)]


@pytest.mark.parametrize("name", IDENTITY_COERCION)
def test_coercion_of_near_misses_matches_the_field_by_field_read(name):
    algorithm = CATALOGUE[name]
    rng = random.Random(7)
    for _ in range(20):
        for message in near_misses(algorithm, algorithm.random_state(rng)):
            expected = reference_coerce(algorithm, message)
            assert same(algorithm.coerce_message(message), expected), message


@pytest.mark.parametrize("name", IDENTITY_COERCION)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_coercion_of_any_object_matches_the_field_by_field_read(name, data):
    algorithm = CATALOGUE[name]
    message = data.draw(garbage(algorithm))
    assert same(algorithm.coerce_message(message), reference_coerce(algorithm, message))


def reference_step(registers, values, king_value, round_value, F, C, high, low):
    """Table 2 on :class:`PhaseKingRegisters`, as the step read before its
    registers became plain ints."""
    step = round_value % schedule_length(F) % 3
    a = registers.a
    if step == 0:
        if values.count(a) < high:
            a = INFINITY
        return PhaseKingRegisters(a=increment(a, C), d=registers.d)
    if step == 1:
        counts = Counter(values)
        d = 1 if (a != INFINITY and counts.get(a, 0) >= high) else 0
        a = INFINITY
        for value, count in counts.items():
            if (
                count > low
                and isinstance(value, int)
                and 0 <= value < C
                and (a == INFINITY or value < a)
            ):
                a = value
        return PhaseKingRegisters(a=increment(a, C), d=d)
    if a == INFINITY or registers.d == 0:
        a = C if king_value == INFINITY else min(C, king_value)
    return PhaseKingRegisters(a=(a + 1) % C, d=1)


@pytest.mark.parametrize("step", (0, 1, 2))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_plain_register_step_is_both_wrappers_step(step, data):
    """At every ``R mod 3`` the plain-register step returns the registers
    ``phase_king_step`` (all ``N`` senders) and ``sampled_phase_king_step``
    (``M`` samples) return, and both equal the reference."""
    F = data.draw(st.integers(min_value=0, max_value=3), label="F")
    N = data.draw(st.integers(min_value=max(F + 2, 3 * F + 1), max_value=3 * F + 4), label="N")
    C = data.draw(st.integers(min_value=2, max_value=5), label="C")
    a = data.draw(st.integers(min_value=-1, max_value=C - 1), label="a")
    d = data.draw(st.integers(min_value=0, max_value=1), label="d")
    round_value = 3 * data.draw(st.integers(min_value=0, max_value=10**3), label="q") + step
    value = st.integers(min_value=-1, max_value=C - 1)
    received = data.draw(st.lists(value, min_size=N, max_size=N), label="received")
    samples = data.draw(st.lists(value, min_size=1, max_size=9), label="samples")
    king_value = received[round_value % schedule_length(F) // 3]

    expected = reference_step(
        PhaseKingRegisters(a=a, d=d), received, king_value, round_value, F, C, N - F, F
    )
    plain = instruction_step(a, d, received, king_value, round_value, C, N - F, F)
    assert [type(register) for register in plain] == [int, int]
    assert plain == (expected.a, expected.d)
    assert phase_king_step(PhaseKingRegisters(a=a, d=d), received, round_value, N, F, C) == expected

    M = len(samples)
    expected = reference_step(
        PhaseKingRegisters(a=a, d=d),
        samples,
        king_value,
        round_value,
        F,
        C,
        high_threshold(M),
        low_threshold(M),
    )
    plain = instruction_step(
        a, d, samples, king_value, round_value, C, high_threshold(M), low_threshold(M)
    )
    assert plain == (expected.a, expected.d)
    assert sampled_phase_king_step(
        PhaseKingRegisters(a=a, d=d), samples, king_value, round_value, F, C
    ) == expected
