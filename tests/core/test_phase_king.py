"""Unit tests for the self-stabilising phase king adaptation (Section 3.4, Table 2)."""

from __future__ import annotations

import random

import pytest

from repro.core.errors import ParameterError
from repro.core.phase_king import (
    INFINITY,
    PhaseKingRegisters,
    coerce_register_value,
    increment,
    instruction_step,
    phase_king_step,
    schedule_length,
)

N, F, C = 4, 1, 5


class TestRegisters:
    def test_valid(self):
        registers = PhaseKingRegisters(a=3, d=1)
        assert registers.a == 3
        assert registers.output(C) == 3

    def test_infinity_outputs_zero(self):
        assert PhaseKingRegisters(a=INFINITY, d=0).output(C) == 0

    def test_out_of_range_outputs_zero(self):
        assert PhaseKingRegisters(a=99, d=0).output(C) == 0

    def test_invalid_d(self):
        with pytest.raises(ParameterError):
            PhaseKingRegisters(a=0, d=2)


class TestHelpers:
    def test_schedule_length(self):
        assert schedule_length(0) == 6
        assert schedule_length(1) == 9
        assert schedule_length(7) == 27

    def test_schedule_length_rejects_negative(self):
        with pytest.raises(ParameterError):
            schedule_length(-1)

    def test_increment_wraps(self):
        assert increment(4, 5) == 0

    def test_increment_infinity_noop(self):
        assert increment(INFINITY, 5) == INFINITY

    def test_coerce_valid(self):
        assert coerce_register_value(3, C) == 3

    def test_coerce_infinity(self):
        assert coerce_register_value(INFINITY, C) == INFINITY

    def test_coerce_garbage(self):
        assert coerce_register_value("junk", C) == INFINITY
        assert coerce_register_value(None, C) == INFINITY
        assert coerce_register_value(True, C) == INFINITY
        assert coerce_register_value(42, C) == INFINITY


class TestInstructionBroadcast:
    """Instruction set I_{3l}: phase_king_step at R = 0."""

    def test_keeps_supported_value(self):
        registers = PhaseKingRegisters(a=2, d=0)
        received = [2, 2, 2, 0]
        updated = phase_king_step(registers, received, 0, N, F, C)
        assert updated.a == 3  # incremented

    def test_resets_unsupported_value(self):
        registers = PhaseKingRegisters(a=2, d=0)
        received = [2, 0, 1, 0]
        updated = phase_king_step(registers, received, 0, N, F, C)
        assert updated.a == INFINITY

    def test_d_unchanged(self):
        registers = PhaseKingRegisters(a=2, d=1)
        updated = phase_king_step(registers, [2, 2, 2, 2], 0, N, F, C)
        assert updated.d == 1


class TestInstructionVote:
    """Instruction set I_{3l+1}: phase_king_step at R = 1."""

    def test_strong_support_sets_d(self):
        registers = PhaseKingRegisters(a=1, d=0)
        updated = phase_king_step(registers, [1, 1, 1, 0], 1, N, F, C)
        assert updated.d == 1
        assert updated.a == 2  # adopts min candidate 1, then increments

    def test_weak_support_clears_d(self):
        registers = PhaseKingRegisters(a=1, d=1)
        updated = phase_king_step(registers, [1, 1, 0, 0], 1, N, F, C)
        assert updated.d == 0

    def test_infinity_register_never_sets_d(self):
        registers = PhaseKingRegisters(a=INFINITY, d=1)
        updated = phase_king_step(registers, [INFINITY] * N, 1, N, F, C)
        assert updated.d == 0

    def test_adopts_smallest_supported_value(self):
        registers = PhaseKingRegisters(a=4, d=0)
        updated = phase_king_step(registers, [3, 3, 1, 1], 1, N, F, C)
        assert updated.a == 2  # min{1, 3} = 1, incremented

    def test_no_candidate_resets(self):
        registers = PhaseKingRegisters(a=0, d=0)
        updated = phase_king_step(registers, [0, 1, 2, 3], 1, N, F, C)
        # every value has support 1 = F, so no candidate exceeds F
        assert updated.a == INFINITY


class TestInstructionKing:
    """Instruction set I_{3l+2}: phase_king_step at R = 2 (king 0)."""

    def test_adopts_king_when_reset(self):
        registers = PhaseKingRegisters(a=INFINITY, d=1)
        updated = phase_king_step(registers, [3, 0, 0, 0], 2, N, F, C)
        assert updated.a == 4  # adopts 3, increments
        assert updated.d == 1

    def test_adopts_king_when_d_zero(self):
        registers = PhaseKingRegisters(a=1, d=0)
        updated = phase_king_step(registers, [3, 0, 0, 0], 2, N, F, C)
        assert updated.a == 4

    def test_keeps_value_when_confident(self):
        registers = PhaseKingRegisters(a=1, d=1)
        updated = phase_king_step(registers, [3, 0, 0, 0], 2, N, F, C)
        assert updated.a == 2

    def test_king_infinity_read_as_cap(self):
        registers = PhaseKingRegisters(a=INFINITY, d=0)
        updated = phase_king_step(registers, [INFINITY, 0, 0, 0], 2, N, F, C)
        assert updated.a == (C + 1) % C
        assert updated.d == 1

    def test_invalid_king_index(self):
        # N = 2, F = 1, R = 8: the king step of phase 2, and node 2 is no sender.
        with pytest.raises(ParameterError):
            phase_king_step(PhaseKingRegisters(a=0, d=0), [0, 0], 8, 2, 1, C)


class TestPhaseKingStep:
    def test_dispatches_by_round_value(self):
        # phase_king_step is instruction_step on the coerced values of all N
        # senders, with high = N - F, low = F and sender ⌊R/3⌋ as the king.
        registers = PhaseKingRegisters(a=2, d=0)
        received = [2, 2, 2, 2]
        for round_value in (0, 1, 2):
            assert phase_king_step(
                registers, received, round_value, N, F, C
            ) == PhaseKingRegisters(
                *instruction_step(2, 0, received, received[0], round_value, C, N - F, F)
            )

    def test_round_value_reduced_modulo_tau(self):
        registers = PhaseKingRegisters(a=2, d=1)
        received = [2, 2, 2, 2]
        tau = schedule_length(F)
        assert phase_king_step(registers, received, 1, N, F, C) == phase_king_step(
            registers, received, 1 + tau, N, F, C
        )

    def test_coerces_garbage_messages(self):
        registers = PhaseKingRegisters(a=2, d=1)
        received = [2, "garbage", None, 2.5]
        updated = phase_king_step(registers, received, 0, N, F, C)
        assert updated.a == INFINITY  # support for 2 is only 1 < N - F

    def test_wrong_vector_length_rejected(self):
        with pytest.raises(ParameterError):
            phase_king_step(PhaseKingRegisters(a=0, d=0), [0, 0], 0, N, F, C)

    def test_small_counter_rejected(self):
        with pytest.raises(ParameterError):
            phase_king_step(PhaseKingRegisters(a=0, d=0), [0] * N, 0, N, F, 1)


class TestLemma4:
    """A full phase with a correct king always establishes agreement."""

    def _run_phase(self, registers, king, rng, faulty):
        for step in range(3):
            round_value = 3 * king + step
            new_registers = {}
            for node, regs in registers.items():
                received = []
                for sender in range(N):
                    if sender in faulty:
                        received.append(rng.choice(list(range(C)) + [INFINITY]))
                    else:
                        received.append(registers[sender].a)
                new_registers[node] = phase_king_step(regs, received, round_value, N, F, C)
            registers = new_registers
        return registers

    @pytest.mark.parametrize("seed", range(12))
    def test_agreement_after_correct_king_phase(self, seed):
        rng = random.Random(seed)
        faulty = {rng.randrange(1, N)}  # keep node 0 (the king) correct
        correct = [i for i in range(N) if i not in faulty]
        registers = {
            i: PhaseKingRegisters(
                a=rng.choice(list(range(C)) + [INFINITY]), d=rng.randrange(2)
            )
            for i in correct
        }
        registers = self._run_phase(registers, king=0, rng=rng, faulty=faulty)
        values = {registers[i].a for i in correct}
        assert len(values) == 1
        assert INFINITY not in values
        assert all(registers[i].d == 1 for i in correct)


class TestLemma5:
    """Agreement with d = 1 persists under arbitrary round values and faults."""

    @pytest.mark.parametrize("seed", range(8))
    def test_agreement_persists(self, seed):
        rng = random.Random(seed)
        faulty = {3}
        correct = [0, 1, 2]
        value = rng.randrange(C)
        registers = {i: PhaseKingRegisters(a=value, d=1) for i in correct}
        expected = value
        for _ in range(30):
            round_value = rng.randrange(schedule_length(F))
            new_registers = {}
            for node in correct:
                received = []
                for sender in range(N):
                    if sender in faulty:
                        received.append(rng.choice(list(range(C)) + [INFINITY]))
                    else:
                        received.append(registers[sender].a)
                new_registers[node] = phase_king_step(
                    registers[node], received, round_value, N, F, C
                )
            registers = new_registers
            expected = (expected + 1) % C
            assert {registers[i].a for i in correct} == {expected}
            assert all(registers[i].d == 1 for i in correct)
