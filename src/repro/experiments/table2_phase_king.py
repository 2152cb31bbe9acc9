"""Experiment E2 — Table 2: the phase king instruction sets and Lemmas 4–5.

Table 2 of the paper lists the three instruction sets ``I_{3ℓ}``,
``I_{3ℓ+1}``, ``I_{3ℓ+2}`` of the self-stabilising phase king adaptation.
They are pseudo-code rather than a measured artefact, so the reproduction
checks the two *behavioural* guarantees the construction relies on:

* **Lemma 4 (agreement)** — if all correct nodes execute a full phase of a
  non-faulty king in lockstep (consistent round counter), they agree on a
  defined output value afterwards, whatever the Byzantine nodes send.
* **Lemma 5 (persistence)** — once all correct nodes agree with ``d = 1``,
  agreement persists and the value increments by one modulo ``C`` every
  round, regardless of which instruction set is executed.

The experiment runs both checks for a sweep of ``(N, F)`` pairs under random
and split Byzantine value injection, and also reports the classic (one-shot)
phase king consensus substrate for reference.

Run with ``python -m repro experiment table2``.
"""

from __future__ import annotations

import random

from repro.consensus.phase_king import run_phase_king_consensus
from repro.core.errors import ParameterError
from repro.core.phase_king import INFINITY, PhaseKingRegisters, phase_king_step
from repro.experiments.common import ExperimentResult
from repro.util.rng import ensure_rng

__all__ = ["run_table2", "lemma4_trial", "lemma5_trial"]


def lemma4_trial(
    N: int, F: int, C: int, king: int, rng: random.Random
) -> tuple[bool, bool]:
    """One Lemma 4 trial: run ``I_{3ℓ}, I_{3ℓ+1}, I_{3ℓ+2}`` with a correct king.

    Returns ``(agreed, all_d_one)`` for the correct nodes after the phase.
    Byzantine nodes send independent random register values to every receiver.
    """
    faulty = set(rng.sample(range(N), F)) if F > 0 else set()
    if king in faulty:
        faulty.discard(king)
        replacement = next(i for i in range(N) if i != king and i not in faulty)
        faulty.add(replacement)
    correct = [i for i in range(N) if i not in faulty]
    registers = {
        i: PhaseKingRegisters(
            a=rng.choice(list(range(C)) + [INFINITY]), d=rng.randrange(2)
        )
        for i in correct
    }
    for step in range(3):
        round_value = 3 * king + step
        new_registers = {}
        for node in correct:
            received = []
            for sender in range(N):
                if sender in faulty:
                    received.append(rng.choice(list(range(C)) + [INFINITY]))
                else:
                    received.append(registers[sender].a)
            new_registers[node] = phase_king_step(
                registers[node], received, round_value, N=N, F=F, C=C
            )
        registers = new_registers
    values = {registers[node].a for node in correct}
    agreed = len(values) == 1 and INFINITY not in values
    all_d_one = all(registers[node].d == 1 for node in correct)
    return agreed, all_d_one


def lemma5_trial(
    N: int, F: int, C: int, rounds: int, rng: random.Random
) -> bool:
    """One Lemma 5 trial: agreement with ``d = 1`` persists under arbitrary round values."""
    faulty = set(rng.sample(range(N), F)) if F > 0 else set()
    correct = [i for i in range(N) if i not in faulty]
    value = rng.randrange(C)
    registers = {i: PhaseKingRegisters(a=value, d=1) for i in correct}
    expected = value
    for _ in range(rounds):
        round_value = rng.randrange(3 * (F + 2))
        new_registers = {}
        for node in correct:
            received = []
            for sender in range(N):
                if sender in faulty:
                    received.append(rng.choice(list(range(C)) + [INFINITY]))
                else:
                    received.append(registers[sender].a)
            new_registers[node] = phase_king_step(
                registers[node], received, round_value, N=N, F=F, C=C
            )
        registers = new_registers
        expected = (expected + 1) % C
        values = {registers[node].a for node in correct}
        if values != {expected} or any(registers[node].d != 1 for node in correct):
            return False
    return True


def run_table2(
    settings: tuple[tuple[int, int], ...] = ((4, 1), (7, 2), (10, 3), (13, 4)),
    C: int = 5,
    trials: int = 30,
    persistence_rounds: int = 25,
    seed: int = 0,
) -> ExperimentResult:
    """Regenerate the Table 2 behavioural checks (Lemmas 4 and 5) plus the classic protocol."""
    if trials < 1:
        raise ParameterError(f"trials must be at least 1, got {trials}")
    rng = ensure_rng(seed)
    result = ExperimentResult(name="Table 2 — phase king instruction sets (Lemmas 4 & 5)")
    for N, F in settings:
        lemma4_ok = 0
        d_ok = 0
        for _ in range(trials):
            king = rng.randrange(F + 2)
            agreed, all_d = lemma4_trial(N, F, C, king, rng)
            lemma4_ok += int(agreed)
            d_ok += int(all_d)
        lemma5_ok = sum(
            int(lemma5_trial(N, F, C, persistence_rounds, rng)) for _ in range(trials)
        )
        consensus = run_phase_king_consensus(
            n=N,
            f=F,
            inputs={i: i % 2 for i in range(N)},
            faulty=list(range(N - F, N)),
            value_range=2,
            rng=rng.getrandbits(32),
        )
        result.add_row(
            N=N,
            F=F,
            lemma4_agreement=f"{lemma4_ok}/{trials}",
            lemma4_d_flags=f"{d_ok}/{trials}",
            lemma5_persistence=f"{lemma5_ok}/{trials}",
            classic_rounds=consensus.rounds,
            classic_agreed=consensus.agreed,
        )
    result.add_note(
        "Lemma 4: a full phase of a correct king, executed in lockstep, must always "
        "produce agreement (expected column value: trials/trials)."
    )
    result.add_note(
        "Lemma 5: established agreement must survive arbitrary round counters and "
        "Byzantine messages for the whole horizon (expected: trials/trials)."
    )
    return result
