"""Brute-force synthesis of tiny synchronous counters (the approach of [4, 5]).

The paper notes that for small parameters the counting problem "is amenable
to algorithm synthesis": one can enumerate candidate transition functions and
verify each exhaustively.  The published 1-resilient algorithms were found
with SAT solvers; re-running that search is out of scope here, but the same
methodology is demonstrated at a smaller scale: we synthesise *symmetric*
(anonymous) fault-free counters, where every node applies the same transition
function to the multiset of received states.

Although modest, the synthesiser exercises exactly the pipeline of [4, 5] —
candidate enumeration plus exhaustive verification — and its results are used
by tests and the documentation to show what "computer-designed base counter"
means concretely.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

from repro.core.algorithm import AlgorithmInfo, State, SynchronousCountingAlgorithm
from repro.core.errors import ParameterError, VerificationError
from repro.util.rng import ensure_rng, randbelow
from repro.verification.checker import verify_counter

__all__ = ["SymmetricTableCounter", "SynthesisResult", "synthesize_symmetric_counter"]


class SymmetricTableCounter(SynchronousCountingAlgorithm):
    """A counter defined by an explicit table over multisets of received states.

    Every node applies the same rule: the new state is looked up from the
    sorted multiset of the ``n`` received states.  The output function is the
    identity (states are counter values in ``[c]``).
    """

    def __init__(
        self,
        n: int,
        c: int,
        table: dict[tuple[int, ...], int],
        f: int = 0,
        name: str = "SymmetricTable",
    ) -> None:
        info = AlgorithmInfo(
            name=f"{name}[n={n}, c={c}]",
            deterministic=True,
            source="synthesised (Section 1 / refs [4, 5] methodology)",
        )
        super().__init__(n=n, f=f, c=c, info=info)
        self._table = dict(table)
        for key, value in self._table.items():
            if len(key) != n:
                raise ParameterError(f"table key {key} does not have length n={n}")
            if not 0 <= value < c:
                raise ParameterError(f"table value {value} outside [0, {c})")

    @property
    def table(self) -> dict[tuple[int, ...], int]:
        """The transition table (sorted received multiset -> new state)."""
        return dict(self._table)

    def num_states(self) -> int:
        return self.c

    def states(self) -> Iterator[int]:
        return iter(range(self.c))

    def default_state(self) -> int:
        return 0

    def random_state(self, rng: Any = None) -> int:
        return randbelow(ensure_rng(rng), self.c)

    def is_valid_state(self, state: Any) -> bool:
        return isinstance(state, int) and not isinstance(state, bool) and 0 <= state < self.c

    def coerce_message(self, message: Any) -> int:
        if isinstance(message, bool) or not isinstance(message, int):
            return 0
        return message % self.c

    def next_state(self, node: int, states: Sequence[Any]) -> int:
        key = tuple(sorted(states))
        try:
            return self._table[key]
        except KeyError:
            raise VerificationError(f"transition table has no entry for multiset {key}")

    def output(self, node: int, state: State) -> int:
        return self.coerce_message(state)


@dataclass(frozen=True)
class SynthesisResult:
    """Outcome of a synthesis run.

    Attributes
    ----------
    algorithm:
        A verified counter, or ``None`` when the search space contains none.
    candidates_checked:
        Number of candidate transition tables examined.
    stabilization_time:
        Exact worst-case stabilisation time of the returned algorithm.
    """

    algorithm: SymmetricTableCounter | None
    candidates_checked: int
    stabilization_time: int | None


def synthesize_symmetric_counter(
    n: int,
    c: int = 2,
    max_candidates: int = 200_000,
) -> SynthesisResult:
    """Search for a fault-free symmetric ``c``-counter on ``n`` nodes.

    Enumerates all transition tables over multisets of received values,
    verifying each with the exhaustive checker, and returns the first verified
    counter with the smallest worst-case stabilisation time among the
    candidates inspected before it (ties broken by enumeration order).

    The search space has ``c^B`` candidates where ``B`` is the number of
    multisets of size ``n`` over ``[c]``; the ``max_candidates`` cap keeps the
    search bounded.
    """
    if n < 1:
        raise ParameterError(f"n must be positive, got {n}")
    if c < 2:
        raise ParameterError(f"c must be at least 2, got {c}")
    multisets = list(itertools.combinations_with_replacement(range(c), n))
    space_size = c ** len(multisets)
    best: SymmetricTableCounter | None = None
    best_time: int | None = None
    checked = 0
    for assignment in itertools.product(range(c), repeat=len(multisets)):
        if checked >= max_candidates:
            break
        checked += 1
        table = dict(zip(multisets, assignment))
        candidate = SymmetricTableCounter(n=n, c=c, table=table, f=0)
        report = verify_counter(candidate, max_faults=0)
        if report.is_synchronous_counter:
            time = report.stabilization_time
            if best_time is None or (time is not None and time < best_time):
                best = candidate
                best_time = time
                if best_time == 0:
                    break
    del space_size
    return SynthesisResult(
        algorithm=best, candidates_checked=checked, stabilization_time=best_time
    )
