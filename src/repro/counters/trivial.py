"""The trivial 0-resilient counter on a single node (Section 4.1).

The paper's recursive construction can be bootstrapped from "trivial counters
for ``n = 1`` and ``f = 0``": a single node simply keeps a value in ``[c]``
and increments it modulo ``c`` every round.  Because *any* state is a valid
counter position, the algorithm is self-stabilising with stabilisation time
zero, resilience ``f = 0`` and space complexity ``⌈log2 c⌉`` bits.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from repro.core.algorithm import AlgorithmInfo, State, SynchronousCountingAlgorithm
from repro.core.errors import ParameterError
from repro.util.rng import ensure_rng, randbelow

__all__ = ["TrivialCounter"]


class TrivialCounter(SynchronousCountingAlgorithm):
    """Single-node modulo-``c`` counter; the base case of Corollary 1."""

    def __init__(self, c: int) -> None:
        if c < 2:
            raise ParameterError(f"counter size c must be at least 2, got {c}")
        info = AlgorithmInfo(
            name=f"Trivial[c={c}]",
            deterministic=True,
            source="Section 4.1 (base case)",
        )
        super().__init__(n=1, f=0, c=c, info=info)

    def num_states(self) -> int:
        return self.c

    def stabilization_bound(self) -> int:
        return 0

    def states(self) -> Iterator[int]:
        return iter(range(self.c))

    def default_state(self) -> int:
        return 0

    def random_state(self, rng: Any = None) -> int:
        return randbelow(ensure_rng(rng), self.c)

    def is_valid_state(self, state: Any) -> bool:
        return isinstance(state, int) and not isinstance(state, bool) and 0 <= state < self.c

    def coerce_message(self, message: Any) -> int:
        if type(message) is int and 0 <= message < self.c:
            return message
        if isinstance(message, bool) or not isinstance(message, int):
            return 0
        return message % self.c

    def next_state(self, node: int, states: Sequence[Any]) -> int:
        return (states[0] + 1) % self.c

    def output(self, node: int, state: State) -> int:
        return self.coerce_message(state)
