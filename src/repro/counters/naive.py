"""A naive follow-the-majority counter with no Byzantine resilience.

Each node adopts ``(majority of received values) + 1 mod c`` and falls back to
``(minimum received value) + 1 mod c`` when no strict majority exists.  In a
fault-free network this synchronises within two rounds (every node sees the
same multiset); with even a single Byzantine node an adversary can keep two
halves of the network split forever by showing different receivers different
evidence.  The class is used as a *negative* baseline: the adversary
test-suite and the exhaustive verifier both demonstrate that it is **not** a
synchronous counter for ``f >= 1``, which exercises the machinery that
certifies the real constructions.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from repro.core.algorithm import AlgorithmInfo, State, SynchronousCountingAlgorithm
from repro.core.errors import ParameterError
from repro.util.rng import ensure_rng, randbelow

__all__ = ["NaiveMajorityCounter"]


class NaiveMajorityCounter(SynchronousCountingAlgorithm):
    """Fault-intolerant majority-following ``c``-counter on ``n`` nodes."""

    def __init__(self, n: int, c: int, claimed_resilience: int = 0) -> None:
        """Create the counter.

        ``claimed_resilience`` exists so tests can *claim* a resilience and
        let the verifier refute it; the algorithm itself only tolerates 0
        faults.
        """
        if n < 1:
            raise ParameterError(f"n must be at least 1, got {n}")
        info = AlgorithmInfo(
            name=f"NaiveMajority[n={n}, c={c}]",
            deterministic=True,
            source="baseline (not from the paper)",
            notes="fault-intolerant; counter-example used by the verifier",
        )
        super().__init__(n=n, f=claimed_resilience, c=c, info=info)

    def num_states(self) -> int:
        return self.c

    def stabilization_bound(self) -> int:
        return 1 if self.f == 0 else self.c * self.n

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
        # Single pass: tally, and track both the running majority candidate
        # and the minimum (the no-strict-majority fallback).  A strict
        # majority is unique, so first-to-the-top equals Counter's
        # most_common winner whenever the strict test below passes.
        counts: dict[int, int] = {}
        best_value = 0
        best_count = 0
        minimum: int | None = None
        for value in states:
            count = counts.get(value, 0) + 1
            counts[value] = count
            if count > best_count:
                best_count, best_value = count, value
            if minimum is None or value < minimum:
                minimum = value
        agreed = best_value if 2 * best_count > self.n else minimum
        assert agreed is not None  # n >= 1 guarantees at least one state
        return (agreed + 1) % self.c

    def output(self, node: int, state: State) -> int:
        return self.coerce_message(state)
