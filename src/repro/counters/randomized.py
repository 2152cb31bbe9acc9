"""The folklore randomised synchronous counter (baseline of Table 1, refs [6, 7]).

The paper describes the idea as: "the nodes can just pick random states until
a clear majority of them has the same state, after which they start to follow
the majority."  Concretely, every node keeps a value in ``[c]``; each round it
looks at the received values and

* if some value ``v`` is supported by at least ``n - f`` nodes, it adopts
  ``v + 1 mod c`` (the deterministic *follow* step), and
* otherwise it picks a fresh value uniformly at random.

With ``f < n/3`` two different values can never simultaneously reach the
``n - f`` threshold at two correct nodes, so once all correct nodes hold the
same value they keep counting in agreement forever; before that, every round
has probability at least ``c^{-(n-f)}`` of unifying the correct nodes, giving
an expected stabilisation time exponential in ``n - f`` — the
``2^{2(n-f)}`` row of Table 1 (for ``c = 2``).

The algorithm keeps only ``⌈log2 c⌉`` bits of state per node but is
randomised; it is the space-efficient/non-deterministic point of comparison
for the deterministic constructions of the paper.
"""

from __future__ import annotations

import random
from typing import Any, Iterator, Sequence

from repro.core.algorithm import AlgorithmInfo, State, SynchronousCountingAlgorithm
from repro.core.errors import ParameterError
from repro.util.rng import ensure_rng, randbelow

__all__ = ["RandomizedFollowMajorityCounter"]


class RandomizedFollowMajorityCounter(SynchronousCountingAlgorithm):
    """Randomised ``c``-counter: follow a clear majority, otherwise randomise."""

    def __init__(self, n: int, f: int, c: int = 2, seed: int | None = 0) -> None:
        if f > 0 and 3 * f >= n:
            raise ParameterError(
                f"randomised counting still requires n > 3f, got n={n}, f={f}"
            )
        info = AlgorithmInfo(
            name=f"RandomizedFollowMajority[n={n}, f={f}, c={c}]",
            deterministic=False,
            source="Table 1, refs [6, 7]",
            notes="expected stabilisation time exponential in n - f",
        )
        super().__init__(n=n, f=f, c=c, info=info)
        self._rng = ensure_rng(seed)
        #: The follow threshold, hoisted out of the per-round transition.
        self._threshold = n - f

    # ------------------------------------------------------------------ #
    # Randomness management
    # ------------------------------------------------------------------ #

    def reseed(self, seed: int | random.Random | None) -> None:
        """Reset the algorithm's internal randomness (for reproducible trials)."""
        self._rng = ensure_rng(seed)

    # ------------------------------------------------------------------ #
    # (X, g, h)
    # ------------------------------------------------------------------ #

    def num_states(self) -> int:
        return self.c

    def expected_stabilization_rounds(self) -> float:
        """The coarse ``c^(n-f)`` bound on the expected stabilisation time."""
        return float(self.c ** (self.n - self.f))

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
        # Single pass: tally and track the smallest value reaching the
        # n - f threshold at once (no Counter, no candidate-list scan).
        # At most one value can reach n - f support among correct nodes
        # (two would require 2(n - 2f) <= n - f, i.e. n <= 3f), but the
        # minimum is tracked anyway to keep the historical tie-break exact.
        threshold = self._threshold
        counts: dict[int, int] = {}
        supported: int | None = None
        for value in states:
            count = counts.get(value, 0) + 1
            counts[value] = count
            if count >= threshold and (supported is None or value < supported):
                supported = value
        if supported is not None:
            return (supported + 1) % self.c
        return self._rng.randrange(self.c)

    def output(self, node: int, state: State) -> int:
        return self.coerce_message(state)
