"""Majority voting primitives (Section 3.3 of the paper).

The boosting construction relies on a simple majority operation::

    majority(x) = a   if a occurs in x strictly more than |x|/2 times,
                  *   otherwise,

where ``*`` means the result is arbitrary.  In the implementation the
arbitrary case is resolved to an explicit, deterministic ``default`` value
(the paper notes "defaulting to, e.g., 0, when no such majority is found").

On top of the raw majority we provide the three derived votes used by the
construction:

* ``b^i`` — the leader block supported by block ``i`` (majority over the
  block's leader pointers),
* ``B``  — the globally supported leader block (majority over the ``b^i``),
* ``R``  — the round counter read from block ``B`` (majority over the
  ``r``-components announced by block ``B``'s nodes).
"""

from __future__ import annotations

from collections import Counter
from typing import Hashable, Iterable, Sequence, TypeVar

__all__ = [
    "value_counts",
    "majority",
    "has_majority",
    "block_leader_votes",
    "global_leader_vote",
]

T = TypeVar("T", bound=Hashable)


def value_counts(values: Iterable[T]) -> Counter:
    """Return a :class:`collections.Counter` of the values."""
    return Counter(values)


def majority(values: Sequence[T], default: T) -> T:
    """Return the strict majority value of ``values``.

    A value is a strict majority if it occurs more than ``len(values) / 2``
    times.  If no value does, ``default`` is returned — this corresponds to
    the ``*`` case of the paper's majority function where the result may be
    arbitrary (non-faulty nodes broadcast consistently, so at most one value
    can ever hold a strict majority of non-faulty votes).

    This sits on the boosted counter's per-node per-round hot path.  After
    stabilisation the first value usually holds the majority, which one
    ``list.count`` confirms; otherwise the tally is a single pass tracking
    the running leader (a strict majority is unique, so first-to-the-top is
    the Counter.most_common winner whenever the strict test passes).
    """
    if not values:
        return default
    first = values[0]
    if 2 * values.count(first) > len(values):
        return first
    counts: dict[T, int] = {}
    best = default
    best_count = 0
    for value in values:
        count = counts.get(value, 0) + 1
        counts[value] = count
        if count > best_count:
            best_count, best = count, value
    if 2 * best_count > len(values):
        return best
    return default


def has_majority(values: Sequence[T], candidate: T) -> bool:
    """Return True if ``candidate`` occurs strictly more than ``len(values)/2`` times."""
    if not values:
        return False
    count = sum(1 for value in values if value == candidate)
    return 2 * count > len(values)


def block_leader_votes(
    pointers: Sequence[Sequence[int]], default: int = 0
) -> list[int]:
    """Compute ``b^i = majority{b[i, j] : j ∈ [n]}`` for every block ``i``.

    ``pointers[i][j]`` is the leader pointer announced by the ``j``-th node of
    block ``i`` (as derived from its broadcast state).
    """
    return [majority(block, default) for block in pointers]


def global_leader_vote(block_votes: Sequence[int], default: int = 0) -> int:
    """Compute ``B = majority{b^i : i ∈ [k]}``."""
    return majority(block_votes, default)
