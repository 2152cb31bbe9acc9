"""Block layout and leader-pointer arithmetic (Section 3.2 of the paper).

The boosting construction divides ``N = k·n`` nodes into ``k`` blocks of
``n`` nodes.  Each block ``i`` runs a copy ``A_i`` of the inner counter whose
output is interpreted modulo ``c_i = τ·(2m)^{i+1}`` where ``τ = 3(F+2)`` and
``m = ⌈k/2⌉``.  The value of the block counter is read as a pair
``(r, y) ∈ [τ] × [(2m)^{i+1}]``: ``r`` increments every round and ``y``
increments whenever ``r`` overflows.  The **leader pointer** of block ``i``
is::

    b[i, j] = ⌊ y[i, j] / (2m)^i ⌋ mod m,

so block ``i`` switches leaders a factor of ``2m`` more slowly than block
``i - 1``; Lemmas 1 and 2 show that all stabilised blocks therefore
eventually point at the same leader for at least ``τ`` consecutive rounds.

This module provides the layout bookkeeping, the pointer arithmetic and a
pure "ideal schedule" model of the pointers used by the Figure 1 experiment
and by the property-based tests of Lemmas 1 and 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.core.errors import ParameterError
from repro.util.intmath import ceil_div

__all__ = [
    "BlockLayout",
    "CounterInterpretation",
    "BlockCounterValue",
    "ideal_pointer_trace",
    "common_pointer_intervals",
]


@dataclass(frozen=True)
class BlockLayout:
    """Partition of ``N = k·n`` nodes into ``k`` blocks of ``n`` nodes.

    Node ``v ∈ [k·n]`` is identified with the pair ``(i, j) = (v // n, v % n)``
    — node ``v`` is the ``j``-th node of block ``i``.
    """

    k: int
    n: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ParameterError(f"block count k must be at least 1, got {self.k}")
        if self.n < 1:
            raise ParameterError(f"block size n must be at least 1, got {self.n}")

    @property
    def total_nodes(self) -> int:
        """Total number of nodes ``N = k·n``."""
        return self.k * self.n

    def block_of(self, node: int) -> int:
        """Return the block index ``i`` of node ``v``."""
        self._check_node(node)
        return node // self.n

    def index_in_block(self, node: int) -> int:
        """Return the within-block index ``j`` of node ``v``."""
        self._check_node(node)
        return node % self.n

    def split(self, node: int) -> tuple[int, int]:
        """Return the pair ``(i, j)`` for node ``v``."""
        self._check_node(node)
        return node // self.n, node % self.n

    def node_id(self, block: int, index: int) -> int:
        """Return the global identifier of the ``index``-th node of ``block``."""
        if not 0 <= block < self.k:
            raise ParameterError(f"block must be in [0, {self.k}), got {block}")
        if not 0 <= index < self.n:
            raise ParameterError(f"index must be in [0, {self.n}), got {index}")
        return block * self.n + index

    def block_members(self, block: int) -> range:
        """Return the global identifiers of the nodes in ``block``."""
        if not 0 <= block < self.k:
            raise ParameterError(f"block must be in [0, {self.k}), got {block}")
        start = block * self.n
        return range(start, start + self.n)

    def blocks(self) -> Iterator[range]:
        """Iterate over the member ranges of all blocks."""
        for block in range(self.k):
            yield self.block_members(block)

    def faulty_blocks(self, faulty_nodes: Sequence[int], f: int) -> set[int]:
        """Return the indices of *faulty* blocks.

        A block is faulty when it contains **more than** ``f`` faulty nodes
        (Section 3.2): its inner counter may then never stabilise.
        """
        per_block: dict[int, int] = {}
        for node in faulty_nodes:
            per_block[self.block_of(node)] = per_block.get(self.block_of(node), 0) + 1
        return {block for block, count in per_block.items() if count > f}

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.total_nodes:
            raise ParameterError(
                f"node must be in [0, {self.total_nodes}), got {node}"
            )


@dataclass(frozen=True)
class BlockCounterValue:
    """The interpreted value of a block counter: ``(r, y)`` plus the pointer ``b``."""

    r: int
    y: int
    pointer: int


class CounterInterpretation:
    """Interprets inner counter outputs as ``(r, y)`` pairs and leader pointers.

    Parameters
    ----------
    k:
        Number of blocks.
    F:
        Resilience of the boosted counter; determines ``τ = 3(F+2)``.
    """

    def __init__(self, k: int, F: int) -> None:
        if k < 3:
            raise ParameterError(f"the construction requires k >= 3 blocks, got {k}")
        if F < 0:
            raise ParameterError(f"resilience F must be non-negative, got {F}")
        self._k = k
        self._F = F
        self._m = ceil_div(k, 2)
        self._tau = 3 * (F + 2)
        self._base = 2 * self._m
        # c_i = τ·(2m)^{i+1} for i = -1, ..., k-1 (index i + 1; the last is
        # the max period), and the pointer divisor (2m)^i of every block i:
        # computed once, read by every decomposition and vote.
        self._periods = tuple(self._tau * self._base**i for i in range(k + 1))
        self._divisors = tuple(self._base**i for i in range(k))
        self._block_tables = tuple(zip(self._periods[1:], self._divisors))

    @property
    def k(self) -> int:
        """Number of blocks."""
        return self._k

    @property
    def m(self) -> int:
        """``m = ⌈k/2⌉`` — the number of candidate leader blocks."""
        return self._m

    @property
    def tau(self) -> int:
        """``τ = 3(F+2)`` — the length of the phase king schedule."""
        return self._tau

    @property
    def base(self) -> int:
        """``2m`` — the factor between consecutive block counter periods."""
        return self._base

    def round_and_pointer(self, value: int, block: int) -> tuple[int, int]:
        """``(r, b)`` of a block-``i`` value ``v``, the two numbers a vote reads.

        ``reduced = v mod c_i``, ``r = reduced mod τ`` and
        ``b = ⌊⌊reduced / τ⌋ / (2m)^i⌋ mod m``, as :meth:`decompose` computes
        them, from the per-block period and divisor table, without its
        checks (``v >= 0`` and ``block ∈ [k]`` are the caller's).
        """
        period, divisor = self._block_tables[block]
        reduced = value % period
        return reduced % self._tau, reduced // self._tau // divisor % self._m

    def block_period(self, block: int) -> int:
        """Return ``c_i = τ·(2m)^{i+1}``, the period of block ``i``'s counter.

        For notational convenience the paper also defines ``c_{-1} = τ``.
        """
        if block < -1 or block >= self._k:
            raise ParameterError(f"block must be in [-1, {self._k}), got {block}")
        return self._periods[block + 1]

    def max_period(self) -> int:
        """Return ``τ·(2m)^k``, the period of the slowest block counter.

        The inner counter size ``c`` must be a multiple of this value and the
        extra stabilisation time of Theorem 1 equals it.
        """
        return self._periods[-1]

    def decompose(self, value: int, block: int) -> BlockCounterValue:
        """Interpret an inner counter output for ``block``.

        ``value`` is first reduced modulo the block period ``c_i`` (this is
        the output function ``h_i = h mod c_i`` of the copy ``A_i``), then
        split into ``r = value mod τ`` and ``y = value div τ`` and finally the
        leader pointer ``b = ⌊y / (2m)^i⌋ mod m`` is derived.
        """
        if value < 0:
            raise ParameterError(f"counter value must be non-negative, got {value}")
        if not 0 <= block < self._k:
            raise ParameterError(f"block must be in [0, {self._k}), got {block}")
        reduced = value % self._periods[block + 1]
        r = reduced % self._tau
        y = reduced // self._tau
        pointer = (y // self._divisors[block]) % self._m
        return BlockCounterValue(r=r, y=y, pointer=pointer)

    def leader_pointer(self, value: int, block: int) -> int:
        """Shortcut for ``decompose(value, block).pointer``."""
        return self.decompose(value, block).pointer

    def round_component(self, value: int, block: int) -> int:
        """Shortcut for ``decompose(value, block).r``."""
        return self.decompose(value, block).r

    def pointer_dwell_time(self, block: int) -> int:
        """How long block ``i`` keeps pointing at the same leader: ``c_{i-1} = τ·(2m)^i``."""
        return self.block_period(block - 1)


def ideal_pointer_trace(
    interpretation: CounterInterpretation,
    block: int,
    start_value: int,
    rounds: int,
) -> list[int]:
    """Leader pointers of a *stabilised* block counter over ``rounds`` rounds.

    A stabilised block increments its counter by one modulo ``c_i`` each
    round; the resulting pointer sequence is what Lemma 1 reasons about.
    """
    if rounds < 0:
        raise ParameterError(f"rounds must be non-negative, got {rounds}")
    period = interpretation.block_period(block)
    return [
        interpretation.leader_pointer((start_value + t) % period, block)
        for t in range(rounds)
    ]


def common_pointer_intervals(
    traces: Sequence[Sequence[int]], target: int
) -> list[tuple[int, int]]:
    """Maximal intervals during which *all* traces point at ``target``.

    Returns a list of half-open intervals ``(start, end)`` (in rounds).  Used
    by the Figure 1 experiment and the Lemma 2 tests: for stabilised blocks
    there must exist an interval of length at least ``τ`` for every candidate
    leader ``target ∈ [m]`` within ``c_{k-1}`` rounds.
    """
    if not traces:
        return []
    length = min(len(trace) for trace in traces)
    intervals: list[tuple[int, int]] = []
    start: int | None = None
    for t in range(length):
        if all(trace[t] == target for trace in traces):
            if start is None:
                start = t
        else:
            if start is not None:
                intervals.append((start, t))
                start = None
    if start is not None:
        intervals.append((start, length))
    return intervals
