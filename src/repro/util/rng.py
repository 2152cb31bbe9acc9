"""Deterministic random number generator plumbing.

All randomised components of the library (adversaries, randomised counters,
the sampling-based pulling algorithms) receive an explicit
:class:`random.Random` instance.  The helpers here make it easy to derive
independent, reproducible streams from a single seed, which keeps every
experiment and test repeatable.
"""

from __future__ import annotations

import random
import zlib
from typing import Iterable, Sequence

__all__ = [
    "ensure_rng",
    "derive_rng",
    "derivation_base",
    "derive_rng_from_base",
    "spawn_rngs",
    "randbelow",
]

#: Large odd multiplier used to mix derivation labels into seeds.
_MIX = 0x9E3779B97F4A7C15


def ensure_rng(rng: random.Random | int | None) -> random.Random:
    """Return a :class:`random.Random`.

    Accepts an existing generator (returned unchanged), an integer seed, or
    ``None`` (a fresh unseeded generator).
    """
    if isinstance(rng, random.Random):
        return rng
    if rng is None:
        return random.Random()
    if isinstance(rng, int):
        return random.Random(rng)
    raise TypeError(f"expected Random, int or None, got {type(rng).__name__}")


def derive_rng(rng: random.Random | int | None, *labels: int | str) -> random.Random:
    """Derive a new generator from ``rng`` and a sequence of labels.

    The derivation is deterministic: the same base seed and labels always
    produce the same stream.  Labels are typically node identifiers, round
    numbers or component names.

    An int ``rng`` is re-seeded on every call: each call seeds a fresh
    Mersenne Twister from it only to draw the same 64-bit base again.  A
    loop that derives many streams from one int seed draws that base once
    with :func:`derivation_base` and calls :func:`derive_rng_from_base` per
    stream instead.
    """
    return derive_rng_from_base(derivation_base(rng), *labels)


def derivation_base(rng: random.Random | int | None) -> int:
    """The 64 bits :func:`derive_rng` draws from ``rng`` before the labels.

    The same int seed always gives the same base; a generator gives its
    next 64 bits.
    """
    return ensure_rng(rng).getrandbits(64)


def derive_rng_from_base(base: int, *labels: int | str) -> random.Random:
    """The generator :func:`derive_rng` derives from an already drawn base.

    ``derive_rng_from_base(derivation_base(seed), *labels)`` is the stream
    of ``derive_rng(seed, *labels)``.
    """
    seed = base
    for label in labels:
        if isinstance(label, str):
            # Use a process-independent hash: Python's built-in ``hash`` for
            # strings is randomised per interpreter run, which would make
            # derived streams irreproducible across processes.
            label_value = zlib.crc32(label.encode("utf-8")) & 0xFFFFFFFFFFFFFFFF
        else:
            label_value = int(label) & 0xFFFFFFFFFFFFFFFF
        seed = (seed * _MIX + label_value + 1) & 0xFFFFFFFFFFFFFFFF
    return random.Random(seed)


def randbelow(rng: random.Random, bound: int) -> int:
    """``rng.randrange(bound)`` for ``bound > 0``, at the cost of its bits.

    Draws the way CPython's ``randrange`` and ``choice`` do
    (``_randbelow_with_getrandbits``): ``getrandbits(bound.bit_length())``,
    redrawn while ``>= bound``.  The value and the stream position after it
    are the ones ``randrange(bound)`` gives.
    """
    bits = bound.bit_length()
    draw = rng.getrandbits(bits)
    while draw >= bound:
        draw = rng.getrandbits(bits)
    return draw


def spawn_rngs(rng: random.Random | int | None, count: int) -> Sequence[random.Random]:
    """Return ``count`` independent generators derived from ``rng``."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    base = ensure_rng(rng)
    return [random.Random(base.getrandbits(64)) for _ in range(count)]


def sample_without_replacement(
    rng: random.Random, population: Iterable[int], k: int
) -> list[int]:
    """Sample ``k`` distinct elements from ``population`` (or all of them if fewer)."""
    items = list(population)
    if k >= len(items):
        return items
    return rng.sample(items, k)
