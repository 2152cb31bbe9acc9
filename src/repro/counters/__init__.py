"""Concrete synchronous counting algorithms used as building blocks and baselines.

* :class:`~repro.counters.trivial.TrivialCounter` — the 0-resilient one-node
  counter used as the base case of the recursive construction (Section 4.1).
* :class:`~repro.counters.naive.NaiveMajorityCounter` — a fault-intolerant
  follow-the-majority counter, used as a negative example in tests and in the
  verification demos.
* :class:`~repro.counters.randomized.RandomizedFollowMajorityCounter` — the
  folklore randomised counter of [6, 7] (pick random states until a clear
  majority emerges, then follow it), the randomised baseline of Table 1.
* :class:`~repro.counters.baselines.DolevHochModel` and friends — analytic
  complexity models of the prior-work rows of Table 1.

Which counters exist under which names is declared once, in
:mod:`repro.semantics.catalog`; build one by name with
:func:`repro.semantics.build_algorithm`.
"""

from repro.counters.naive import NaiveMajorityCounter
from repro.counters.randomized import RandomizedFollowMajorityCounter
from repro.counters.trivial import TrivialCounter

__all__ = [
    "TrivialCounter",
    "NaiveMajorityCounter",
    "RandomizedFollowMajorityCounter",
]
