"""Vectorised batch-trial simulation: whole campaigns as NumPy array programs.

Every statistic the paper cares about — the Table 1 stabilisation-time
distributions, the scaling curves, the adversary ablations — is estimated by
re-running one ``(algorithm, adversary, n, f)`` configuration for hundreds of
independent trials that differ only in their seed and faulty set.  The scalar
engine (:func:`repro.network.engine.run_engine`) walks each of those trials
through a pure-Python round loop, one node dictionary at a time.  This module
folds the *trial axis* into the state representation instead: the states of
all nodes across ``B`` simultaneous trials live in one ``(B, n, fields)``
integer array, and one synchronous round of the whole batch is a handful of
vectorised array operations.

The moving parts:

* :class:`BatchKernel` / :class:`PullBatchKernel` — the vectorised
  counterpart of an algorithm's ``transition``: encode states as fixed-width
  integer field vectors and map a round of received messages to successor
  states for the whole batch at once.  Kernels for the catalogue algorithms
  live in :mod:`repro.counters.kernels` (broadcast) and
  :mod:`repro.sampling.kernels` (pulling); :func:`build_batch_kernel`
  dispatches on the algorithm instance.
* :class:`AdversaryBatchKernel` — vectorised forgery: given broadcastable
  ``(sender, receiver)`` index arrays, produce the coerced field vectors the
  Byzantine senders deliver.  Forgeries enter the round as per-receiver
  *column patches* on the shared broadcast matrix
  (:meth:`BatchMessages.received`), so the fault-free bulk of the message
  matrix is never copied per receiver.
* :func:`run_batch_trials` / :func:`run_batch_summaries` — the batched
  round loop: per-trial agreement as boolean masks, the scalar engine's
  :func:`~repro.network.engine.stop_step` applied to ``(B,)`` arrays,
  finished trials frozen (compacted out of the live arrays) while the rest
  of the batch continues, and finally one
  :class:`~repro.network.stabilization.RunSummary` — or, on request, one
  :class:`~repro.network.trace.ExecutionTrace` — per trial.

Correctness contract
--------------------

* **Deterministic configurations are bit-identical to the scalar engine.**
  Initial states are drawn per trial from exactly the streams the scalar
  engine derives (``initial-states`` first, in the model's documented
  order), and deterministic kernels perform the same integer arithmetic the
  scalar transition does, so traces and the
  :class:`~repro.campaigns.results.RunResult` reductions match the scalar
  engine bit for bit.  This is asserted trial-by-trial in
  ``tests/network/test_batch.py``.
* **Randomised configurations are statistically equivalent.**  Randomised
  kernels (and randomised adversary kernels) draw from a NumPy
  ``Generator`` seeded from the trial seeds instead of replaying the scalar
  engine's per-call ``random.Random`` streams; the per-round distributions
  are identical but the sampled values are not.  Such traces carry an
  explicit ``rng`` note in their metadata (:data:`BATCH_RNG_NOTE`) so
  downstream consumers can tell the streams apart.
* **Message-plane perturbations are statistically equivalent.**  The
  ``loss`` / ``delay`` knobs replay the scalar staleness model of
  :func:`repro.faults.runtime.run_perturbed_round` — per-link draws from
  the same distributions, self-links and Byzantine links untouched — as
  masked array ops over a short history of state snapshots.  Perturbed
  runs always consume NumPy randomness, so they always carry the ``rng``
  note.  Fault *schedules* have no batch path: the campaign layer routes
  scheduled runs to the scalar engine with a named fallback reason.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.errors import SimulationError
from repro.core.phase_king import INFINITY as _INFINITY
from repro.network.adversary import NoAdversary, build_adversary
from repro.network.engine import derive_streams, resolve_initial_states, stop_step
from repro.semantics import (
    active_strategy_names,
    adversary_coverage_notes,
    adversary_semantics,
)
from repro.network.stabilization import RunSummary
from repro.network.trace import ExecutionTrace, RoundRecord
from repro.obs.events import RoundObserved
from repro.obs.observer import active as _active_observer
from repro.util.rng import ensure_rng

__all__ = [
    "BATCH_RNG_NOTE",
    "BatchTrial",
    "BatchMessages",
    "PerturbedBatchMessages",
    "BatchPullNetwork",
    "BatchKernel",
    "PullBatchKernel",
    "AdversaryBatchKernel",
    "ADVERSARY_BATCH_KERNELS",
    "adversary_kernel_available",
    "adversary_kernel_coverage",
    "build_adversary_kernel",
    "build_batch_kernel",
    "run_batch_trials",
    "run_batch_summaries",
]

#: Metadata note stamped into traces whose batch execution consumed NumPy
#: randomness (randomised kernel or randomised adversary kernel).  Scalar
#: traces never carry the key, and deterministic batch traces omit it so they
#: stay bit-identical to their scalar counterparts.
BATCH_RNG_NOTE = "batch:numpy-PCG64 (statistically equivalent to the scalar random.Random streams)"

#: Sentinel for "all correct nodes disagree" in the vectorised agreement
#: tracking; counter outputs are always non-negative.
_DISAGREE = -1


@dataclass(frozen=True)
class BatchTrial:
    """One trial of a batched group: the seed, faulty set and trace tags.

    Mirrors what :func:`repro.campaigns.executor.execute_run` feeds the
    scalar engine for one :class:`~repro.campaigns.spec.RunSpec`: ``sim_seed``
    is the master seed the RNG streams derive from, ``faulty`` the explicit
    Byzantine set, and ``metadata`` the caller entries (run id, tags) merged
    into the trace header.
    """

    sim_seed: int
    faulty: tuple[int, ...] = ()
    metadata: tuple[tuple[str, Any], ...] = ()


# ---------------------------------------------------------------------- #
# Kernel protocols
# ---------------------------------------------------------------------- #


class _KernelBase(ABC):
    """State-encoding surface shared by broadcast and pulling kernels.

    A kernel represents one node state as ``fields`` int64 values.  All
    arrays handed to kernels use the layout ``(..., fields)``; the encoding
    must be such that every value a correct node can hold — and every coerced
    forgery an adversary kernel produces — round-trips exactly.
    """

    #: Number of int64 fields per node state.
    fields: int = 1

    #: Whether :meth:`step` is a pure function of its inputs (consumes no
    #: NumPy randomness).  Deterministic kernels are bit-identical to the
    #: scalar engine; randomised ones are statistically equivalent.
    deterministic: bool = True

    def __init__(self, algorithm: Any) -> None:
        self.algorithm = algorithm

    @abstractmethod
    def encode(self, state: Any) -> tuple[int, ...]:
        """Encode one scalar-engine state as ``fields`` integers."""

    @abstractmethod
    def decode(self, row: Sequence[int]) -> Any:
        """Inverse of :meth:`encode` (used by tests and debugging)."""

    @abstractmethod
    def outputs(self, states: np.ndarray) -> np.ndarray:
        """Counter outputs ``h(i, s)`` for a ``(..., fields)`` state array."""

    @abstractmethod
    def random_fields(
        self, rng: np.random.Generator, shape: tuple[int, ...]
    ) -> np.ndarray:
        """Uniformly random valid states, shaped ``(*shape, fields)``.

        Must sample the same distribution as the algorithm's
        ``random_state`` (used by the random-state / split-state adversary
        kernels, *not* for initial states — those come from the scalar
        streams so deterministic runs stay bit-identical).
        """

    def default_fields(self) -> np.ndarray:
        """The encoded default state (what the crash adversary broadcasts)."""
        return np.asarray(self.encode(self.algorithm.default_state()), dtype=np.int64)


class BatchKernel(_KernelBase):
    """Vectorised broadcast-model algorithm: one round for the whole batch."""

    model = "broadcast"

    @abstractmethod
    def step(
        self, view: "BatchMessages", round_index: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Map the round's received messages to successor states.

        Returns the new ``(B, n, fields)`` state array for *all* ``n``
        columns; the engine ignores the faulty columns (their values are
        placeholders — every read of a faulty sender goes through the
        forgery patches in ``view``).
        """


class PullBatchKernel(_KernelBase):
    """Vectorised pulling-model algorithm (Section 5)."""

    model = "pulling"

    @abstractmethod
    def step(
        self,
        network: "BatchPullNetwork",
        round_index: int,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, int]:
        """One pulling round: draw targets, pull responses, update states.

        Returns ``(new_states, pulls_per_node)`` where ``pulls_per_node`` is
        the (deterministic) number of pulls every node issued this round —
        the quantity behind the per-round ``max_pulls`` / ``mean_pulls`` /
        ``max_bits`` trace metadata.
        """


# ---------------------------------------------------------------------- #
# Message views
# ---------------------------------------------------------------------- #


class BatchMessages:
    """The broadcast round's message matrix, with forgeries as column patches.

    Correct senders broadcast one state to everyone, so the bulk of the
    ``receiver x sender`` message matrix is the same row repeated; only the
    columns of faulty senders differ per receiver.  The view therefore keeps

    * ``states`` — the shared ``(B, n, fields)`` sender states, and
    * ``forged`` — ``(B, n, f, fields)`` per-receiver forgeries for the
      ``f`` faulty senders listed in ``faulty_idx`` (``None`` when the batch
      is fault-free),

    and materialises a per-receiver matrix only on demand, one field at a
    time.  Fault-free batches never copy at all (a broadcast view).
    """

    def __init__(
        self,
        states: np.ndarray,
        faulty_idx: np.ndarray | None,
        forged: np.ndarray | None,
    ) -> None:
        self.states = states
        self.faulty_idx = faulty_idx
        self.forged = forged

    @property
    def batch(self) -> int:
        """Number of live trials ``B``."""
        return self.states.shape[0]

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self.states.shape[1]

    def received(self, field: int) -> np.ndarray:
        """The ``(B, receiver, sender)`` matrix of one received field.

        Without faults this is a read-only broadcast view of the shared
        sender states; with faults the faulty columns are patched with the
        per-receiver forgeries.
        """
        batch, n = self.batch, self.n
        base = np.broadcast_to(self.states[:, None, :, field], (batch, n, n))
        if self.forged is None:
            return base
        matrix = base.copy()
        assert self.faulty_idx is not None
        np.put_along_axis(
            matrix, self.faulty_idx[:, None, :], self.forged[:, :, :, field], axis=2
        )
        return matrix

    def received_stack(self) -> np.ndarray:
        """All fields at once: ``(B, receiver, sender, fields)``."""
        fields = self.states.shape[2]
        return np.stack([self.received(i) for i in range(fields)], axis=-1)

    def field_counts(self, field: int, size: int) -> np.ndarray:
        """Per-receiver tallies of one field over bins ``[0, size)``.

        Returns ``(B, n, size)`` counts of the received values — without
        materialising the per-receiver message matrix: the shared correct
        senders are counted once per trial and only the ``f`` forged values
        are added per receiver (``O(B·n·f)`` instead of ``O(B·n²)``).
        Values must already be coerced into ``[0, size)``.
        """
        batch, n = self.batch, self.n
        values = self.states[:, :, field]
        if self.forged is None:
            offsets = (np.arange(batch, dtype=np.int64) * size)[:, None]
            shared = np.bincount(
                (values + offsets).ravel(), minlength=batch * size
            ).reshape(batch, size)
            return np.broadcast_to(shared[:, None, :], (batch, n, size))
        assert self.faulty_idx is not None
        masked = values.copy()
        # Faulty senders' placeholder entries land in an overflow bin that
        # is sliced away, so only correct senders reach the shared tally.
        np.put_along_axis(masked, self.faulty_idx, size, axis=1)
        offsets = (np.arange(batch, dtype=np.int64) * (size + 1))[:, None]
        shared = np.bincount(
            (masked + offsets).ravel(), minlength=batch * (size + 1)
        ).reshape(batch, size + 1)[:, :size]
        forged_values = self.forged[:, :, :, field]
        cell_offsets = (np.arange(batch * n, dtype=np.int64) * size).reshape(
            batch, n, 1
        )
        forged_counts = np.bincount(
            (forged_values + cell_offsets).ravel(), minlength=batch * n * size
        ).reshape(batch, n, size)
        return shared[:, None, :] + forged_counts

    def field_min(self, field: int) -> np.ndarray:
        """Per-receiver minimum of one received field: ``(B, n)``."""
        batch, n = self.batch, self.n
        values = self.states[:, :, field]
        if self.forged is None:
            shared = values.min(axis=1)
            return np.broadcast_to(shared[:, None], (batch, n))
        assert self.faulty_idx is not None
        masked = values.copy()
        np.put_along_axis(
            masked, self.faulty_idx, np.iinfo(np.int64).max, axis=1
        )
        shared = masked.min(axis=1)
        return np.minimum(shared[:, None], self.forged[:, :, :, field].min(axis=2))


class PerturbedBatchMessages(BatchMessages):
    """Broadcast round view under message-plane loss/delay perturbations.

    With per-link staleness active the ``receiver x sender`` matrix is no
    longer one broadcast row per sender: each link independently delivers
    the sender's start-of-round state from up to ``delay`` (plus one on a
    lost message) rounds ago.  The view therefore carries the fully
    materialised ``(B, receiver, sender, fields)`` delivered tensor.
    Forgeries still patch the faulty columns per receiver — Byzantine links
    are forged, never perturbed — and the shared-tally fast paths of the
    fault-free view degrade to per-receiver reductions over the delivered
    matrix (``O(B·n²)``, the honest cost of per-link perturbation).
    """

    def __init__(
        self,
        states: np.ndarray,
        faulty_idx: np.ndarray | None,
        forged: np.ndarray | None,
        delivered: np.ndarray,
    ) -> None:
        super().__init__(states, faulty_idx, forged)
        self.delivered = delivered

    def received(self, field: int) -> np.ndarray:
        matrix = self.delivered[:, :, :, field]
        if self.forged is None:
            return matrix
        matrix = matrix.copy()
        assert self.faulty_idx is not None
        np.put_along_axis(
            matrix, self.faulty_idx[:, None, :], self.forged[:, :, :, field], axis=2
        )
        return matrix

    def field_counts(self, field: int, size: int) -> np.ndarray:
        batch, n = self.batch, self.n
        matrix = self.received(field)
        cell_offsets = (np.arange(batch * n, dtype=np.int64) * size).reshape(
            batch, n, 1
        )
        return np.bincount(
            (matrix + cell_offsets).ravel(), minlength=batch * n * size
        ).reshape(batch, n, size)

    def field_min(self, field: int) -> np.ndarray:
        return self.received(field).min(axis=2)


def _delayed_deliveries(
    history: list[np.ndarray], loss: float, delay: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-link delivered sender states under loss/delay: ``(B, n, n, fields)``.

    Mirrors the scalar staleness model of
    :func:`repro.faults.runtime.run_perturbed_round`: each ``(receiver,
    sender)`` link independently delivers the sender's start-of-round state
    from ``Uniform{0..delay}`` rounds ago, one round staler again with
    probability ``loss``; self-links always deliver the current state, and
    early rounds clamp to the oldest recorded snapshot.  ``history[0]`` is
    the current round's start-of-round states.
    """
    batch, n = history[0].shape[0], history[0].shape[1]
    staleness = np.zeros((batch, n, n), dtype=np.int64)
    if delay > 0:
        staleness += rng.integers(0, delay + 1, size=(batch, n, n), dtype=np.int64)
    if loss > 0.0:
        staleness += rng.random(size=(batch, n, n)) < loss
    diagonal = np.arange(n)
    staleness[:, diagonal, diagonal] = 0
    np.minimum(staleness, len(history) - 1, out=staleness)
    stack = np.stack(history, axis=0)
    bidx = np.arange(batch)[:, None, None]
    sidx = np.arange(n)[None, None, :]
    return stack[staleness, bidx, sidx]


class BatchPullNetwork:
    """The pulling round's response oracle: gather states, patch forgeries."""

    def __init__(
        self,
        states: np.ndarray,
        faulty_lookup: np.ndarray | None,
        adversary: "AdversaryBatchKernel | None",
        correct_sorted: np.ndarray,
        round_index: int,
        rng: np.random.Generator,
    ) -> None:
        self.states = states
        self._faulty_lookup = faulty_lookup
        self._adversary = adversary
        self._correct_sorted = correct_sorted
        self._round_index = round_index
        self._rng = rng

    def respond(self, targets: np.ndarray) -> np.ndarray:
        """Responses for a ``(B, n, P)`` target array: ``(B, n, P, fields)``.

        Correct targets answer with their true state (as of the start of the
        round); faulty targets answer with whatever the adversary kernel
        forges for the ``(target, puller)`` pair.
        """
        batch, n = self.states.shape[0], self.states.shape[1]
        bidx = np.arange(batch)[:, None, None]
        responses = self.states[bidx, targets]
        if self._adversary is None or self._faulty_lookup is None:
            return responses
        is_faulty = self._faulty_lookup[bidx, targets]
        if not is_faulty.any():
            return responses
        receivers = np.broadcast_to(np.arange(n)[None, :, None], targets.shape)
        forged = self._adversary.forge(
            self._round_index,
            targets,
            receivers,
            self.states,
            self._correct_sorted,
            self._rng,
        )
        return np.where(is_faulty[..., None], forged, responses)


# ---------------------------------------------------------------------- #
# Adversary kernels
# ---------------------------------------------------------------------- #


class AdversaryBatchKernel(ABC):
    """Vectorised Byzantine forgery for one strategy.

    The engine calls :meth:`begin_round` once per round, then :meth:`forge`
    with broadcastable ``(B, ...)`` index arrays of faulty senders and their
    receivers.  The returned field vectors must already be *coerced* — i.e.
    valid encodings under the algorithm kernel — matching the scalar engine,
    which pipes every forgery through ``algorithm.coerce_message``.
    """

    #: Strategy name (a key of :data:`repro.semantics.ADVERSARY_SEMANTICS`).
    strategy = "abstract"

    def __init__(self, kernel: _KernelBase) -> None:
        self.kernel = kernel
        #: The resolved answer for this concrete algorithm kernel: whether
        #: :meth:`forge` consumes NumPy randomness against its encoding.
        self.deterministic = type(self).is_deterministic_for(kernel)

    @classmethod
    def is_deterministic_for(cls, kernel: _KernelBase) -> bool:
        """Whether forgeries against this algorithm kernel are pure.

        Read from the strategy's declared
        :class:`~repro.semantics.DeterminismClass`, refined by the kernel's
        state encoding (the adaptive-split fabrication path is pure for flat
        integer counters but draws randomness for boosted states) — so the
        executor can prove bit-identity per group instead of per strategy.
        """
        return adversary_semantics(cls.strategy).determinism.for_kernel(kernel)

    def begin_round(
        self,
        round_index: int,
        states: np.ndarray,
        correct_sorted: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        """Per-round hook (e.g. the split-state pair draw)."""

    @abstractmethod
    def forge(
        self,
        round_index: int,
        senders: np.ndarray,
        receivers: np.ndarray,
        states: np.ndarray,
        correct_sorted: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Forged field vectors for broadcastable sender/receiver indices.

        ``senders`` and ``receivers`` broadcast against each other (with the
        batch axis first); the result has their broadcast shape plus a
        trailing ``fields`` axis.
        """


def _boosted_layout(kernel: _KernelBase) -> tuple[int, int] | None:
    """``(inner_fields, c)`` when the kernel encodes BoostedState rows.

    Every structured kernel (broadcast and pulling boosted counters) uses the
    shared :class:`repro.counters.kernels.BoostedStateCodec` layout — the
    inner core's fields followed by the phase king registers ``(a, d)`` — so
    the register columns sit at ``fields - 2`` and ``fields - 1``.  ``None``
    means the kernel's states are flat integers.
    """
    from repro.core.boosting import BoostedState

    if isinstance(kernel.algorithm.default_state(), BoostedState):
        return kernel.fields - 2, kernel.algorithm.c
    return None


def _batch_index(batch: int, shape: tuple[int, ...]) -> np.ndarray:
    """Trial indices broadcast to a forge-result shape (batch axis first)."""
    bidx = np.arange(batch).reshape((batch,) + (1,) * (len(shape) - 1))
    return np.broadcast_to(bidx, shape)


class CrashBatchKernel(AdversaryBatchKernel):
    """Faulty nodes appear stuck on the algorithm's default state."""

    strategy = "crash"

    def forge(
        self,
        round_index: int,
        senders: np.ndarray,
        receivers: np.ndarray,
        states: np.ndarray,
        correct_sorted: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        shape = np.broadcast_shapes(senders.shape, receivers.shape)
        default = self.kernel.default_fields()
        return np.broadcast_to(default, shape + (self.kernel.fields,))


class FixedStateBatchKernel(AdversaryBatchKernel):
    """Faulty nodes broadcast one fixed, attacker-chosen state.

    The scalar engine pipes every forgery through ``coerce_message``, so the
    fixed state is coerced once at construction and its encoding broadcast to
    every (sender, receiver) pair — deterministic and bit-identical.
    """

    strategy = "fixed-state"

    def __init__(self, kernel: _KernelBase, state: Any = 0) -> None:
        super().__init__(kernel)
        coerced = kernel.algorithm.coerce_message(state)
        self._fields = np.asarray(kernel.encode(coerced), dtype=np.int64)

    def forge(
        self,
        round_index: int,
        senders: np.ndarray,
        receivers: np.ndarray,
        states: np.ndarray,
        correct_sorted: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        shape = np.broadcast_shapes(senders.shape, receivers.shape)
        return np.broadcast_to(self._fields, shape + (self.kernel.fields,))


class RandomStateBatchKernel(AdversaryBatchKernel):
    """Independently random valid state per (sender, receiver) pair."""

    strategy = "random-state"

    def forge(
        self,
        round_index: int,
        senders: np.ndarray,
        receivers: np.ndarray,
        states: np.ndarray,
        correct_sorted: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        shape = np.broadcast_shapes(senders.shape, receivers.shape)
        return self.kernel.random_fields(rng, shape)


class SplitStateBatchKernel(AdversaryBatchKernel):
    """One fresh random state for even receivers, another for odd ones."""

    strategy = "split-state"

    def __init__(self, kernel: _KernelBase) -> None:
        super().__init__(kernel)
        self._pair: np.ndarray | None = None

    def begin_round(
        self,
        round_index: int,
        states: np.ndarray,
        correct_sorted: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        # One pair per trial per round, shared by all faulty senders —
        # exactly the scalar SplitStateAdversary.on_round_start draw.
        self._pair = self.kernel.random_fields(rng, (states.shape[0], 2))

    def forge(
        self,
        round_index: int,
        senders: np.ndarray,
        receivers: np.ndarray,
        states: np.ndarray,
        correct_sorted: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        assert self._pair is not None
        shape = np.broadcast_shapes(senders.shape, receivers.shape)
        parity = np.broadcast_to(receivers % 2, shape)
        batch = states.shape[0]
        bidx = np.arange(batch).reshape((batch,) + (1,) * (len(shape) - 1))
        return self._pair[np.broadcast_to(bidx, shape), parity]


class MimicBatchKernel(AdversaryBatchKernel):
    """Echo the true state of a rotating correct victim (deterministic)."""

    strategy = "mimic"

    def forge(
        self,
        round_index: int,
        senders: np.ndarray,
        receivers: np.ndarray,
        states: np.ndarray,
        correct_sorted: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        shape = np.broadcast_shapes(senders.shape, receivers.shape)
        num_correct = correct_sorted.shape[1]
        position = np.broadcast_to(
            (receivers + round_index) % num_correct, shape
        )
        batch = states.shape[0]
        bidx = np.arange(batch).reshape((batch,) + (1,) * (len(shape) - 1))
        bidx = np.broadcast_to(bidx, shape)
        victims = correct_sorted[bidx, position]
        return states[bidx, victims]


class PhaseKingSkewBatchKernel(AdversaryBatchKernel):
    """Targeted skew of the boosted counter's phase king registers.

    Mirrors :class:`~repro.network.adversary.PhaseKingSkewAdversary`: copy
    the per-receiver victim's state (``correct[receiver % len(correct)]``),
    replace the output register ``a`` with a shifted value for even receivers
    and the reset marker for odd ones, and draw the auxiliary bit ``d``
    uniformly.  For flat integer states the scalar class degrades to fully
    random forgeries, so the kernel does too (``random_fields``).  Both paths
    consume randomness — the ``d`` draw or the random fallback — so this
    kernel is statistically equivalent, never bit-identical.
    """

    strategy = "phase-king-skew"

    def __init__(self, kernel: _KernelBase, offset: int = 1) -> None:
        super().__init__(kernel)
        self._offset = int(offset)
        self._layout = _boosted_layout(kernel)

    def forge(
        self,
        round_index: int,
        senders: np.ndarray,
        receivers: np.ndarray,
        states: np.ndarray,
        correct_sorted: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        shape = np.broadcast_shapes(senders.shape, receivers.shape)
        if self._layout is None:
            return self.kernel.random_fields(rng, shape)
        inner_fields, c = self._layout
        num_correct = correct_sorted.shape[1]
        bidx = _batch_index(states.shape[0], shape)
        position = np.broadcast_to(receivers % num_correct, shape)
        victims = correct_sorted[bidx, position]
        forged = states[bidx, victims].copy()
        victim_a = forged[..., inner_fields]
        skewed = np.where(
            victim_a == _INFINITY, 0, (victim_a + self._offset) % c
        )
        even = np.broadcast_to(receivers % 2 == 0, shape)
        forged[..., inner_fields] = np.where(even, skewed, _INFINITY)
        forged[..., inner_fields + 1] = rng.integers(
            0, 2, size=shape, dtype=np.int64
        )
        return forged


class AdaptiveSplitBatchKernel(AdversaryBatchKernel):
    """Keep the correct nodes' outputs split between the two largest camps.

    Mirrors :class:`~repro.network.adversary.AdaptiveSplitAdversary` exactly:

    * :meth:`begin_round` ranks the correct outputs by ``(count desc, first
      occurrence in ascending node order)`` — the ``Counter.most_common``
      tie-break — and records, per output value, the first correct node
      exhibiting it (the scalar ``_state_by_output`` scan);
    * :meth:`forge` shows each correct receiver the camp opposite its own
      output (receivers outside both camps see camp 0, faulty receivers the
      camp of their parity) by replaying the representative node's state, or
      fabricating one when the target camp has no representative.

    Fabrication is where determinism splits: for flat integer counters the
    scalar ``_fabricate_state`` returns the target value without touching
    the RNG, so the kernel is **bit-identical**; for boosted states it draws
    a random state, so the kernel is statistically equivalent there —
    :meth:`is_deterministic_for` reports the split per algorithm kernel.
    """

    strategy = "adaptive-split"

    def __init__(self, kernel: _KernelBase) -> None:
        super().__init__(kernel)
        self._layout = _boosted_layout(kernel)
        self._int_state = self.deterministic
        self._camp0: np.ndarray | None = None
        self._camp1: np.ndarray | None = None
        self._outputs: np.ndarray | None = None
        self._correct_mask: np.ndarray | None = None
        self._first_pos: np.ndarray | None = None

    def begin_round(
        self,
        round_index: int,
        states: np.ndarray,
        correct_sorted: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        batch, n = states.shape[0], states.shape[1]
        c = self.kernel.algorithm.c
        k = correct_sorted.shape[1]
        outputs = self.kernel.outputs(states)  # (B, n); garbage at faulty cols
        bidx = np.arange(batch)[:, None]
        correct_outputs = outputs[bidx, correct_sorted]  # (B, k)
        # Camp ranking: count desc, then first occurrence (ascending correct
        # node order) asc — exactly Counter.most_common over sorted nodes.
        onehot = correct_outputs[:, :, None] == np.arange(c)[None, None, :]
        counts = onehot.sum(axis=1)  # (B, c)
        present = onehot.any(axis=1)
        first_pos = np.where(present, onehot.argmax(axis=1), k)  # (B, c)
        key = counts * (k + 1) + (k - first_pos)
        camp0 = key.argmax(axis=1)
        runner_up = key.copy()
        runner_up[np.arange(batch), camp0] = -1
        camp1 = runner_up.argmax(axis=1)
        has_second = counts[np.arange(batch), camp1] > 0
        camp1 = np.where(has_second, camp1, (camp0 + 1) % c)
        mask = np.zeros((batch, n), dtype=bool)
        np.put_along_axis(mask, correct_sorted, True, axis=1)
        self._camp0, self._camp1 = camp0, camp1
        self._outputs = outputs
        self._correct_mask = mask
        self._first_pos = first_pos

    def forge(
        self,
        round_index: int,
        senders: np.ndarray,
        receivers: np.ndarray,
        states: np.ndarray,
        correct_sorted: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        assert self._camp0 is not None and self._camp1 is not None
        assert self._outputs is not None and self._correct_mask is not None
        assert self._first_pos is not None
        shape = np.broadcast_shapes(senders.shape, receivers.shape)
        bidx = _batch_index(states.shape[0], shape)
        rec = np.broadcast_to(receivers, shape)
        camp0, camp1 = self._camp0[bidx], self._camp1[bidx]
        target = np.where(
            self._correct_mask[bidx, rec],
            np.where(self._outputs[bidx, rec] == camp0, camp1, camp0),
            np.where(rec % 2 == 0, camp0, camp1),
        )
        if self._int_state:
            # Representative and fabricated states alike *are* the target
            # value for flat counters — no gather, no randomness.
            return target[..., None]
        k = correct_sorted.shape[1]
        pos = self._first_pos[bidx, target]
        have_rep = pos < k
        rep_nodes = correct_sorted[bidx, np.minimum(pos, k - 1)]
        forged = states[bidx, rep_nodes].copy()
        if not have_rep.all():
            forged = np.where(
                have_rep[..., None], forged, self._fabricate(target, shape, rng)
            )
        return forged

    def _fabricate(
        self,
        target: np.ndarray,
        shape: tuple[int, ...],
        rng: np.random.Generator,
    ) -> np.ndarray:
        # The scalar _fabricate_state for structured states: a random state
        # with the phase king registers pinned to (target, 1).
        fields = self.kernel.random_fields(rng, shape)
        if self._layout is not None:
            inner_fields, c = self._layout
            fields[..., inner_fields] = target % c
            fields[..., inner_fields + 1] = 1
        return fields


#: Every registered adversary strategy has a vectorised kernel.  Generated
#: from the semantics catalogue's kernel bindings — the classes live here,
#: but which names exist is declared once, in :mod:`repro.semantics` —
#: so coverage is total by construction (asserted against the catalogue's
#: active strategies in the test suite).
ADVERSARY_BATCH_KERNELS: dict[str, type[AdversaryBatchKernel]] = {
    name: adversary_semantics(name).kernel_class()
    for name in active_strategy_names()
}


def adversary_kernel_coverage() -> dict[str, str]:
    """Generated coverage note: strategy name -> batch equivalence class.

    Read from each strategy's declared
    :class:`~repro.semantics.DeterminismClass` (cross-checked against the
    kernels' actual RNG consumption by :func:`repro.semantics.verify`), so
    it can never go stale the way a hand-written coverage comment can.  The
    fault-free ``"none"`` entry is included because discovery surfaces list
    it next to the active strategies.
    """
    return adversary_coverage_notes()


def adversary_kernel_available(strategy: str | None) -> bool:
    """Whether the strategy (or the fault-free ``None``) has a batch kernel."""
    return strategy is None or strategy in ADVERSARY_BATCH_KERNELS


def build_adversary_kernel(
    strategy: str,
    kernel: _KernelBase,
    params: Mapping[str, Any] | None = None,
) -> AdversaryBatchKernel:
    """Construct the adversary kernel for a registered strategy name.

    ``params`` are the strategy parameters of the scalar
    :func:`~repro.network.adversary.build_adversary` call (e.g. the
    fixed-state ``state`` or the phase-king-skew ``offset``); kernels accept
    exactly the parameters their scalar classes do.
    """
    try:
        cls = ADVERSARY_BATCH_KERNELS[strategy]
    except KeyError:
        known = ", ".join(sorted(ADVERSARY_BATCH_KERNELS))
        raise SimulationError(
            f"adversary strategy {strategy!r} has no batch kernel; "
            f"vectorised strategies: {known}"
        ) from None
    try:
        return cls(kernel, **dict(params or {}))
    except TypeError as exc:
        raise SimulationError(
            f"adversary strategy {strategy!r} rejected batch parameters "
            f"{dict(params or {})!r}: {exc}"
        ) from None


def build_batch_kernel(algorithm: Any) -> "BatchKernel | PullBatchKernel | None":
    """The vectorised kernel for an algorithm instance, or ``None``.

    Dispatches to the broadcast kernels of :mod:`repro.counters.kernels` and
    the pulling kernels of :mod:`repro.sampling.kernels`.  ``None`` means the
    algorithm (or its parameterisation — e.g. counter periods that overflow
    int64) has no vectorised fast path and callers must use the scalar
    engine.
    """
    from repro.counters.kernels import build_broadcast_kernel
    from repro.sampling.kernels import build_pulling_kernel

    kernel = build_broadcast_kernel(algorithm)
    if kernel is not None:
        return kernel
    return build_pulling_kernel(algorithm)


# ---------------------------------------------------------------------- #
# The batched round loop
# ---------------------------------------------------------------------- #


def run_batch_trials(
    algorithm: Any,
    kernel: BatchKernel | PullBatchKernel,
    trials: Sequence[BatchTrial],
    *,
    adversary_strategy: str | None = None,
    adversary_params: Mapping[str, Any] | None = None,
    max_rounds: int = 1000,
    stop_after_agreement: int | None = None,
    batch_size: int = 256,
    loss: float = 0.0,
    delay: int = 0,
    observer: Any = None,
) -> list[ExecutionTrace]:
    """Run many trials of one configuration as a vectorised batch.

    Semantics match running each trial through the scalar engine with
    ``seed=trial.sim_seed`` and the adversary built from
    ``(adversary_strategy, trial.faulty, adversary_params)``: the same derived
    initial-state streams, the same :func:`~repro.network.engine.stop_step`
    (window first on ties), and the same trace layout.  Deterministic kernels are
    bit-identical; randomised ones are statistically equivalent and stamp
    :data:`BATCH_RNG_NOTE` into the trace metadata.

    ``loss`` / ``delay`` engage the message-plane perturbations of
    :class:`repro.faults.schedule.Perturbations` (broadcast model only):
    per-link staleness drawn from the same distributions the scalar
    perturbed round uses.  Perturbed runs always consume NumPy randomness,
    so they are statistically — never bit — equivalent to scalar runs.

    ``batch_size`` bounds the number of trials vectorised together (memory —
    and, for randomised kernels, the chunking of the NumPy streams).
    ``observer`` attaches :mod:`repro.obs` instrumentation (step timers,
    throughput counters, sampled ``round_observed`` events); observers only
    read, so results are unchanged by one.
    """
    traces: list[ExecutionTrace] = []
    for chunk in _chunked(
        trials, batch_size, max_rounds, stop_after_agreement, loss, delay
    ):
        chunk_traces, _ = _run_chunk(
            algorithm,
            kernel,
            chunk,
            adversary_strategy,
            dict(adversary_params or {}),
            max_rounds,
            stop_after_agreement,
            loss=loss,
            delay=delay,
            record_outputs=True,
            observer=observer,
        )
        assert chunk_traces is not None
        traces.extend(chunk_traces)
    return traces


def run_batch_summaries(
    algorithm: Any,
    kernel: BatchKernel | PullBatchKernel,
    trials: Sequence[BatchTrial],
    *,
    adversary_strategy: str | None = None,
    adversary_params: Mapping[str, Any] | None = None,
    max_rounds: int = 1000,
    stop_after_agreement: int | None = None,
    batch_size: int = 256,
    loss: float = 0.0,
    delay: int = 0,
    observer: Any = None,
) -> list[RunSummary]:
    """Like :func:`run_batch_trials`, but skip the per-round trace rebuild.

    Returns one :class:`~repro.network.stabilization.RunSummary` per trial — everything the campaign
    reduction needs, at a fraction of the reconstruction cost.  This is the
    path :class:`repro.campaigns.batching.BatchExecutor` takes; per-round
    outputs are never materialised as Python dictionaries.
    """
    summaries: list[RunSummary] = []
    for chunk in _chunked(
        trials, batch_size, max_rounds, stop_after_agreement, loss, delay
    ):
        _, chunk_summaries = _run_chunk(
            algorithm,
            kernel,
            chunk,
            adversary_strategy,
            dict(adversary_params or {}),
            max_rounds,
            stop_after_agreement,
            loss=loss,
            delay=delay,
            record_outputs=False,
            observer=observer,
        )
        summaries.extend(chunk_summaries)
    return summaries


def _chunked(
    trials: Sequence[BatchTrial],
    batch_size: int,
    max_rounds: int,
    stop_after_agreement: int | None,
    loss: float = 0.0,
    delay: int = 0,
) -> list[Sequence[BatchTrial]]:
    """Validate the shared parameters and slice the trials into chunks."""
    if max_rounds < 1:
        raise SimulationError(f"max_rounds must be positive, got {max_rounds}")
    if stop_after_agreement is not None and stop_after_agreement < 1:
        raise SimulationError(
            f"stop_after_agreement must be positive, got {stop_after_agreement}"
        )
    if batch_size < 1:
        raise SimulationError(f"batch_size must be positive, got {batch_size}")
    if not 0.0 <= loss < 1.0:
        raise SimulationError(f"loss must be in [0, 1), got {loss}")
    if delay < 0:
        raise SimulationError(f"delay must be non-negative, got {delay}")
    fault_counts = {len(trial.faulty) for trial in trials}
    if len(fault_counts) > 1:
        raise SimulationError(
            "all trials of one batch must have the same number of faults, "
            f"got {sorted(fault_counts)}"
        )
    return [
        trials[start : start + batch_size]
        for start in range(0, len(trials), batch_size)
    ]


def _run_chunk(
    algorithm: Any,
    kernel: BatchKernel | PullBatchKernel,
    trials: Sequence[BatchTrial],
    strategy: str | None,
    adversary_params: dict[str, Any],
    max_rounds: int,
    window: int | None,
    record_outputs: bool,
    loss: float = 0.0,
    delay: int = 0,
    observer: Any = None,
) -> tuple[list[ExecutionTrace] | None, list[RunSummary]]:
    """Vectorised execution of one chunk of trials."""
    batch = len(trials)
    n = algorithm.n
    c = algorithm.c
    fields = kernel.fields
    pulling = kernel.model == "pulling"
    perturbed = loss > 0.0 or delay > 0
    if perturbed and pulling:
        raise SimulationError(
            "message-plane perturbations (loss/delay) apply to the broadcast "
            "model only; pulling algorithms have no batch perturbation path"
        )
    num_faults = len(trials[0].faulty)

    # ------------------------------------------------------------------ #
    # Per-trial setup: adversaries, RNG streams, initial states, traces.
    # The initial states come from exactly the streams the scalar engine
    # derives, so deterministic runs are bit-identical from round zero.
    # ------------------------------------------------------------------ #
    adversary_kernel: AdversaryBatchKernel | None = None
    if num_faults:
        if strategy is None:
            raise SimulationError(
                "batched trials list faulty nodes but no adversary strategy"
            )
        adversary_kernel = build_adversary_kernel(strategy, kernel, adversary_params)

    faulty_tuples: list[tuple[int, ...]] = []
    correct_lists: list[list[int]] = []
    encoded: list[list[tuple[int, ...]]] = []
    traces: list[ExecutionTrace] = []

    stream_names = (
        ("initial-states", "adversary", "sampling")
        if pulling
        else ("initial-states", "adversary")
    )
    randomized = perturbed or not (
        kernel.deterministic
        and (adversary_kernel is None or adversary_kernel.deterministic)
    )

    for trial in trials:
        adversary = (
            build_adversary(strategy, trial.faulty, **adversary_params)
            if strategy is not None
            else NoAdversary()
        )
        adversary.validate(algorithm)
        faulty_tuples.append(tuple(sorted(adversary.faulty)))
        correct = [node for node in range(n) if node not in adversary.faulty]
        correct_lists.append(correct)

        # Only the first derived stream feeds the batch path (the kernels
        # replace the adversary/sampling streams with NumPy randomness), and
        # later derivations cannot influence an already-derived stream — so
        # deriving just "initial-states" is bit-exact and skips constructing
        # the unused generators.
        init_rng = derive_streams(ensure_rng(trial.sim_seed), stream_names[0])[0]
        initial = resolve_initial_states(algorithm, correct, None, init_rng)
        encoded.append([kernel.encode(initial[node]) for node in correct])

        if record_outputs:
            metadata: dict[str, Any] = dict(trial.metadata)
            if pulling:
                metadata["model"] = "pulling"
            metadata["adversary"] = adversary.describe()
            metadata["seed"] = trial.sim_seed
            metadata["max_rounds"] = max_rounds
            if perturbed:
                # Same shape as the scalar Perturbations.describe() stamp.
                metadata["perturbations"] = {"loss": loss, "delay": delay}
            if randomized:
                metadata["rng"] = BATCH_RNG_NOTE
            traces.append(
                ExecutionTrace(
                    algorithm_name=algorithm.info.name,
                    n=n,
                    c=c,
                    faulty=adversary.faulty,
                    initial_outputs={
                        node: algorithm.output(node, initial[node]) for node in correct
                    },
                    metadata=metadata,
                )
            )

    # The chunk's arrays, each filled by one assignment from the lists above.
    trial_rows = np.arange(batch)[:, None]
    correct_sorted = np.array(correct_lists, dtype=np.int64)
    states = np.empty((batch, n, fields), dtype=np.int64)
    states[:, :, :] = kernel.default_fields()
    states[trial_rows, correct_sorted] = encoded
    sender_ok = np.ones((batch, n), dtype=bool)
    faulty_idx: np.ndarray | None = None
    if num_faults:
        faulty_idx = np.array(faulty_tuples, dtype=np.int64)
        sender_ok[trial_rows, faulty_idx] = False

    # repro-lint: allow[DET002] -- the sanctioned batch seed-vector site: the one shared PCG64 stream is derived from the per-trial sim seeds
    rng = np.random.default_rng([int(trial.sim_seed) & 0xFFFFFFFF for trial in trials])

    faulty_lookup = None
    if pulling and num_faults:
        faulty_lookup = ~sender_ok

    # ------------------------------------------------------------------ #
    # The batched round loop.  ``active`` maps live array rows to trial
    # indices; finished trials are frozen by compacting them out, so the
    # batch keeps shrinking as the agreement window fires per trial.
    # ------------------------------------------------------------------ #
    active = np.arange(batch)
    prev = np.full(batch, _DISAGREE, dtype=np.int64)
    streak = np.zeros(batch, dtype=np.int64)
    #: Past start-of-round state snapshots (newest first), compacted with
    #: the live arrays; only maintained when loss/delay is active.
    history: list[np.ndarray] | None = [] if perturbed else None
    #: Agreed value per round and trial; a trial's column is written up to
    #: its stop round, which ``rounds_run`` records.  Round-major, so a
    #: chunk that stops early only touches the memory of the rounds it ran.
    agreed_rounds = np.empty((max_rounds, batch), dtype=np.int64)
    rounds_run = np.zeros(batch, dtype=np.int64)
    #: Per trial: whether the window stopped it, and its streak at the stop.
    stopped_early = np.zeros(batch, dtype=bool)
    final_streak = np.zeros(batch, dtype=np.int64)
    #: Per round, for traces only: (trial indices, outputs, pulls per node).
    recorded: list[tuple[np.ndarray, np.ndarray, int | None]] = []
    pulls: int | None = None

    # Observation: the disabled path costs one ``is not None`` check per
    # round (the hot-path contract the NullObserver overhead benchmark
    # enforces); the step timer and the stride gate do the rest only when
    # an active observer is attached.
    obs = _active_observer(observer)
    stride = obs.round_stride if obs is not None else 0
    step_timer = obs.metrics.histogram("batch.step_seconds") if obs is not None else None
    trial_rounds = 0
    chunk_started = time.perf_counter() if obs is not None else 0.0

    for round_index in range(max_rounds):
        if step_timer is not None:
            step_started = time.perf_counter()
        if adversary_kernel is not None:
            adversary_kernel.begin_round(round_index, states, correct_sorted, rng)
        if pulling:
            network = BatchPullNetwork(
                states,
                faulty_lookup,
                adversary_kernel,
                correct_sorted,
                round_index,
                rng,
            )
            assert isinstance(kernel, PullBatchKernel)
            states, pulls = kernel.step(network, round_index, rng)
        else:
            forged = None
            if adversary_kernel is not None and faulty_idx is not None:
                forged = adversary_kernel.forge(
                    round_index,
                    faulty_idx[:, None, :],
                    np.arange(n)[None, :, None],
                    states,
                    correct_sorted,
                    rng,
                )
            view: BatchMessages
            if history is not None:
                # history[0] is this round's start-of-round states; the
                # staleness draws never reach past delay + 1 snapshots.
                history.insert(0, states)
                del history[delay + 2 :]
                delivered = _delayed_deliveries(history, loss, delay, rng)
                view = PerturbedBatchMessages(states, faulty_idx, forged, delivered)
            else:
                view = BatchMessages(states, faulty_idx, forged)
            assert isinstance(kernel, BatchKernel)
            states = kernel.step(view, round_index, rng)

        outputs = kernel.outputs(states)
        if step_timer is not None:
            step_timer.observe(time.perf_counter() - step_started)

        # Agreement per live trial, then the shared window/cap step.
        live = len(active)
        reference = outputs[np.arange(live), correct_sorted[:, 0]]
        agree = np.all((outputs == reference[:, None]) | ~sender_ok, axis=1)
        agreed = np.where(agree, reference, _DISAGREE)
        agreed_rounds[round_index, active] = agreed
        if record_outputs:
            recorded.append((active, outputs, pulls))
        if obs is not None:
            trial_rounds += live
            if stride and round_index % stride == 0:
                obs.emit(
                    RoundObserved(
                        source="batch",
                        round_index=round_index,
                        live_trials=live,
                        agreed_trials=int((agreed >= 0).sum()),
                    )
                )
        prev, streak, window_fired, finished = stop_step(
            agreed, prev, streak, round_index, c=c, window=window, max_rounds=max_rounds
        )
        if not finished.any():
            continue
        done = active[finished]
        rounds_run[done] = round_index + 1
        # The window takes precedence over the round cap on ties.
        stopped_early[done] = window_fired[finished]
        final_streak[done] = streak[finished]
        if obs is not None:
            metrics = obs.metrics
            metrics.counter("batch.compactions").inc()
            metrics.counter("batch.trials_finished").inc(int(finished.sum()))
            metrics.gauge("batch.live_trials").set(int((~finished).sum()))
        keep = ~finished
        if not keep.any():
            break
        active = active[keep]
        states = states[keep]
        sender_ok = sender_ok[keep]
        correct_sorted = correct_sorted[keep]
        prev = prev[keep]
        streak = streak[keep]
        if faulty_idx is not None:
            faulty_idx = faulty_idx[keep]
        if faulty_lookup is not None:
            faulty_lookup = faulty_lookup[keep]
        if history is not None:
            history = [snapshot[keep] for snapshot in history]

    if obs is not None:
        chunk_seconds = time.perf_counter() - chunk_started
        metrics = obs.metrics
        metrics.counter("batch.chunks").inc()
        metrics.counter("batch.trials").inc(batch)
        # Every trial stops by the round cap, so the last one to stop ran
        # the chunk's final round.
        metrics.counter("batch.rounds").inc(int(rounds_run.max()))
        metrics.counter("batch.trial_rounds").inc(trial_rounds)
        metrics.histogram("batch.chunk_seconds").observe(chunk_seconds)
        if chunk_seconds > 0:
            metrics.gauge("batch.trial_rounds_per_second").set(
                trial_rounds / chunk_seconds
            )

    # ------------------------------------------------------------------ #
    # Per-trial reductions.  Trials all start at round zero and drop out
    # when they stop, so the global round index is the per-trial round
    # index: a trial's agreed values are the first ``rounds_run`` entries
    # of its column.  Pulls per node are the same every round.
    # ------------------------------------------------------------------ #
    correct = n - num_faults
    pulls_per_round = pulls or 0
    rng_note = BATCH_RNG_NOTE if randomized else None
    summaries = [
        RunSummary(
            faulty=faulty,
            # Past its stop round a trial's column holds unset memory, so
            # only the rounds it ran are converted.
            agreed=tuple(agreed_rounds[:rounds, trial].tolist()),
            stopped_early=early,
            agreement_streak=streak_at_stop if early else None,
            max_pulls=pulls,
            pull_sum=pulls_per_round * rounds,
            pulls_issued=pulls_per_round * rounds * correct,
            rng_note=rng_note,
        )
        for trial, (faulty, rounds, early, streak_at_stop) in enumerate(
            zip(
                faulty_tuples,
                rounds_run.tolist(),
                stopped_early.tolist(),
                final_streak.tolist(),
            )
        )
    ]
    if not record_outputs:
        return None, summaries

    # Full ExecutionTrace objects are rebuilt from the recorded output rows.
    bits = algorithm.message_bits() if pulling else 0
    for round_index, (ids, outputs, round_pulls) in enumerate(recorded):
        rows = outputs.tolist()
        for position, trial_index in enumerate(ids.tolist()):
            values = rows[position]
            record_metadata: dict[str, Any]
            if round_pulls is not None:
                record_metadata = {
                    "max_pulls": round_pulls,
                    "mean_pulls": float(round_pulls),
                    "max_bits": round_pulls * bits,
                }
            else:
                record_metadata = {}
            traces[trial_index].append(
                RoundRecord(
                    round_index=round_index,
                    outputs={
                        node: values[node] for node in correct_lists[trial_index]
                    },
                    states=None,
                    metadata=record_metadata,
                )
            )
    for trace, summary in zip(traces, summaries):
        if summary.stopped_early:
            trace.metadata.update(
                {"stopped_early": True, "agreement_streak": summary.agreement_streak}
            )
        else:
            trace.metadata.update({"stopped_early": False})
    return traces, summaries
