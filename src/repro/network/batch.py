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
  *column patches* on the shared broadcast states (:class:`BatchMessages`),
  so kernels read each correct sender once per trial and only the forged
  entries once per receiver.  A forgery that every receiver shares (crash,
  fixed-state) comes back with a receiver axis of 1; without loss or delay
  it is written once per trial into the faulty columns of a copy of the
  shared states, and the kernel runs the round as a fault-free one.  Per-link
  views broadcast it back to every receiver.
* :func:`run_batch_trials` / :func:`run_batch_summaries` — one round loop
  per group: per-trial agreement as boolean masks, the scalar engine's
  :func:`~repro.network.engine.stop_step` applied to ``(B,)`` arrays, and
  one :class:`~repro.network.stabilization.RunSummary` — or, on request,
  one :class:`~repro.network.trace.ExecutionTrace` — built for each trial
  the step it stops.

Rows, refills and chunks
------------------------

At most ``batch_size`` trials are live at once.  Each live row carries its
trial, its own round index and a slot in the ``(max_rounds, batch_size)``
buffer of agreed values; a stopped trial is compacted out and its slot
reused.  A group that :func:`bit_identical` declares draw-free refills the
freed rows from its queue at the next step, each trial set up as it is
admitted, so the batch stays full until the queue runs dry.  Such a group
gets no generator at all (``rng=None``): a draw from it fails loudly instead
of consuming a stream.

A randomised group runs one chunk of ``batch_size`` trials at a time, each
with its own PCG64 stream seeded from the chunk's trial seeds, and admits
the next chunk only when the previous one has finished.  Its draws are
taken row by row over the live batch, so refilling it would change every
value drawn after the first refill; loss/delay groups, always randomised,
likewise start their history of state snapshots afresh with each chunk.

Correctness contract
--------------------

Which of the classes below a configuration falls into is decided in one
place, :func:`bit_identical`, from the semantics catalogue's declarations.

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
  ``Generator`` seeded from a chunk's trial seeds instead of replaying the
  scalar engine's per-call ``random.Random`` streams; the per-round
  distributions are identical but the sampled values are not.  Such traces
  carry an explicit ``rng`` note in their metadata (:data:`BATCH_RNG_NOTE`)
  so downstream consumers can tell the streams apart.
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
from repro.semantics import ADVERSARY_SEMANTICS, active_strategy_names, flat_encoding
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
    "adversary_kernel_available",
    "bit_identical",
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
    """One trial of a batched group: the seed, faulty set and trace entries.

    Mirrors what :func:`repro.campaigns.executor.execute_run` feeds the
    scalar engine for one :class:`~repro.campaigns.spec.RunSpec`: ``sim_seed``
    is the master seed the RNG streams derive from and ``faulty`` the
    explicit Byzantine set.  ``metadata`` holds caller entries merged into
    the trace header; only recorded traces read it.
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
        self, view: "BatchMessages", rng: np.random.Generator | None
    ) -> np.ndarray:
        """Map the round's received messages to successor states.

        Returns the new ``(B, n, fields)`` state array for *all* ``n``
        columns; the engine ignores the faulty columns (their values are
        placeholders — every read of a faulty sender goes through the
        forgery patches in ``view``, or the forgery written into its
        column).  ``rng`` is ``None`` in a draw-free group.
        """


class PullBatchKernel(_KernelBase):
    """Vectorised pulling-model algorithm (Section 5)."""

    model = "pulling"

    @abstractmethod
    def step(
        self, network: "BatchPullNetwork", rng: np.random.Generator | None
    ) -> tuple[np.ndarray, int]:
        """One pulling round: draw targets, pull responses, update states.

        Returns ``(new_states, pulls_per_node)`` where ``pulls_per_node`` is
        the (deterministic) number of pulls every node issued this round —
        the quantity behind the per-round ``max_pulls`` / ``mean_pulls`` /
        ``max_bits`` trace metadata.  ``rng`` is ``None`` in a draw-free
        group.
        """


# ---------------------------------------------------------------------- #
# Message views
# ---------------------------------------------------------------------- #


class BatchMessages:
    """The broadcast round's message matrix, with forgeries as column patches.

    Correct senders broadcast one state to everyone, so the bulk of the
    ``receiver x sender`` message matrix is the same row repeated; only the
    columns of faulty senders differ per receiver.  The view therefore keeps

    * ``states`` — the shared ``(B, n, fields)`` sender states,
    * ``delivered`` — what the receivers read from them: ``states`` as one
      ``(B, 1, n, fields)`` row that every receiver shares, and
    * ``forged`` — ``(B, n, f, fields)`` per-receiver forgeries for the
      ``f`` faulty senders listed in ``faulty_idx`` (``None`` when the batch
      is fault-free).

    The constructor also takes ``forged`` shaped ``(B, 1, f, fields)``: a
    forgery every receiver shares.  It is written into the faulty columns of
    a copy of ``states``, and the view is then fault-free (``forged`` and
    ``faulty_idx`` are ``None``).

    Kernels read each delivered state once per trial and each forgery once
    per receiver; :meth:`received` materialises a per-receiver matrix of one
    field on demand.  Fault-free batches never copy at all.
    """

    def __init__(
        self,
        states: np.ndarray,
        faulty_idx: np.ndarray | None,
        forged: np.ndarray | None,
    ) -> None:
        if forged is not None and forged.shape[1] == 1:
            assert faulty_idx is not None
            states = states.copy()
            states[np.arange(states.shape[0])[:, None], faulty_idx] = forged[:, 0]
            forged = None
        self.states = states
        self.faulty_idx = None if forged is None else faulty_idx
        self.forged = forged
        self.delivered = states[:, None]

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

        Without faults this is a read-only view of the delivered states;
        with faults the faulty columns are patched with the per-receiver
        forgeries.
        """
        batch, n = self.batch, self.n
        matrix = np.broadcast_to(self.delivered[..., field], (batch, n, n))
        if self.forged is None:
            return matrix
        assert self.faulty_idx is not None
        matrix = matrix.copy()
        rows = np.arange(batch)[:, None, None], np.arange(n)[:, None]
        matrix[(*rows, self.faulty_idx[:, None])] = self.forged[..., field]
        return matrix

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
        masked[np.arange(batch)[:, None], self.faulty_idx] = size
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
        masked[np.arange(batch)[:, None], self.faulty_idx] = np.iinfo(np.int64).max
        shared = masked.min(axis=1)
        return np.minimum(shared[:, None], self.forged[:, :, :, field].min(axis=2))


class PerturbedBatchMessages(BatchMessages):
    """Broadcast round view under message-plane loss/delay perturbations.

    With per-link staleness active the ``receiver x sender`` matrix is no
    longer one broadcast row per sender: each link independently delivers
    the sender's start-of-round state from up to ``delay`` (plus one on a
    lost message) rounds ago.  ``delivered`` is therefore the fully
    materialised ``(B, receiver, sender, fields)`` tensor.  Forgeries still
    patch the faulty columns per receiver — Byzantine links are forged,
    never perturbed, so a shared forgery is broadcast back to every
    receiver — and the shared-tally fast paths of the fault-free view
    degrade to per-receiver reductions over the delivered matrix
    (``O(B·n²)``, the honest cost of per-link perturbation).
    """

    def __init__(
        self,
        states: np.ndarray,
        faulty_idx: np.ndarray | None,
        forged: np.ndarray | None,
        delivered: np.ndarray,
    ) -> None:
        if forged is not None:
            forged = np.broadcast_to(forged, delivered.shape[:2] + forged.shape[2:])
        super().__init__(states, faulty_idx, forged)
        self.delivered = delivered

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
        faulty_lookup: np.ndarray,
        adversary: "AdversaryBatchKernel | None",
        correct_sorted: np.ndarray,
        round_index: np.ndarray,
        rng: np.random.Generator | None,
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
        if self._adversary is None:
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

    ``round_index`` is each live row's own round, shaped ``(B, 1, 1)``: rows
    admitted at different steps run different rounds.  ``rng`` is the
    group's generator, ``None`` in a group that :func:`bit_identical`
    declares draw-free, so only randomised strategies may draw from it.

    Which strategy a kernel class implements, and whether its forgeries are
    pure, is declared once in :data:`repro.semantics.ADVERSARY_SEMANTICS`
    (its ``kernel_binding`` and :class:`~repro.semantics.DeterminismClass`);
    :func:`bit_identical` reads the answer from there.
    """

    def __init__(self, kernel: _KernelBase) -> None:
        self.kernel = kernel

    def begin_round(
        self,
        round_index: np.ndarray,
        states: np.ndarray,
        correct_sorted: np.ndarray,
        rng: np.random.Generator | None,
    ) -> None:
        """Per-round hook (e.g. the split-state pair draw)."""

    @abstractmethod
    def forge(
        self,
        round_index: np.ndarray,
        senders: np.ndarray,
        receivers: np.ndarray,
        states: np.ndarray,
        correct_sorted: np.ndarray,
        rng: np.random.Generator | None,
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
    """Faulty nodes appear stuck on the algorithm's default state.

    Every receiver reads the same forgery, so it is returned once per
    sender: shaped ``senders.shape + (fields,)``, a receiver axis of 1.
    """

    def forge(
        self,
        round_index: np.ndarray,
        senders: np.ndarray,
        receivers: np.ndarray,
        states: np.ndarray,
        correct_sorted: np.ndarray,
        rng: np.random.Generator | None,
    ) -> np.ndarray:
        default = self.kernel.default_fields()
        return np.broadcast_to(default, senders.shape + (self.kernel.fields,))


class FixedStateBatchKernel(AdversaryBatchKernel):
    """Faulty nodes broadcast one fixed, attacker-chosen state.

    The scalar engine pipes every forgery through ``coerce_message``, so the
    fixed state is coerced once at construction — deterministic and
    bit-identical.  Like the crash forgery it is returned once per sender,
    shaped ``senders.shape + (fields,)``.
    """

    def __init__(self, kernel: _KernelBase, state: Any = 0) -> None:
        super().__init__(kernel)
        coerced = kernel.algorithm.coerce_message(state)
        self._fields = np.asarray(kernel.encode(coerced), dtype=np.int64)

    def forge(
        self,
        round_index: np.ndarray,
        senders: np.ndarray,
        receivers: np.ndarray,
        states: np.ndarray,
        correct_sorted: np.ndarray,
        rng: np.random.Generator | None,
    ) -> np.ndarray:
        return np.broadcast_to(self._fields, senders.shape + (self.kernel.fields,))


class RandomStateBatchKernel(AdversaryBatchKernel):
    """Independently random valid state per (sender, receiver) pair."""

    def forge(
        self,
        round_index: np.ndarray,
        senders: np.ndarray,
        receivers: np.ndarray,
        states: np.ndarray,
        correct_sorted: np.ndarray,
        rng: np.random.Generator | None,
    ) -> np.ndarray:
        assert rng is not None
        shape = np.broadcast_shapes(senders.shape, receivers.shape)
        return self.kernel.random_fields(rng, shape)


class SplitStateBatchKernel(AdversaryBatchKernel):
    """One fresh random state for even receivers, another for odd ones."""

    def __init__(self, kernel: _KernelBase) -> None:
        super().__init__(kernel)
        self._pair: np.ndarray | None = None

    def begin_round(
        self,
        round_index: np.ndarray,
        states: np.ndarray,
        correct_sorted: np.ndarray,
        rng: np.random.Generator | None,
    ) -> None:
        # One pair per trial per round, shared by all faulty senders —
        # exactly the scalar SplitStateAdversary.on_round_start draw.
        assert rng is not None
        self._pair = self.kernel.random_fields(rng, (states.shape[0], 2))

    def forge(
        self,
        round_index: np.ndarray,
        senders: np.ndarray,
        receivers: np.ndarray,
        states: np.ndarray,
        correct_sorted: np.ndarray,
        rng: np.random.Generator | None,
    ) -> np.ndarray:
        assert self._pair is not None
        shape = np.broadcast_shapes(senders.shape, receivers.shape)
        parity = np.broadcast_to(receivers % 2, shape)
        batch = states.shape[0]
        bidx = np.arange(batch).reshape((batch,) + (1,) * (len(shape) - 1))
        return self._pair[np.broadcast_to(bidx, shape), parity]


class MimicBatchKernel(AdversaryBatchKernel):
    """Echo the true state of a rotating correct victim (deterministic)."""

    def forge(
        self,
        round_index: np.ndarray,
        senders: np.ndarray,
        receivers: np.ndarray,
        states: np.ndarray,
        correct_sorted: np.ndarray,
        rng: np.random.Generator | None,
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
    the per-receiver victim's state (``correct[receiver % len(correct)]``)
    and replace its output register ``a`` with a shifted value for even
    receivers and the reset marker for odd ones, keeping the victim's ``d``.
    That path draws nothing, so on boosted states the kernel is
    bit-identical.  For flat integer states the scalar class degrades to
    fully random forgeries, so the kernel does too (``random_fields``), and
    there it is statistically equivalent.
    """

    def __init__(self, kernel: _KernelBase, offset: int = 1) -> None:
        super().__init__(kernel)
        self._offset = int(offset)
        self._layout = _boosted_layout(kernel)

    def forge(
        self,
        round_index: np.ndarray,
        senders: np.ndarray,
        receivers: np.ndarray,
        states: np.ndarray,
        correct_sorted: np.ndarray,
        rng: np.random.Generator | None,
    ) -> np.ndarray:
        shape = np.broadcast_shapes(senders.shape, receivers.shape)
        if self._layout is None:
            assert rng is not None
            return self.kernel.random_fields(rng, shape)
        inner_fields, c = self._layout
        num_correct = correct_sorted.shape[1]
        bidx = _batch_index(states.shape[0], shape)
        position = np.broadcast_to(receivers % num_correct, shape)
        victims = correct_sorted[bidx, position]
        forged = states[bidx, victims]
        victim_a = forged[..., inner_fields]
        skewed = np.where(
            victim_a == _INFINITY, 0, (victim_a + self._offset) % c
        )
        even = np.broadcast_to(receivers % 2 == 0, shape)
        forged[..., inner_fields] = np.where(even, skewed, _INFINITY)
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
    a random state, so the kernel is statistically equivalent there — the
    catalogue declares the split as ``FLAT_ONLY``.
    """

    def __init__(self, kernel: _KernelBase) -> None:
        super().__init__(kernel)
        self._layout = _boosted_layout(kernel)
        self._int_state = flat_encoding(kernel)
        self._camp0: np.ndarray | None = None
        self._camp1: np.ndarray | None = None
        self._outputs: np.ndarray | None = None
        self._correct_mask: np.ndarray | None = None
        self._first_pos: np.ndarray | None = None

    def begin_round(
        self,
        round_index: np.ndarray,
        states: np.ndarray,
        correct_sorted: np.ndarray,
        rng: np.random.Generator | None,
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
        mask[bidx, correct_sorted] = True
        self._camp0, self._camp1 = camp0, camp1
        self._outputs = outputs
        self._correct_mask = mask
        self._first_pos = first_pos

    def forge(
        self,
        round_index: np.ndarray,
        senders: np.ndarray,
        receivers: np.ndarray,
        states: np.ndarray,
        correct_sorted: np.ndarray,
        rng: np.random.Generator | None,
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
        rng: np.random.Generator | None,
    ) -> np.ndarray:
        # The scalar _fabricate_state for structured states: a random state
        # with the phase king registers pinned to (target, 1).
        assert rng is not None
        fields = self.kernel.random_fields(rng, shape)
        if self._layout is not None:
            inner_fields, c = self._layout
            fields[..., inner_fields] = target % c
            fields[..., inner_fields + 1] = 1
        return fields


def adversary_kernel_available(strategy: str | None) -> bool:
    """Whether the strategy (or the fault-free ``None``) has a batch kernel."""
    if strategy is None:
        return True
    spec = ADVERSARY_SEMANTICS.get(strategy)
    return spec is not None and spec.kernel_binding is not None


def bit_identical(
    kernel: _KernelBase, strategy: str | None, *, loss: float = 0.0, delay: int = 0
) -> bool:
    """Whether a batch group is provably bit-identical to the scalar engine.

    The one rule the executor's ``auto`` gate, the ``rng`` note and the
    parity harness share: message-plane perturbations and randomised
    algorithm kernels always consume NumPy randomness; fault-free groups
    (``strategy=None``) forge nothing; otherwise the strategy's declared
    :class:`~repro.semantics.DeterminismClass` answers for this kernel's
    state encoding (adaptive-split is pure for flat counters only,
    phase-king-skew for boosted states only).
    """
    if loss > 0.0 or delay > 0 or not kernel.deterministic:
        return False
    if strategy is None:
        return True
    return ADVERSARY_SEMANTICS[strategy].determinism.for_kernel(kernel)


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
    if not adversary_kernel_available(strategy):
        known = ", ".join(active_strategy_names())
        raise SimulationError(
            f"adversary strategy {strategy!r} has no batch kernel; "
            f"vectorised strategies: {known}"
        )
    cls = ADVERSARY_SEMANTICS[strategy].kernel_class()
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

    ``batch_size`` bounds the number of live trials (memory).  A draw-free
    group refills a stopped trial's row from its queue, so its results do
    not depend on ``batch_size``; a randomised group runs in chunks of
    ``batch_size`` trials, one NumPy stream each, so its values do.
    ``observer`` attaches :mod:`repro.obs` instrumentation (step timers,
    throughput counters, sampled ``round_observed`` events); observers only
    read, so results are unchanged by one.
    """
    traces, _ = _run_group(
        algorithm,
        kernel,
        trials,
        adversary_strategy,
        adversary_params,
        max_rounds,
        stop_after_agreement,
        batch_size,
        loss,
        delay,
        observer,
        record_outputs=True,
    )
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
    _, summaries = _run_group(
        algorithm,
        kernel,
        trials,
        adversary_strategy,
        adversary_params,
        max_rounds,
        stop_after_agreement,
        batch_size,
        loss,
        delay,
        observer,
        record_outputs=False,
    )
    return summaries


def _run_group(
    algorithm: Any,
    kernel: BatchKernel | PullBatchKernel,
    trials: Sequence[BatchTrial],
    strategy: str | None,
    adversary_params: Mapping[str, Any] | None,
    max_rounds: int,
    window: int | None,
    batch_size: int,
    loss: float,
    delay: int,
    observer: Any,
    *,
    record_outputs: bool,
) -> tuple[list[ExecutionTrace], list[RunSummary]]:
    """Vectorised execution of one group, at most ``batch_size`` trials live."""
    if max_rounds < 1:
        raise SimulationError(f"max_rounds must be positive, got {max_rounds}")
    if window is not None and window < 1:
        raise SimulationError(f"stop_after_agreement must be positive, got {window}")
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
    if not trials:
        return [], []
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
    params = dict(adversary_params or {})
    adversary_kernel: AdversaryBatchKernel | None = None
    if num_faults:
        if strategy is None:
            raise SimulationError(
                "batched trials list faulty nodes but no adversary strategy"
            )
        adversary_kernel = build_adversary_kernel(strategy, kernel, params)
    randomized = not bit_identical(
        kernel, strategy if num_faults else None, loss=loss, delay=delay
    )
    rng_note = BATCH_RNG_NOTE if randomized else None
    correct = n - num_faults
    capacity = min(batch_size, len(trials))
    bits = algorithm.message_bits() if pulling and record_outputs else 0

    traces: list[Any] = [None] * len(trials) if record_outputs else []
    summaries: list[Any] = [None] * len(trials)
    #: Per slot: the trial it runs, its faulty set and (for traces) its
    #: correct nodes.  Column ``slot`` of ``agreed_rounds`` holds the trial's
    #: agreed value per round up to its stop round; round-major, so rows
    #: that stop early only touch the memory of the rounds they ran.
    slot_trial = [0] * capacity
    slot_faulty: list[tuple[int, ...]] = [()] * capacity
    slot_correct: list[list[int]] = [[]] * capacity
    free_slots = list(range(capacity - 1, -1, -1))
    agreed_rounds = np.empty((max_rounds, capacity), dtype=np.int64)

    # The live rows, one per running trial: its states, faulty columns,
    # correct nodes, window accounting, own round and slot.
    states = np.empty((0, n, fields), dtype=np.int64)
    faulty_mask = np.empty((0, n), dtype=bool)
    correct_sorted = np.empty((0, correct), dtype=np.int64)
    faulty_idx = np.empty((0, num_faults), dtype=np.int64)
    prev = np.empty(0, dtype=np.int64)
    streak = np.empty(0, dtype=np.int64)
    rounds = np.empty(0, dtype=np.int64)
    slots = np.empty(0, dtype=np.int64)
    receivers = np.arange(n)[None, :, None]
    #: Past start-of-round state snapshots (newest first), compacted with
    #: the live rows; only maintained when loss/delay is active.
    history: list[np.ndarray] | None = None
    rng: np.random.Generator | None = None
    pulls: int | None = None
    admitted = 0

    # Observation: the disabled path costs one ``is not None`` check per
    # step (the hot-path contract the NullObserver overhead benchmark
    # enforces); the step timer and the stride gate do the rest only when
    # an active observer is attached.  A chunk is a run of steps between
    # two empty batches.
    obs = _active_observer(observer)
    stride = obs.round_stride if obs is not None else 0
    step_timer = obs.metrics.histogram("batch.step_seconds") if obs is not None else None
    step = 0
    chunk_started = 0.0
    chunk_steps = chunk_trials = chunk_trial_rounds = 0

    while True:
        # -------------------------------------------------------------- #
        # Admission.  A draw-free group refills every free row; a
        # randomised one admits its next chunk into an empty batch only.
        # Each trial's initial states come from exactly the streams the
        # scalar engine derives, so deterministic runs are bit-identical
        # from round zero.
        # -------------------------------------------------------------- #
        count = min(len(free_slots), len(trials) - admitted)
        if count and (not randomized or not len(slots)):
            if not len(slots) and obs is not None:
                chunk_started = time.perf_counter()
            new_trials = trials[admitted : admitted + count]
            admitted += count
            encoded: list[list[tuple[int, ...]]] = []
            correct_rows: list[list[int]] = []
            faulty_rows: list[tuple[int, ...]] = []
            new_slots: list[int] = []
            for index, trial in enumerate(new_trials, admitted - count):
                adversary = (
                    build_adversary(strategy, trial.faulty, **params)
                    if strategy is not None
                    else NoAdversary()
                )
                adversary.validate(algorithm)
                faulty = tuple(sorted(adversary.faulty))
                nodes = [node for node in range(n) if node not in adversary.faulty]
                # Only the first derived stream feeds the batch path (the
                # kernels replace the adversary/sampling streams with NumPy
                # randomness), and later derivations cannot influence an
                # already-derived stream — so deriving just "initial-states"
                # is bit-exact and skips constructing the unused generators.
                init_rng = derive_streams(ensure_rng(trial.sim_seed), "initial-states")[0]
                initial = resolve_initial_states(algorithm, nodes, None, init_rng)
                encoded.append([kernel.encode(initial[node]) for node in nodes])
                correct_rows.append(nodes)
                faulty_rows.append(faulty)
                slot = free_slots.pop()
                new_slots.append(slot)
                slot_trial[slot] = index
                slot_faulty[slot] = faulty
                if record_outputs:
                    slot_correct[slot] = nodes
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
                    traces[index] = ExecutionTrace(
                        algorithm_name=algorithm.info.name,
                        n=n,
                        c=c,
                        faulty=adversary.faulty,
                        initial_outputs={
                            node: algorithm.output(node, initial[node]) for node in nodes
                        },
                        metadata=metadata,
                    )

            # The new rows, each array filled by one assignment from the lists.
            new_rows = np.arange(count)[:, None]
            new_correct = np.array(correct_rows, dtype=np.int64)
            new_faulty = np.array(faulty_rows, dtype=np.int64).reshape(count, num_faults)
            new_states = np.empty((count, n, fields), dtype=np.int64)
            new_states[:, :, :] = kernel.default_fields()
            new_states[new_rows, new_correct] = encoded
            new_mask = np.zeros((count, n), dtype=bool)
            new_mask[new_rows, new_faulty] = True
            states = np.concatenate([states, new_states])
            faulty_mask = np.concatenate([faulty_mask, new_mask])
            correct_sorted = np.concatenate([correct_sorted, new_correct])
            faulty_idx = np.concatenate([faulty_idx, new_faulty])
            prev = np.concatenate([prev, np.full(count, _DISAGREE, dtype=np.int64)])
            streak = np.concatenate([streak, np.zeros(count, dtype=np.int64)])
            rounds = np.concatenate([rounds, np.zeros(count, dtype=np.int64)])
            slots = np.concatenate([slots, np.array(new_slots, dtype=np.int64)])
            if randomized:
                # repro-lint: allow[DET002] -- the sanctioned batch seed-vector site: each chunk's one shared PCG64 stream is derived from its per-trial sim seeds
                rng = np.random.default_rng(
                    [int(trial.sim_seed) & 0xFFFFFFFF for trial in new_trials]
                )
                history = [] if perturbed else None
            if obs is not None:
                chunk_trials += count

        live = len(slots)
        if not live:
            break

        # -------------------------------------------------------------- #
        # One synchronous round of every live row, each at its own round.
        # -------------------------------------------------------------- #
        if step_timer is not None:
            step_started = time.perf_counter()
        round_index = rounds[:, None, None]
        if adversary_kernel is not None:
            adversary_kernel.begin_round(round_index, states, correct_sorted, rng)
        if pulling:
            network = BatchPullNetwork(
                states, faulty_mask, adversary_kernel, correct_sorted, round_index, rng
            )
            assert isinstance(kernel, PullBatchKernel)
            states, pulls = kernel.step(network, rng)
        else:
            forged = None
            if adversary_kernel is not None:
                forged = adversary_kernel.forge(
                    round_index,
                    faulty_idx[:, None, :],
                    receivers,
                    states,
                    correct_sorted,
                    rng,
                )
            view: BatchMessages
            if history is not None:
                # history[0] is this round's start-of-round states; the
                # staleness draws never reach past delay + 1 snapshots.
                assert rng is not None
                history.insert(0, states)
                del history[delay + 2 :]
                delivered = _delayed_deliveries(history, loss, delay, rng)
                view = PerturbedBatchMessages(states, faulty_idx, forged, delivered)
            else:
                view = BatchMessages(states, faulty_idx, forged)
            assert isinstance(kernel, BatchKernel)
            states = kernel.step(view, rng)

        outputs = kernel.outputs(states)
        if step_timer is not None:
            step_timer.observe(time.perf_counter() - step_started)

        # Agreement per live row, then the shared window/cap step.
        reference = outputs[np.arange(live), correct_sorted[:, 0]]
        agree = np.all((outputs == reference[:, None]) | faulty_mask, axis=1)
        agreed = np.where(agree, reference, _DISAGREE)
        agreed_rounds[rounds, slots] = agreed
        if record_outputs:
            for slot, round_run, values in zip(
                slots.tolist(), rounds.tolist(), outputs.tolist()
            ):
                record_metadata: dict[str, Any] = {}
                if pulls is not None:
                    record_metadata = {
                        "max_pulls": pulls,
                        "mean_pulls": float(pulls),
                        "max_bits": pulls * bits,
                    }
                traces[slot_trial[slot]].append(
                    RoundRecord(
                        round_index=round_run,
                        outputs={node: values[node] for node in slot_correct[slot]},
                        states=None,
                        metadata=record_metadata,
                    )
                )
        if obs is not None:
            chunk_steps += 1
            chunk_trial_rounds += live
            if stride and step % stride == 0:
                obs.emit(
                    RoundObserved(
                        source="batch",
                        round_index=step,
                        live_trials=live,
                        agreed_trials=int((agreed >= 0).sum()),
                    )
                )
        step += 1
        prev, streak, window_fired, finished = stop_step(
            agreed, prev, streak, rounds, c=c, window=window, max_rounds=max_rounds
        )
        rounds = rounds + 1
        if not finished.any():
            continue

        # -------------------------------------------------------------- #
        # Stopped trials: reduce each to its summary (and finish its
        # trace), free its slot, and compact its row out.  The window
        # takes precedence over the round cap on ties.  Pulls per node
        # are the same every round.
        # -------------------------------------------------------------- #
        pulls_per_round = pulls or 0
        for slot, ran, early, streak_at_stop in zip(
            slots[finished].tolist(),
            rounds[finished].tolist(),
            window_fired[finished].tolist(),
            streak[finished].tolist(),
        ):
            index = slot_trial[slot]
            summaries[index] = RunSummary(
                faulty=slot_faulty[slot],
                # Past its stop round a slot's column holds unset memory or
                # an earlier trial's values, so only the rounds it ran count.
                agreed=tuple(agreed_rounds[:ran, slot].tolist()),
                stopped_early=early,
                agreement_streak=streak_at_stop if early else None,
                max_pulls=pulls,
                pull_sum=pulls_per_round * ran,
                pulls_issued=pulls_per_round * ran * correct,
                rng_note=rng_note,
            )
            if record_outputs:
                if early:
                    traces[index].metadata.update(
                        {"stopped_early": True, "agreement_streak": streak_at_stop}
                    )
                else:
                    traces[index].metadata.update({"stopped_early": False})
            free_slots.append(slot)
        keep = ~finished
        states = states[keep]
        faulty_mask = faulty_mask[keep]
        correct_sorted = correct_sorted[keep]
        faulty_idx = faulty_idx[keep]
        prev = prev[keep]
        streak = streak[keep]
        rounds = rounds[keep]
        slots = slots[keep]
        if history is not None:
            history = [snapshot[keep] for snapshot in history]
        if obs is not None:
            metrics = obs.metrics
            metrics.counter("batch.compactions").inc()
            metrics.counter("batch.trials_finished").inc(int(finished.sum()))
            metrics.gauge("batch.live_trials").set(len(slots))
            if not len(slots):
                chunk_seconds = time.perf_counter() - chunk_started
                metrics.counter("batch.chunks").inc()
                metrics.counter("batch.trials").inc(chunk_trials)
                metrics.counter("batch.rounds").inc(chunk_steps)
                metrics.counter("batch.trial_rounds").inc(chunk_trial_rounds)
                metrics.histogram("batch.chunk_seconds").observe(chunk_seconds)
                if chunk_seconds > 0:
                    metrics.gauge("batch.trial_rounds_per_second").set(
                        chunk_trial_rounds / chunk_seconds
                    )
                chunk_steps = chunk_trials = chunk_trial_rounds = 0

    return traces, summaries
