"""Typed lifecycle events and the sinks they fan out to.

Instrumented code emits *events* — small frozen dataclasses describing one
thing that happened (a campaign started, a run finished, a batch group fell
back to the scalar engine, a sampled round was observed) — through an
:class:`~repro.obs.observer.Observer`, which fans each event out to its
*sinks*.  Three sinks ship with the library:

* :class:`RingBufferSink` — the last ``capacity`` events in memory, for
  tests and post-hoc inspection (``Observer.recording()`` builds one).
* :class:`JsonlSink` — newline-delimited JSON on disk (the CLI's
  ``--events-out``); :func:`read_events` reads a file back into typed
  events.
* :class:`ProgressSink` — a rolling single-line stderr progress display
  with completion rate and ETA (the CLI's ``--progress``).

Event dataclasses are deliberately **timestamp-free and pure data**: sinks
that need wall-clock times (JSONL) stamp a ``ts`` field at write time, so
the events themselves stay deterministic — two identical runs produce
identical event sequences, which is what the parity tests assert.
"""

from __future__ import annotations

import json
import sys
import time
from collections import deque
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, ClassVar, Iterable, Mapping, TextIO

__all__ = [
    "Event",
    "CampaignStarted",
    "RunsSkippedOnResume",
    "RunStarted",
    "RunFinished",
    "BatchGroupScheduled",
    "RoundObserved",
    "FaultInjected",
    "NodeRecovered",
    "FallbackTaken",
    "CampaignFinished",
    "EVENT_KINDS",
    "event_from_dict",
    "EventSink",
    "RingBufferSink",
    "JsonlSink",
    "ProgressSink",
    "read_events",
]


@dataclass(frozen=True)
class Event:
    """Base class of all observability events.

    Subclasses set the ClassVar ``kind`` — the stable wire name used by
    :meth:`to_dict` / :func:`event_from_dict` and the ``"event"`` key of
    every JSONL record.
    """

    kind: ClassVar[str] = "event"

    def to_dict(self) -> dict[str, Any]:
        """The event as a JSON-serialisable mapping (``"event"`` names the kind)."""
        return {"event": self.kind, **asdict(self)}


@dataclass(frozen=True)
class CampaignStarted(Event):
    """A campaign is about to execute ``pending`` of its ``total_runs`` runs."""

    kind: ClassVar[str] = "campaign_started"

    name: str
    total_runs: int
    pending: int
    skipped: int


@dataclass(frozen=True)
class RunsSkippedOnResume(Event):
    """``count`` of ``total`` runs were recovered from a store on resume."""

    kind: ClassVar[str] = "runs_skipped_on_resume"

    count: int
    total: int


@dataclass(frozen=True)
class RunStarted(Event):
    """A single run is about to execute."""

    kind: ClassVar[str] = "run_started"

    run_id: str


@dataclass(frozen=True)
class RunFinished(Event):
    """A single run completed (``error`` is set when it failed).

    ``seconds`` is the wall time of the run where the executor measured one
    (scalar paths); batch-executed runs report ``None`` because the group's
    cost is shared and accounted by :class:`BatchGroupScheduled` instead.
    """

    kind: ClassVar[str] = "run_finished"

    run_id: str
    error: str | None = None
    stabilized: bool | None = None
    stabilization_round: int | None = None
    rounds: int | None = None
    seconds: float | None = None


@dataclass(frozen=True)
class BatchGroupScheduled(Event):
    """A group of runs was dispatched to the vectorised batch engine."""

    kind: ClassVar[str] = "batch_group_scheduled"

    label: str
    runs: int
    engine: str
    deterministic: bool


@dataclass(frozen=True)
class RoundObserved(Event):
    """A sampled simulation round (emitted every ``round_stride`` rounds).

    ``source`` is ``"engine"`` (scalar round loop; ``agreed_value`` is the
    common output when all correct nodes agree) or ``"batch"`` (vectorised
    group; ``round_index`` is the group's step, whose live rows may each run
    a different round, and ``live_trials``/``agreed_trials`` describe the
    whole batch).
    """

    kind: ClassVar[str] = "round_observed"

    source: str
    round_index: int
    live_trials: int = 1
    agreed_value: int | None = None
    agreed_trials: int | None = None


@dataclass(frozen=True)
class FaultInjected(Event):
    """A fault schedule turned ``nodes`` Byzantine at the start of a round.

    Emitted by the scalar engine when a :class:`~repro.faults.FaultSchedule`
    window opens; ``strategy`` names the adversary strategy controlling the
    nodes for the window's duration.
    """

    kind: ClassVar[str] = "fault_injected"

    round_index: int
    strategy: str
    nodes: tuple[int, ...]

    def __post_init__(self) -> None:
        # JSONL round-trips deliver lists; normalise so read-back events
        # compare equal to the originals.
        object.__setattr__(self, "nodes", tuple(self.nodes))


@dataclass(frozen=True)
class NodeRecovered(Event):
    """Formerly faulty ``nodes`` rejoined as correct with arbitrary states.

    The rejoin state is drawn uniformly at random — the self-stabilisation
    workload — so the rounds after this event are exactly the re-convergence
    the recovery metrics measure.
    """

    kind: ClassVar[str] = "node_recovered"

    round_index: int
    nodes: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))


@dataclass(frozen=True)
class FallbackTaken(Event):
    """A batch group fell back to the scalar engine, and why."""

    kind: ClassVar[str] = "fallback_taken"

    label: str
    runs: int
    reason: str


@dataclass(frozen=True)
class CampaignFinished(Event):
    """A campaign finished; mirrors the headline numbers of the report."""

    kind: ClassVar[str] = "campaign_finished"

    name: str
    executed: int
    skipped: int
    failed: int
    elapsed_seconds: float


#: Wire name → event class, for :func:`event_from_dict`.
EVENT_KINDS: dict[str, type[Event]] = {
    cls.kind: cls
    for cls in (
        CampaignStarted,
        RunsSkippedOnResume,
        RunStarted,
        RunFinished,
        BatchGroupScheduled,
        RoundObserved,
        FaultInjected,
        NodeRecovered,
        FallbackTaken,
        CampaignFinished,
    )
}


def event_from_dict(data: Mapping[str, Any]) -> Event:
    """Rebuild a typed event from a :meth:`Event.to_dict` mapping.

    Sink-stamped keys (``ts``) and unknown fields are dropped, so readers
    stay compatible with files written by newer versions that added fields.
    """
    payload = dict(data)
    kind = payload.pop("event", None)
    if kind not in EVENT_KINDS:
        raise ValueError(f"unknown event kind {kind!r}")
    cls = EVENT_KINDS[kind]
    allowed = {f.name for f in fields(cls)}
    return cls(**{key: value for key, value in payload.items() if key in allowed})


# --------------------------------------------------------------------- #
# Sinks
# --------------------------------------------------------------------- #


class EventSink:
    """Receives events from an observer; subclasses override :meth:`emit`."""

    def emit(self, event: Event) -> None:
        """Handle one event."""

    def close(self) -> None:
        """Flush and release resources (idempotent)."""


class RingBufferSink(EventSink):
    """Keeps the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: int = 4096) -> None:
        self.events: deque[Event] = deque(maxlen=capacity)

    def emit(self, event: Event) -> None:
        self.events.append(event)

    def of_kind(self, cls: type[Event]) -> list[Event]:
        """The buffered events of one type, oldest first."""
        return [event for event in self.events if isinstance(event, cls)]


class JsonlSink(EventSink):
    """Appends one JSON object per event to a newline-delimited file.

    Each record is the event's :meth:`~Event.to_dict` plus a ``ts``
    wall-clock stamp added here at write time — keeping the event objects
    themselves deterministic.  Lines are flushed as they are written so a
    crashed campaign still leaves a readable prefix.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file: TextIO | None = self.path.open("a", encoding="utf-8")

    def emit(self, event: Event) -> None:
        if self._file is None:
            return
        record = event.to_dict()
        # repro-lint: allow[DET001] -- the sanctioned obs timestamp sink: ts is stamped on the wire record at write time and never read back
        record["ts"] = time.time()
        self._file.write(json.dumps(record, sort_keys=True) + "\n")
        self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


def read_events(path: str | Path) -> list[Event]:
    """Read a :class:`JsonlSink` file back into typed events, in order."""
    events: list[Event] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(event_from_dict(json.loads(line)))
    return events


class ProgressSink(EventSink):
    """A rolling single-line progress display with rate and ETA.

    Listens to the campaign lifecycle: :class:`CampaignStarted` sets the
    totals (runs recovered from a store count as already done, so resumed
    campaigns do not restart from zero) and every :class:`RunFinished`
    redraws ``done/total`` with the completion rate and the estimated time
    remaining.  Writes ``\\r``-terminated lines to ``stream`` (stderr by
    default) and a final newline on :meth:`close`.
    """

    def __init__(self, stream: TextIO | None = None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self._total = 0
        self._done = 0
        self._started = time.perf_counter()
        self._baseline = 0
        self._dirty = False

    def emit(self, event: Event) -> None:
        if isinstance(event, CampaignStarted):
            self._total = event.total_runs
            self._done = event.skipped
            self._baseline = event.skipped
            self._started = time.perf_counter()
            self._draw(event.name)
        elif isinstance(event, RunFinished):
            self._done += 1
            self._draw()
        elif isinstance(event, CampaignFinished):
            self._draw(event.name)

    def _draw(self, name: str | None = None) -> None:
        elapsed = max(time.perf_counter() - self._started, 1e-9)
        fresh = self._done - self._baseline
        rate = fresh / elapsed
        remaining = self._total - self._done
        if rate > 0 and remaining > 0:
            eta = f"eta {remaining / rate:.0f}s"
        elif remaining <= 0:
            eta = "done"
        else:
            eta = "eta --"
        prefix = f"{name}: " if name else ""
        line = f"{prefix}{self._done}/{self._total} runs | {rate:.1f}/s | {eta}"
        self.stream.write("\r" + line.ljust(60))
        self.stream.flush()
        self._dirty = True

    def close(self) -> None:
        if self._dirty:
            self.stream.write("\n")
            self.stream.flush()
            self._dirty = False
