"""Declarative fault schedules and the per-run perturbation surface.

A :class:`FaultSchedule` is a seeded, per-round-window plan composing the
registered adversary strategies over *time-varying* faulty sets.  Windows
are declarative data — which rounds, which strategy, how many nodes — and
the actual node identities are drawn from the run's dedicated ``"faults"``
RNG stream when a window opens, so equal seeds replay equal schedules.

Windows sharing a ``cohort`` identifier share one drawn faulty set; that is
how churn is expressed: a crash window followed by an adversarial window
over the *same* nodes, after which the nodes rejoin as correct with
arbitrary (uniformly random) states — precisely the configuration jolt the
paper's self-stabilisation guarantee covers.

:class:`Perturbations` bundles a schedule with the message-plane knobs
(per-link loss probability, bounded per-link delay) into the one object the
engines thread through a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from repro.core.errors import ParameterError

__all__ = [
    "FaultWindow",
    "FaultSchedule",
    "Perturbations",
    "build_churn_schedule",
    "build_rolling_schedule",
    "build_late_adversary_schedule",
]


def _freeze_params(params: Mapping[str, Any] | None) -> tuple[tuple[str, Any], ...]:
    """Normalise strategy parameters to a sorted, hashable tuple of pairs."""
    if not params:
        return ()
    return tuple(sorted(dict(params).items()))


@dataclass(frozen=True)
class FaultWindow:
    """One contiguous span of rounds controlled by one adversary strategy.

    Attributes
    ----------
    start:
        First round (inclusive) of the window; round 0 means the nodes are
        faulty from the very beginning.
    duration:
        Number of rounds the window lasts; ``None`` keeps it open until the
        end of the run (the nodes never recover).
    strategy:
        Name of the adversary strategy controlling the window's nodes (any
        active strategy of the catalogue; never ``"none"``).
    num_faults:
        How many nodes the window corrupts; ``None`` defaults to the
        algorithm's resilience ``f`` at runtime.
    params:
        Strategy parameters, stored as sorted ``(name, value)`` pairs so
        windows stay hashable (campaign group keys).
    cohort:
        Windows with equal cohort identifiers share one drawn faulty set;
        ``None`` draws a fresh set when the window opens.
    """

    start: int
    duration: int | None
    strategy: str
    num_faults: int | None = None
    params: tuple[tuple[str, Any], ...] = ()
    cohort: int | None = None

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ParameterError(
                f"fault window start must be non-negative, got {self.start}"
            )
        if self.duration is not None and self.duration < 1:
            raise ParameterError(
                f"fault window duration must be positive or None, got {self.duration}"
            )
        if self.strategy == "none":
            raise ParameterError(
                "fault windows compose active adversary strategies; "
                "rounds outside every window are already fault-free"
            )
        if self.num_faults is not None and self.num_faults < 1:
            raise ParameterError(
                f"fault window num_faults must be positive or None, got {self.num_faults}"
            )
        object.__setattr__(self, "params", _freeze_params(dict(self.params)))

    @property
    def end(self) -> int | None:
        """End round (exclusive), or ``None`` for an open window."""
        if self.duration is None:
            return None
        return self.start + self.duration

    def covers(self, round_index: int) -> bool:
        """Whether ``round_index`` falls inside this window."""
        if round_index < self.start:
            return False
        return self.end is None or round_index < self.end

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form (inverse of :meth:`from_dict`)."""
        return {
            "start": self.start,
            "duration": self.duration,
            "strategy": self.strategy,
            "num_faults": self.num_faults,
            "params": dict(self.params),
            "cohort": self.cohort,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultWindow":
        """Rebuild a window from its :meth:`to_dict` form."""
        return cls(
            start=int(data["start"]),
            duration=None if data.get("duration") is None else int(data["duration"]),
            strategy=str(data["strategy"]),
            num_faults=(
                None if data.get("num_faults") is None else int(data["num_faults"])
            ),
            params=_freeze_params(data.get("params")),
            cohort=None if data.get("cohort") is None else int(data["cohort"]),
        )


@dataclass(frozen=True)
class FaultSchedule:
    """A seeded plan of fault windows over the lifetime of one run.

    Windows must be disjoint (the model corrupts at most one set of nodes at
    a time, keeping the cardinality bound ``|F| <= f`` checkable per round)
    and at most one window may be open-ended.  The schedule is pure data —
    node identities and rejoin states are drawn at runtime from the run's
    ``"faults"`` stream by :class:`repro.faults.runtime.PerturbationRuntime`.
    """

    name: str
    windows: tuple[FaultWindow, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ParameterError("fault schedules must be named")
        windows = tuple(self.windows)
        if not windows:
            raise ParameterError(f"fault schedule {self.name!r} has no windows")
        object.__setattr__(self, "windows", windows)
        ordered = sorted(windows, key=lambda window: window.start)
        for earlier, later in zip(ordered, ordered[1:]):
            if earlier.end is None or later.start < earlier.end:
                raise ParameterError(
                    f"fault schedule {self.name!r}: windows starting at rounds "
                    f"{earlier.start} and {later.start} overlap"
                )

    def __iter__(self) -> Iterator[FaultWindow]:
        return iter(self.windows)

    def window_at(self, round_index: int) -> FaultWindow | None:
        """The window covering ``round_index``, if any."""
        for window in self.windows:
            if window.covers(round_index):
                return window
        return None

    def last_change_round(self) -> int | None:
        """The last round at which the schedule changes the faulty set.

        ``None`` when the final window never closes — such runs have no
        recovery phase to measure.
        """
        last: int | None = 0
        for window in self.windows:
            if window.end is None:
                return None
            last = max(last or 0, window.end, window.start)
        return last

    def validate(self, algorithm: Any = None) -> None:
        """Check strategies against the catalogue and, if given, the algorithm.

        Raises :class:`ParameterError` for unknown strategies, parameters
        outside the strategy's schema, or fault counts exceeding the
        algorithm's resilience ``f`` / node count ``n``.
        """
        from repro.semantics import active_strategy_names, adversary_semantics

        known = active_strategy_names()
        for window in self.windows:
            if window.strategy not in known:
                raise ParameterError(
                    f"fault schedule {self.name!r}: unknown strategy "
                    f"{window.strategy!r}; known strategies: {', '.join(known)}"
                )
            adversary_semantics(window.strategy).validate(dict(window.params))
            if algorithm is None:
                continue
            count = window.num_faults if window.num_faults is not None else algorithm.f
            if count > algorithm.f:
                raise ParameterError(
                    f"fault schedule {self.name!r}: window at round "
                    f"{window.start} corrupts {count} nodes but the algorithm "
                    f"only tolerates f={algorithm.f}"
                )
            if count > algorithm.n:
                raise ParameterError(
                    f"fault schedule {self.name!r}: window at round "
                    f"{window.start} corrupts {count} of {algorithm.n} nodes"
                )
            if count < 1:
                raise ParameterError(
                    f"fault schedule {self.name!r}: window at round "
                    f"{window.start} corrupts no nodes (algorithm f="
                    f"{algorithm.f}); use no schedule for fault-free runs"
                )

    def describe(self) -> dict[str, Any]:
        """Summary dictionary for trace metadata and experiment records."""
        return {
            "name": self.name,
            "windows": [window.to_dict() for window in self.windows],
        }

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form (inverse of :meth:`from_dict`)."""
        return self.describe()

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSchedule":
        """Rebuild a schedule from its :meth:`to_dict` form."""
        return cls(
            name=str(data["name"]),
            windows=tuple(
                FaultWindow.from_dict(window) for window in data["windows"]
            ),
        )


@dataclass(frozen=True)
class Perturbations:
    """Everything that perturbs one run beyond its baseline adversary.

    Attributes
    ----------
    loss:
        Per-link probability that a correct sender's message arrives one
        round staler than scheduled (a synchronous-model rendering of
        message loss: the receiver falls back to the sender's previous
        broadcast instead of receiving nothing).
    delay:
        Maximum per-link delivery delay in rounds; each link independently
        delivers the sender's state from ``Uniform{0..delay}`` rounds ago.
        Both knobs apply only to correct senders — Byzantine links are
        forged anyway — and never to a node's own self-link.
    schedule:
        Optional :class:`FaultSchedule`; requires the run's baseline
        adversary to be fault-free (the schedule owns the faulty set).
    """

    loss: float = 0.0
    delay: int = 0
    schedule: FaultSchedule | None = field(default=None)

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss < 1.0:
            raise ParameterError(
                f"loss must be a probability in [0, 1), got {self.loss}"
            )
        if self.delay < 0:
            raise ParameterError(f"delay must be non-negative, got {self.delay}")

    @property
    def active(self) -> bool:
        """Whether this perturbation set changes anything at all."""
        return self.loss > 0.0 or self.delay > 0 or self.schedule is not None

    @property
    def message_plane_active(self) -> bool:
        """Whether the loss/delay message-plane knobs are engaged."""
        return self.loss > 0.0 or self.delay > 0

    def validate(self, algorithm: Any, adversary: Any = None) -> None:
        """Validate the schedule and the baseline adversary against a run."""
        if self.schedule is not None:
            self.schedule.validate(algorithm)
            if adversary is not None and adversary.faulty:
                raise ParameterError(
                    "a fault schedule owns the faulty set; the baseline "
                    "adversary must be fault-free ('none'), got faulty nodes "
                    f"{sorted(adversary.faulty)}"
                )

    def describe(self) -> dict[str, Any]:
        """Summary dictionary for trace metadata."""
        summary: dict[str, Any] = {"loss": self.loss, "delay": self.delay}
        if self.schedule is not None:
            summary["schedule"] = self.schedule.describe()
        return summary

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form (inverse of :meth:`from_dict`)."""
        return {
            "loss": self.loss,
            "delay": self.delay,
            "schedule": None if self.schedule is None else self.schedule.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Perturbations":
        """Rebuild perturbations from their :meth:`to_dict` form."""
        schedule = data.get("schedule")
        return cls(
            loss=float(data.get("loss", 0.0)),
            delay=int(data.get("delay", 0)),
            schedule=None if schedule is None else FaultSchedule.from_dict(schedule),
        )


# ---------------------------------------------------------------------- #
# Preset builders (bound by the semantics catalogue)
# ---------------------------------------------------------------------- #


def build_churn_schedule(
    start: int = 5,
    down: int = 6,
    adversarial: int = 6,
    num_faults: int | None = None,
) -> FaultSchedule:
    """Churn: nodes crash, return adversarial, then rejoin as correct.

    One cohort of ``num_faults`` nodes is silent (crash) for ``down``
    rounds from ``start``, then actively Byzantine (``random-state``) for
    ``adversarial`` rounds, then rejoins as correct with arbitrary states —
    the full node-lifecycle jolt the self-stabilisation guarantee covers.
    """
    if down < 1 or adversarial < 1:
        raise ParameterError(
            f"churn phases must last at least one round, got down={down}, "
            f"adversarial={adversarial}"
        )
    return FaultSchedule(
        name="churn",
        windows=(
            FaultWindow(
                start=start,
                duration=down,
                strategy="crash",
                num_faults=num_faults,
                cohort=0,
            ),
            FaultWindow(
                start=start + down,
                duration=adversarial,
                strategy="random-state",
                num_faults=num_faults,
                cohort=0,
            ),
        ),
    )


def build_rolling_schedule(
    start: int = 0,
    period: int = 12,
    rotations: int = 3,
    strategy: str = "random-state",
    num_faults: int | None = None,
) -> FaultSchedule:
    """A rotating adversary: a fresh faulty set every ``period`` rounds.

    Each rotation draws a new set of ``num_faults`` nodes; the previous
    cohort rejoins as correct with arbitrary states at the same boundary,
    so the correct set keeps shifting under the algorithm.
    """
    if period < 1:
        raise ParameterError(f"period must be positive, got {period}")
    if rotations < 1:
        raise ParameterError(f"rotations must be positive, got {rotations}")
    return FaultSchedule(
        name="rolling",
        windows=tuple(
            FaultWindow(
                start=start + rotation * period,
                duration=period,
                strategy=strategy,
                num_faults=num_faults,
            )
            for rotation in range(rotations)
        ),
    )


def build_late_adversary_schedule(
    start: int = 30,
    duration: int | None = 10,
    strategy: str = "random-state",
    num_faults: int | None = None,
) -> FaultSchedule:
    """An adversary that wakes only after the run has long stabilised.

    Exercises the perturbation-after-agreement case: the algorithm counts
    undisturbed until ``start``, suffers ``duration`` adversarial rounds,
    and must re-converge once the nodes rejoin (``duration=None`` keeps the
    adversary active until the end, leaving nothing to recover from).
    """
    return FaultSchedule(
        name="late-adversary",
        windows=(
            FaultWindow(
                start=start,
                duration=duration,
                strategy=strategy,
                num_faults=num_faults,
            ),
        ),
    )
