"""The ``Scenario`` builder — the library's one front door for simulations.

A :class:`Scenario` is a fluent, immutable description of a simulation
campaign.  It is sugar over the campaign machinery: every builder chain
compiles to a plain :class:`~repro.campaigns.spec.CampaignSpec` via
:meth:`Scenario.to_campaign_spec`, so everything that holds for campaigns —
eager randomness derivation, bit-identical serial/parallel execution, JSONL
persistence and resume — holds for scenarios too, and fixed-seed results are
exactly those of the equivalent hand-written campaign.

Quick start::

    from repro.scenarios import Scenario

    report = (
        Scenario.counter("figure2", levels=1, c=3)
        .adversary("phase-king-skew")
        .faults(3)
        .runs(200)
        .stop_after_agreement(12)
        .execute(jobs=4)
    )

Every method returns a **new** scenario (the builder is a frozen dataclass),
so partial chains can be shared and specialised freely::

    base = Scenario.counter("figure2", levels=1, c=2).runs(50)
    crash = base.adversary("crash").execute()
    skew = base.adversary("phase-king-skew").execute()

Component names and algorithm parameters are checked eagerly against the
semantics catalogue (:mod:`repro.semantics`), so typos fail at build time
with the registered alternatives (or the parameter schema) listed, and the
communication model (broadcast vs pulling) is inferred from the algorithm's
catalogue entry — a pulling-model scenario needs no extra flag.

Execution speed is governed by :meth:`Scenario.engine`: the default
``"auto"`` transparently runs deterministic, kernel-covered grid groups
through the vectorised NumPy batch engine (bit-identical results, one array
program instead of hundreds of Python round loops), ``"batch"`` extends the
fast path to randomised kernels (statistically equivalent, ``rng``-annotated
traces), and ``"scalar"`` forces the per-run engine everywhere.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial
from typing import Any, Mapping

from repro.campaigns.results import CampaignStore, summarize_results
from repro.campaigns.runner import CampaignReport, run_campaign
from repro.campaigns.spec import (
    ENGINES,
    FAULT_PATTERNS,
    AlgorithmSpec,
    CampaignSpec,
    RunSpec,
)
from repro.core.errors import ParameterError
from repro.semantics import (
    adversary_semantics,
    algorithm_semantics,
    fault_schedule_semantics,
)

__all__ = ["Scenario"]


class _hybridmethod:
    """Descriptor making a builder method callable on the class itself.

    ``Scenario.counter("figure2")`` starts a chain from an empty scenario;
    ``scenario.counter("trivial")`` extends an existing one.
    """

    def __init__(self, func):
        self.func = func

    def __get__(self, obj, objtype=None):
        return partial(self.func, obj if obj is not None else objtype())


@dataclass(frozen=True)
class Scenario:
    """An immutable, declarative simulation scenario.

    The fields mirror :class:`~repro.campaigns.spec.CampaignSpec`; use the
    builder methods rather than the constructor.
    """

    _algorithms: tuple[AlgorithmSpec, ...] = ()
    _adversaries: tuple[str, ...] = ()
    _num_faults: tuple[int | None, ...] = ()
    _name: str | None = None
    _runs: int = 10
    _seed: int = 0
    _max_rounds: int = 1000
    _stop_after_agreement: int | None = 20
    _min_tail: int = 2
    _fault_pattern: str = "random"
    _metadata: tuple[tuple[str, Any], ...] = ()
    _model: str | None = None
    _engine: str = "auto"
    _loss: float = 0.0
    _delay: int = 0
    _fault_schedule: str | None = None
    _fault_schedule_params: tuple[tuple[str, Any], ...] = ()

    # ------------------------------------------------------------------ #
    # Components
    # ------------------------------------------------------------------ #

    @_hybridmethod
    def counter(self, name: str, **params: Any) -> "Scenario":
        """Add a catalogue algorithm (with parameters) to the scenario.

        The name and the parameters are checked eagerly against the
        algorithm's semantics; the scenario's communication model is
        inferred from it (all algorithms of one scenario must share a model).
        """
        semantics = algorithm_semantics(name)
        semantics.validate(params)
        if self._model is not None and semantics.model != self._model:
            raise ParameterError(
                f"cannot mix models in one scenario: {name!r} is a "
                f"{semantics.model}-model algorithm but the scenario already "
                f"uses model {self._model!r}"
            )
        spec = AlgorithmSpec.create(name, params)
        return dataclasses.replace(
            self,
            _algorithms=self._algorithms + (spec,),
            _model=semantics.model,
        )

    def adversary(self, *names: str) -> "Scenario":
        """Add one or more adversary strategies (resolved eagerly)."""
        if not names:
            raise ParameterError("adversary() needs at least one strategy name")
        for name in names:
            adversary_semantics(name)
        return dataclasses.replace(
            self, _adversaries=self._adversaries + tuple(names)
        )

    def faults(self, *counts: int | str | None) -> "Scenario":
        """Add fault counts to the grid (``None``/``"auto"`` = resilience f)."""
        if not counts:
            raise ParameterError("faults() needs at least one fault count")
        normalised: list[int | None] = []
        for count in counts:
            if count is None or (
                isinstance(count, str) and count.lower() in ("auto", "f", "max")
            ):
                normalised.append(None)
            elif isinstance(count, int) and not isinstance(count, bool):
                normalised.append(count)
            else:
                raise ParameterError(
                    f"fault count must be an int, None or 'auto', got {count!r}"
                )
        return dataclasses.replace(
            self, _num_faults=self._num_faults + tuple(normalised)
        )

    # ------------------------------------------------------------------ #
    # Envelope
    # ------------------------------------------------------------------ #

    def named(self, name: str) -> "Scenario":
        """Set the campaign name (defaults to the algorithm names)."""
        if not name:
            raise ParameterError("scenario name must be non-empty")
        return dataclasses.replace(self, _name=name)

    def runs(self, count: int) -> "Scenario":
        """Repetitions per grid setting."""
        return dataclasses.replace(self, _runs=count)

    def seed(self, seed: int) -> "Scenario":
        """Master seed all per-run randomness is derived from."""
        return dataclasses.replace(self, _seed=seed)

    def max_rounds(self, rounds: int) -> "Scenario":
        """Per-run round cap."""
        return dataclasses.replace(self, _max_rounds=rounds)

    def stop_after_agreement(self, window: int | None) -> "Scenario":
        """Early-stop window (``None`` or ``0`` disables early stopping)."""
        return dataclasses.replace(
            self, _stop_after_agreement=window if window else None
        )

    def min_tail(self, rounds: int) -> "Scenario":
        """Rounds of agreement required before a run counts as stabilised."""
        return dataclasses.replace(self, _min_tail=rounds)

    def fault_pattern(self, pattern: str) -> "Scenario":
        """Fault placement: ``"random"`` or ``"spread"``."""
        if pattern not in FAULT_PATTERNS:
            raise ParameterError(
                f"unknown fault pattern {pattern!r}; expected one of {FAULT_PATTERNS}"
            )
        return dataclasses.replace(self, _fault_pattern=pattern)

    def loss(self, probability: float) -> "Scenario":
        """Per-link, per-round message loss probability (broadcast model only).

        A lost link delivers the sender's *previous* broadcast instead of
        dropping to silence — the synchronous abstraction guarantees some
        value arrives every round — so loss manifests as stale state.
        """
        probability = float(probability)
        if not 0.0 <= probability < 1.0:
            raise ParameterError(
                f"loss must be a probability in [0, 1), got {probability}"
            )
        return dataclasses.replace(self, _loss=probability)

    def delay(self, rounds: int) -> "Scenario":
        """Maximum per-link message delay in rounds (broadcast model only).

        Each link independently delivers a uniformly random ``0..rounds``-old
        broadcast of its sender every round.
        """
        rounds = int(rounds)
        if rounds < 0:
            raise ParameterError(f"delay must be non-negative, got {rounds}")
        return dataclasses.replace(self, _delay=rounds)

    def fault_schedule(self, name: str, **params: Any) -> "Scenario":
        """Attach a declarative fault schedule (churn, rolling, late onset).

        The name is resolved eagerly against the fault-schedule semantics
        and the parameters are validated by building the schedule,
        so typos fail here, not at execution time.  A scheduled scenario owns
        its faulty set: the compiled campaign uses adversary ``"none"`` /
        zero baseline faults, and the schedule's windows drive who is faulty
        (and how) per round.  Schedules run on the scalar engine; under
        ``engine="auto"`` the affected groups fall back with a named reason.
        """
        fault_schedule_semantics(name).build(**params)
        return dataclasses.replace(
            self,
            _fault_schedule=name,
            _fault_schedule_params=tuple(sorted(params.items())),
        )

    def engine(self, engine: str) -> "Scenario":
        """Execution engine: ``"auto"`` (default), ``"batch"`` or ``"scalar"``.

        ``"auto"`` runs grid groups whose vectorised execution is provably
        bit-identical to the scalar engine (deterministic algorithm and
        adversary kernels) through the NumPy batch engine and everything
        else through the scalar per-run loop.  ``"batch"`` forces the batch
        engine for every kernel-covered group — randomised kernels then use
        NumPy randomness, which is statistically equivalent to (but not
        sample-identical with) the scalar streams and is flagged by an
        ``rng`` note in the trace metadata.  ``"scalar"`` always uses the
        per-run engine.
        """
        if engine not in ENGINES:
            raise ParameterError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        return dataclasses.replace(self, _engine=engine)

    def tag(self, **metadata: Any) -> "Scenario":
        """Merge free-form metadata into the campaign definition."""
        merged = dict(self._metadata)
        merged.update(metadata)
        return dataclasses.replace(
            self, _metadata=tuple(sorted(merged.items()))
        )

    # ------------------------------------------------------------------ #
    # Compilation and execution
    # ------------------------------------------------------------------ #

    def to_campaign_spec(self) -> CampaignSpec:
        """Compile the scenario into a plain, serialisable campaign grid."""
        if not self._algorithms:
            raise ParameterError(
                "scenario has no algorithm; start with Scenario.counter(name, ...)"
            )
        if self._fault_schedule is not None:
            # A schedule owns the faulty set over time, so the compiled
            # campaign pins the baseline to the fault-free 'none' rows.
            default_adversaries: tuple[str, ...] = ("none",)
        else:
            default_adversaries = ("random-state",)
        return CampaignSpec(
            name=self._name or "+".join(spec.name for spec in self._algorithms),
            algorithms=self._algorithms,
            adversaries=self._adversaries or default_adversaries,
            num_faults=self._num_faults or (None,),
            runs_per_setting=self._runs,
            seed=self._seed,
            max_rounds=self._max_rounds,
            stop_after_agreement=self._stop_after_agreement,
            min_tail=self._min_tail,
            fault_pattern=self._fault_pattern,
            metadata=self._metadata,
            model=self._model or "broadcast",
            engine=self._engine,
            loss=self._loss,
            delay=self._delay,
            fault_schedule=self._fault_schedule,
            fault_schedule_params=self._fault_schedule_params,
        )

    def expand(self) -> list[RunSpec]:
        """The fully explicit runs this scenario describes."""
        return self.to_campaign_spec().expand()

    def execute(
        self,
        jobs: int | None = None,
        store: CampaignStore | str | None = None,
        executor: Any = None,
        progress: Any = None,
        observer: Any = None,
    ) -> CampaignReport:
        """Run the scenario and return the campaign report.

        ``jobs > 1`` fans the runs out over worker processes (results are
        bit-identical to a serial run); ``store`` enables JSONL persistence
        and resume.  An explicit ``executor`` overrides ``jobs`` and the
        scenario's :meth:`engine` selection; otherwise the engine decides
        whether grid groups run vectorised (``"auto"``/``"batch"``) or one
        scalar simulation at a time (``"scalar"``).  ``observer`` attaches a
        :class:`~repro.obs.observer.Observer` for lifecycle events and
        metrics; observers only read, so results are unchanged by one.
        """
        from repro.campaigns.executor import default_executor

        if isinstance(store, str):
            store = CampaignStore(store)
        return run_campaign(
            self.to_campaign_spec(),
            store=store,
            executor=executor or default_executor(jobs, self._engine),
            progress=progress,
            observer=observer,
        )

    def summarize(
        self,
        report: CampaignReport,
        group_by: tuple[str, ...] = ("algorithm", "adversary"),
    ):
        """Stabilisation-statistics table for a report of this scenario."""
        return summarize_results(
            report.results,
            group_by=group_by,
            name=f"Scenario summary — {self.to_campaign_spec().name}",
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def describe(self) -> Mapping[str, Any]:
        """The compiled campaign definition as a JSON-serialisable mapping."""
        return self.to_campaign_spec().to_dict()
