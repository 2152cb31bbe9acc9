"""Declarative campaign specifications and their expansion into runs.

A *campaign* is a grid of simulation settings: algorithms (named catalogue
entries with parameters), adversary strategies (catalogue names), fault
counts and repetitions, sharing one simulation configuration envelope.  A run
carries only what the catalogue cannot tell: each algorithm runs in the
communication model (broadcast or pulling) its catalogue entry declares, so
one grid may mix models.
:meth:`CampaignSpec.expand` flattens the grid into fully explicit
:class:`RunSpec` objects — each one a pure, self-contained description of a
single simulation (algorithm, adversary, faulty set, simulation seed).

Expansion performs all randomness derivation *eagerly* (fault-set sampling
and per-run seeds come from :func:`repro.util.rng.derive_rng` on the campaign
seed), so executing a ``RunSpec`` is a deterministic function of the spec
alone.  This is what makes the serial and parallel executors bit-identical:
they run the same pure function over the same specs, only in a different
order.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.core.algorithm import SynchronousCountingAlgorithm
from repro.core.errors import ParameterError, SimulationError
from repro.network.adversary import (
    Adversary,
    NoAdversary,
    build_adversary,
    random_faulty_set,
    spread_faults,
)
from repro.semantics import (
    ALGORITHM_SEMANTICS,
    adversary_semantics,
    algorithm_semantics,
    build_algorithm,
)
from repro.util.rng import derivation_base, derive_rng_from_base
from repro.util.validation import is_integer

__all__ = [
    "AlgorithmSpec",
    "RunSpec",
    "CampaignSpec",
    "FAULT_PATTERNS",
    "ENGINES",
]

#: Supported fault-placement patterns for campaign grids.
FAULT_PATTERNS = ("random", "spread")

#: Supported execution engines: ``"auto"`` vectorises the run groups whose
#: batch execution is bit-identical to the scalar engine, ``"batch"`` forces
#: the vectorised path for every kernel-covered group (randomised kernels are
#: statistically equivalent), ``"scalar"`` always uses the per-run engine.
ENGINES = ("auto", "batch", "scalar")


def _required(data: Any, key: str, owner: str) -> Any:
    """``data[key]`` from a definition-file object, else a ParameterError."""
    if not isinstance(data, Mapping):
        raise ParameterError(
            f"{owner} must be a JSON object, got {type(data).__name__}"
        )
    if key not in data:
        raise ParameterError(f"{owner} lacks the required key {key!r}")
    return data[key]


def _as_list(owner: str, key: str, value: Any) -> tuple:
    """A grid axis read from a definition file, which must be a list."""
    if not isinstance(value, (list, tuple)):
        raise ParameterError(f"{owner}: {key} must be a list, got {value!r}")
    return tuple(value)


def _as_items(params: Mapping[str, Any] | Iterable[tuple[str, Any]] | None) -> tuple:
    """Normalise a parameter mapping into a sorted, hashable item tuple."""
    if params is None:
        return ()
    if isinstance(params, Mapping):
        items = params.items()
    else:
        items = list(params)
    return tuple(sorted((str(key), value) for key, value in items))


def _check_integer(owner: str, key: str, value: Any, *, optional: bool = False) -> None:
    """Reject a grid field that is not an integer (nor ``None``, when ``optional``)."""
    if not (is_integer(value) or (optional and value is None)):
        expected = "an integer or null" if optional else "an integer"
        raise ParameterError(f"{owner}: {key} must be {expected}, got {value!r}")


def _validate_perturbation_knobs(owner: str, loss: float, delay: int) -> None:
    """Shared range validation for the perturbation fields."""
    if not 0.0 <= loss < 1.0:
        raise ParameterError(f"{owner}: loss must be in [0, 1), got {loss}")
    if delay < 0:
        raise ParameterError(f"{owner}: delay must be non-negative, got {delay}")


def _pulling_perturbation_error(owner: str) -> ParameterError:
    """The error for perturbing a run of a pulling-model algorithm."""
    return ParameterError(
        f"{owner}: perturbations (loss/delay/fault schedules) apply to "
        "the broadcast model only"
    )


@dataclass(frozen=True)
class AlgorithmSpec:
    """A named, parameterised algorithm from the semantics catalogue.

    The catalogue (:func:`repro.semantics.build_algorithm`) is the
    construction vocabulary, so specs stay plain data — serialisable to JSON
    and picklable across worker processes.
    """

    name: str
    params: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def create(
        cls, name: str, params: Mapping[str, Any] | None = None
    ) -> "AlgorithmSpec":
        """Build a spec from a name and a parameter mapping.

        Parameter values must be hashable: the spec lives inside frozen
        dataclasses that the executors hash and pickle.  An unhashable value
        (e.g. a list) is rejected here, eagerly, instead of blowing up later
        inside the executor with a bare ``TypeError``.
        """
        items = _as_items(params)
        for key, value in items:
            try:
                hash(value)
            except TypeError:
                raise ParameterError(
                    f"algorithm parameter {key!r} has unhashable value "
                    f"{value!r} ({type(value).__name__}); use hashable "
                    "scalars or tuples"
                ) from None
        return cls(name=name, params=items)

    def build(self) -> SynchronousCountingAlgorithm:
        """Construct the algorithm instance."""
        return build_algorithm(self.name, **dict(self.params))

    def label(self) -> str:
        """Compact human-readable identifier, e.g. ``figure2(c=2,levels=1)``."""
        if not self.params:
            return self.name
        inner = ",".join(f"{key}={value}" for key, value in self.params)
        return f"{self.name}({inner})"

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form."""
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AlgorithmSpec":
        """Inverse of :meth:`to_dict` (:class:`ParameterError` if malformed)."""
        name = _required(data, "name", "algorithm entry")
        params = data.get("params", {})
        if not isinstance(params, Mapping):
            raise ParameterError(
                f"algorithm {name!r}: params must be a JSON object, got {params!r}"
            )
        return cls.create(name, params)


@dataclass(frozen=True)
class RunSpec:
    """A fully explicit description of one simulation run.

    All randomness is pinned: the faulty set is spelled out and ``sim_seed``
    seeds the simulator, so executing the spec is deterministic.  The
    ``algorithm`` is either a declarative :class:`AlgorithmSpec` (campaigns,
    CLI) or a pre-built algorithm instance (library callers such as
    :func:`repro.experiments.common.run_counter_trials`), and it decides the
    run's communication model (:attr:`model`).  The ``adversary`` is a
    strategy name from the catalogue (``None`` for a fault-free run), built
    over ``faulty`` when the run executes.
    """

    run_id: str
    algorithm: AlgorithmSpec | SynchronousCountingAlgorithm | Any
    adversary: str | None = None
    adversary_params: tuple[tuple[str, Any], ...] = ()
    faulty: tuple[int, ...] = ()
    sim_seed: int = 0
    max_rounds: int = 1000
    stop_after_agreement: int | None = 20
    min_tail: int = 2
    #: Message-plane perturbations: per-link loss probability and maximum
    #: delivery delay in rounds (broadcast model only; 0/0 = off).
    loss: float = 0.0
    delay: int = 0
    #: Named fault schedule (a :func:`repro.semantics.fault_schedule_names`
    #: preset) with its builder parameters.  A schedule owns the run's
    #: faulty set over time, so scheduled runs keep ``adversary=None``.
    fault_schedule: str | None = None
    fault_schedule_params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.adversary is not None and not isinstance(self.adversary, str):
            raise ParameterError(
                f"run {self.run_id!r}: the adversary must be a strategy name "
                f"or None, got a {type(self.adversary).__name__} instance"
            )
        _validate_perturbation_knobs(self.run_id, self.loss, self.delay)
        if self.perturbed and self.model == "pulling":
            raise _pulling_perturbation_error(self.run_id)

    @property
    def model(self) -> str:
        """The communication model the run executes in, decided by its algorithm.

        A named algorithm runs in the model its catalogue entry declares; an
        unknown name reads ``"broadcast"`` (the run then fails when it builds
        the algorithm).  A pre-built instance runs in the pulling model
        exactly when it is a :class:`~repro.network.pulling.PullingAlgorithm`.
        """
        if isinstance(self.algorithm, AlgorithmSpec):
            semantics = ALGORITHM_SEMANTICS.get(self.algorithm.name)
            return "broadcast" if semantics is None else semantics.model
        from repro.network.pulling import PullingAlgorithm

        pulling = isinstance(self.algorithm, PullingAlgorithm)
        return "pulling" if pulling else "broadcast"

    @property
    def perturbed(self) -> bool:
        """Whether the run carries any perturbation (loss, delay, schedule)."""
        return self.loss > 0.0 or self.delay > 0 or self.fault_schedule is not None

    def resolve_perturbations(self) -> Any:
        """The run's :class:`repro.faults.schedule.Perturbations`, or ``None``.

        Builds the named fault schedule through its declared semantics
        (parameters validated against the schema), so executing a scheduled
        spec fails loudly on a typo instead of silently running unperturbed.
        """
        if not self.perturbed:
            return None
        from repro.faults.schedule import Perturbations
        from repro.semantics import fault_schedule_semantics

        schedule = None
        if self.fault_schedule is not None:
            schedule = fault_schedule_semantics(self.fault_schedule).build(
                **dict(self.fault_schedule_params)
            )
        return Perturbations(loss=self.loss, delay=self.delay, schedule=schedule)

    def resolve_algorithm(self) -> SynchronousCountingAlgorithm | Any:
        """Return the algorithm instance this run executes.

        For a pulling-model algorithm this is a
        :class:`~repro.network.pulling.PullingAlgorithm`.
        """
        if isinstance(self.algorithm, AlgorithmSpec):
            return self.algorithm.build()
        return self.algorithm

    def resolve_adversary(self) -> Adversary:
        """Return the adversary instance this run executes under."""
        if self.adversary is None:
            if self.faulty:
                raise SimulationError(
                    f"run {self.run_id!r} lists faulty nodes {list(self.faulty)} "
                    "but no adversary strategy"
                )
            return NoAdversary()
        return build_adversary(
            self.adversary, self.faulty, **dict(self.adversary_params)
        )

    def algorithm_label(self) -> str:
        """Human-readable algorithm identifier for results and tables."""
        if isinstance(self.algorithm, AlgorithmSpec):
            return self.algorithm.label()
        return self.algorithm.info.name

    def adversary_label(self) -> str:
        """Human-readable adversary identifier for results and tables."""
        if self.adversary is None:
            return "none"
        return self.adversary


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative grid of simulation runs.

    The cartesian product ``algorithms × adversaries × num_faults ×
    runs_per_setting`` expands into :class:`RunSpec` objects with stable,
    human-readable ``run_id`` strings — the keys used by the result store to
    resume interrupted campaigns.  Each algorithm runs in the communication
    model its catalogue entry declares, so one grid may mix broadcast and
    pulling algorithms.
    """

    name: str
    algorithms: tuple[AlgorithmSpec, ...]
    adversaries: tuple[str, ...] = ("random-state",)
    num_faults: tuple[int | None, ...] = (None,)
    runs_per_setting: int = 10
    seed: int = 0
    max_rounds: int = 1000
    stop_after_agreement: int | None = 20
    min_tail: int = 2
    fault_pattern: str = "random"
    engine: str = "auto"
    loss: float = 0.0
    delay: int = 0
    fault_schedule: str | None = None
    fault_schedule_params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ParameterError("campaign name must be non-empty")
        owner = f"campaign {self.name!r}"
        # Types first: a definition file is checked as written, so the range
        # checks below never compare a string or a null.
        for key in ("runs_per_setting", "seed", "max_rounds", "min_tail", "delay"):
            _check_integer(owner, key, getattr(self, key))
        _check_integer(
            owner, "stop_after_agreement", self.stop_after_agreement, optional=True
        )
        for count in self.num_faults:
            _check_integer(owner, "num_faults entry", count, optional=True)
        if isinstance(self.loss, bool) or not isinstance(self.loss, numbers.Real):
            raise ParameterError(f"{owner}: loss must be a number, got {self.loss!r}")
        _validate_perturbation_knobs(owner, self.loss, self.delay)
        if self.fault_schedule is not None:
            from repro.semantics import fault_schedule_semantics

            # Unknown names and bad builder parameters fail at definition
            # time; per-algorithm feasibility (fault counts vs resilience)
            # is checked against each algorithm during expand().
            fault_schedule_semantics(self.fault_schedule).build(
                **dict(self.fault_schedule_params)
            )
            if tuple(self.adversaries) != ("none",):
                raise ParameterError(
                    f"campaign {self.name!r} pairs fault schedule "
                    f"{self.fault_schedule!r} with adversaries "
                    f"{list(self.adversaries)}; a schedule owns the faulty "
                    "set over time, so scheduled campaigns must list "
                    "adversaries=('none',)"
                )
        if self.engine not in ENGINES:
            raise ParameterError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )
        if not self.algorithms:
            raise ParameterError("campaign must list at least one algorithm")
        # Unknown names and parameters fail here, before any run executes or
        # any store, metrics or events file is written.
        for algorithm in self.algorithms:
            algorithm_semantics(algorithm.name).validate(dict(algorithm.params))
        if not self.adversaries:
            raise ParameterError("campaign must list at least one adversary strategy")
        if self.runs_per_setting < 1:
            raise ParameterError(
                f"runs_per_setting must be positive, got {self.runs_per_setting}"
            )
        if self.max_rounds < 1:
            raise ParameterError(f"max_rounds must be positive, got {self.max_rounds}")
        # None disables early stopping; the engines reject anything else
        # below 1, so the grid does too, before any run exists.
        window = self.stop_after_agreement
        if window is not None and window < 1:
            raise ParameterError(f"stop_after_agreement must be positive, got {window}")
        if self.min_tail < 1:
            raise ParameterError(f"min_tail must be at least 1, got {self.min_tail}")
        if self.fault_pattern not in FAULT_PATTERNS:
            raise ParameterError(
                f"unknown fault pattern {self.fault_pattern!r}; "
                f"expected one of {FAULT_PATTERNS}"
            )
        for strategy in self.adversaries:
            adversary_semantics(strategy)

    # ------------------------------------------------------------------ #
    # Expansion
    # ------------------------------------------------------------------ #

    def expand(self) -> list[RunSpec]:
        """Flatten the grid into explicit, deterministic run specifications."""
        from repro.network.pulling import PullingAlgorithm

        # Every run derives its stream from the campaign seed; the seed's
        # base is the same for all of them, so it is drawn once.
        base = derivation_base(self.seed)
        perturbed = (
            self.loss > 0.0 or self.delay > 0 or self.fault_schedule is not None
        )
        runs: dict[str, RunSpec] = {}
        for algorithm_spec in self.algorithms:
            algorithm = algorithm_spec.build()
            label = algorithm_spec.label()
            if perturbed and isinstance(algorithm, PullingAlgorithm):
                raise _pulling_perturbation_error(f"campaign {self.name!r}")
            if self.fault_schedule is not None:
                from repro.semantics import fault_schedule_semantics

                # Eager feasibility check: the schedule's fault counts must
                # fit this algorithm's resilience, or expansion fails with
                # the offending window named instead of every run erroring.
                fault_schedule_semantics(self.fault_schedule).build(
                    **dict(self.fault_schedule_params)
                ).validate(algorithm)
            for strategy in self.adversaries:
                for requested_faults in self.num_faults:
                    faults = (
                        algorithm.f if requested_faults is None else requested_faults
                    )
                    if strategy == "none":
                        faults = 0
                    if not 0 <= faults <= algorithm.f:
                        raise ParameterError(
                            f"campaign {self.name!r} requests {faults} faults for "
                            f"{label} (resilience f={algorithm.f})"
                        )
                    if faults == 0 and strategy != "none":
                        # An active strategy with nothing to control would
                        # silently duplicate the 'none' rows of the grid.
                        raise ParameterError(
                            f"campaign {self.name!r} pairs adversary strategy "
                            f"{strategy!r} with 0 faults for "
                            f"{label}; list strategy 'none' "
                            "for fault-free rows instead"
                        )
                    for repetition in range(self.runs_per_setting):
                        spec = self._make_run(
                            base,
                            algorithm_spec,
                            label,
                            algorithm,
                            strategy,
                            faults,
                            repetition,
                        )
                        # Grid coordinates that collapse onto the same run id
                        # (e.g. num_faults listing both None and f) describe
                        # the same run; keep the first occurrence.
                        runs.setdefault(spec.run_id, spec)
        return list(runs.values())

    def _make_run(
        self,
        base: int,
        algorithm_spec: AlgorithmSpec,
        label: str,
        algorithm: SynchronousCountingAlgorithm,
        strategy: str,
        faults: int,
        repetition: int,
    ) -> RunSpec:
        """Derive the explicit run for one grid coordinate.

        ``base`` is ``derivation_base(self.seed)`` and ``label`` the
        algorithm's label, so the run's stream is that of
        ``derive_rng(self.seed, "campaign", label, strategy, faults,
        repetition)``.
        """
        rng = derive_rng_from_base(
            base, "campaign", label, strategy, faults, repetition
        )
        if self.fault_pattern == "spread":
            faulty = spread_faults(algorithm.n, faults)
        else:
            faulty = random_faulty_set(algorithm.n, faults, rng=rng)
        sim_seed = rng.getrandbits(32)
        run_id = f"{label}/{strategy}/f{faults}/{self.fault_pattern}/r{repetition}"
        return RunSpec(
            run_id=run_id,
            algorithm=algorithm_spec,
            adversary=None if strategy == "none" else strategy,
            faulty=tuple(sorted(faulty)),
            sim_seed=sim_seed,
            max_rounds=self.max_rounds,
            stop_after_agreement=self.stop_after_agreement,
            min_tail=self.min_tail,
            loss=self.loss,
            delay=self.delay,
            fault_schedule=self.fault_schedule,
            fault_schedule_params=self.fault_schedule_params,
        )

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form (the campaign definition file format)."""
        return {
            "name": self.name,
            "algorithms": [spec.to_dict() for spec in self.algorithms],
            "adversaries": list(self.adversaries),
            "num_faults": list(self.num_faults),
            "runs_per_setting": self.runs_per_setting,
            "seed": self.seed,
            "max_rounds": self.max_rounds,
            "stop_after_agreement": self.stop_after_agreement,
            "min_tail": self.min_tail,
            "fault_pattern": self.fault_pattern,
            "engine": self.engine,
            "loss": self.loss,
            "delay": self.delay,
            "fault_schedule": self.fault_schedule,
            "fault_schedule_params": dict(self.fault_schedule_params),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        """Inverse of :meth:`to_dict`.

        Older definition files may carry a ``"model"`` key (from before the
        model was derived from the algorithms) or a ``"metadata"`` object of
        free-form tags nothing read; both are ignored.  A file that
        is not an object or lacks ``"name"`` / ``"algorithms"`` raises
        :class:`ParameterError` naming what is wrong, and so does a field of
        the wrong type: values are taken as written, never coerced.
        """
        name = _required(data, "name", "campaign definition")
        owner = f"campaign {name!r}"
        entries = _as_list(owner, "algorithms", _required(data, "algorithms", owner))
        return cls(
            name=name,
            algorithms=tuple(AlgorithmSpec.from_dict(entry) for entry in entries),
            adversaries=_as_list(
                owner, "adversaries", data.get("adversaries", ("random-state",))
            ),
            num_faults=_as_list(owner, "num_faults", data.get("num_faults", (None,))),
            runs_per_setting=data.get("runs_per_setting", 10),
            seed=data.get("seed", 0),
            max_rounds=data.get("max_rounds", 1000),
            stop_after_agreement=data.get("stop_after_agreement", 20),
            min_tail=data.get("min_tail", 2),
            fault_pattern=data.get("fault_pattern", "random"),
            engine=data.get("engine", "auto"),
            loss=data.get("loss", 0.0),
            delay=data.get("delay", 0),
            fault_schedule=data.get("fault_schedule"),
            fault_schedule_params=_as_items(data.get("fault_schedule_params")),
        )
