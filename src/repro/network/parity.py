"""Differential parity fuzzing: the batch engine against the scalar engine.

The vectorised batch engine (:mod:`repro.network.batch`) promises, per
configuration, one of two equivalence classes with the scalar engine:

* **bit-identical** — deterministic algorithm kernel *and* deterministic
  adversary kernel: traces must match the scalar engine bit for bit;
* **statistically equivalent** — some kernel draws NumPy randomness: traces
  must have the same shape, header and stop semantics (plus the explicit
  ``rng`` note), and the per-round *distributions* must match.

Hand-picked identity tests only cover the corners someone thought of.  This
module instead sweeps a **seeded random grid** over the algorithm catalogue ×
every registered adversary strategy × fault counts × stopping rules
(``stop_after_agreement`` ∈ {None, 1, 2, > max_rounds}) and checks the
promised equivalence for every sampled configuration:

* :func:`sample_configs` — draw a reproducible sweep (the first samples
  cycle through all strategies so even tiny sweeps cover every strategy);
* :func:`check_parity` — run one configuration through both engines and
  verify the equivalence class the kernels advertise;
* :func:`check_distributions` — Kolmogorov–Smirnov closeness of the
  stabilisation-time distributions for the statistically equivalent
  strategies, on a flat counter, where their kernels draw NumPy values
  (fixed seeds keep it deterministic);
* :func:`run_parity_fuzz` — the full sweep, consumed by
  ``tests/network/test_parity_fuzz.py`` and ``scripts/run_parity_fuzz.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.network.adversary import NoAdversary, build_adversary
from repro.util.rng import ensure_rng
from repro.semantics import (
    adversary_semantics,
    algorithm_names,
    algorithm_semantics,
    build_algorithm,
    fault_schedule_names,
    fault_schedule_semantics,
    strategy_names,
)

__all__ = [
    "FUZZ_ALGORITHMS",
    "ALL_STRATEGIES",
    "DISTRIBUTION_STRATEGIES",
    "PERTURBATION_CHOICES",
    "ALL_SCHEDULES",
    "ParityConfig",
    "ParityReport",
    "ScheduleConfig",
    "sample_configs",
    "check_parity",
    "check_distributions",
    "run_parity_fuzz",
    "sample_schedule_configs",
    "check_schedule",
    "run_schedule_fuzz",
]

#: Fuzzable catalogue entries: ``(name, params, max_faults, max_rounds)``.
#: Generated from every catalogue algorithm's declared
#: :class:`~repro.semantics.FuzzProfile` (in catalogue order, which the
#: seeded sweep depends on), so registering an algorithm buys it parity
#: coverage automatically — there is no second list to keep in sync.
FUZZ_ALGORITHMS: tuple[tuple[str, dict[str, Any], int, int], ...] = tuple(
    (name, dict(profile.params), profile.max_faults, profile.max_rounds)
    for name in algorithm_names()
    for profile in algorithm_semantics(name).fuzz
)

#: The full strategy vocabulary: the fault-free ``"none"`` plus every
#: registered active strategy — the "all 8" of the coverage contract.
#: Generated from the semantics catalogue.
ALL_STRATEGIES: tuple[str, ...] = strategy_names()

#: The strategies whose batch kernels are only statistically equivalent on
#: *some* encoding — the ones worth a Kolmogorov–Smirnov distribution check
#: (:func:`check_distributions`).  Boosted groups replay the scalar stream,
#: so these are the strategies whose declared class draws on flat states.
DISTRIBUTION_STRATEGIES: tuple[str, ...] = tuple(
    name
    for name in strategy_names()
    if name != "none" and not adversary_semantics(name).determinism.flat
)

#: The stopping-rule grid: no early stop, the boundary window 1, a small
#: window, and a window larger than the round cap (can never fire).
WINDOW_CHOICES: tuple[str, ...] = ("none", "one", "small", "beyond")

#: The message-plane perturbation axis: ``(loss, delay)`` pairs sampled for
#: broadcast-model configurations.  Unperturbed entries dominate so most of
#: the sweep still exercises the bit-identical contract; any non-zero knob
#: demotes the configuration to the statistical equivalence class.
PERTURBATION_CHOICES: tuple[tuple[float, int], ...] = (
    (0.0, 0),
    (0.0, 0),
    (0.1, 0),
    (0.0, 1),
    (0.15, 2),
)

#: Every declared fault-schedule preset (generated from the semantics
#: catalogue, like the strategy and algorithm axes).
ALL_SCHEDULES: tuple[str, ...] = fault_schedule_names()


@dataclass(frozen=True)
class ParityConfig:
    """One sampled grid point: algorithm × strategy × faults × stopping."""

    algorithm: str
    params: tuple[tuple[str, Any], ...]
    strategy: str  # a key of ADVERSARY_SEMANTICS ("none" included)
    adversary_params: tuple[tuple[str, Any], ...]
    trials: tuple[tuple[int, tuple[int, ...]], ...]  # (sim_seed, faulty)
    max_rounds: int
    stop_after_agreement: int | None
    #: Message-plane perturbation knobs (broadcast configurations only; any
    #: non-zero value forces the statistical equivalence class).
    loss: float = 0.0
    delay: int = 0

    def label(self) -> str:
        """Compact identity for failure messages and reports."""
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        adv = self.strategy
        if self.adversary_params:
            adv += "(" + ",".join(f"{k}={v}" for k, v in self.adversary_params) + ")"
        faults = len(self.trials[0][1]) if self.trials else 0
        text = (
            f"{self.algorithm}({inner}) x {adv} f={faults} "
            f"rounds={self.max_rounds} window={self.stop_after_agreement}"
        )
        if self.loss > 0.0 or self.delay > 0:
            text += f" loss={self.loss} delay={self.delay}"
        return text

    @property
    def perturbed(self) -> bool:
        """Whether the message-plane knobs are engaged."""
        return self.loss > 0.0 or self.delay > 0


@dataclass
class ParityReport:
    """Outcome of :func:`check_parity` for one configuration."""

    config: ParityConfig
    mode: str  # "bit-identical" | "statistical"
    trials: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _adversary_param_choices(
    strategy: str, rng: random.Random
) -> tuple[tuple[str, Any], ...]:
    """Sometimes exercise the strategy's optional parameters.

    The axes come from the strategy's declared
    :attr:`~repro.semantics.AdversarySemantics.fuzz_param_choices`; each is
    included with probability one half per sampled configuration.
    """
    if strategy == "none":
        return ()
    sampled: list[tuple[str, Any]] = []
    for name, values in adversary_semantics(strategy).fuzz_param_choices:
        if rng.random() < 0.5:
            sampled.append((name, rng.choice(values)))
    return tuple(sampled)


def _window_value(choice: str, max_rounds: int) -> int | None:
    if choice == "none":
        return None
    if choice == "one":
        return 1
    if choice == "small":
        return 2
    return max_rounds + 7  # "beyond": can never fire before the cap


def sample_configs(
    count: int,
    seed: int = 0,
    *,
    trials_per_config: int = 3,
    max_rounds_cap: int | None = None,
) -> list[ParityConfig]:
    """Draw a reproducible sweep of ``count`` configurations.

    The first samples cycle deterministically through every strategy in
    :data:`ALL_STRATEGIES` (so any sweep of at least 8 configurations covers
    every strategy); algorithms, fault counts, faulty sets, stopping
    windows, optional adversary parameters and (for broadcast algorithms)
    the message-plane :data:`PERTURBATION_CHOICES` axis are drawn from
    ``seed``.
    """
    rng = ensure_rng(seed)
    configs: list[ParityConfig] = []
    for index in range(count):
        if index < len(ALL_STRATEGIES):
            strategy = ALL_STRATEGIES[index]
        else:
            strategy = rng.choice(ALL_STRATEGIES)
        candidates = [
            entry for entry in FUZZ_ALGORITHMS if strategy == "none" or entry[2] > 0
        ]
        name, params, max_faults, max_rounds = rng.choice(candidates)
        if max_rounds_cap is not None:
            max_rounds = min(max_rounds, max_rounds_cap)
        faults = 0 if strategy == "none" else rng.randint(1, max_faults)
        n = _algorithm_n(name, params)
        trials = tuple(
            (
                rng.getrandbits(32),
                tuple(sorted(rng.sample(range(n), faults))),
            )
            for _ in range(trials_per_config)
        )
        if algorithm_semantics(name).model == "pulling":
            loss, delay = 0.0, 0  # perturbations apply to broadcast only
        else:
            loss, delay = rng.choice(PERTURBATION_CHOICES)
        configs.append(
            ParityConfig(
                algorithm=name,
                params=tuple(sorted(params.items())),
                strategy=strategy,
                adversary_params=_adversary_param_choices(strategy, rng),
                trials=trials,
                max_rounds=max_rounds,
                stop_after_agreement=_window_value(rng.choice(WINDOW_CHOICES), max_rounds),
                loss=loss,
                delay=delay,
            )
        )
    return configs


def _algorithm_n(name: str, params: Mapping[str, Any]) -> int:
    n: int = build_algorithm(name, **dict(params)).n
    return n


def _scalar_trace(
    algorithm: Any,
    config: ParityConfig,
    sim_seed: int,
    faulty: Sequence[int],
    observer: Any = None,
) -> Any:
    """One scalar-engine reference run for a sampled configuration."""
    from repro.network.pulling import (
        PullingAlgorithm,
        PullSimulationConfig,
        run_pull_simulation,
    )
    from repro.network.simulator import SimulationConfig, run_simulation

    adversary = (
        build_adversary(config.strategy, faulty, **dict(config.adversary_params))
        if config.strategy != "none"
        else NoAdversary()
    )
    if isinstance(algorithm, PullingAlgorithm):
        return run_pull_simulation(
            algorithm,
            adversary=adversary,
            config=PullSimulationConfig(
                max_rounds=config.max_rounds,
                stop_after_agreement=config.stop_after_agreement,
                seed=sim_seed,
            ),
            observer=observer,
        )
    perturbations = None
    if config.perturbed:
        from repro.faults.schedule import Perturbations

        perturbations = Perturbations(loss=config.loss, delay=config.delay)
    return run_simulation(
        algorithm,
        adversary=adversary,
        config=SimulationConfig(
            max_rounds=config.max_rounds,
            stop_after_agreement=config.stop_after_agreement,
            seed=sim_seed,
            perturbations=perturbations,
        ),
        observer=observer,
    )


def check_parity(config: ParityConfig, observer: Any = None) -> ParityReport:
    """Run one configuration through both engines and verify equivalence.

    Deterministic configurations must be bit-identical (full trace
    equality); randomised ones must agree on everything the NumPy streams
    cannot change — the trace header, initial outputs, output ranges, stop
    semantics and the ``rng`` provenance note.  Both modes additionally
    cross-check :func:`~repro.network.batch.run_batch_summaries` against the
    full traces, covering the summary/compaction path under every sampled
    stopping rule.

    ``observer`` is attached to *every* engine invocation (scalar reference
    runs included).  Observers never draw randomness, so a sweep with one
    attached must produce exactly the reports of an unobserved sweep — the
    no-perturbation guarantee asserted by the observability test suite.
    """
    from repro.network.batch import (
        BATCH_RNG_NOTE,
        BatchTrial,
        bit_identical,
        build_batch_kernel,
        run_batch_summaries,
        run_batch_trials,
    )

    algorithm = build_algorithm(config.algorithm, **dict(config.params))
    kernel = build_batch_kernel(algorithm)
    report = ParityReport(config=config, mode="?", trials=len(config.trials))
    if kernel is None:
        report.failures.append("algorithm advertises no batch kernel")
        return report

    strategy = None if config.strategy == "none" else config.strategy
    deterministic = bit_identical(
        kernel, strategy, loss=config.loss, delay=config.delay
    )
    report.mode = "bit-identical" if deterministic else "statistical"

    trials = [
        BatchTrial(sim_seed=sim_seed, faulty=faulty)
        for sim_seed, faulty in config.trials
    ]
    kwargs = dict(
        adversary_strategy=strategy,
        adversary_params=dict(config.adversary_params),
        max_rounds=config.max_rounds,
        stop_after_agreement=config.stop_after_agreement,
        observer=observer,
        loss=config.loss,
        delay=config.delay,
    )
    batch_traces = run_batch_trials(algorithm, kernel, trials, **kwargs)
    summaries = run_batch_summaries(algorithm, kernel, trials, **kwargs)

    for trial, batch, summary in zip(trials, batch_traces, summaries):
        scalar = _scalar_trace(
            algorithm, config, trial.sim_seed, trial.faulty, observer=observer
        )
        where = f"seed={trial.sim_seed} faulty={list(trial.faulty)}"
        if config.perturbed:
            # Both engines must stamp the identical perturbation record.
            expected = {"loss": config.loss, "delay": config.delay}
            if batch.metadata.get("perturbations") != expected:
                report.failures.append(f"{where}: batch perturbation stamp wrong")
            if scalar.metadata.get("perturbations") != expected:
                report.failures.append(f"{where}: scalar perturbation stamp wrong")
        if deterministic:
            if batch != scalar:
                report.failures.append(f"{where}: trace diverged from scalar")
                continue
        else:
            if batch.metadata.get("rng") != BATCH_RNG_NOTE:
                report.failures.append(f"{where}: missing rng provenance note")
            if batch.faulty != scalar.faulty:
                report.failures.append(f"{where}: faulty sets differ")
            if batch.initial_outputs != scalar.initial_outputs:
                report.failures.append(
                    f"{where}: initial states left the scalar streams"
                )
            for record in batch.rounds:
                if set(record.outputs) != set(scalar.rounds[0].outputs):
                    report.failures.append(f"{where}: output node set differs")
                    break
                if not all(
                    0 <= value < algorithm.c for value in record.outputs.values()
                ):
                    report.failures.append(f"{where}: output outside [0, c)")
                    break
        # Stop semantics hold on both modes and both reduction paths.
        window = config.stop_after_agreement
        stopped = batch.metadata["stopped_early"]
        if window is None or window > config.max_rounds:
            if stopped or batch.num_rounds != config.max_rounds:
                report.failures.append(f"{where}: early stop fired without window")
        elif stopped and batch.metadata["agreement_streak"] < window:
            report.failures.append(f"{where}: stop before the window filled")
        if deterministic and stopped != scalar.metadata["stopped_early"]:
            report.failures.append(f"{where}: stop flags differ from scalar")
        # Summary path must agree with the trace path exactly.
        agreed = tuple(
            -1 if value is None else value for value in batch.agreed_values()
        )
        if (
            summary.rounds != batch.num_rounds
            or summary.agreed != agreed
            or summary.stopped_early != stopped
            or (
                stopped
                and summary.agreement_streak != batch.metadata["agreement_streak"]
            )
        ):
            report.failures.append(f"{where}: summary diverged from trace")
    return report


def _ks_statistic(left: Sequence[float], right: Sequence[float]) -> float:
    """Two-sample Kolmogorov–Smirnov statistic (max CDF distance)."""
    points = sorted(set(left) | set(right))
    worst = 0.0
    for point in points:
        cdf_left = sum(1 for value in left if value <= point) / len(left)
        cdf_right = sum(1 for value in right if value <= point) / len(right)
        worst = max(worst, abs(cdf_left - cdf_right))
    return worst


#: The counter :func:`check_distributions` runs a strategy against: a flat
#: counter that two random forgers can delay.
_FLAT_PROBE: tuple[str, dict[str, Any]] = (
    "naive-majority",
    {"n": 9, "c": 4, "claimed_resilience": 2},
)


def check_distributions(
    strategy: str,
    *,
    trials: int = 60,
    seed: int = 0,
    max_rounds: int = 150,
    loss: float = 0.0,
    delay: int = 0,
) -> tuple[float, int]:
    """KS closeness of scalar vs batch stabilisation times for one strategy.

    Runs the strategy, with ``f`` faults, against a flat counter: the one
    encoding on which a batch kernel draws NumPy values instead of
    replaying the scalar stream.  It uses ``trials`` fixed seeds per engine
    and returns ``(ks_statistic, trials)``.  Fixed seeds make the statistic
    deterministic.  ``loss``/``delay`` engage the message-plane
    perturbations on both engines, extending the distributional check to
    the perturbed axes.
    """
    from repro.network.batch import BatchTrial, build_batch_kernel, run_batch_trials
    from repro.network.stabilization import stabilization_round

    name, params = _FLAT_PROBE
    algorithm = build_algorithm(name, **params)
    kernel = build_batch_kernel(algorithm)
    assert kernel is not None
    rng = ensure_rng(seed)
    trial_list = [
        BatchTrial(
            sim_seed=rng.getrandbits(32),
            faulty=tuple(sorted(rng.sample(range(algorithm.n), algorithm.f))),
        )
        for _ in range(trials)
    ]
    config = ParityConfig(
        algorithm=name,
        params=tuple(sorted(params.items())),
        strategy=strategy,
        adversary_params=(),
        trials=tuple((t.sim_seed, t.faulty) for t in trial_list),
        max_rounds=max_rounds,
        stop_after_agreement=None,
        loss=loss,
        delay=delay,
    )

    def times(traces: Any) -> list[int]:
        values = []
        for trace in traces:
            result = stabilization_round(trace, min_tail=2)
            values.append(
                result.round if result.round is not None else trace.num_rounds
            )
        return values

    batch_times = times(
        run_batch_trials(
            algorithm,
            kernel,
            trial_list,
            adversary_strategy=strategy,
            max_rounds=max_rounds,
            loss=loss,
            delay=delay,
        )
    )
    scalar_times = times(
        _scalar_trace(algorithm, config, t.sim_seed, t.faulty) for t in trial_list
    )
    return _ks_statistic(scalar_times, batch_times), trials


def run_parity_fuzz(
    count: int = 32,
    seed: int = 0,
    *,
    trials_per_config: int = 3,
    max_rounds_cap: int | None = None,
    observer: Any = None,
) -> list[ParityReport]:
    """The full seeded sweep: sample ``count`` configurations, check each.

    ``observer`` is forwarded into every engine invocation of the sweep;
    because observers only read, the reports must be identical to an
    unobserved sweep with the same arguments.
    """
    return [
        check_parity(config, observer=observer)
        for config in sample_configs(
            count,
            seed,
            trials_per_config=trials_per_config,
            max_rounds_cap=max_rounds_cap,
        )
    ]


# ---------------------------------------------------------------------- #
# Fault-schedule fuzz (scalar determinism + named-fallback contract)
# ---------------------------------------------------------------------- #

#: The scheduled sweeps run against one small broadcast counter; the
#: schedule axis varies, the algorithm stays fixed and cheap.
_SCHEDULE_ALGORITHM: tuple[str, dict[str, Any]] = (
    "naive-majority",
    {"n": 6, "c": 3, "claimed_resilience": 1},
)


@dataclass(frozen=True)
class ScheduleConfig:
    """One sampled fault-schedule grid point.

    Fault schedules have no batch path, so their contract is different from
    :class:`ParityConfig`: fixed seeds must replay fixed schedules on the
    scalar engine, recovery metrics must be internally consistent, and the
    campaign layer must degrade scheduled groups to the scalar engine with a
    *named* fallback reason (never silently) while ``engine="batch"`` must
    refuse them outright.
    """

    schedule: str
    params: tuple[tuple[str, Any], ...]
    sim_seed: int
    max_rounds: int
    stop_after_agreement: int | None

    def label(self) -> str:
        """Compact identity for failure messages and reports."""
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return (
            f"{self.schedule}({inner}) seed={self.sim_seed} "
            f"rounds={self.max_rounds} window={self.stop_after_agreement}"
        )


def sample_schedule_configs(count: int, seed: int = 0) -> list[ScheduleConfig]:
    """Draw a reproducible sweep over the declared fault-schedule presets.

    The first samples cycle through every preset in :data:`ALL_SCHEDULES`;
    parameters come from each preset's declared ``fuzz_param_choices`` (the
    same mechanism as the adversary axes), so declaring a new preset buys it
    sweep coverage automatically.
    """
    rng = ensure_rng(seed)
    configs: list[ScheduleConfig] = []
    for index in range(count):
        if index < len(ALL_SCHEDULES):
            name = ALL_SCHEDULES[index]
        else:
            name = rng.choice(ALL_SCHEDULES)
        spec = fault_schedule_semantics(name)
        params: list[tuple[str, Any]] = []
        for param_name, values in spec.fuzz_param_choices:
            if rng.random() < 0.5:
                params.append((param_name, rng.choice(values)))
        schedule = spec.build(**dict(params))
        horizon = schedule.last_change_round() or 0
        configs.append(
            ScheduleConfig(
                schedule=name,
                params=tuple(sorted(params)),
                sim_seed=rng.getrandbits(32),
                # Leave ample post-perturbation room for re-stabilisation.
                max_rounds=horizon + 60,
                stop_after_agreement=rng.choice((None, 8)),
            )
        )
    return configs


def check_schedule(config: ScheduleConfig) -> list[str]:
    """Verify one scheduled configuration's contract; return failures.

    Checks three things: (1) fixed-seed determinism — two scalar executions
    replay bit-identically, including the drawn faulty sets and rejoin
    states; (2) recovery-metric consistency — the trace carries the
    perturbation anchor and :func:`repro.network.stabilization.recovery_round`
    agrees with it; (3) the campaign contract — ``engine="auto"`` degrades
    the scheduled group to the scalar engine with a fallback reason naming
    the schedule, and ``engine="batch"`` raises instead of silently falling
    back.
    """
    from repro.campaigns.batching import BatchExecutor
    from repro.campaigns.spec import AlgorithmSpec, RunSpec
    from repro.core.errors import ParameterError
    from repro.faults.schedule import Perturbations
    from repro.network.simulator import SimulationConfig, run_simulation
    from repro.network.stabilization import recovery_round

    failures: list[str] = []
    name, algorithm_params = _SCHEDULE_ALGORITHM
    algorithm = build_algorithm(name, **algorithm_params)
    schedule = fault_schedule_semantics(config.schedule).build(**dict(config.params))

    def execute() -> Any:
        return run_simulation(
            algorithm,
            config=SimulationConfig(
                max_rounds=config.max_rounds,
                stop_after_agreement=config.stop_after_agreement,
                seed=config.sim_seed,
                perturbations=Perturbations(schedule=schedule),
            ),
        )

    first, second = execute(), execute()
    if first != second:
        failures.append("fixed-seed replay diverged (schedule not deterministic)")

    anchor = first.metadata.get("last_perturbation_round")
    horizon = schedule.last_change_round()
    if horizon is not None and horizon <= config.max_rounds:
        if anchor is None:
            failures.append("trace missing last_perturbation_round anchor")
        elif not 0 <= anchor < first.num_rounds:
            failures.append(f"anchor {anchor} outside the recorded rounds")
    if first.metadata.get("perturbations", {}).get("schedule", {}).get(
        "name"
    ) != config.schedule:
        failures.append("perturbation stamp does not name the schedule")
    recovery = recovery_round(first, min_tail=2)
    if recovery.last_perturbation_round != anchor:
        failures.append("recovery analysis disagrees with the trace anchor")
    if recovery.recovered:
        if recovery.recovery_round is None or recovery.recovery_round < (anchor or 0):
            failures.append("recovery round precedes the perturbation")
        elif (
            recovery.re_stabilization_time
            != recovery.recovery_round - (anchor or 0)
        ):
            failures.append("re_stabilization_time is not recovery - anchor")

    spec = RunSpec(
        run_id=f"schedule-fuzz/{config.label()}",
        algorithm=AlgorithmSpec.create(name, algorithm_params),
        sim_seed=config.sim_seed,
        max_rounds=config.max_rounds,
        stop_after_agreement=config.stop_after_agreement,
        fault_schedule=config.schedule,
        fault_schedule_params=config.params,
    )
    executor = BatchExecutor(engine="auto")
    results = executor.run([spec])
    if len(results) != 1 or results[0].error is not None:
        failures.append(f"auto executor lost the scheduled run: {results!r}")
    reasons = [
        reason
        for reason in executor.stats.fallback_reasons
        if config.schedule in reason
    ]
    if not reasons:
        failures.append(
            "auto engine fell back without naming the schedule: "
            f"{executor.stats.fallback_reasons!r}"
        )
    try:
        BatchExecutor(engine="batch").run([spec])
    except ParameterError:
        pass
    else:
        failures.append("engine='batch' accepted a scheduled group silently")
    return failures


def run_schedule_fuzz(
    count: int = 6, seed: int = 0
) -> list[tuple[ScheduleConfig, list[str]]]:
    """The scheduled sweep: sample ``count`` configurations, check each."""
    return [
        (config, check_schedule(config))
        for config in sample_schedule_configs(count, seed)
    ]
