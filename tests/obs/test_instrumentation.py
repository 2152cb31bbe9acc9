"""Instrumentation contract tests: no perturbation, correct aggregation.

The three guarantees the observability layer makes (see ``repro.obs``):

1. Attaching an observer never changes any result — observers only read.
   Asserted here at every level: the scalar engine, the batch engine (via
   the PR-5 parity harness with a recording observer attached), and whole
   campaigns.
2. Metrics aggregate correctly across execution strategies: a parallel
   campaign's counters and round histograms equal the serial campaign's
   (workers measure locally; registries merge by value at join time).
3. The lifecycle event stream is complete: one ``run_finished`` per run on
   every executor, resume skips are announced instead of silently eliding
   progress, and batch scheduling/fallback decisions are visible.
"""

from __future__ import annotations

from repro.campaigns.batching import BatchExecutor
from repro.campaigns.executor import ParallelExecutor, SerialExecutor, execute_run
from repro.campaigns.results import CampaignStore
from repro.campaigns.runner import run_campaign
from repro.campaigns.spec import AlgorithmSpec, CampaignSpec, RunSpec
from repro.network.parity import ParityConfig, check_parity, run_parity_fuzz
from repro.network.simulator import SimulationConfig, run_simulation
from repro.obs import (
    BatchGroupScheduled,
    CampaignFinished,
    CampaignStarted,
    FallbackTaken,
    Observer,
    RoundObserved,
    RunFinished,
    RunsSkippedOnResume,
)


def small_campaign(runs_per_setting: int = 4, engine: str = "scalar") -> CampaignSpec:
    return CampaignSpec(
        name="obs-demo",
        algorithms=(
            AlgorithmSpec.create(
                "naive-majority", {"n": 6, "c": 3, "claimed_resilience": 1}
            ),
        ),
        adversaries=("crash", "random-state"),
        runs_per_setting=runs_per_setting,
        seed=13,
        max_rounds=40,
        stop_after_agreement=5,
        engine=engine,
    )


class TestNoPerturbation:
    def test_scalar_engine_trace_identical_under_observation(self):
        from repro.semantics import build_algorithm

        algorithm = build_algorithm("naive-majority", n=5, c=3, claimed_resilience=1)
        config = SimulationConfig(max_rounds=25, seed=42)
        bare = run_simulation(algorithm, config=config)
        observer = Observer.recording(round_stride=1)
        observed = run_simulation(algorithm, config=config, observer=observer)
        assert observed == bare
        # And the observation actually happened: every round was sampled.
        rounds = observer.buffer.of_kind(RoundObserved)
        assert len(rounds) == len(bare.rounds)
        assert all(event.source == "engine" for event in rounds)

    def test_campaign_results_identical_under_observation(self):
        campaign = small_campaign()
        bare = run_campaign(campaign)
        observed = run_campaign(campaign, observer=Observer.recording())
        assert [r.to_json() for r in observed.results] == [
            r.to_json() for r in bare.results
        ]
        assert observed.metrics is not None and bare.metrics is None

    def test_parity_check_holds_with_recording_observer(self):
        # The strongest form of the guarantee: the PR-5 differential harness
        # itself, with an observer attached to every engine invocation
        # (scalar reference runs included), still proves bit-identity.
        config = ParityConfig(
            algorithm="naive-majority",
            params=(("c", 3), ("claimed_resilience", 1), ("n", 6)),
            strategy="fixed-state",
            adversary_params=(),
            trials=((21, (1,)), (22, (4,))),
            max_rounds=40,
            stop_after_agreement=3,
        )
        observer = Observer.recording(round_stride=1)
        report = check_parity(config, observer=observer)
        assert report.mode == "bit-identical"
        assert report.ok, report.failures
        assert len(observer.buffer.events) > 0

    def test_parity_fuzz_sweep_unchanged_by_observer(self):
        def outcomes(observer):
            return [
                (r.config.label(), r.mode, r.ok, tuple(r.failures))
                for r in run_parity_fuzz(
                    count=6, seed=11, trials_per_config=2,
                    max_rounds_cap=80, observer=observer,
                )
            ]

        bare = outcomes(None)
        observed = outcomes(Observer.recording(round_stride=1))
        assert observed == bare
        assert all(ok for _, _, ok, _ in bare)


class TestAggregation:
    def test_serial_and_parallel_campaigns_agree_on_metrics(self):
        campaign = small_campaign()
        runs = campaign.expand()

        serial_obs = Observer.recording()
        serial = run_campaign(
            runs, executor=SerialExecutor(), observer=serial_obs
        )
        parallel_obs = Observer.recording()
        parallel = run_campaign(
            runs,
            executor=ParallelExecutor(processes=2, chunksize=3),
            observer=parallel_obs,
        )
        assert [r.to_json() for r in serial.results] == [
            r.to_json() for r in parallel.results
        ]

        serial_snap, parallel_snap = serial.metrics, parallel.metrics
        # Counters agree exactly: completion accounting is identical no
        # matter which process executed a run.
        for name in (
            "campaign.runs_total",
            "campaign.runs_executed",
            "campaign.runs_failed",
            "executor.runs_completed",
            "executor.runs_failed",  # lazily created: absent means zero
        ):
            assert (
                serial_snap["counters"].get(name, 0)
                == parallel_snap["counters"].get(name, 0)
            ), name
        # Round counts are properties of the runs, not of scheduling: the
        # full histogram sketch (buckets included) must match.  Timing
        # histograms share counts but not values.
        assert (
            serial_snap["histograms"]["run.rounds"]
            == parallel_snap["histograms"]["run.rounds"]
        )
        assert (
            serial_snap["histograms"]["run.seconds"]["count"]
            == parallel_snap["histograms"]["run.seconds"]["count"]
            == len(runs)
        )

    def test_parallel_run_finished_events_cover_every_run(self):
        runs = small_campaign().expand()
        observer = Observer.recording()
        executor = ParallelExecutor(processes=2, observer=observer)
        executor.run(runs)
        finished = observer.buffer.of_kind(RunFinished)
        assert sorted(e.run_id for e in finished) == sorted(r.run_id for r in runs)
        # Worker wall time is measured in the worker and serialised back.
        assert all(e.seconds is not None and e.seconds >= 0 for e in finished)


class TestLifecycleEvents:
    def test_campaign_event_sequence(self):
        observer = Observer.recording()
        report = run_campaign(small_campaign(runs_per_setting=2), observer=observer)
        events = list(observer.buffer.events)
        assert isinstance(events[0], CampaignStarted)
        assert events[0].total_runs == report.total
        assert isinstance(events[-1], CampaignFinished)
        assert events[-1].executed == report.executed == report.total
        finished = observer.buffer.of_kind(RunFinished)
        assert len(finished) == report.total

    def test_resume_emits_runs_skipped_event_and_counter(self, tmp_path):
        campaign = small_campaign(runs_per_setting=2)
        runs = campaign.expand()
        store = CampaignStore(tmp_path / "resume.jsonl")
        for spec in runs[:3]:
            store.append(execute_run(spec))

        observer = Observer.recording()
        report = run_campaign(campaign, store=store, observer=observer)
        assert report.skipped == 3

        skipped_events = observer.buffer.of_kind(RunsSkippedOnResume)
        assert skipped_events == [RunsSkippedOnResume(count=3, total=len(runs))]
        started = observer.buffer.of_kind(CampaignStarted)
        assert started[0].skipped == 3 and started[0].pending == len(runs) - 3
        counters = report.metrics["counters"]
        assert counters["campaign.runs_skipped_on_resume"] == 3
        assert counters["campaign.runs_executed"] == len(runs) - 3

    def test_fresh_campaign_emits_no_skip_event(self):
        observer = Observer.recording()
        run_campaign(small_campaign(runs_per_setting=1), observer=observer)
        assert observer.buffer.of_kind(RunsSkippedOnResume) == []


class TestBatchExecutorEvents:
    def test_batched_group_is_announced_and_runs_finished(self):
        campaign = CampaignSpec(
            name="obs-batch",
            algorithms=(
                AlgorithmSpec.create(
                    "naive-majority", {"n": 6, "c": 3, "claimed_resilience": 1}
                ),
            ),
            adversaries=("mimic",),
            num_faults=(1,),
            runs_per_setting=6,
            seed=5,
            max_rounds=40,
            stop_after_agreement=4,
        )
        runs = campaign.expand()
        observer = Observer.recording()
        executor = BatchExecutor(engine="auto", observer=observer)
        results = executor.run(runs)
        assert executor.stats.batched == len(runs)

        scheduled = observer.buffer.of_kind(BatchGroupScheduled)
        assert len(scheduled) == 1
        assert scheduled[0].runs == len(runs)
        assert scheduled[0].deterministic is True
        assert observer.buffer.of_kind(FallbackTaken) == []
        finished = observer.buffer.of_kind(RunFinished)
        assert len(finished) == len(results) == len(runs)
        # Batched runs share the group's cost: no per-run seconds.
        assert all(e.seconds is None for e in finished)

        counters = observer.metrics.snapshot()["counters"]
        assert counters["executor.runs_batched"] == len(runs)
        assert counters["executor.runs_completed"] == len(runs)
        assert counters["batch.trials"] == len(runs)

    def test_fallback_emits_event_with_reason(self):
        from repro.counters.naive import NaiveMajorityCounter

        # Pre-built instances are never grouped — the documented fallback.
        algorithm = NaiveMajorityCounter(n=5, c=2, claimed_resilience=1)
        specs = [
            RunSpec(run_id=f"inst-{i}", algorithm=algorithm, sim_seed=i, max_rounds=15)
            for i in range(3)
        ]
        observer = Observer.recording()
        executor = BatchExecutor(engine="auto", observer=observer)
        executor.run(specs)

        fallbacks = observer.buffer.of_kind(FallbackTaken)
        assert len(fallbacks) == 1
        assert fallbacks[0].runs == 3
        assert "pre-built" in fallbacks[0].reason
        assert executor.stats.fallback == 3
        counters = observer.metrics.snapshot()["counters"]
        assert counters["executor.fallback_runs"] == 3
        assert counters["executor.fallback_groups"] == 1
        # Exactly one run_finished per run, despite the scalar detour.
        assert len(observer.buffer.of_kind(RunFinished)) == 3

    def test_fallback_reasons_stay_in_campaign_report(self):
        # Satellite (b): the unified stats keep CampaignReport's
        # fallback_reasons byte-compatible with the pre-unification format.
        from repro.counters.naive import NaiveMajorityCounter

        algorithm = NaiveMajorityCounter(n=5, c=2, claimed_resilience=1)
        specs = [
            RunSpec(run_id=f"inst-{i}", algorithm=algorithm, sim_seed=i, max_rounds=15)
            for i in range(2)
        ]
        report = run_campaign(specs, executor=BatchExecutor(engine="auto"))
        assert len(report.fallback_reasons) == 1
        label, _, reason = report.fallback_reasons[0].partition(": ")
        assert label == "2 run(s) with pre-built instances"
        assert reason == "pre-built algorithm instances are never grouped"


class TestDefaultObserverFallback:
    """Bare executors honour the process-default observer.

    Experiment modules call ``executor.run(specs)`` directly, without going
    through :func:`run_campaign` — the executor itself must fall back to the
    installed default, and the batch executor's internal scalar detours must
    not double-emit when one is installed.
    """

    def test_bare_executor_uses_installed_default(self):
        from repro.obs import observing

        runs = small_campaign(runs_per_setting=2).expand()
        with observing(Observer.recording()) as observer:
            results = SerialExecutor().run(runs)
        finished = observer.buffer.of_kind(RunFinished)
        assert len(finished) == len(results) == len(runs)
        counters = observer.metrics.snapshot()["counters"]
        assert counters["executor.runs_completed"] == len(runs)
        assert counters["engine.runs"] == len(runs)

    def test_explicit_null_observer_overrides_default(self):
        from repro.obs import NULL_OBSERVER, observing

        runs = small_campaign(runs_per_setting=1).expand()
        with observing(Observer.recording()) as observer:
            SerialExecutor(observer=NULL_OBSERVER).run(runs)
        assert list(observer.buffer.events) == []
        assert len(observer.metrics) == 0

    def test_batch_executor_single_emission_under_default(self):
        from repro.counters.naive import NaiveMajorityCounter
        from repro.obs import observing

        # Pre-built instances force the scalar-leftover detour; processes=2
        # routes it through the inner ParallelExecutor, which must stay
        # silent (NULL_OBSERVER) so finish() emits the only run_finished.
        algorithm = NaiveMajorityCounter(n=5, c=2, claimed_resilience=1)
        specs = [
            RunSpec(run_id=f"inst-{i}", algorithm=algorithm, sim_seed=i, max_rounds=15)
            for i in range(4)
        ]
        with observing(Observer.recording()) as observer:
            results = BatchExecutor(engine="auto", processes=2).run(specs)
        finished = observer.buffer.of_kind(RunFinished)
        assert len(finished) == len(results) == len(specs)
        assert sorted(e.run_id for e in finished) == [s.run_id for s in specs]
        counters = observer.metrics.snapshot()["counters"]
        assert counters["executor.runs_completed"] == len(specs)
        assert counters["executor.fallback_runs"] == len(specs)


class TestStrideSampling:
    def test_zero_stride_suppresses_round_events(self):
        observer = Observer.recording(round_stride=0)
        run_campaign(small_campaign(runs_per_setting=1), observer=observer)
        assert observer.buffer.of_kind(RoundObserved) == []

    def test_stride_thins_round_events(self):
        from repro.semantics import build_algorithm

        algorithm = build_algorithm("trivial", c=4)
        config = SimulationConfig(max_rounds=20, seed=0)
        every = Observer.recording(round_stride=1)
        run_simulation(algorithm, config=config, observer=every)
        sparse = Observer.recording(round_stride=5)
        run_simulation(algorithm, config=config, observer=sparse)
        assert len(every.buffer.of_kind(RoundObserved)) == 20
        assert len(sparse.buffer.of_kind(RoundObserved)) == 4
