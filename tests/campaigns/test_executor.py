"""Executor, result-store and runner tests — including the serial-vs-parallel
bit-identity guarantee the campaign engine is built around."""

from __future__ import annotations

import dataclasses
import json
import os
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.campaigns.executor import (
    ParallelExecutor,
    SerialExecutor,
    execute_run,
)
from repro.campaigns.results import CampaignStore, RunResult, summarize_results
from repro.campaigns.runner import run_campaign
from repro.campaigns.spec import AlgorithmSpec, CampaignSpec, RunSpec
from repro.counters.trivial import TrivialCounter


class ParentOnlyCounter(TrivialCounter):
    """Kills any process that is not the one it was constructed in.

    Module level so it pickles into pool workers: the first transition in a
    worker is an ``os._exit`` (the hard death the pool cannot intercept),
    while the serial retry in the constructing process runs normally.
    """

    def __init__(self, c: int = 3) -> None:
        super().__init__(c=c)
        self._home_pid = os.getpid()

    def next_state(self, node, states):
        if os.getpid() != self._home_pid:
            os._exit(1)
        return super().next_state(node, states)


class BreaksAfterFirstSubmit:
    """A stand-in process pool whose worker dies after the first submission.

    The first ``submit`` runs its chunk in-process and returns a finished
    future; every later one raises ``BrokenProcessPool``, as a real pool
    does once a worker has died while chunks are still being submitted.
    """

    def __init__(self, max_workers: int) -> None:
        self.submitted = 0

    def __enter__(self) -> "BreaksAfterFirstSubmit":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def submit(self, function, *args) -> Future:
        self.submitted += 1
        if self.submitted > 1:
            raise BrokenProcessPool("A child process terminated abruptly")
        future: Future = Future()
        future.set_result(function(*args))
        return future


def track_append_opens(monkeypatch) -> list[str]:
    """Record every path opened in append mode from now on."""
    opened: list[str] = []
    original = Path.open

    def tracking_open(self, mode="r", *args, **kwargs):
        if "a" in mode:
            opened.append(str(self))
        return original(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", tracking_open)
    return opened


def fixed_campaign(runs_per_setting: int = 25) -> CampaignSpec:
    """A 100-run campaign that is cheap enough for the test suite."""
    return CampaignSpec(
        name="fixed",
        algorithms=(
            AlgorithmSpec.create(
                "naive-majority", {"n": 6, "c": 3, "claimed_resilience": 1}
            ),
            AlgorithmSpec.create(
                "naive-majority", {"n": 4, "c": 4, "claimed_resilience": 1}
            ),
        ),
        adversaries=("crash", "random-state"),
        runs_per_setting=runs_per_setting,
        seed=11,
        max_rounds=40,
        stop_after_agreement=5,
    )


class TestExecuteRun:
    def test_successful_run_produces_metrics(self):
        spec = RunSpec(
            run_id="ok",
            algorithm=AlgorithmSpec.create("trivial", {"c": 4}),
            sim_seed=3,
            max_rounds=12,
            stop_after_agreement=None,
        )
        result = execute_run(spec)
        assert result.error is None
        assert result.rounds_simulated == 12
        assert result.stabilized
        assert result.stabilization_round == 0
        assert result.messages_sent == 12  # 12 rounds x 1 sender x 1 receiver
        assert result.n == 1 and result.c == 4

    def test_failure_is_accounted_not_raised(self):
        spec = RunSpec(
            run_id="broken", algorithm=AlgorithmSpec.create("no-such-algorithm")
        )
        result = execute_run(spec)
        assert result.error is not None
        assert "no-such-algorithm" in result.error
        assert not result.stabilized

    def test_builds_no_round_records(self, monkeypatch):
        import repro.network.engine as engine

        def forbidden(*args, **kwargs):
            raise AssertionError("execute_run built a RoundRecord")

        monkeypatch.setattr(engine, "RoundRecord", forbidden)
        broadcast = RunSpec(
            run_id="broadcast",
            algorithm=AlgorithmSpec.create(
                "naive-majority", {"n": 6, "c": 3, "claimed_resilience": 1}
            ),
            max_rounds=30,
            fault_schedule="churn",
            fault_schedule_params=(("start", 3), ("down", 2), ("adversarial", 2)),
        )
        pulling = RunSpec(
            run_id="pulling",
            algorithm=AlgorithmSpec.create("sampled-boosted", {"sample_size": 2}),
            adversary="crash",
            faulty=(3,),
            max_rounds=10,
        )
        assert (broadcast.model, pulling.model) == ("broadcast", "pulling")
        for spec in (broadcast, pulling):
            result = execute_run(spec)
            assert result.error is None, result.error
            assert result.rounds_simulated > 0
        assert result.max_pulls is not None
        assert execute_run(broadcast).last_perturbation_round == 7

    def test_trace_metadata_carries_run_id(self):
        # The config.metadata merge makes campaign traces self-describing.
        from repro.network.simulator import SimulationConfig, run_simulation

        spec = RunSpec(
            run_id="tagged",
            algorithm=AlgorithmSpec.create("trivial", {"c": 2}),
        )
        config = SimulationConfig(
            max_rounds=2,
            seed=0,
            metadata={"run_id": spec.run_id, "campaign": "meta-test"},
        )
        trace = run_simulation(spec.resolve_algorithm(), config=config)
        assert trace.metadata["run_id"] == "tagged"
        assert trace.metadata["campaign"] == "meta-test"


class TestPullingRuns:
    def test_execute_run_dispatches_to_pulling_engine(self):
        from repro.analysis.metrics import pull_statistics
        from repro.campaigns.executor import execute_run
        from repro.campaigns.results import reduce_values
        from repro.network.engine import run_engine
        from repro.network.pulling import PullingModel

        spec = RunSpec(
            run_id="pull-0",
            algorithm=AlgorithmSpec.create("sampled-boosted", {"sample_size": 2}),
            adversary="crash",
            faulty=(3,),
            sim_seed=9,
            max_rounds=15,
            stop_after_agreement=None,
        )
        assert spec.model == "pulling"
        result = execute_run(spec)
        assert result.error is None
        assert result.model == "pulling"
        assert result.max_pulls is not None and result.max_pulls > 0
        assert result.max_bits is not None and result.max_bits > result.max_pulls
        assert result.post_agreement_failure_rate is not None

        # The executor result must equal a by-hand run of the pulling engine,
        # and the summary must agree with the trace recorded alongside it.
        algorithm = spec.resolve_algorithm()
        summary, trace = run_engine(
            PullingModel(algorithm, spec.resolve_adversary()), max_rounds=15, seed=9
        )
        assert reduce_values(spec, algorithm, summary).to_json() == result.to_json()
        assert summary.agreed == tuple(
            -1 if value is None else value for value in trace.agreed_values()
        )
        stats = pull_statistics(trace)
        assert (result.max_pulls, result.mean_pulls, result.max_bits) == (
            stats["max_pulls"],
            stats["mean_pulls"],
            stats["max_bits"],
        )

    def test_pulling_messages_sent_counts_pulls(self):
        from repro.campaigns.executor import execute_run

        spec = RunSpec(
            run_id="pull-msg",
            algorithm=AlgorithmSpec.create("sampled-boosted", {"sample_size": 2}),
            adversary="crash",
            faulty=(3,),
            sim_seed=1,
            max_rounds=10,
            stop_after_agreement=None,
        )
        result = execute_run(spec)
        assert result.error is None
        # 11 correct nodes x 17 pulls each x 10 rounds, far below the
        # broadcast accounting of rounds x n x correct = 10 x 12 x 11.
        assert result.messages_sent == 10 * 11 * 17


class TestSerialVsParallel:
    def test_results_bit_identical_on_100_run_campaign(self):
        runs = fixed_campaign().expand()
        assert len(runs) == 100

        serial = SerialExecutor()
        serial_results = serial.run(runs)
        parallel = ParallelExecutor(processes=2, chunksize=7)
        parallel_results = parallel.run(runs)

        assert serial.stats.completed == parallel.stats.completed == 100
        assert serial.stats.failed == parallel.stats.failed == 0
        serial_lines = [result.to_json() for result in serial_results]
        parallel_lines = [result.to_json() for result in parallel_results]
        assert serial_lines == parallel_lines

    def test_parallel_handles_instance_specs(self):
        from repro.counters.naive import NaiveMajorityCounter

        algorithm = NaiveMajorityCounter(n=5, c=2, claimed_resilience=1)
        specs = [
            RunSpec(
                run_id=f"inst-{index}",
                algorithm=algorithm,
                adversary="crash",
                faulty=(4,),
                sim_seed=index,
                max_rounds=20,
            )
            for index in range(6)
        ]
        serial = SerialExecutor().run(specs)
        parallel = ParallelExecutor(processes=2).run(specs)
        assert [r.to_json() for r in serial] == [r.to_json() for r in parallel]

    def test_stateful_algorithm_instances_do_not_leak_state_across_runs(self):
        # A shared non-deterministic instance must not make results depend on
        # execution order: execute_run deep-copies it and reseeds from the
        # spec, so serial and parallel agree run for run.
        from repro.counters.randomized import RandomizedFollowMajorityCounter

        algorithm = RandomizedFollowMajorityCounter(n=4, f=1, c=2, seed=0)
        specs = [
            RunSpec(
                run_id=f"rand-{index}",
                algorithm=algorithm,
                adversary="crash",
                faulty=(3,),
                sim_seed=1000 + index,
                max_rounds=300,
                stop_after_agreement=4,
            )
            for index in range(8)
        ]
        serial = {r.run_id: r.to_json() for r in SerialExecutor().run(specs)}
        parallel = {
            r.run_id: r.to_json()
            for r in ParallelExecutor(processes=2, chunksize=3).run(specs)
        }
        assert serial == parallel
        # Order independence within one executor too: reversing the spec list
        # yields the same per-run results.
        reversed_serial = {
            r.run_id: r.to_json() for r in SerialExecutor().run(specs[::-1])
        }
        assert reversed_serial == serial

    def test_duplicate_run_ids_not_dropped(self):
        spec = RunSpec(
            run_id="same", algorithm=AlgorithmSpec.create("trivial", {"c": 2})
        )
        specs = [spec, spec, spec]
        serial = SerialExecutor().run(specs)
        parallel = ParallelExecutor(processes=2, chunksize=1).run(specs)
        assert len(serial) == len(parallel) == 3
        assert [r.to_json() for r in serial] == [r.to_json() for r in parallel]

    def test_parallel_failure_accounting(self):
        specs = [
            RunSpec(run_id="good", algorithm=AlgorithmSpec.create("trivial", {"c": 2})),
            RunSpec(run_id="bad", algorithm=AlgorithmSpec.create("nope")),
        ]
        executor = ParallelExecutor(processes=2)
        results = executor.run(specs)
        assert executor.stats.failed == 1
        assert [result.run_id for result in results] == ["good", "bad"]
        assert results[0].error is None and results[1].error is not None


class TestWorkerDeath:
    def specs(self, count: int = 6) -> list[RunSpec]:
        algorithm = ParentOnlyCounter(c=3)
        return [
            RunSpec(
                run_id=f"killer-{index}",
                algorithm=algorithm,
                sim_seed=index,
                max_rounds=10,
            )
            for index in range(count)
        ]

    def test_dead_worker_degrades_to_serial_not_lost_results(self):
        executor = ParallelExecutor(processes=2, chunksize=2)
        results = executor.run(self.specs())
        # Every run still produced a result, via the serial retry.
        assert [result.run_id for result in results] == [
            f"killer-{index}" for index in range(6)
        ]
        assert all(result.error is None for result in results)
        assert all(result.rounds_simulated == 10 for result in results)
        reasons = executor.stats.fallback_reasons
        assert reasons and "BrokenProcessPool" in reasons[0]

    def test_death_during_submission_degrades_to_serial(self, monkeypatch):
        monkeypatch.setattr(
            "repro.campaigns.executor.ProcessPoolExecutor", BreaksAfterFirstSubmit
        )
        executor = ParallelExecutor(processes=2, chunksize=2)
        results = executor.run(self.specs())
        # The first chunk ran in the pool; the two never submitted ran on
        # the serial path, and the results keep submission order.
        assert [result.run_id for result in results] == [
            f"killer-{index}" for index in range(6)
        ]
        assert all(result.error is None for result in results)
        assert all(result.rounds_simulated == 10 for result in results)
        reasons = executor.stats.fallback_reasons
        assert len(reasons) == 1
        assert reasons[0].startswith("parallel-executor: ")
        assert "BrokenProcessPool" in reasons[0]
        assert executor.stats.fallback == 4

    def test_degradation_is_observable(self):
        from repro.obs import Observer
        from repro.obs.events import FallbackTaken

        observer = Observer.recording()
        executor = ParallelExecutor(processes=2, chunksize=2, observer=observer)
        results = executor.run(self.specs())
        assert all(result.error is None for result in results)
        events = observer.buffer.of_kind(FallbackTaken)
        assert len(events) == 1
        assert events[0].label == "parallel-executor"
        assert events[0].runs == len(results)
        assert "BrokenProcessPool" in events[0].reason


class TestCampaignStore:
    def test_round_trip(self, tmp_path):
        store = CampaignStore(tmp_path / "results.jsonl")
        spec = RunSpec(
            run_id="rt", algorithm=AlgorithmSpec.create("trivial", {"c": 3})
        )
        result = execute_run(spec)
        store.append(result)
        loaded = store.load()
        assert loaded == [result]
        assert store.completed_ids() == {"rt"}

    def test_malformed_lines_skipped(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = CampaignStore(path)
        result = execute_run(
            RunSpec(run_id="ok", algorithm=AlgorithmSpec.create("trivial", {"c": 3}))
        )
        store.append(result)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"truncated": ')  # simulated hard kill mid-write
        assert store.load() == [result]

    def test_append_repairs_missing_trailing_newline(self, tmp_path):
        # A hard kill can leave a partial final line; the next append must
        # not concatenate onto it (that would corrupt a healthy record too).
        path = tmp_path / "results.jsonl"
        store = CampaignStore(path)
        with path.open("w", encoding="utf-8") as handle:
            handle.write('{"partial": ')
        result = execute_run(
            RunSpec(run_id="ok", algorithm=AlgorithmSpec.create("trivial", {"c": 3}))
        )
        store.append(result)
        assert store.load() == [result]

    def test_errored_runs_not_completed(self, tmp_path):
        store = CampaignStore(tmp_path / "results.jsonl")
        store.append(execute_run(RunSpec(run_id="x", algorithm=AlgorithmSpec.create("nope"))))
        assert store.completed_ids() == set()

    def test_latest_line_wins(self, tmp_path):
        store = CampaignStore(tmp_path / "results.jsonl")
        failed = execute_run(RunSpec(run_id="x", algorithm=AlgorithmSpec.create("nope")))
        ok = execute_run(
            RunSpec(run_id="x", algorithm=AlgorithmSpec.create("trivial", {"c": 2}))
        )
        store.append(failed)
        store.append(ok)
        assert store.latest_by_id()["x"].error is None
        assert store.completed_ids() == {"x"}

    def test_corrupt_lines_are_counted_not_just_skipped(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = CampaignStore(path)
        result = execute_run(
            RunSpec(run_id="ok", algorithm=AlgorithmSpec.create("trivial", {"c": 3}))
        )
        store.append(result)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"truncated": \n')
            handle.write("not json at all\n")
        assert store.corrupt_lines == 0  # nothing read yet
        assert store.load() == [result]
        assert store.corrupt_lines == 2
        # A clean read resets the count: it reflects the most recent pass.
        with path.open("w", encoding="utf-8") as handle:
            handle.write("")
        store.append(result)
        store.load()
        assert store.corrupt_lines == 0

    def test_missing_file_counts_zero_corrupt_lines(self, tmp_path):
        store = CampaignStore(tmp_path / "never-written.jsonl")
        assert store.load() == []
        assert store.corrupt_lines == 0

    def test_open_store_writes_through_one_handle_and_flushes_every_line(
        self, tmp_path, monkeypatch
    ):
        store = CampaignStore(tmp_path / "nested" / "results.jsonl")
        results = [
            execute_run(
                RunSpec(
                    run_id=f"r{index}",
                    algorithm=AlgorithmSpec.create("trivial", {"c": 3}),
                )
            )
            for index in range(3)
        ]
        opened = track_append_opens(monkeypatch)
        with store:
            store.append(results[0])
            store.append(results[1])
            # Each line is on disk as soon as append returns.
            assert store.load() == results[:2]
        store.append(results[2])  # outside a with: its own open
        assert opened == [str(store.path)] * 2
        assert store.load() == results

    def test_entering_repairs_a_torn_line_once(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text('{"partial": ', encoding="utf-8")
        store = CampaignStore(path)
        with store:
            assert path.read_text(encoding="utf-8") == '{"partial": \n'
        with store:
            pass
        assert path.read_text(encoding="utf-8") == '{"partial": \n'

    def test_resume_over_corruption_warns_and_re_executes(self, tmp_path):
        import warnings

        campaign = fixed_campaign(runs_per_setting=1)
        runs = campaign.expand()
        store = CampaignStore(tmp_path / "campaign.jsonl")
        for spec in runs:
            store.append(execute_run(spec))
        # Corrupt the final record: that run must execute again, loudly.
        lines = store.path.read_text(encoding="utf-8").splitlines()
        store.path.write_text(
            "\n".join(lines[:-1] + [lines[-1][: len(lines[-1]) // 2]]) + "\n",
            encoding="utf-8",
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = run_campaign(campaign, store=store)
        assert report.skipped == len(runs) - 1
        assert report.executed == 1
        messages = [str(item.message) for item in caught]
        assert any("unparseable line" in message for message in messages)


def asdict_json(result: RunResult) -> str:
    """A store line as ``to_json`` wrote it through ``dataclasses.asdict``."""
    data = dataclasses.asdict(result)
    data["faulty"] = list(result.faulty)
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


class TestRunResultJson:
    def test_pulling_result_with_every_field_set(self):
        from repro.campaigns.batching import BatchExecutor

        spec = RunSpec(
            run_id="pull",
            algorithm=AlgorithmSpec.create("sampled-boosted", {"sample_size": 2}),
            adversary="random-state",
            faulty=(1,),
            sim_seed=5,
            max_rounds=20,
        )
        (result,) = BatchExecutor(engine="batch").run([spec])
        assert result.rng is not None and result.max_pulls is not None
        # Fill the fields a pulling run leaves empty, so every field is set.
        result = dataclasses.replace(
            result,
            stabilization_round=result.stabilization_round or 3,
            within_bound=True,
            error="ValueError: example",
            last_perturbation_round=4,
            recovered=True,
            recovery_round=9,
            re_stabilization_time=5,
        )
        assert all(
            getattr(result, field.name) is not None
            for field in dataclasses.fields(result)
        )
        assert result.to_json() == asdict_json(result)
        assert result.to_dict() == json.loads(asdict_json(result))

    def test_fault_schedule_result(self):
        spec = RunSpec(
            run_id="churn",
            algorithm=AlgorithmSpec.create(
                "naive-majority", {"n": 6, "c": 3, "claimed_resilience": 1}
            ),
            max_rounds=40,
            fault_schedule="churn",
            fault_schedule_params=(("start", 3), ("down", 2), ("adversarial", 2)),
        )
        result = execute_run(spec)
        assert result.error is None and result.last_perturbation_round == 7
        assert result.to_json() == asdict_json(result)


class TestRunCampaign:
    def test_persists_and_resumes(self, tmp_path):
        campaign = fixed_campaign(runs_per_setting=3)
        store = CampaignStore(tmp_path / "campaign.jsonl")

        first = run_campaign(campaign, store=store)
        assert first.executed == first.total == 12
        assert first.skipped == 0
        assert len(store.load()) == 12

        # Re-running skips everything: the store already holds all runs.
        second = run_campaign(campaign, store=store)
        assert second.executed == 0
        assert second.skipped == 12
        assert [r.to_json() for r in second.results] == [
            r.to_json() for r in first.results
        ]

    def test_resumes_after_interruption(self, tmp_path):
        campaign = fixed_campaign(runs_per_setting=3)
        runs = campaign.expand()
        store = CampaignStore(tmp_path / "campaign.jsonl")

        # Simulate an interrupted campaign: only the first 5 runs persisted.
        for spec in runs[:5]:
            store.append(execute_run(spec))

        report = run_campaign(campaign, store=store)
        assert report.skipped == 5
        assert report.executed == len(runs) - 5

        # The resumed store matches a clean serial pass, run for run.
        clean = {r.run_id: r.to_json() for r in SerialExecutor().run(runs)}
        resumed = {r.run_id: r.to_json() for r in report.results}
        assert resumed == clean

    def test_one_append_handle_per_campaign(self, tmp_path, monkeypatch):
        campaign = fixed_campaign(runs_per_setting=3)
        store = CampaignStore(tmp_path / "campaign.jsonl")
        appended: list[str] = []
        original_append = CampaignStore.append

        def counting_append(self, result):
            appended.append(result.run_id)
            original_append(self, result)

        monkeypatch.setattr(CampaignStore, "append", counting_append)
        opened = track_append_opens(monkeypatch)
        report = run_campaign(campaign, store=store)
        assert report.executed == 12
        assert opened == [str(store.path)]
        assert sorted(appended) == sorted(run.run_id for run in campaign.expand())
        assert len(store.load()) == 12

    def test_noop_resume_neither_creates_nor_rewrites_the_store(
        self, tmp_path, monkeypatch
    ):
        campaign = fixed_campaign(runs_per_setting=1)
        store = CampaignStore(tmp_path / "campaign.jsonl")
        run_campaign(campaign, store=store)
        content = store.path.read_bytes()
        modified = store.path.stat().st_mtime_ns
        opened = track_append_opens(monkeypatch)

        assert run_campaign(campaign, store=store).executed == 0
        assert opened == []
        assert store.path.read_bytes() == content
        assert store.path.stat().st_mtime_ns == modified

        empty = CampaignStore(tmp_path / "unused" / "campaign.jsonl")
        assert run_campaign([], store=empty).executed == 0
        assert opened == []
        assert not empty.path.parent.exists()

    @pytest.mark.parametrize("processes", [None, 2])
    def test_resume_over_a_torn_line_appends_parseable_lines(
        self, tmp_path, processes
    ):
        campaign = fixed_campaign(runs_per_setting=2)
        runs = campaign.expand()
        store = CampaignStore(tmp_path / "campaign.jsonl")
        for spec in runs[:3]:
            store.append(execute_run(spec))
        with store.path.open("a", encoding="utf-8") as handle:
            # A hard kill in the middle of the fourth line.
            handle.write(execute_run(runs[3]).to_json()[:40])

        executor = ParallelExecutor(processes=processes) if processes else None
        with pytest.warns(RuntimeWarning, match="1 unparseable line"):
            report = run_campaign(campaign, store=store, executor=executor)
        assert report.executed == len(runs) - 3

        lines = store.path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(runs) + 1
        new = [RunResult.from_dict(json.loads(line)) for line in lines[4:]]
        assert sorted(result.run_id for result in new) == sorted(
            run.run_id for run in runs[3:]
        )
        assert len(store.load()) == len(runs)
        assert store.corrupt_lines == 1

    def test_progress_callback_fires_per_executed_run(self):
        campaign = fixed_campaign(runs_per_setting=1)
        seen: list[tuple[int, int]] = []
        report = run_campaign(
            campaign, progress=lambda done, total, result: seen.append((done, total))
        )
        assert len(seen) == report.executed
        assert seen[-1] == (report.executed, report.executed)


class TestRecoveryMetrics:
    def scheduled_campaign(self, **overrides) -> CampaignSpec:
        settings = dict(
            name="churny",
            algorithms=(
                AlgorithmSpec.create(
                    "naive-majority", {"n": 6, "c": 3, "claimed_resilience": 1}
                ),
            ),
            adversaries=("none",),
            runs_per_setting=4,
            seed=41,
            max_rounds=60,
            stop_after_agreement=4,
            fault_schedule="churn",
            fault_schedule_params=(("start", 4), ("down", 3), ("adversarial", 3)),
        )
        settings.update(overrides)
        return CampaignSpec(**settings)

    def test_results_carry_recovery_metrics(self):
        report = run_campaign(self.scheduled_campaign())
        assert report.executed == 4
        for result in report.results:
            assert result.error is None
            assert result.last_perturbation_round == 10
            if result.recovered:
                assert result.recovery_round is not None
                assert (
                    result.re_stabilization_time
                    == result.recovery_round - result.last_perturbation_round
                )
            else:
                assert result.recovery_round is None
                assert result.re_stabilization_time is None

    def test_unperturbed_results_have_no_recovery_metrics(self):
        report = run_campaign(fixed_campaign(runs_per_setting=1))
        for result in report.results:
            assert result.last_perturbation_round is None
            assert result.recovered is None
            assert result.recovery_round is None

    def test_recovery_metrics_survive_the_store_round_trip(self, tmp_path):
        store = CampaignStore(tmp_path / "churny.jsonl")
        report = run_campaign(self.scheduled_campaign(), store=store)
        loaded = {result.run_id: result for result in store.load()}
        for result in report.results:
            persisted = loaded[result.run_id]
            assert persisted.last_perturbation_round == result.last_perturbation_round
            assert persisted.recovered == result.recovered
            assert persisted.recovery_round == result.recovery_round
            assert persisted.re_stabilization_time == result.re_stabilization_time

    def test_summary_gains_recovery_columns_only_when_perturbed(self):
        scheduled = run_campaign(self.scheduled_campaign())
        table = summarize_results(scheduled.results)
        (row,) = table.rows
        assert row["perturbed"] == 4
        assert 0 <= row["recovered"] <= 4
        if row["recovered"]:
            assert row["mean_recovery"] != "-"
            assert row["max_recovery"] != "-"
        plain = summarize_results(run_campaign(fixed_campaign(1)).results)
        for plain_row in plain.rows:
            assert "perturbed" not in plain_row


class TestSummarize:
    def test_groups_and_statistics(self):
        report = run_campaign(fixed_campaign(runs_per_setting=5))
        table = summarize_results(report.results)
        # 2 algorithms x 2 adversaries, but the trivial counter ignores
        # adversaries only in effect, not in grouping: 4 groups.
        assert len(table.rows) == 4
        for row in table.rows:
            assert row["runs"] == 5
            assert row["failed"] == 0
            assert 0 <= row["stabilized"] <= row["runs"]

    def test_summary_serialises_to_text(self):
        report = run_campaign(fixed_campaign(runs_per_setting=2))
        text = summarize_results(report.results).format_table()
        assert "algorithm" in text and "stabilized" in text

    def test_bounded_counter_that_never_stabilised_is_not_within_bound(self):
        # Four rounds are far too few for the Figure 2 counter to stabilise:
        # every run stores within_bound null.
        campaign = CampaignSpec(
            name="short",
            algorithms=(AlgorithmSpec.create("figure2", {"levels": 1, "c": 2}),),
            adversaries=("random-state",),
            num_faults=(3,),
            runs_per_setting=3,
            max_rounds=4,
        )
        results = run_campaign(campaign).results
        assert not any(result.stabilized for result in results)
        (row,) = summarize_results(results).rows
        assert row["stabilized"] == 0
        assert row["within_bound"] == "-"

        # One verdict shows the counter has a bound; unjudged runs miss it.
        judged = dataclasses.replace(
            results[0], stabilized=True, stabilization_round=2, within_bound=True
        )
        (row,) = summarize_results([judged, *results[1:]]).rows
        assert row["within_bound"] is False
        (row,) = summarize_results([judged]).rows
        assert row["within_bound"] is True

    def test_group_whose_runs_all_failed_is_not_within_bound(self):
        # Zero successful runs say nothing about the bound.
        failed = [
            execute_run(
                RunSpec(
                    run_id=f"broken-{index}",
                    algorithm=AlgorithmSpec.create("no-such-algorithm"),
                )
            )
            for index in range(2)
        ]
        assert all(result.error is not None for result in failed)
        (row,) = summarize_results(failed).rows
        assert (row["runs"], row["failed"], row["stabilized"]) == (2, 2, 0)
        assert row["within_bound"] == "-"

    def test_unbounded_counter_reads_within_bound_once_every_run_stabilised(self):
        # A counter without a bound stores no verdict even when it stabilises.
        stable = dataclasses.replace(
            execute_run(
                RunSpec(run_id="r0", algorithm=AlgorithmSpec.create("trivial", {"c": 3}))
            ),
            within_bound=None,
        )
        assert stable.stabilized
        (row,) = summarize_results([stable]).rows
        assert row["within_bound"] is True
        stuck = dataclasses.replace(
            stable, run_id="r1", stabilized=False, stabilization_round=None
        )
        (row,) = summarize_results([stable, stuck]).rows
        assert row["within_bound"] == "-"
