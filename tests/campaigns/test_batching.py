"""BatchExecutor: grouping, engine selection, result identity, CLI knob."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.campaigns.batching import BatchExecutor, group_runs
from repro.campaigns.cli import parse_algorithm
from repro.campaigns.executor import SerialExecutor, default_executor
from repro.campaigns.results import CampaignStore
from repro.campaigns.runner import run_campaign
from repro.campaigns.spec import AlgorithmSpec, CampaignSpec, RunSpec
from repro.core.errors import ParameterError
from repro.network.batch import BATCH_RNG_NOTE, bit_identical, build_batch_kernel
from repro.semantics import active_strategy_names


def deterministic_campaign(runs: int = 5) -> CampaignSpec:
    return CampaignSpec(
        name="deterministic",
        algorithms=(
            AlgorithmSpec.create(
                "naive-majority", {"n": 6, "c": 3, "claimed_resilience": 1}
            ),
            AlgorithmSpec.create("corollary1", {"f": 1, "c": 2}),
        ),
        adversaries=("crash", "mimic", "none"),
        runs_per_setting=runs,
        seed=17,
        max_rounds=200,
        stop_after_agreement=6,
    )


def as_dicts(results):
    return [dataclasses.asdict(result) for result in results]


class TestGrouping:
    def test_grid_groups_by_configuration(self):
        runs = deterministic_campaign(4).expand()
        groups, scalar = group_runs(runs)
        assert not scalar
        # 2 algorithms x 3 strategies, minus the duplicate-free expansion:
        # every (algorithm, strategy, fault-count) coordinate is one group
        # of 4 trials.
        assert all(len(indices) == 4 for indices in groups.values())
        assert sum(len(indices) for indices in groups.values()) == len(runs)

    def test_prebuilt_instances_stay_scalar(self):
        from repro.counters.trivial import TrivialCounter

        spec = RunSpec(run_id="inst", algorithm=TrivialCounter(c=3))
        groups, scalar = group_runs([spec])
        assert not groups and scalar == [0]


class TestAutoEngine:
    def test_deterministic_groups_are_batched_and_bit_identical(self):
        runs = deterministic_campaign().expand()
        serial = SerialExecutor().run(runs)
        executor = BatchExecutor(engine="auto")
        batched = executor.run(runs)
        assert as_dicts(serial) == as_dicts(batched)
        assert executor.stats.batched == len(runs)
        assert executor.stats.fallback == 0
        assert executor.stats.completed == len(runs)

    def test_randomized_groups_fall_back_to_scalar(self):
        spec = CampaignSpec(
            name="randomized",
            algorithms=(
                AlgorithmSpec.create(
                    "randomized-follow-majority", {"n": 5, "f": 1, "c": 2}
                ),
            ),
            adversaries=("random-state",),
            runs_per_setting=3,
            max_rounds=60,
            stop_after_agreement=5,
        )
        runs = spec.expand()
        executor = BatchExecutor(engine="auto")
        batched = executor.run(runs)
        # auto never changes randomised result streams: bit-identical to
        # the scalar engine because it *is* the scalar engine.
        assert as_dicts(batched) == as_dicts(SerialExecutor().run(runs))
        assert executor.stats.batched == 0
        assert executor.stats.fallback == len(runs)

    def test_statistically_equivalent_adversary_falls_back_with_reason(self):
        # random-state has a kernel, but it consumes NumPy randomness, so
        # auto keeps the scalar path — and says why instead of staying silent.
        spec = CampaignSpec(
            name="random",
            algorithms=(AlgorithmSpec.create("corollary1", {"f": 1, "c": 2}),),
            adversaries=("random-state",),
            runs_per_setting=2,
            max_rounds=60,
            stop_after_agreement=5,
        )
        runs = spec.expand()
        executor = BatchExecutor(engine="auto")
        batched = executor.run(runs)
        assert as_dicts(batched) == as_dicts(SerialExecutor().run(runs))
        assert executor.stats.batched == 0 and executor.stats.fallback == len(runs)
        assert len(executor.stats.fallback_reasons) == 1
        reason = executor.stats.fallback_reasons[0]
        assert "corollary1(c=2,f=1) x random-state" in reason
        assert "statistically equivalent" in reason

    def test_deterministic_adaptive_split_is_batched_bit_identically(self):
        # adaptive-split draws no randomness against flat integer counters,
        # so auto proves bit-identity per group and vectorises it.
        spec = CampaignSpec(
            name="adaptive",
            algorithms=(
                AlgorithmSpec.create(
                    "naive-majority", {"n": 6, "c": 3, "claimed_resilience": 1}
                ),
            ),
            adversaries=("adaptive-split", "fixed-state"),
            runs_per_setting=3,
            max_rounds=40,
            stop_after_agreement=5,
        )
        runs = spec.expand()
        executor = BatchExecutor(engine="auto")
        batched = executor.run(runs)
        assert as_dicts(batched) == as_dicts(SerialExecutor().run(runs))
        assert executor.stats.batched == len(runs)
        assert executor.stats.fallback == 0
        assert executor.stats.fallback_reasons == []

    @pytest.mark.parametrize("strategy", active_strategy_names())
    @pytest.mark.parametrize(
        "algorithm",
        ["naive-majority:n=6,c=3,claimed_resilience=1", "corollary1:f=1,c=2"],
    )
    def test_auto_batches_exactly_the_bit_identical_groups(self, algorithm, strategy):
        # One rule decides both what auto vectorises and which batch results
        # are stamped as statistically equivalent: bit_identical.
        algorithm_spec = parse_algorithm(algorithm)
        runs = CampaignSpec(
            name="rule",
            algorithms=(algorithm_spec,),
            adversaries=(strategy,),
            num_faults=(1,),
            runs_per_setting=2,
            max_rounds=30,
            stop_after_agreement=5,
        ).expand()
        expected = bit_identical(build_batch_kernel(algorithm_spec.build()), strategy)
        auto = BatchExecutor(engine="auto")
        auto_results = auto.run(runs)
        assert auto.stats.batched == (len(runs) if expected else 0)
        assert auto.stats.fallback == len(runs) - auto.stats.batched
        forced = BatchExecutor(engine="batch").run(runs)
        assert [result.rng for result in forced] == (
            [None if expected else BATCH_RNG_NOTE] * len(runs)
        )
        if expected:
            assert as_dicts(forced) == as_dicts(auto_results)


def _exploding_step(self, view, rng):
    raise RuntimeError("kernel exploded")


class TestBatchFailures:
    """A group whose batch run raises: ``auto`` reruns it on the scalar
    engine and names the exception and where it was raised; the forced
    batch engine lets it propagate."""

    @pytest.fixture(autouse=True)
    def exploding_kernel(self, monkeypatch):
        from repro.counters.kernels import NaiveMajorityBatchKernel

        monkeypatch.setattr(NaiveMajorityBatchKernel, "step", _exploding_step)

    def test_auto_reruns_scalar_and_names_the_failure(self):
        from repro.obs.events import FallbackTaken
        from repro.obs.observer import Observer

        runs = deterministic_campaign().expand()
        observer = Observer.recording()
        executor = BatchExecutor(engine="auto", observer=observer)
        results = executor.run(runs)
        assert as_dicts(results) == as_dicts(SerialExecutor().run(runs))

        code = _exploding_step.__code__
        where = f"RuntimeError at {code.co_filename}:{code.co_firstlineno + 1}"
        events = observer.buffer.of_kind(FallbackTaken)
        # The naive-majority groups (crash, mimic, none) fail; corollary1's batch.
        assert len(events) == 3
        assert all(event.label.startswith("naive-majority") for event in events)
        for event in events:
            assert where in event.reason and "kernel exploded" in event.reason
        assert executor.stats.fallback_reasons == [
            f"{event.label}: {event.reason}" for event in events
        ]
        assert executor.stats.fallback == sum(event.runs for event in events)

    def test_forced_batch_propagates_the_failure(self):
        runs = deterministic_campaign().expand()
        with pytest.raises(RuntimeError, match="kernel exploded"):
            BatchExecutor(engine="batch").run(runs)


class TestForcedBatchEngine:
    def test_randomized_groups_run_vectorised(self):
        spec = CampaignSpec(
            name="randomized",
            algorithms=(
                AlgorithmSpec.create(
                    "randomized-follow-majority", {"n": 7, "f": 2, "c": 2}
                ),
            ),
            adversaries=("none",),
            runs_per_setting=6,
            max_rounds=200,
            stop_after_agreement=5,
        )
        runs = spec.expand()
        executor = BatchExecutor(engine="batch")
        results = executor.run(runs)
        assert executor.stats.batched == len(runs)
        assert all(result.error is None for result in results)
        assert all(result.rounds_simulated >= 1 for result in results)
        # Randomised batch executions are self-describing in the store:
        # the rng field records the NumPy stream family.  Scalar runs (and
        # deterministic batch runs) leave it None.
        assert all(result.rng == BATCH_RNG_NOTE for result in results)
        scalar_results = SerialExecutor().run(runs)
        assert all(result.rng is None for result in scalar_results)
        roundtrip = type(results[0]).from_dict(results[0].to_dict())
        assert roundtrip.rng == BATCH_RNG_NOTE

    def test_uncovered_group_raises_naming_the_full_group(self):
        # Every adversary strategy has a kernel now, so the uncovered case
        # is an algorithm whose parameters overflow the int64 kernels
        # (corollary1 beyond f=4).  The error must name the full group —
        # algorithm, strategy and the n/f envelope — not just a strategy.
        spec = CampaignSpec(
            name="oversized",
            algorithms=(AlgorithmSpec.create("corollary1", {"f": 5, "c": 2}),),
            adversaries=("crash",),
            num_faults=(1,),
            runs_per_setting=2,
        )
        with pytest.raises(ParameterError, match="no\\s+vectorised kernel"):
            BatchExecutor(engine="batch").run(spec.expand())
        with pytest.raises(
            ParameterError, match=r"corollary1\(c=2,f=5\) x crash \(n=\d+, f=1\)"
        ):
            BatchExecutor(engine="batch").run(spec.expand())

    def test_unknown_engine_rejected(self):
        with pytest.raises(ParameterError, match="unknown batch engine"):
            BatchExecutor(engine="warp")


def perturbed_campaign(**overrides) -> CampaignSpec:
    settings = dict(
        name="perturbed",
        algorithms=(
            AlgorithmSpec.create(
                "naive-majority", {"n": 6, "c": 3, "claimed_resilience": 1}
            ),
        ),
        adversaries=("none",),
        runs_per_setting=4,
        seed=29,
        max_rounds=60,
        stop_after_agreement=5,
    )
    settings.update(overrides)
    return CampaignSpec(**settings)


class TestPerturbedGroups:
    def test_loss_delay_groups_fall_back_under_auto_and_vectorise_when_forced(self):
        runs = perturbed_campaign(loss=0.1, delay=1).expand()
        # Perturbed executions consume NumPy randomness, so they are never
        # bit-identical to the scalar engine: auto keeps the scalar path and
        # names the reason, the forced batch engine vectorises and stamps
        # the rng stream family.
        auto = BatchExecutor(engine="auto")
        auto_results = auto.run(runs)
        assert auto.stats.batched == 0
        assert auto.stats.fallback == len(runs)
        assert any(
            "statistically equivalent" in reason
            for reason in auto.stats.fallback_reasons
        )
        assert all(result.error is None for result in auto_results)

        forced = BatchExecutor(engine="batch")
        forced_results = forced.run(runs)
        assert forced.stats.batched == len(runs)
        assert all(result.error is None for result in forced_results)
        assert all(result.rng == BATCH_RNG_NOTE for result in forced_results)

    def test_perturbation_knobs_split_batch_groups(self):
        from repro.campaigns.batching import group_runs

        clean = perturbed_campaign().expand()
        lossy = perturbed_campaign(loss=0.1).expand()
        groups, scalar = group_runs(
            [dataclasses.replace(run, run_id=f"{run.run_id}/{i}") for i, run in
             enumerate(clean + lossy)]
        )
        assert not scalar
        # Same algorithm and adversary, different knobs: two groups, never
        # one merged batch mixing perturbed and unperturbed trials.
        assert len(groups) == 2

    def test_fault_schedules_fall_back_by_name_in_auto_mode(self):
        runs = perturbed_campaign(
            fault_schedule="churn", fault_schedule_params=(("start", 3),)
        ).expand()
        executor = BatchExecutor(engine="auto")
        results = executor.run(runs)
        assert executor.stats.batched == 0
        assert executor.stats.fallback == len(runs)
        assert len(executor.stats.fallback_reasons) == 1
        reason = executor.stats.fallback_reasons[0]
        assert "fault schedule 'churn'" in reason
        assert "scalar engine" in reason
        # The scalar path delivers full results including recovery metrics.
        assert all(result.error is None for result in results)
        assert all(result.last_perturbation_round is not None for result in results)

    def test_fault_schedules_refuse_the_forced_batch_engine(self):
        runs = perturbed_campaign(fault_schedule="churn").expand()
        with pytest.raises(ParameterError, match="fault schedule 'churn'"):
            BatchExecutor(engine="batch").run(runs)

    def test_scheduled_results_match_the_serial_executor_bit_for_bit(self):
        runs = perturbed_campaign(
            fault_schedule="late-adversary", fault_schedule_params=(("start", 8),)
        ).expand()
        auto = BatchExecutor(engine="auto").run(runs)
        serial = SerialExecutor().run(runs)
        assert as_dicts(auto) == as_dicts(serial)


class TestStoppingBoundaries:
    @pytest.mark.parametrize("window", [1, 500])
    def test_boundary_windows_are_bit_identical_across_engines(self, window):
        # window=1 stops at the first agreeing round (the whole group
        # compacts out of the batch in the same round for the trivial-like
        # fast stabilisers); window > max_rounds never fires.  Both must
        # reduce identically through run_batch_summaries.
        spec = CampaignSpec(
            name=f"window-{window}",
            algorithms=(
                AlgorithmSpec.create(
                    "naive-majority", {"n": 6, "c": 3, "claimed_resilience": 1}
                ),
                AlgorithmSpec.create("trivial", {"c": 4}),
            ),
            adversaries=("none",),
            num_faults=(0,),
            runs_per_setting=4,
            max_rounds=25,
            stop_after_agreement=window,
        )
        runs = spec.expand()
        serial = SerialExecutor().run(runs)
        executor = BatchExecutor(engine="auto")
        batched = executor.run(runs)
        assert as_dicts(serial) == as_dicts(batched)
        assert executor.stats.batched == len(runs)
        if window > 25:
            assert all(r.rounds_simulated == 25 for r in batched)
            assert not any(r.stopped_early for r in batched)
        else:
            assert all(r.stopped_early for r in batched)


class TestPullingGroups:
    def test_pseudo_random_boosted_is_bit_identical(self):
        spec = CampaignSpec(
            name="pulls",
            algorithms=(
                AlgorithmSpec.create("pseudo-random-boosted", {"sample_size": 3}),
            ),
            adversaries=("crash", "none"),
            num_faults=(1,),
            runs_per_setting=3,
            seed=5,
            max_rounds=60,
            stop_after_agreement=6,
        )
        runs = spec.expand()
        serial = SerialExecutor().run(runs)
        executor = BatchExecutor(engine="auto")
        batched = executor.run(runs)
        assert as_dicts(serial) == as_dicts(batched)
        assert executor.stats.batched == len(runs)
        # The Theorem 4 statistics survive the summary-based reduction.
        pulled = [result for result in batched if result.adversary != "none"]
        assert all(result.max_pulls and result.max_bits for result in pulled)


class TestEngineKnob:
    def test_campaign_spec_round_trips_engine(self):
        spec = deterministic_campaign()
        assert spec.engine == "auto"
        forced = CampaignSpec.from_dict({**spec.to_dict(), "engine": "batch"})
        assert forced.engine == "batch"
        assert CampaignSpec.from_dict(json.loads(json.dumps(forced.to_dict()))) == forced
        with pytest.raises(ParameterError, match="unknown engine"):
            CampaignSpec.from_dict({**spec.to_dict(), "engine": "warp"})

    def test_default_executor_selects_engine(self):
        assert isinstance(default_executor(None, None), SerialExecutor)
        assert isinstance(default_executor(None, "scalar"), SerialExecutor)
        assert isinstance(default_executor(None, "auto"), BatchExecutor)
        forced = default_executor(2, "batch")
        assert isinstance(forced, BatchExecutor)
        assert forced.engine == "batch" and forced.processes == 2
        with pytest.raises(ParameterError, match="unknown engine"):
            default_executor(None, "warp")

    def test_campaign_engine_is_bit_identical_across_engines(self):
        spec = CampaignSpec(
            name="engines",
            algorithms=(
                AlgorithmSpec.create(
                    "naive-majority", {"n": 6, "c": 3, "claimed_resilience": 1}
                ),
            ),
            adversaries=("crash",),
            num_faults=(1,),
            runs_per_setting=4,
            max_rounds=60,
            stop_after_agreement=5,
        )
        reports = {
            engine: run_campaign(dataclasses.replace(spec, engine=engine))
            for engine in ("scalar", "auto", "batch")
        }
        assert as_dicts(reports["scalar"].results) == as_dicts(reports["auto"].results)
        assert as_dicts(reports["scalar"].results) == as_dicts(reports["batch"].results)
        with pytest.raises(ParameterError, match="unknown engine"):
            dataclasses.replace(spec, engine="warp")


class TestResumeSplit:
    def test_batched_skew_store_resumes_to_the_full_store(self, tmp_path):
        # Boosted phase-king-skew groups draw nothing, so a run's result does
        # not depend on which other runs share its batch: re-executing every
        # other run of a batch store gives back the full store, which is
        # also the scalar one.
        spec = CampaignSpec(
            name="skew",
            algorithms=(AlgorithmSpec.create("figure2", {"levels": 1, "c": 2}),),
            adversaries=("phase-king-skew",),
            runs_per_setting=20,
            seed=3,
            max_rounds=300,
            stop_after_agreement=10,
            engine="batch",
        )
        full = CampaignStore(tmp_path / "full.jsonl")
        run_campaign(spec, store=full)
        lines = full.path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert len(lines) == 20
        split = CampaignStore(tmp_path / "split.jsonl")
        split.path.write_text("".join(lines[::2]), encoding="utf-8")
        report = run_campaign(spec, store=split)
        assert (report.skipped, report.executed) == (10, 10)
        resumed = split.path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert sorted(resumed) == sorted(lines)
        scalar = run_campaign(dataclasses.replace(spec, engine="scalar"))
        assert sorted(r.to_json() + "\n" for r in scalar.results) == sorted(lines)


class TestCli:
    def test_repro_run_engine_flag(self, capsys, tmp_path):
        from repro.cli import main

        store = tmp_path / "store.jsonl"
        code = main(
            [
                "run",
                "naive-majority:n=6,c=3,claimed_resilience=1",
                "--adversary",
                "crash",
                "--faults",
                "1",
                "--runs",
                "2",
                "--max-rounds",
                "40",
                "--stop-after-agreement",
                "5",
                "--engine",
                "batch",
                "--quiet",
                "--store",
                str(store),
            ]
        )
        assert code == 0
        assert "2 runs" in capsys.readouterr().out
        assert len(store.read_text().strip().splitlines()) == 2

    def test_campaign_define_and_run_engine(self, capsys, tmp_path):
        from repro.cli import main as repro_main

        def main(argv):
            return repro_main(["campaign", *argv])

        definition = tmp_path / "c.json"
        store = tmp_path / "c.jsonl"
        assert (
            main(
                [
                    "define",
                    "--name",
                    "batched",
                    "--algorithm",
                    "corollary1:f=1,c=2",
                    "--adversary",
                    "crash",
                    "--runs",
                    "2",
                    "--max-rounds",
                    "120",
                    "--stop-after-agreement",
                    "5",
                    "--engine",
                    "batch",
                    "--out",
                    str(definition),
                ]
            )
            == 0
        )
        assert json.loads(definition.read_text())["engine"] == "batch"
        assert (
            main(["run", str(definition), "--store", str(store), "--quiet"]) == 0
        )
        capsys.readouterr()
        # The --engine override accepts scalar as well and reruns nothing.
        assert (
            main(
                [
                    "run",
                    str(definition),
                    "--store",
                    str(store),
                    "--engine",
                    "scalar",
                    "--quiet",
                ]
            )
            == 0
        )
        assert "0 executed, 2 resumed" in capsys.readouterr().out
