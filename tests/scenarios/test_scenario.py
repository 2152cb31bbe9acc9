"""Tests for the Scenario facade: compilation, round-trips, execution."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.campaigns.executor import ParallelExecutor, SerialExecutor
from repro.campaigns.spec import CampaignSpec
from repro.core.errors import ParameterError
from repro.scenarios import Scenario


def small_scenario() -> Scenario:
    return (
        Scenario.counter("naive-majority", n=6, c=3, claimed_resilience=1)
        .adversary("crash", "random-state")
        .faults(1)
        .runs(2)
        .max_rounds(60)
        .stop_after_agreement(5)
        .seed(3)
    )


class TestBuilder:
    def test_issue_example_chain_compiles(self):
        scenario = (
            Scenario.counter("figure2", levels=1, c=3)
            .adversary("phase-king-skew")
            .faults(3)
            .runs(200)
            .stop_after_agreement(12)
        )
        spec = scenario.to_campaign_spec()
        assert isinstance(spec, CampaignSpec)
        assert spec.runs_per_setting == 200
        assert spec.adversaries == ("phase-king-skew",)
        assert spec.num_faults == (3,)
        assert spec.stop_after_agreement == 12
        assert spec.model == "broadcast"
        assert len(spec.expand()) == 200

    def test_builder_is_immutable(self):
        base = Scenario.counter("trivial", c=4).runs(5)
        crash = base.adversary("crash")
        skew = base.adversary("phase-king-skew")
        assert base.to_campaign_spec().adversaries == ("random-state",)
        assert crash.to_campaign_spec().adversaries == ("crash",)
        assert skew.to_campaign_spec().adversaries == ("phase-king-skew",)

    def test_model_inferred_from_registry(self):
        scenario = Scenario.counter("sampled-boosted", sample_size=2)
        assert scenario.to_campaign_spec().model == "pulling"

    def test_mixed_models_rejected(self):
        scenario = Scenario.counter("sampled-boosted", sample_size=2)
        with pytest.raises(ParameterError, match="cannot mix models"):
            scenario.counter("figure2")

    def test_unknown_names_fail_eagerly(self):
        with pytest.raises(ParameterError, match="unknown algorithm 'bogus'"):
            Scenario.counter("bogus")
        with pytest.raises(ParameterError, match="unknown adversary 'bogus'"):
            Scenario.counter("trivial").adversary("bogus")
        with pytest.raises(ParameterError, match="unknown parameter.*'bogus'"):
            Scenario.counter("trivial", bogus=1)

    def test_faults_normalisation(self):
        scenario = Scenario.counter("figure2").faults("auto", 1, None)
        assert scenario.to_campaign_spec().num_faults == (None, 1, None)
        with pytest.raises(ParameterError, match="fault count"):
            Scenario.counter("figure2").faults(1.5)

    def test_stop_after_agreement_zero_means_disabled(self):
        scenario = Scenario.counter("trivial").stop_after_agreement(0)
        assert scenario.to_campaign_spec().stop_after_agreement is None

    def test_loss_and_delay_knobs(self):
        spec = (
            Scenario.counter("naive-majority", n=6, c=3, claimed_resilience=1)
            .loss(0.1)
            .delay(2)
            .to_campaign_spec()
        )
        assert spec.loss == 0.1
        assert spec.delay == 2
        with pytest.raises(ParameterError):
            Scenario.counter("trivial").loss(1.5)
        with pytest.raises(ParameterError):
            Scenario.counter("trivial").delay(-1)

    def test_fault_schedule_defaults_to_fault_free_baseline(self):
        spec = (
            Scenario.counter("naive-majority", n=6, c=3, claimed_resilience=1)
            .fault_schedule("churn", start=3, down=2)
            .to_campaign_spec()
        )
        assert spec.fault_schedule == "churn"
        assert spec.fault_schedule_params == (("down", 2), ("start", 3))
        # No explicit adversary: a scheduled scenario runs a fault-free
        # baseline (the schedule owns the faulty set).
        assert spec.adversaries == ("none",)
        assert all(run.faulty == () for run in spec.expand())

    def test_fault_schedule_validates_eagerly(self):
        with pytest.raises(ParameterError, match="no semantics declared"):
            Scenario.counter("trivial").fault_schedule("no-such-schedule")
        with pytest.raises(ParameterError, match="onset"):
            Scenario.counter("trivial").fault_schedule("churn", onset=5)

    def test_empty_scenario_rejected(self):
        with pytest.raises(ParameterError, match="no algorithm"):
            Scenario().to_campaign_spec()

    def test_named_and_tagged(self):
        spec = (
            Scenario.counter("trivial").named("demo").tag(owner="ci", batch=2)
        ).to_campaign_spec()
        assert spec.name == "demo"
        assert dict(spec.metadata) == {"batch": 2, "owner": "ci"}

    def test_default_name_joins_algorithms(self):
        spec = (
            Scenario.counter("trivial", c=2).counter("naive-majority")
        ).to_campaign_spec()
        assert spec.name == "trivial+naive-majority"

    def test_fault_pattern_validated(self):
        with pytest.raises(ParameterError, match="unknown fault pattern"):
            Scenario.counter("trivial").fault_pattern("clustered")


class TestRoundTrip:
    def test_scenario_to_campaign_spec_to_json_and_back(self):
        spec = small_scenario().to_campaign_spec()
        payload = json.dumps(spec.to_dict(), sort_keys=True)
        restored = CampaignSpec.from_dict(json.loads(payload))
        assert restored == spec
        # The round-tripped spec expands to the identical runs.
        assert restored.expand() == spec.expand()

    def test_pulling_round_trip(self):
        spec = (
            Scenario.counter("sampled-boosted", sample_size=2)
            .adversary("crash")
            .faults(1)
            .runs(2)
            .max_rounds(30)
        ).to_campaign_spec()
        restored = CampaignSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec
        assert restored.model == "pulling"


class TestExecution:
    def test_serial_and_parallel_executors_are_bit_identical(self):
        scenario = small_scenario()
        serial = scenario.execute(executor=SerialExecutor())
        parallel = scenario.execute(executor=ParallelExecutor(processes=2, chunksize=1))
        assert serial.total == parallel.total == 4
        assert [dataclasses.asdict(result) for result in serial.results] == [
            dataclasses.asdict(result) for result in parallel.results
        ]

    def test_execute_matches_hand_written_campaign(self):
        scenario = small_scenario()
        by_hand = SerialExecutor().run(scenario.to_campaign_spec().expand())
        via_facade = scenario.execute().results
        assert [dataclasses.asdict(result) for result in by_hand] == [
            dataclasses.asdict(result) for result in via_facade
        ]

    def test_store_resume_skips_completed_runs(self, tmp_path):
        scenario = small_scenario()
        store_path = str(tmp_path / "runs.jsonl")
        first = scenario.execute(store=store_path)
        assert first.executed == 4 and first.skipped == 0
        second = scenario.execute(store=store_path)
        assert second.executed == 0 and second.skipped == 4

    def test_summarize_groups_by_adversary(self):
        scenario = small_scenario()
        table = scenario.summarize(scenario.execute())
        adversaries = {row["adversary"] for row in table.rows}
        assert adversaries == {"crash", "random-state"}
