"""CLI observability flags: --progress / --metrics-out / --events-out."""

from __future__ import annotations

import json

from repro.cli import main as repro_main
from repro.obs import (
    CampaignFinished,
    CampaignStarted,
    RunFinished,
    RunsSkippedOnResume,
    read_events,
)

RUN_ARGS = [
    "run",
    "naive-majority:n=6,c=3,claimed_resilience=1",
    "--adversary",
    "crash",
    "--faults",
    "1",
    "--runs",
    "3",
    "--max-rounds",
    "40",
    "--stop-after-agreement",
    "5",
    "--quiet",
]


def campaigns_main(argv: list[str]) -> int:
    """``python -m repro campaign <argv>``."""
    return repro_main(["campaign", *argv])


def define_campaign(tmp_path) -> str:
    spec_path = str(tmp_path / "obs.campaign.json")
    code = campaigns_main(
        [
            "define",
            "--name",
            "obs-cli",
            "--algorithm",
            "naive-majority:n=6,c=3,claimed_resilience=1",
            "--adversary",
            "crash",
            "--runs",
            "3",
            "--max-rounds",
            "40",
            "--stop-after-agreement",
            "5",
            "--out",
            spec_path,
        ]
    )
    assert code == 0
    return spec_path


class TestScenarioRunFlags:
    def test_metrics_out_writes_schema_valid_snapshot(self, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        assert repro_main([*RUN_ARGS, "--metrics-out", str(metrics_path)]) == 0
        snapshot = json.loads(metrics_path.read_text(encoding="utf-8"))
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        assert snapshot["counters"]["campaign.runs_total"] == 3
        assert snapshot["counters"]["executor.runs_completed"] == 3
        assert snapshot["histograms"]["run.rounds"]["count"] == 3

    def test_events_out_round_trips_the_lifecycle(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        assert repro_main([*RUN_ARGS, "--events-out", str(events_path)]) == 0
        events = read_events(events_path)
        assert isinstance(events[0], CampaignStarted)
        assert isinstance(events[-1], CampaignFinished)
        assert sum(isinstance(e, RunFinished) for e in events) == 3

    def test_round_stride_samples_rounds_into_events(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        code = repro_main(
            [*RUN_ARGS, "--events-out", str(events_path), "--round-stride", "1"]
        )
        assert code == 0
        kinds = {type(e).__name__ for e in read_events(events_path)}
        assert "RoundObserved" in kinds

    def test_progress_draws_to_stderr(self, tmp_path, capsys):
        assert repro_main([*RUN_ARGS, "--progress"]) == 0
        err = capsys.readouterr().err
        assert "3/3 runs" in err

    def test_without_flags_nothing_is_written_or_drawn(self, tmp_path, capsys):
        assert repro_main(RUN_ARGS) == 0
        assert capsys.readouterr().err == ""
        assert list(tmp_path.iterdir()) == []

    def test_observed_and_bare_runs_have_identical_results(self, tmp_path):
        # The CLI-level form of the no-perturbation guarantee: observation
        # flags change what is recorded, never what is computed.
        bare_store = tmp_path / "bare.jsonl"
        observed_store = tmp_path / "observed.jsonl"
        assert repro_main([*RUN_ARGS, "--store", str(bare_store)]) == 0
        assert (
            repro_main(
                [
                    *RUN_ARGS,
                    "--store",
                    str(observed_store),
                    "--metrics-out",
                    str(tmp_path / "m.json"),
                    "--events-out",
                    str(tmp_path / "e.jsonl"),
                    "--round-stride",
                    "1",
                ]
            )
            == 0
        )
        bare = bare_store.read_text(encoding="utf-8")
        observed = observed_store.read_text(encoding="utf-8")
        assert bare == observed


class TestCampaignRunFlags:
    def test_campaign_run_with_all_flags(self, tmp_path, capsys):
        spec_path = define_campaign(tmp_path)
        metrics_path = tmp_path / "metrics.json"
        events_path = tmp_path / "events.jsonl"
        code = campaigns_main(
            [
                "run",
                spec_path,
                "--store",
                str(tmp_path / "store.jsonl"),
                "--quiet",
                "--progress",
                "--metrics-out",
                str(metrics_path),
                "--events-out",
                str(events_path),
            ]
        )
        assert code == 0
        snapshot = json.loads(metrics_path.read_text(encoding="utf-8"))
        assert snapshot["counters"]["campaign.runs_executed"] == 3
        events = read_events(events_path)
        assert isinstance(events[0], CampaignStarted)
        assert events[0].name == "obs-cli"
        assert "3/3 runs" in capsys.readouterr().err

    def test_resume_is_visible_in_the_event_stream(self, tmp_path):
        spec_path = define_campaign(tmp_path)
        store = str(tmp_path / "store.jsonl")
        assert campaigns_main(["run", spec_path, "--store", store, "--quiet"]) == 0
        events_path = tmp_path / "resume-events.jsonl"
        code = campaigns_main(
            [
                "resume",
                spec_path,
                "--store",
                store,
                "--quiet",
                "--events-out",
                str(events_path),
            ]
        )
        assert code == 0
        events = read_events(events_path)
        skipped = [e for e in events if isinstance(e, RunsSkippedOnResume)]
        assert skipped == [RunsSkippedOnResume(count=3, total=3)]
        # Nothing executed, so no run_finished events — but the lifecycle
        # is still complete and honest about why.
        assert sum(isinstance(e, RunFinished) for e in events) == 0
        assert isinstance(events[-1], CampaignFinished)
        assert events[-1].skipped == 3
