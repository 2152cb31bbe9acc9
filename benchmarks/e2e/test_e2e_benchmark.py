"""Tests of the end-to-end benchmark harness (``run.py`` and ``child.py``)."""

from __future__ import annotations

import dataclasses
import json
import re

import pytest

import child
import run as harness

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads(harness.BENCHMARK_JSON.read_text())


def test_benchmark_json_names_are_the_names_the_harness_emits():
    workloads = [entry["name"] for entry in SPEC["workloads"]]
    end_to_end = {entry["name"]: (entry["unit"], entry["better"]) for entry in SPEC["end_to_end"]}
    per_layer = {entry["name"]: entry["unit"] for entry in SPEC["per_layer"]}
    for name in [*workloads, *end_to_end, *per_layer]:
        assert NAME.fullmatch(name), name
    assert workloads == list(harness.WORKLOADS)
    assert end_to_end == harness.END_TO_END
    assert per_layer == harness.per_layer_units()


def test_self_time_subtracts_child_spans_and_folds_same_name_calls():
    # Clock reads: outer starts 0; inner 1..3; inner 4..7 (its nested inner
    # call folds and reads no clock); outer ends 10.
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tracer = child.Tracer(clock=lambda: next(ticks))

    def inner(depth: int) -> None:
        if depth:
            traced_inner(depth - 1)

    traced_inner = tracer.wrap("inner", inner)
    outer = tracer.wrap("outer", lambda: (traced_inner(0), traced_inner(1)))
    outer()
    assert tracer.spans() == {
        "outer": {"calls": 1, "total_s": 10.0, "self_s": 5.0},
        "inner": {"calls": 2, "total_s": 5.0, "self_s": 5.0},
    }


STEADY = [10.0, 10.1, 9.9, 10.0]
WIDE = [7.0, 10.0, 10.0, 14.0]


@pytest.mark.parametrize(
    "before, after, better, bound, expected",
    [
        (STEADY, [10.5, 10.6, 10.4, 10.5], "lower", 0.1, "within"),
        (STEADY, [12.0, 12.1, 11.9, 12.0], "lower", 0.1, "worse"),
        (STEADY, [8.0, 8.1, 7.9, 8.0], "lower", 0.1, "better"),
        ([100.0, 101.0, 99.0, 100.0], [80.0, 81.0, 79.0, 80.0], "higher", 0.1, "worse"),
        (WIDE, [7.5, 10.5, 10.5, 15.0], "lower", 0.1, "unresolved"),
        (WIDE, [5.0, 5.5, 6.0, 5.2], "lower", 0.1, "better"),
        ([0.0], [0.0], "lower", 0.0, "within"),
        ([0.0], [0.01], "lower", 0.0, "worse"),
    ],
)
def test_compare_verdicts(before, after, better, bound, expected):
    assert harness.verdict(before, after, better, bound)[0] == expected


def _report(seed: int, wall: list[float], digest: str) -> dict:
    samples = {name: [1.0] for name in harness.END_TO_END}
    samples["wall_s"] = wall
    return {
        "provenance": {"git_sha": "x", "seed": seed},
        "workloads": {
            "flat-many": {"samples": samples, "failed_frac": 0.0, "digest": digest}
        },
    }


def test_compare_flags_regressions_and_digest_mismatches(tmp_path, capsys):
    paths = []
    for index, report in enumerate(
        [
            _report(0, STEADY, "aa"),
            _report(0, STEADY, "aa"),
            _report(0, [12.0, 12.1, 11.9, 12.0], "aa"),
            _report(0, STEADY, "bb"),
        ]
    ):
        paths.append(tmp_path / f"{index}.json")
        paths[-1].write_text(json.dumps(report))
    assert harness.compare(paths[0], paths[1]) == 0
    assert harness.compare(paths[0], paths[2]) == 1
    assert harness.compare(paths[0], paths[3]) == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_tiny_flat_many_yields_every_metric(tmp_path):
    flat = harness.WORKLOADS["flat-many"]
    campaign = list(flat.campaign)
    campaign[campaign.index("--runs") + 1] = "5"
    tiny = dataclasses.replace(flat, campaign=tuple(campaign))
    runs, orders = harness.run_benchmark(
        [tiny], seed=1, repeats=1, trace=True, probes=1, workdir=tmp_path
    )
    (run,) = runs
    assert run.correct, run.checks
    assert orders == [["flat-many"]]
    assert (run.attempted, run.failed) == (20, 0)
    assert run.samples["resume_s"]
    assert run.traced["unwrapped"] == []

    untraced = harness.result_line(runs, trace=False)
    assert set(untraced["metrics"]) == set(harness.END_TO_END)
    assert all(metric["value"] > 0 for metric in untraced["metrics"].values())
    traced = harness.result_line(runs, trace=True)["metrics"]
    assert set(traced) == set(harness.per_layer_units())
    assert traced["executor.batched_frac"]["value"] == 1.0
    assert traced["campaigns.results.CampaignStore.append.calls"]["value"] == 20
