"""Campaign-engine benchmarks: the ``run_round`` fast path and executor throughput.

Two families:

* ``run_round`` micro-benchmarks — the broadcast inner loop with and without
  faults.  The fault-free case exercises the shared-message-vector fast path
  (the vector is built once per round instead of once per receiver); the
  faulty case still shares the correct-sender prefix and patches only the
  forged entries.
* Campaign throughput — the same fixed 48-run campaign through the serial
  and the multiprocessing executor.  Per-run results are asserted identical,
  so the timings compare pure orchestration overhead.
"""

from __future__ import annotations

import random

from _bench_utils import run_once

from repro.campaigns.executor import ParallelExecutor, SerialExecutor
from repro.campaigns.runner import run_campaign
from repro.campaigns.spec import AlgorithmSpec, CampaignSpec
from repro.counters.naive import NaiveMajorityCounter
from repro.network.adversary import CrashAdversary, NoAdversary
from repro.network.simulator import run_round


def _fault_free_setting(n: int = 64, c: int = 8):
    counter = NaiveMajorityCounter(n=n, c=c)
    states = {node: node % c for node in range(n)}
    return counter, states


def test_run_round_fault_free_fast_path(benchmark):
    """Zero faults: one shared message vector serves every receiver."""
    counter, states = _fault_free_setting()
    result = benchmark(run_round, counter, states, NoAdversary(), 0, None)
    assert set(result) == set(states)


def test_run_round_with_faults(benchmark):
    """With faults only the forged entries are patched per receiver."""
    n, c, f = 64, 8, 21
    counter = NaiveMajorityCounter(n=n, c=c, claimed_resilience=f)
    adversary = CrashAdversary(range(n - f, n))
    states = {node: node % c for node in range(n - f)}
    rng = random.Random(0)
    result = benchmark(run_round, counter, states, adversary, 0, rng)
    assert set(result) == set(states)


def _throughput_campaign() -> CampaignSpec:
    return CampaignSpec(
        name="bench-throughput",
        algorithms=(
            AlgorithmSpec.create(
                "naive-majority", {"n": 16, "c": 4, "claimed_resilience": 5}
            ),
        ),
        adversaries=("crash", "random-state"),
        runs_per_setting=24,
        seed=7,
        max_rounds=120,
        stop_after_agreement=None,
    )


def test_campaign_serial_throughput(benchmark):
    report = run_once(
        benchmark, run_campaign, _throughput_campaign(), executor=SerialExecutor()
    )
    assert report.total == 48
    assert report.failed == 0


def test_campaign_parallel_throughput(benchmark):
    """Multiprocessing executor: identical results, different wall clock."""
    serial = run_campaign(_throughput_campaign(), executor=SerialExecutor())
    report = run_once(
        benchmark,
        run_campaign,
        _throughput_campaign(),
        executor=ParallelExecutor(processes=2),
    )
    assert report.total == 48
    assert report.failed == 0
    assert [r.to_json() for r in report.results] == [
        r.to_json() for r in serial.results
    ]


def _pulling_campaign() -> CampaignSpec:
    return CampaignSpec(
        name="bench-pulling",
        algorithms=(AlgorithmSpec.create("sampled-boosted", {"sample_size": 2}),),
        adversaries=("crash", "phase-king-skew"),
        num_faults=(1,),
        runs_per_setting=6,
        seed=5,
        max_rounds=40,
        stop_after_agreement=None,
    )


def test_pulling_campaign_throughput(benchmark):
    """The Section 5 model through the same campaign machinery."""
    report = run_once(
        benchmark, run_campaign, _pulling_campaign(), executor=SerialExecutor()
    )
    assert report.total == 12
    assert report.failed == 0
    assert all(r.model == "pulling" for r in report.results)
    assert all((r.max_pulls or 0) > 0 for r in report.results)
