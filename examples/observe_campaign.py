"""Observe a campaign: live progress, then post-hoc metrics and events.

The ``repro.obs`` layer answers two questions every long campaign raises:
*is it making progress?* (live) and *where did the time go?* (post-hoc) —
without changing a single result, because observers only read.

This example runs one campaign twice over the same grid:

1. **Scalar engine, fully observed** — a rolling progress line on stderr
   while it runs, then the recorded event stream and the metrics registry
   are inspected: run counts, round histograms with sketch quantiles, and
   the engine-level round accounting.
2. **Batch engine, same grid** — the event stream now shows the
   vectorised scheduling decisions (``batch_group_scheduled`` /
   ``fallback_taken``), and the results are identical where the kernels
   are deterministic.

The same instrumentation is available without writing any code:

    python -m repro run naive-majority:n=6,c=3,claimed_resilience=1 \\
        --adversary crash --faults 1 --runs 50 \\
        --progress --metrics-out metrics.json --events-out events.jsonl

Run with::

    python examples/observe_campaign.py
"""

from __future__ import annotations

import dataclasses

from repro.campaigns import AlgorithmSpec, CampaignSpec, run_campaign
from repro.obs import (
    BatchGroupScheduled,
    FallbackTaken,
    MetricsRegistry,
    Observer,
    ProgressSink,
    RingBufferSink,
    RunFinished,
)


def build_campaign(runs: int, max_rounds: int, seed: int) -> CampaignSpec:
    return CampaignSpec(
        name="observed-demo",
        algorithms=(
            AlgorithmSpec.create(
                "naive-majority", {"n": 6, "c": 3, "claimed_resilience": 1}
            ),
        ),
        adversaries=("crash", "mimic"),
        num_faults=(1,),
        runs_per_setting=runs,
        max_rounds=max_rounds,
        stop_after_agreement=6,
        seed=seed,
    )


def main(runs: int = 25, max_rounds: int = 80, seed: int = 11) -> None:
    spec = build_campaign(runs, max_rounds, seed)

    # Part 1 — scalar engine, fully observed.  The observer bundles three
    # things: sinks for the event stream (here a progress line and an
    # in-memory ring buffer), an isolated metrics registry, and a round
    # sampling stride (0 keeps per-round events out of the hot loop).
    buffer = RingBufferSink()
    observer = Observer(
        sinks=(ProgressSink(), buffer),
        metrics=MetricsRegistry(),
        round_stride=0,
    )
    with observer:
        report = run_campaign(
            dataclasses.replace(spec, engine="scalar"), observer=observer
        )

    print(f"campaign finished: {report.executed} runs, {report.failed} failed")
    print()

    # The event stream: one typed event per lifecycle step, in order.
    finished = [e for e in buffer.events if isinstance(e, RunFinished)]
    stabilized = sum(1 for e in finished if e.stabilized)
    print(f"event stream: {len(buffer.events)} events, "
          f"{len(finished)} run_finished, {stabilized} stabilized")

    # The metrics registry: counters are exact, histograms are
    # power-of-two sketches whose quantiles are factor-2 bounds — cheap
    # enough to leave on for a million-run campaign.
    metrics = observer.metrics
    rounds = metrics.histogram("run.rounds")
    seconds = metrics.histogram("run.seconds")
    print(f"engine rounds simulated: {metrics.counter('engine.rounds').value}")
    print(f"rounds per run: mean {rounds.mean:.1f}, "
          f"p50 <= {rounds.quantile(0.5):.0f}, p90 <= {rounds.quantile(0.9):.0f}")
    print(f"wall time per run: mean {seconds.mean * 1000:.2f} ms "
          f"(total {seconds.total * 1000:.1f} ms over {seconds.count} runs)")
    print()

    # Part 2 — the same grid on the batch engine.  The event stream now
    # records which groups vectorised and which fell back (and why).
    batch_observer = Observer.recording(round_stride=0)
    batch_report = run_campaign(spec, observer=batch_observer)  # engine "auto"
    for event in batch_observer.buffer.of_kind(BatchGroupScheduled):
        print(f"batched: {event.label} ({event.runs} runs, "
              f"deterministic={event.deterministic})")
    for event in batch_observer.buffer.of_kind(FallbackTaken):
        print(f"fallback: {event.label} — {event.reason}")

    identical = [r.to_json() for r in report.results] == [
        r.to_json() for r in batch_report.results
    ]
    print(f"scalar and auto-batched results identical: {identical}")


if __name__ == "__main__":
    main()
