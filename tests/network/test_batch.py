"""Batch-engine equivalence: the vectorised fast path vs the scalar engine.

The contract under test (see :mod:`repro.network.batch`):

* deterministic algorithm+adversary combinations produce **bit-identical**
  traces, trial by trial — same derived initial-state streams, same round
  outputs, same stop metadata;
* randomised combinations are **statistically equivalent** — same trace
  shape and metadata (plus an explicit ``rng`` note), and matched
  stabilisation-time distributions under a KS-style tolerance.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.network.adversary import NoAdversary, build_adversary
from repro.network.batch import (
    BATCH_RNG_NOTE,
    BatchMessages,
    BatchTrial,
    PerturbedBatchMessages,
    bit_identical,
    build_adversary_kernel,
    build_batch_kernel,
    run_batch_summaries,
    run_batch_trials,
)
from repro.network.pulling import PullSimulationConfig, run_pull_simulation
from repro.network.simulator import SimulationConfig, run_simulation
from repro.network.stabilization import stabilization_round
from repro.semantics import active_strategy_names, build_algorithm

#: (catalogue name, params, faults, max_rounds) for every kernel-covered
#: entry.  ``faults`` is the fault count paired with the active strategy.
KERNEL_ENTRIES = [
    ("trivial", {"c": 4}, 0, 24),
    ("naive-majority", {"n": 6, "c": 3, "claimed_resilience": 1}, 1, 40),
    ("randomized-follow-majority", {"n": 7, "f": 2, "c": 2}, 2, 120),
    ("corollary1", {"f": 1, "c": 2}, 1, 400),
    ("figure2", {"levels": 1, "c": 2}, 3, 300),
    ("sampled-boosted", {"sample_size": 2}, 1, 40),
    ("pseudo-random-boosted", {"sample_size": 3}, 1, 60),
]

DETERMINISTIC = {
    "trivial",
    "naive-majority",
    "corollary1",
    "figure2",
    "pseudo-random-boosted",
}

#: The active strategy exercised next to NoAdversary.  ``crash`` is
#: deterministic, so the bit-identity assertion extends to forged rounds.
ACTIVE_STRATEGY = "crash"


def _build(name: str, params: dict):
    return build_algorithm(name, **params)


def _spread(n: int, faults: int) -> tuple[int, ...]:
    from repro.network.adversary import spread_faults

    return tuple(sorted(spread_faults(n, faults)))


def _scalar_trace(algorithm, strategy, trial: BatchTrial, max_rounds, window):
    adversary = (
        build_adversary(strategy, trial.faulty) if strategy else NoAdversary()
    )
    is_pulling = hasattr(algorithm, "pull_targets")
    if is_pulling:
        config = PullSimulationConfig(
            max_rounds=max_rounds,
            stop_after_agreement=window,
            seed=trial.sim_seed,
            metadata=dict(trial.metadata),
        )
        return run_pull_simulation(algorithm, adversary=adversary, config=config)
    config = SimulationConfig(
        max_rounds=max_rounds,
        stop_after_agreement=window,
        seed=trial.sim_seed,
        metadata=dict(trial.metadata),
    )
    return run_simulation(algorithm, adversary=adversary, config=config)


@pytest.mark.parametrize("name,params,faults,max_rounds", KERNEL_ENTRIES)
@pytest.mark.parametrize("strategy_kind", ["none", "active"])
@pytest.mark.parametrize("window", [None, 6])
def test_batch_matches_scalar(name, params, faults, max_rounds, strategy_kind, window):
    """Every kernel-covered catalogue entry, fault-free and attacked,
    with and without early stopping."""
    algorithm = _build(name, params)
    kernel = build_batch_kernel(algorithm)
    assert kernel is not None, f"{name} should advertise a batch kernel"

    if strategy_kind == "active" and faults == 0:
        pytest.skip("0-resilient algorithm has no attacked configuration")
    strategy = ACTIVE_STRATEGY if strategy_kind == "active" else None
    faulty = _spread(algorithm.n, faults if strategy else 0)

    trials = [
        BatchTrial(sim_seed=seed, faulty=faulty, metadata=(("trial", seed),))
        for seed in (11, 12, 13)
    ]
    batch_traces = run_batch_trials(
        algorithm,
        kernel,
        trials,
        adversary_strategy=strategy,
        max_rounds=max_rounds,
        stop_after_agreement=window,
    )
    scalar_traces = [
        _scalar_trace(algorithm, strategy, trial, max_rounds, window)
        for trial in trials
    ]

    deterministic = name in DETERMINISTIC
    for scalar, batch in zip(scalar_traces, batch_traces):
        if deterministic:
            # Bit identity: the dataclass equality covers initial outputs,
            # every round's outputs and metadata, and the trace header.
            assert batch == scalar
        else:
            # Shape and metadata parity; the rng note marks the divergence.
            # (agreement_streak only exists on early-stopped runs, and
            # randomised runs may stop differently per engine.)
            assert batch.algorithm_name == scalar.algorithm_name
            assert batch.n == scalar.n and batch.c == scalar.c
            assert batch.faulty == scalar.faulty
            assert batch.initial_outputs == scalar.initial_outputs
            streak = {"agreement_streak"}
            assert set(batch.metadata) - streak == (
                set(scalar.metadata) - streak
            ) | {"rng"}
            assert batch.metadata["rng"] == BATCH_RNG_NOTE
            assert ("agreement_streak" in batch.metadata) == bool(
                batch.metadata["stopped_early"]
            )
            assert 1 <= batch.num_rounds <= max_rounds
            for record in batch.rounds:
                assert set(record.outputs) == set(scalar.rounds[0].outputs)
                assert all(
                    0 <= value < algorithm.c for value in record.outputs.values()
                )
                if batch.metadata.get("model") == "pulling":
                    assert record.metadata["max_pulls"] == (
                        scalar.rounds[0].metadata["max_pulls"]
                    )


@pytest.mark.parametrize("size", range(1, 10))
def test_sorted_votes_match_the_scalar_votes(size):
    """The kernels' median majority and run-length vote against the scalar
    ``majority`` and the Table 2 ``min{j : z_j >= support}`` they replace."""
    from repro.core.phase_king import INFINITY
    from repro.core.voting import majority
    from repro.counters.kernels import strict_majority, vote_minimum

    rng = np.random.default_rng(size)
    # Few distinct values, so majorities, ties and long runs all occur.
    values = rng.integers(-1, 3, size=(400, size))
    rows = values.tolist()
    assert strict_majority(values, 7).tolist() == [majority(row, 7) for row in rows]
    for support in range(1, size + 2):
        expected = [
            min(
                (j for j in set(row) if j != INFINITY and row.count(j) >= support),
                default=INFINITY,
            )
            for row in rows
        ]
        assert vote_minimum(values, support).tolist() == expected


#: Boosted counters whose kernel step is checked against the scalar round
#: on random states with a different forgery per (receiver, faulty sender).
FORGED_ENTRIES = [
    ("corollary1", {"f": 1, "c": 2}),
    ("corollary1", {"f": 2, "c": 2}),
    ("figure2", {"levels": 1, "c": 2}),
]

NAIVE_ENTRY = ("naive-majority", {"n": 6, "c": 3, "claimed_resilience": 1})


def _random_round(algorithm, kernel, rng: random.Random, batch: int):
    """Encoded random states, faulty sets of size F, and one random forgery
    per (trial, receiver, faulty sender): ``(B, n)``, ``(B, F)``, ``(B, n, F)``
    rows of fields."""
    n, f = algorithm.n, algorithm.f

    def encoded(*shape):
        count = int(np.prod(shape))
        rows = [kernel.encode(algorithm.random_state(rng)) for _ in range(count)]
        return np.array(rows, dtype=np.int64).reshape(*shape, kernel.fields)

    faulty = [sorted(rng.sample(range(n), f)) for _ in range(batch)]
    return encoded(batch, n), np.array(faulty, dtype=np.int64), encoded(batch, n, f)


@pytest.mark.parametrize("name,params", FORGED_ENTRIES)
def test_boosted_step_reads_per_receiver_forgeries(name, params):
    """One kernel step gives every correct receiver the row the scalar
    ``next_states`` computes from the shared states and its own forgeries."""
    algorithm = _build(name, params)
    kernel = build_batch_kernel(algorithm)
    states, faulty, forged = _random_round(algorithm, kernel, random.Random(29), 24)
    new_states = kernel.step(BatchMessages(states, faulty, forged), None)
    for trial in range(len(states)):
        senders = faulty[trial].tolist()
        shared = [
            None if node in senders else kernel.decode(row)
            for node, row in enumerate(states[trial])
        ]
        entries = {
            receiver: {
                sender: kernel.decode(forged[trial, receiver, j])
                for j, sender in enumerate(senders)
            }
            for receiver in range(algorithm.n)
            if receiver not in senders
        }
        expected = algorithm.next_states(shared, entries)
        assert {
            receiver: kernel.decode(new_states[trial, receiver]) for receiver in entries
        } == expected


@pytest.mark.parametrize("name,params", FORGED_ENTRIES)
def test_boosted_step_reads_per_link_deliveries(name, params):
    """Under per-link delivery each correct receiver reads its own row of
    delivered states, patched with its forgeries, as ``next_state`` does."""
    algorithm = _build(name, params)
    kernel = build_batch_kernel(algorithm)
    rng = random.Random(31)
    states, faulty, forged = _random_round(algorithm, kernel, rng, 24)
    older, _, _ = _random_round(algorithm, kernel, rng, len(states))
    n = algorithm.n
    # Each link delivers the current or an older state; self-links are current.
    stale = np.array([[rng.random() < 0.5 for _ in range(n * n)] for _ in states])
    stale = stale.reshape(len(states), n, n) & ~np.eye(n, dtype=bool)
    delivered = np.where(stale[..., None], older[:, None], states[:, None])
    view = PerturbedBatchMessages(states, faulty, forged, delivered)
    new_states = kernel.step(view, None)
    for trial in range(len(states)):
        senders = faulty[trial].tolist()
        for receiver in range(n):
            if receiver in senders:
                continue
            received = [kernel.decode(row) for row in delivered[trial, receiver]]
            for j, sender in enumerate(senders):
                received[sender] = kernel.decode(forged[trial, receiver, j])
            assert kernel.decode(new_states[trial, receiver]) == algorithm.next_state(
                receiver, received
            )


@pytest.mark.parametrize("strategy", active_strategy_names())
def test_adversary_kernels_against_scalar(strategy):
    """Each vectorised strategy: bit-identical when deterministic, shape
    parity (plus valid outputs) when randomised."""
    algorithm = _build("naive-majority", {"n": 6, "c": 3, "claimed_resilience": 1})
    kernel = build_batch_kernel(algorithm)
    faulty = (1,)
    trials = [BatchTrial(sim_seed=seed, faulty=faulty) for seed in range(5)]
    batch_traces = run_batch_trials(
        algorithm,
        kernel,
        trials,
        adversary_strategy=strategy,
        max_rounds=30,
        stop_after_agreement=4,
    )
    # Determinism can depend on the algorithm kernel (adaptive-split is
    # bit-identical for flat counters only), so ask per kernel.
    deterministic = bit_identical(kernel, strategy)
    for trial, batch in zip(trials, batch_traces):
        scalar = _scalar_trace(algorithm, strategy, trial, 30, 4)
        if deterministic:
            assert batch == scalar
        else:
            assert batch.faulty == scalar.faulty
            assert batch.initial_outputs == scalar.initial_outputs
            assert set(batch.metadata) == set(scalar.metadata) | {"rng"}
            for record in batch.rounds:
                assert all(
                    0 <= value < algorithm.c for value in record.outputs.values()
                )


def _ks_statistic(left: list[int], right: list[int]) -> float:
    """Two-sample Kolmogorov–Smirnov statistic (max CDF distance)."""
    points = sorted(set(left) | set(right))
    worst = 0.0
    for point in points:
        cdf_left = sum(1 for value in left if value <= point) / len(left)
        cdf_right = sum(1 for value in right if value <= point) / len(right)
        worst = max(worst, abs(cdf_left - cdf_right))
    return worst


def test_randomized_counter_stabilization_distribution_matches():
    """KS-style tolerance between scalar and batch stabilisation times.

    Fixed seeds make this deterministic; the 0.25 bound is far above the
    expected KS distance of two 120-sample draws from one distribution
    (≈ 0.18 at the 0.5 % level) yet far below a genuinely shifted
    distribution.
    """
    params = {"n": 7, "f": 2, "c": 2}
    trials = [BatchTrial(sim_seed=seed, faulty=()) for seed in range(120)]

    def stabilization_times(traces):
        times = []
        for trace in traces:
            result = stabilization_round(trace, min_tail=2)
            times.append(
                result.round if result.round is not None else trace.num_rounds
            )
        return times

    scalar_times = []
    for trial in trials:
        algorithm = _build("randomized-follow-majority", params)
        algorithm.reseed(trial.sim_seed + 1_000_003)
        scalar_times.extend(
            stabilization_times(
                [_scalar_trace(algorithm, None, trial, 200, None)]
            )
        )
    algorithm = _build("randomized-follow-majority", params)
    kernel = build_batch_kernel(algorithm)
    batch_times = stabilization_times(
        run_batch_trials(algorithm, kernel, trials, max_rounds=200)
    )

    assert _ks_statistic(scalar_times, batch_times) < 0.25


def test_summaries_match_traces():
    """run_batch_summaries reports exactly what the full traces contain."""
    algorithm = _build("naive-majority", {"n": 6, "c": 3, "claimed_resilience": 1})
    kernel = build_batch_kernel(algorithm)
    trials = [BatchTrial(sim_seed=seed, faulty=(2,)) for seed in (5, 6, 7)]
    kwargs = dict(
        adversary_strategy="crash", max_rounds=40, stop_after_agreement=5
    )
    traces = run_batch_trials(algorithm, kernel, trials, **kwargs)
    summaries = run_batch_summaries(algorithm, kernel, trials, **kwargs)
    for trace, summary in zip(traces, summaries):
        assert summary.rounds == trace.num_rounds
        expected = tuple(
            -1 if value is None else value for value in trace.agreed_values()
        )
        assert summary.agreed == expected
        assert summary.stopped_early == trace.metadata["stopped_early"]
        if summary.stopped_early:
            assert summary.agreement_streak == trace.metadata["agreement_streak"]
        assert summary.faulty == (2,)


class TestStoppingBoundaries:
    """The agreement-window boundary values, on both engines.

    ``window = 1`` stops at the very first agreeing round; a window larger
    than ``max_rounds`` can never fire and must be indistinguishable from no
    early stopping; and when *every* trial of a batch stops in the same
    round, the compaction path must freeze the whole batch at once.
    """

    def _compare(self, name, params, strategy, faulty, max_rounds, window):
        algorithm = _build(name, params)
        kernel = build_batch_kernel(algorithm)
        trials = [
            BatchTrial(sim_seed=seed, faulty=faulty) for seed in (21, 22, 23, 24)
        ]
        batch = run_batch_trials(
            algorithm,
            kernel,
            trials,
            adversary_strategy=strategy,
            max_rounds=max_rounds,
            stop_after_agreement=window,
        )
        scalar = [
            _scalar_trace(algorithm, strategy, trial, max_rounds, window)
            for trial in trials
        ]
        return batch, scalar

    @pytest.mark.parametrize(
        "name,params,strategy,faulty",
        [
            ("trivial", {"c": 4}, None, ()),
            ("naive-majority", {"n": 6, "c": 3, "claimed_resilience": 1}, "crash", (1,)),
            ("corollary1", {"f": 1, "c": 2}, "fixed-state", (0,)),
        ],
    )
    def test_window_one_is_bit_identical(self, name, params, strategy, faulty):
        batch, scalar = self._compare(name, params, strategy, faulty, 60, 1)
        for left, right in zip(batch, scalar):
            assert left == right
            if left.metadata["stopped_early"]:
                assert left.metadata["agreement_streak"] == 1

    @pytest.mark.parametrize(
        "name,params,strategy,faulty",
        [
            ("trivial", {"c": 4}, None, ()),
            ("naive-majority", {"n": 6, "c": 3, "claimed_resilience": 1}, "crash", (1,)),
        ],
    )
    def test_window_beyond_cap_never_fires(self, name, params, strategy, faulty):
        max_rounds = 20
        batch, scalar = self._compare(
            name, params, strategy, faulty, max_rounds, max_rounds + 5
        )
        for left, right in zip(batch, scalar):
            assert left == right
            assert left.metadata["stopped_early"] is False
            assert "agreement_streak" not in left.metadata
            assert left.num_rounds == max_rounds

    def test_whole_batch_stopping_in_one_round_compacts_cleanly(self):
        # The trivial counter agrees from round zero, so with window = 1
        # every trial of the batch finishes in the same round — the
        # compaction path where nothing survives the keep mask.  Both the
        # trace path and the summary path must report the single round.
        algorithm = _build("trivial", {"c": 4})
        kernel = build_batch_kernel(algorithm)
        trials = [BatchTrial(sim_seed=seed) for seed in range(8)]
        traces = run_batch_trials(
            algorithm, kernel, trials, max_rounds=30, stop_after_agreement=1
        )
        summaries = run_batch_summaries(
            algorithm, kernel, trials, max_rounds=30, stop_after_agreement=1
        )
        for trial, trace, summary in zip(trials, traces, summaries):
            scalar = _scalar_trace(algorithm, None, trial, 30, 1)
            assert trace == scalar
            assert trace.num_rounds == 1
            assert trace.metadata["stopped_early"] is True
            assert trace.metadata["agreement_streak"] == 1
            assert summary.rounds == 1
            assert summary.stopped_early is True
            assert summary.agreement_streak == 1


def test_batch_size_chunks_do_not_change_deterministic_results():
    algorithm = _build("corollary1", {"f": 1, "c": 2})
    kernel = build_batch_kernel(algorithm)
    trials = [BatchTrial(sim_seed=seed, faulty=(0,)) for seed in range(5)]
    kwargs = dict(
        adversary_strategy="crash", max_rounds=300, stop_after_agreement=8
    )
    whole = run_batch_trials(algorithm, kernel, trials, batch_size=256, **kwargs)
    chunked = run_batch_trials(algorithm, kernel, trials, batch_size=2, **kwargs)
    assert whole == chunked


#: (catalogue name, params, max_rounds) for the refill tests: the caps are
#: low enough that some trials of every attacked group run to the cap while
#: others stop early and free their rows.
REFILL_ENTRIES = [
    ("corollary1", {"f": 1, "c": 2}, 12),
    ("figure2", {"levels": 1, "c": 2}, 12),
    ("naive-majority", {"n": 6, "c": 3, "claimed_resilience": 1}, 5),
    ("pseudo-random-boosted", {"sample_size": 3}, 12),
]


def _refill_cases():
    for name, params, max_rounds in REFILL_ENTRIES:
        strategies = ["none", "crash", "fixed-state", "mimic"]
        if name == "naive-majority":
            strategies.append("adaptive-split")
        for strategy in strategies:
            yield name, params, max_rounds, strategy
    # Boosted skew forgeries copy the victim's d and draw nothing.
    for name, params, max_rounds in REFILL_ENTRIES:
        if name != "naive-majority":
            yield name, params, max_rounds, "phase-king-skew"


@pytest.mark.parametrize("name,params,max_rounds,strategy", list(_refill_cases()))
def test_refilled_rows_match_the_scalar_engine(name, params, max_rounds, strategy):
    """Draw-free groups refill stopped rows from the queue: every trace, each
    round index included, is the scalar one whatever the batch size."""
    algorithm = _build(name, params)
    kernel = build_batch_kernel(algorithm)
    adversary = None if strategy == "none" else strategy
    assert bit_identical(kernel, adversary)
    faults = 0 if adversary is None else algorithm.f
    trials = [
        BatchTrial(
            sim_seed=seed,
            faulty=tuple(sorted(random.Random(seed).sample(range(algorithm.n), faults))),
        )
        for seed in range(12)
    ]
    scalar = [
        _scalar_trace(algorithm, adversary, trial, max_rounds, 4) for trial in trials
    ]
    if strategy == "mimic":
        # mimic reads each row's own round, and stragglers run to the cap
        # beside early stops, so refilled rows run beside rows at other rounds.
        assert {trace.metadata["stopped_early"] for trace in scalar} == {True, False}
    for batch_size in (1, 3, 256):
        traces = run_batch_trials(
            algorithm,
            kernel,
            trials,
            adversary_strategy=adversary,
            max_rounds=max_rounds,
            stop_after_agreement=4,
            batch_size=batch_size,
        )
        # Trace equality covers every RoundRecord, its round_index included.
        assert traces == scalar


@pytest.mark.parametrize(
    "name,params,strategy,loss,delay,window",
    [
        ("figure2", {"levels": 1, "c": 2}, "random-state", 0.0, 0, 4),
        ("randomized-follow-majority", {"n": 7, "f": 2, "c": 2}, "random-state", 0.0, 0, 4),
        (*NAIVE_ENTRY, "crash", 0.05, 1, 2),
    ],
)
def test_randomized_groups_run_one_chunk_at_a_time(
    name, params, strategy, loss, delay, window
):
    """A randomised group runs each ``batch_size`` slice as its own chunk, with
    its own stream: the group equals separate runs over the slices."""
    algorithm = _build(name, params)
    kernel = build_batch_kernel(algorithm)
    assert not bit_identical(kernel, strategy, loss=loss, delay=delay)
    faulty = _spread(algorithm.n, algorithm.f)
    trials = [BatchTrial(sim_seed=seed, faulty=faulty) for seed in range(10)]
    kwargs = dict(
        adversary_strategy=strategy,
        max_rounds=60,
        stop_after_agreement=window,
        batch_size=4,
        loss=loss,
        delay=delay,
    )
    whole = run_batch_summaries(algorithm, kernel, trials, **kwargs)
    # Trials stop at different rounds, so a refill would have had room.
    assert len({summary.rounds for summary in whole}) > 1
    sliced = [
        summary
        for start in range(0, len(trials), 4)
        for summary in run_batch_summaries(
            algorithm, kernel, trials[start : start + 4], **kwargs
        )
    ]
    assert whole == sliced


@pytest.mark.parametrize("name,params", [*FORGED_ENTRIES, NAIVE_ENTRY])
@pytest.mark.parametrize("strategy", ["crash", "fixed-state"])
def test_shared_forgeries_match_the_per_receiver_patch(name, params, strategy):
    """A forgery every receiver shares comes back once per sender; written
    into the shared states, or broadcast back to every receiver of a
    per-link view, it gives every correct row the per-receiver patch's."""
    algorithm = _build(name, params)
    kernel = build_batch_kernel(algorithm)
    states, faulty, _ = _random_round(algorithm, kernel, random.Random(37), 24)
    batch, n = states.shape[0], states.shape[1]
    correct_sorted = np.array(
        [[node for node in range(n) if node not in row] for row in faulty.tolist()]
    )
    # A random valid fixed state, so it differs from the crash default.
    params = {"state": algorithm.random_state(random.Random(41))}
    adversary = build_adversary_kernel(
        strategy, kernel, params if strategy == "fixed-state" else None
    )
    forged = adversary.forge(
        np.zeros((batch, 1, 1), dtype=np.int64),
        faulty[:, None, :],
        np.arange(n)[None, :, None],
        states,
        correct_sorted,
        None,
    )
    assert forged.shape == (batch, 1, faulty.shape[1], kernel.fields)
    per_receiver = np.broadcast_to(forged, (batch, n) + forged.shape[2:])
    expected = kernel.step(BatchMessages(states, faulty, per_receiver), None)
    shared_view = BatchMessages(states, faulty, forged)
    assert shared_view.forged is None and shared_view.faulty_idx is None
    shared = kernel.step(shared_view, None)
    delivered = np.repeat(states[:, None], n, axis=1)
    per_link = kernel.step(
        PerturbedBatchMessages(states, faulty, forged, delivered), None
    )
    rows = np.arange(batch)[:, None], correct_sorted
    assert np.array_equal(shared[rows], expected[rows])
    assert np.array_equal(per_link[rows], expected[rows])


def test_draw_free_groups_have_no_generator(monkeypatch):
    """A bit-identical group gets no generator, so a draw fails loudly."""
    from repro.network.batch import CrashBatchKernel

    algorithm = _build("corollary1", {"f": 1, "c": 2})
    kernel = build_batch_kernel(algorithm)
    assert bit_identical(kernel, "crash")
    original = CrashBatchKernel.forge

    def drawing_forge(self, round_index, senders, receivers, states, correct, rng):
        rng.integers(0, 2)
        return original(self, round_index, senders, receivers, states, correct, rng)

    monkeypatch.setattr(CrashBatchKernel, "forge", drawing_forge)
    trials = [BatchTrial(sim_seed=seed, faulty=(0,)) for seed in range(3)]
    with pytest.raises(AttributeError, match="integers"):
        run_batch_summaries(
            algorithm, kernel, trials, adversary_strategy="crash", max_rounds=20
        )


def test_mixed_fault_counts_are_rejected():
    algorithm = _build("figure2", {"levels": 1, "c": 2})
    kernel = build_batch_kernel(algorithm)
    from repro.core.errors import SimulationError

    with pytest.raises(SimulationError, match="same number of faults"):
        run_batch_trials(
            algorithm,
            kernel,
            [
                BatchTrial(sim_seed=0, faulty=(0,)),
                BatchTrial(sim_seed=1, faulty=(0, 1)),
            ],
            adversary_strategy="crash",
        )


def test_faults_without_strategy_are_rejected():
    algorithm = _build("naive-majority", {"n": 4, "c": 2, "claimed_resilience": 1})
    kernel = build_batch_kernel(algorithm)
    from repro.core.errors import SimulationError

    with pytest.raises(SimulationError, match="no adversary strategy"):
        run_batch_trials(algorithm, kernel, [BatchTrial(sim_seed=0, faulty=(1,))])


def test_kernel_coverage_and_overflow_guard():
    """The catalogue's executable algorithms advertise kernels; oversized
    Corollary 1 instances decline instead of overflowing int64."""
    for name, params, _, _ in KERNEL_ENTRIES:
        assert build_batch_kernel(build_algorithm(name, **params)) is not None
    # f = 5 needs a trivial base counter of 21 * 16^16 > 2^62 states.
    oversized = build_algorithm("corollary1", f=5, c=2)
    assert build_batch_kernel(oversized) is None


def test_state_encoding_round_trips():
    import random

    for name, params, _, _ in KERNEL_ENTRIES:
        algorithm = _build(name, params)
        kernel = build_batch_kernel(algorithm)
        rng = random.Random(7)
        for _ in range(20):
            state = algorithm.random_state(rng)
            assert kernel.decode(kernel.encode(state)) == state
