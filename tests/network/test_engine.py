"""Tests for the shared simulation kernel (:mod:`repro.network.engine`).

Two families:

* Unit tests for the shared stop step (on Python ints and on a NumPy row,
  the two ways the engines call it) and the kernel plumbing.
* Equivalence tests replaying the verbatim pre-kernel engines
  (``legacy_engines.py``) against the refactored adapters: for fixed seeds,
  both models, with and without faults, the recorded traces must be
  bit-identical — same per-round outputs, states and metadata, same RNG
  stream consumption.  The only tolerated differences are the documented
  bugfixes: the pulling path now records ``initial_outputs``,
  ``agreement_streak``, ``max_rounds`` and merged config metadata, and both
  paths record ``stopped_early: False`` explicitly when the round cap is
  hit.
"""

from __future__ import annotations

import random
from typing import Any

import pytest

from legacy_engines import legacy_run_pull_simulation, legacy_run_simulation

from repro.core.algorithm import AlgorithmInfo
from repro.core.errors import SimulationError
from repro.core.recursion import figure2_counter, optimal_resilience_counter
from repro.counters.naive import NaiveMajorityCounter
from repro.counters.trivial import TrivialCounter
from repro.network.adversary import (
    AdaptiveSplitAdversary,
    CrashAdversary,
    MimicAdversary,
    NoAdversary,
    PhaseKingSkewAdversary,
    RandomStateAdversary,
    SplitStateAdversary,
)
from repro.network.engine import run_engine, stop_step
from repro.network.pulling import (
    PullingAlgorithm,
    PullingModel,
    PullSimulationConfig,
    run_pull_simulation,
)
from repro.network.simulator import BroadcastModel, SimulationConfig, run_simulation
from repro.sampling.pull_boosting import SampledBoostedCounter
from repro.util.rng import ensure_rng


class PullEchoCounter(PullingAlgorithm):
    """Minimal pulling-model counter (mirrors the one in test_pulling.py)."""

    def __init__(self, n: int = 4, f: int = 1, c: int = 5, pulls: int = 2) -> None:
        super().__init__(n=n, f=f, c=c, info=AlgorithmInfo(name="PullEcho", deterministic=False))
        self._pulls = pulls

    def num_states(self) -> int:
        return self.c

    def pull_targets(self, node: int, state: Any, rng: random.Random) -> list[int]:
        return [(node + offset) % self.n for offset in range(1, self._pulls + 1)]

    def next_state(self, node, state, targets, responses, rng) -> int:
        values = [self.coerce_message(state)] + [self.coerce_message(r) for r in responses]
        return (max(values) + 1) % self.c

    def output(self, node: int, state: Any) -> int:
        return self.coerce_message(state)

    def random_state(self, rng: Any = None) -> int:
        return ensure_rng(rng).randrange(self.c)

    def coerce_message(self, message: Any) -> int:
        if isinstance(message, bool) or not isinstance(message, int):
            return 0
        return message % self.c


def run_steps(agreed_values, *, on_array, **params):
    """Feed ``agreed_values`` through :func:`stop_step`; per round
    ``(streak, early, stop)``.  ``on_array`` runs a one-trial NumPy row, as
    the batch engine does, instead of the scalar engine's Python ints."""
    if on_array:
        np = pytest.importorskip("numpy")
        prev, streak = np.full(1, -1), np.zeros(1, dtype=np.int64)
    else:
        prev, streak = -1, 0
    steps = []
    for round_index, agreed in enumerate(agreed_values):
        if on_array:
            agreed = np.array([agreed])
        prev, streak, early, stop = stop_step(
            agreed, prev, streak, round_index, **params
        )
        if on_array:
            streak_value, early, stop = int(streak[0]), early[0], stop[0]
        else:
            streak_value = streak
        steps.append((streak_value, bool(early), bool(stop)))
    return steps


@pytest.fixture(params=["ints", "array"])
def steps(request):
    def run(agreed_values, **params):
        return run_steps(agreed_values, on_array=request.param == "array", **params)

    return run


class NoRoundsModel(BroadcastModel):
    """A broadcast model that fails if the engine gets as far as using it."""

    def validate(self) -> None:
        raise AssertionError("run_engine validated the model before its own checks")

    def step(self, states, round_index):
        raise AssertionError("run_engine stepped a round before its own checks")


@pytest.fixture(params=["ints", "array"])
def start_run(request):
    """Start a one-trial run on the scalar engine (``ints``) or the batch
    engine (``array``) with the given window and round cap."""

    def run(*, window, max_rounds):
        counter = NaiveMajorityCounter(n=4, c=4, claimed_resilience=1)
        if request.param == "ints":
            run_engine(
                NoRoundsModel(counter, NoAdversary()),
                max_rounds=max_rounds,
                stop_after_agreement=window,
            )
        else:
            pytest.importorskip("numpy")
            from repro.network.batch import (
                BatchTrial,
                build_batch_kernel,
                run_batch_summaries,
            )

            run_batch_summaries(
                counter,
                build_batch_kernel(counter),
                [BatchTrial(sim_seed=0)],
                max_rounds=max_rounds,
                stop_after_agreement=window,
            )

    return run


class TestStopStep:
    def test_frozen_agreement_never_fills_the_window(self, steps):
        result = steps([1] * 5, c=4, window=2, max_rounds=50)
        assert [streak for streak, _, _ in result] == [1] * 5
        assert not any(stop for _, _, stop in result)

    def test_counts_across_wraparound(self, steps):
        result = steps([2, 0, 1], c=3, window=3, max_rounds=50)
        assert result == [(1, False, False), (2, False, False), (3, True, True)]

    def test_disagreement_resets_the_streak(self, steps):
        result = steps([0, 1, -1, 3, 0, 1], c=4, window=3, max_rounds=50)
        assert [streak for streak, _, _ in result] == [1, 2, 0, 1, 2, 3]
        assert [early for _, early, _ in result] == [False] * 5 + [True]

    def test_round_cap_stops_without_early_flag(self, steps):
        result = steps([-1, -1, -1], c=4, window=None, max_rounds=3)
        assert result[-1] == (0, False, True)
        assert not any(stop for _, _, stop in result[:-1])

    def test_window_wins_ties_with_the_cap(self, steps):
        result = steps([0, 1], c=4, window=2, max_rounds=2)
        assert result == [(1, False, False), (2, True, True)]

    def test_no_window_never_stops_early(self, steps):
        result = steps([0, 1, 2, 3], c=4, window=None, max_rounds=4)
        assert [streak for streak, _, _ in result] == [1, 2, 3, 4]
        assert result[-1] == (4, False, True)

    def test_gate_hides_rounds_before_it(self, steps):
        # Counting from round 0, but the window only starts at round 3 and
        # must then fill from scratch (streak = 0 before it).
        result = steps([0, 1, 2, 0, 1], c=3, window=2, max_rounds=50, gate=3)
        assert [streak for streak, _, _ in result] == [0, 0, 0, 1, 2]
        assert [early for _, early, _ in result] == [False] * 4 + [True]

    @pytest.mark.parametrize(
        "params",
        [
            {"window": 0, "max_rounds": 5},
            {"window": -2, "max_rounds": 5},
            {"window": None, "max_rounds": 0},
            {"window": 3, "max_rounds": -1},
        ],
    )
    def test_rejects_non_positive_window_or_cap(self, start_run, params):
        # Both engines check the window and the cap once per run, before the
        # first round (and, on the scalar engine, before validating the
        # model).
        with pytest.raises(SimulationError, match="must be positive"):
            start_run(**params)


BROADCAST_SEEDS = (0, 1, 2, 3, 4)


def _broadcast_settings():
    counter = NaiveMajorityCounter(n=7, c=4, claimed_resilience=2)
    yield "fault-free", counter, lambda: NoAdversary()
    yield "random-state", counter, lambda: RandomStateAdversary([2, 5])
    yield "mimic", counter, lambda: MimicAdversary([2, 5])
    yield "split-state", counter, lambda: SplitStateAdversary([2, 5])
    yield "adaptive-split", counter, lambda: AdaptiveSplitAdversary([2, 5])
    boosted = figure2_counter(levels=1, c=2)
    yield "boosted/phase-king-skew", boosted, lambda: PhaseKingSkewAdversary([1, 6, 9])


def _strip_new_broadcast_keys(metadata: dict) -> dict:
    stripped = dict(metadata)
    if stripped.get("stopped_early") is False:
        # Newly explicit when the round cap is hit; legacy left the key out.
        stripped.pop("stopped_early")
    return stripped


def _strip_new_pulling_keys(metadata: dict) -> dict:
    stripped = _strip_new_broadcast_keys(metadata)
    # The unified kernel added these to the pulling path.
    stripped.pop("agreement_streak", None)
    stripped.pop("max_rounds", None)
    return stripped


class TestBroadcastKernelEquivalence:
    """New engine vs the verbatim pre-kernel loop: bit-identical traces."""

    @pytest.mark.parametrize("seed", BROADCAST_SEEDS)
    def test_traces_identical(self, seed):
        for label, counter, make_adversary in _broadcast_settings():
            for window in (None, 4):
                config = SimulationConfig(
                    max_rounds=40,
                    stop_after_agreement=window,
                    record_states=True,
                    seed=seed,
                )
                old = legacy_run_simulation(
                    counter, adversary=make_adversary(), config=config
                )
                new = run_simulation(counter, adversary=make_adversary(), config=config)
                assert new.rounds == old.rounds, f"{label} seed={seed} window={window}"
                assert new.initial_outputs == old.initial_outputs
                assert new.faulty == old.faulty
                assert _strip_new_broadcast_keys(new.metadata) == old.metadata

    def test_explicit_initial_states_identical(self):
        counter = NaiveMajorityCounter(n=5, c=3, claimed_resilience=1)
        start = [2, 0, 1, 2, 0]
        config = SimulationConfig(max_rounds=20, seed=7)
        old = legacy_run_simulation(
            counter, adversary=CrashAdversary([4]), config=config, initial_states=start
        )
        new = run_simulation(
            counter, adversary=CrashAdversary([4]), config=config, initial_states=start
        )
        assert new.rounds == old.rounds


class TestPullingKernelEquivalence:
    """Same bit-identity guarantee for the pulling model."""

    @pytest.mark.parametrize("seed", BROADCAST_SEEDS)
    def test_echo_counter_traces_identical(self, seed):
        for make_adversary in (
            lambda: NoAdversary(),
            lambda: CrashAdversary([1]),
            lambda: RandomStateAdversary([3]),
        ):
            for window in (None, 5):
                counter = PullEchoCounter(n=4, f=1, c=5)
                config = PullSimulationConfig(
                    max_rounds=30,
                    stop_after_agreement=window,
                    record_states=True,
                    seed=seed,
                )
                old = legacy_run_pull_simulation(
                    counter, adversary=make_adversary(), config=config
                )
                new = run_pull_simulation(
                    counter, adversary=make_adversary(), config=config
                )
                assert new.rounds == old.rounds, f"seed={seed} window={window}"
                assert new.faulty == old.faulty
                assert _strip_new_pulling_keys(new.metadata) == old.metadata

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_sampled_boosted_traces_identical(self, seed):
        def build():
            inner = optimal_resilience_counter(f=1, c=960)
            return SampledBoostedCounter(inner=inner, k=3, counter_size=2, sample_size=2)

        for make_adversary in (
            lambda: NoAdversary(),
            lambda: PhaseKingSkewAdversary([3]),
            lambda: AdaptiveSplitAdversary([0, 7]),
        ):
            config = PullSimulationConfig(max_rounds=20, seed=seed)
            old = legacy_run_pull_simulation(
                build(), adversary=make_adversary(), config=config
            )
            new = run_pull_simulation(build(), adversary=make_adversary(), config=config)
            assert new.rounds == old.rounds, f"seed={seed}"
            assert _strip_new_pulling_keys(new.metadata) == old.metadata

    def test_initial_outputs_now_recorded(self):
        # The legacy pulling engine never filled initial_outputs; the kernel
        # records them for both models.
        counter = PullEchoCounter()
        trace = run_pull_simulation(counter, config=PullSimulationConfig(max_rounds=1, seed=0))
        assert set(trace.initial_outputs) == {0, 1, 2, 3}


class TestPullingInitialStateRegression:
    """The pulling path now validates initial states like the broadcast path."""

    def test_missing_correct_node_raises_simulation_error(self):
        counter = PullEchoCounter(n=4, f=0, c=5)
        with pytest.raises(SimulationError, match="missing correct nodes"):
            run_pull_simulation(
                counter,
                config=PullSimulationConfig(max_rounds=1, seed=0),
                initial_states={0: 1},
            )

    def test_invalid_state_raises_simulation_error(self):
        counter = PullEchoCounter(n=4, f=0, c=5)
        with pytest.raises(SimulationError, match="not a valid state"):
            run_pull_simulation(
                counter,
                config=PullSimulationConfig(max_rounds=1, seed=0),
                initial_states={0: 1, 1: "garbage", 2: 1, 3: 1},
            )

    def test_sequence_initial_states_supported(self):
        counter = PullEchoCounter(n=4, f=0, c=5)
        trace = run_pull_simulation(
            counter,
            config=PullSimulationConfig(max_rounds=1, seed=0),
            initial_states=[1, 1, 1, 1],
        )
        assert trace.rounds[0].outputs == {0: 2, 1: 2, 2: 2, 3: 2}

    def test_wrong_length_sequence_rejected(self):
        counter = PullEchoCounter(n=4, f=0, c=5)
        with pytest.raises(SimulationError, match="length n=4"):
            run_pull_simulation(
                counter,
                config=PullSimulationConfig(max_rounds=1, seed=0),
                initial_states=[1, 1],
            )


class TestPullingMetadataRegression:
    """Early-stop metadata parity between the two models."""

    def test_agreement_streak_recorded_on_early_stop(self):
        counter = PullEchoCounter(n=4, f=0, c=5)
        trace = run_pull_simulation(
            counter,
            adversary=NoAdversary(),
            config=PullSimulationConfig(max_rounds=200, stop_after_agreement=5, seed=1),
        )
        assert trace.metadata["stopped_early"] is True
        assert trace.metadata["agreement_streak"] == 5

    def test_stopped_early_false_at_round_cap(self):
        counter = PullEchoCounter(n=4, f=1, c=5)
        trace = run_pull_simulation(
            counter,
            adversary=RandomStateAdversary([3]),
            config=PullSimulationConfig(max_rounds=3, stop_after_agreement=50, seed=0),
        )
        assert trace.num_rounds == 3
        assert trace.metadata["stopped_early"] is False

    def test_config_metadata_merged_into_trace(self):
        counter = PullEchoCounter()
        trace = run_pull_simulation(
            counter,
            config=PullSimulationConfig(
                max_rounds=2, seed=0, metadata={"run_id": "r7", "campaign": "demo"}
            ),
        )
        assert trace.metadata["run_id"] == "r7"
        assert trace.metadata["campaign"] == "demo"
        # Simulator-owned keys win on collision and are always present.
        assert trace.metadata["model"] == "pulling"
        assert trace.metadata["seed"] == 0
        assert trace.metadata["max_rounds"] == 2


class TestModelAdapters:
    def test_broadcast_model_key(self):
        # The broadcast trace header names no model; the algorithm, not the
        # adapter, decides which model a run executes in.
        adapter = BroadcastModel(TrivialCounter(c=3), NoAdversary())
        assert "model" not in adapter.trace_metadata()
        assert not hasattr(BroadcastModel, "model")

    def test_pulling_model_key_and_metadata(self):
        adapter = PullingModel(PullEchoCounter(), NoAdversary())
        assert not hasattr(adapter, "model")
        assert adapter.trace_metadata()["model"] == "pulling"

    def test_correct_nodes_excludes_faulty(self):
        adapter = BroadcastModel(
            NaiveMajorityCounter(n=5, c=2, claimed_resilience=1), CrashAdversary([3])
        )
        assert adapter.correct_nodes == [0, 1, 2, 4]
