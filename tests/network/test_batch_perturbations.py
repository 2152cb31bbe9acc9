"""Batch-engine message-plane perturbations: loss/delay as masked array ops.

The contract (see :mod:`repro.network.batch`): ``loss=0, delay=0`` is the
exact unperturbed code path (bit-compatible with calls that never mention
the knobs); active knobs replay the scalar staleness model statistically,
stamp the same metadata the scalar engine writes, and are refused for the
pulling model, which has no batch perturbation path.
"""

from __future__ import annotations

import pytest

from repro.core.errors import SimulationError
from repro.faults.schedule import Perturbations
from repro.network.batch import (
    BATCH_RNG_NOTE,
    BatchTrial,
    build_batch_kernel,
    run_batch_summaries,
    run_batch_trials,
)
from repro.network.simulator import SimulationConfig, run_simulation
from repro.network.stabilization import stabilization_from_values
from repro.semantics import build_algorithm

SEEDS = (101, 102, 103, 104)


def algorithm():
    return build_algorithm("naive-majority", n=6, c=3, claimed_resilience=1)


def trials():
    return [BatchTrial(sim_seed=seed) for seed in SEEDS]


class TestZeroKnobsAreTheUnperturbedPath:
    def test_explicit_zero_knobs_are_bit_identical_to_their_absence(self):
        alg = algorithm()
        kernel = build_batch_kernel(alg)
        plain = run_batch_trials(alg, kernel, trials(), max_rounds=40)
        zeroed = run_batch_trials(
            alg, kernel, trials(), max_rounds=40, loss=0.0, delay=0
        )
        assert plain == zeroed
        for trace in zeroed:
            assert "perturbations" not in trace.metadata


class TestPerturbedBatch:
    def test_perturbed_metadata_matches_the_scalar_stamp(self):
        alg = algorithm()
        kernel = build_batch_kernel(alg)
        traces = run_batch_trials(
            alg, kernel, trials(), max_rounds=40, loss=0.1, delay=1
        )
        scalar = run_simulation(
            alg,
            config=SimulationConfig(
                max_rounds=40,
                seed=SEEDS[0],
                perturbations=Perturbations(loss=0.1, delay=1),
            ),
        )
        for trace in traces:
            assert trace.metadata["perturbations"] == scalar.metadata["perturbations"]
            assert trace.metadata["rng"] == BATCH_RNG_NOTE

    def test_perturbed_batches_still_converge_statistically(self):
        alg = algorithm()
        kernel = build_batch_kernel(alg)
        many = [BatchTrial(sim_seed=seed) for seed in range(200, 220)]
        summaries = run_batch_summaries(
            alg, kernel, many, max_rounds=120, loss=0.1, delay=0
        )
        stabilized = sum(
            1
            for summary in summaries
            if stabilization_from_values(
                [None if value < 0 else value for value in summary.agreed], alg.c
            ).stabilized
        )
        # Mild loss slows convergence; it must not break it wholesale.
        assert stabilized >= len(many) * 3 // 4

    def test_summaries_and_traces_agree_under_perturbation(self):
        alg = algorithm()
        kernel = build_batch_kernel(alg)
        kwargs = dict(max_rounds=60, loss=0.15, delay=2)
        traces = run_batch_trials(alg, kernel, trials(), **kwargs)
        summaries = run_batch_summaries(alg, kernel, trials(), **kwargs)
        for trace, summary in zip(traces, summaries):
            assert trace.agreed_values() == [
                None if value < 0 else value for value in summary.agreed
            ]

    @pytest.mark.parametrize("kwargs", [{"loss": -0.1}, {"loss": 1.0}, {"delay": -1}])
    def test_invalid_knobs_rejected(self, kwargs):
        alg = algorithm()
        kernel = build_batch_kernel(alg)
        with pytest.raises(SimulationError):
            run_batch_trials(alg, kernel, trials(), max_rounds=10, **kwargs)


class TestPullingHasNoPerturbationPath:
    def test_pulling_kernels_refuse_loss_and_delay(self):
        alg = build_algorithm("sampled-boosted", sample_size=2)
        kernel = build_batch_kernel(alg)
        with pytest.raises(SimulationError, match="broadcast model only"):
            run_batch_trials(alg, kernel, trials(), max_rounds=10, loss=0.1)
        with pytest.raises(SimulationError, match="broadcast model only"):
            run_batch_summaries(alg, kernel, trials(), max_rounds=10, delay=1)
