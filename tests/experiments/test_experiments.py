"""Smoke tests for the experiment harness (small parameterisations).

Each experiment module must run end to end, produce rows with the expected
columns and satisfy the paper's qualitative claims (within-bound
stabilisation, Lemma checks, decreasing failure rates, ...).  Full-size runs
are exercised by the benchmarks and by ``python -m repro experiment ...``.
"""

from __future__ import annotations

import pytest

from repro.experiments.ablation import (
    run_adversary_ablation,
    run_block_count_ablation,
    run_counter_size_ablation,
)
from repro.analysis.metrics import TrialMetrics
from repro.experiments.common import ExperimentResult, summarize_trials
from repro.experiments.figure1 import generate_traces, run_figure1
from repro.experiments.figure2 import misaligned_initial_states, run_figure2
from repro.experiments.pulling import post_agreement_failure_rate, run_corollary4, run_corollary5
from repro.experiments.scaling import (
    run_corollary1_scaling,
    run_theorem1_bounds,
    run_theorem2_scaling,
    run_theorem3_scaling,
)
from repro.experiments.table1 import run_table1
from repro.experiments.table2_phase_king import lemma4_trial, lemma5_trial, run_table2


class TestExperimentResult:
    def test_add_row_and_columns(self):
        result = ExperimentResult(name="x")
        result.add_row(a=1, b=2)
        result.add_row(b=3, c=4)
        assert result.columns() == ["a", "b", "c"]

    def test_format_table_contains_values(self):
        result = ExperimentResult(name="demo")
        result.add_row(metric="stab", value=12)
        result.add_note("a note")
        text = result.format_table()
        assert "demo" in text
        assert "stab" in text
        assert "note: a note" in text

    def test_format_table_empty(self):
        assert "(no rows)" in ExperimentResult(name="empty").format_table()

    def test_to_markdown(self):
        result = ExperimentResult(name="demo")
        result.add_row(a=1.23456, b="x")
        markdown = result.to_markdown()
        assert markdown.startswith("### demo")
        assert "| a | b |" in markdown


def _metric(stabilization_round):
    return TrialMetrics(
        stabilized=stabilization_round is not None,
        stabilization_round=stabilization_round,
        rounds_simulated=50,
        within_bound=None,
        agreement_fraction=1.0,
        faulty=(),
    )


class TestSummarizeTrials:
    def test_bounded_row_needs_every_trial_within_the_bound(self):
        assert summarize_trials([_metric(3), _metric(10)], bound=10)["within_bound"]
        assert not summarize_trials([_metric(3), _metric(11)], bound=10)["within_bound"]
        assert not summarize_trials([_metric(3), _metric(None)], bound=10)["within_bound"]

    def test_unbounded_counter_keeps_reading_true(self):
        assert summarize_trials([_metric(None), _metric(4)])["within_bound"] is True


class TestTable1:
    def test_rows_and_kinds(self):
        result = run_table1(trials=2, randomized_trials=3, max_rounds=2500, seed=1)
        kinds = {row["kind"] for row in result.rows}
        assert kinds == {"published", "measured"}
        # Every executable row stabilised within its bound.
        measured = [row for row in result.rows if row["kind"] == "measured"]
        assert len(measured) == 3
        assert all("within bound: True" in row["notes"] or "expected time" in row["notes"] for row in measured)


class TestTable2:
    def test_lemma_checks_all_pass(self):
        result = run_table2(settings=((4, 1), (7, 2)), trials=8, persistence_rounds=12, seed=0)
        for row in result.rows:
            assert row["lemma4_agreement"] == "8/8"
            assert row["lemma5_persistence"] == "8/8"
            assert row["classic_agreed"] is True

    def test_lemma_trials_direct(self):
        import random

        rng = random.Random(0)
        assert lemma4_trial(4, 1, 5, king=0, rng=rng)[0]
        assert lemma5_trial(4, 1, 5, rounds=10, rng=rng)


class TestFigure1:
    def test_every_leader_has_common_interval(self):
        result = run_figure1(k=6, resilience=1, seed=3)
        assert len(result.rows) == 3  # m = 3 candidate leaders
        for row in result.rows:
            assert row["interval_length"] >= row["required_length"]
            assert row["within_bound"] is True

    def test_generate_traces_shapes(self):
        data = generate_traces(k=6, resilience=1, blocks=(0, 1, 2), rounds=100, seed=0)
        assert len(data.traces) == 3
        assert all(len(trace) == 100 for trace in data.traces)
        assert data.m == 3


class TestFigure2:
    def test_level1_stabilizes_within_bound(self):
        result = run_figure2(
            levels=1,
            trials=2,
            max_rounds=4000,
            seed=0,
            adversaries=("phase-king-skew",),
            include_misaligned=True,
        )
        assert result.rows
        for row in result.rows:
            assert row["stabilized"] == row["trials"] or row["stabilized"] == 1
            assert row["within_bound"] is True

    def test_unstabilized_trials_are_not_within_bound(self):
        # Three rounds are far too few to stabilise A(12, 3): every row
        # reports zero stabilised trials and so must not claim the bound.
        result = run_figure2(
            levels=1, trials=3, max_rounds=3, adversaries=("random-state",)
        )
        for row in result.rows:
            assert row["stabilized"] == 0
            assert row["within_bound"] is False

    def test_misaligned_states_are_valid(self, figure2_level1_counter):
        states = misaligned_initial_states(figure2_level1_counter)
        assert len(states) == figure2_level1_counter.n
        assert all(figure2_level1_counter.is_valid_state(s) for s in states)


class TestScaling:
    def test_theorem1_bounds_rows(self):
        result = run_theorem1_bounds(k_values=(4,), trials=2, seed=0)
        row = result.rows[0]
        assert row["formula_matches"] is True
        assert row["within_bound"] is True
        assert row["time_bound"] == 2304

    def test_corollary1_scaling_rows(self):
        result = run_corollary1_scaling(f_values=(1, 2, 4), measured_trials=2, seed=0)
        assert [row["f"] for row in result.rows] == [1, 2, 4]
        times = [row["time_bound"] for row in result.rows]
        assert times[0] < times[1] < times[2]
        assert result.rows[0]["within_bound"] is True

    def test_theorem2_scaling_ratio_bound_holds(self):
        result = run_theorem2_scaling(epsilons=(0.5,), f_targets=(4, 64))
        assert all(row["ratio_ok"] for row in result.rows)

    def test_theorem3_scaling_rows(self):
        result = run_theorem3_scaling(phases=(1, 2))
        epsilons = [row["effective_epsilon"] for row in result.rows]
        assert epsilons[0] > epsilons[1]
        assert all(row["bits_within_envelope"] for row in result.rows)


class TestPulling:
    def test_corollary4_failure_rate_decreases_with_samples(self):
        result = run_corollary4(sample_sizes=(2, 16), trials=2, max_rounds=150, seed=0)
        data_rows = [row for row in result.rows if isinstance(row["M"], int)]
        assert data_rows[0]["failure_rate_f1"] > data_rows[1]["failure_rate_f1"]
        assert data_rows[0]["pulls_per_round"] < data_rows[1]["pulls_per_round"]

    def test_corollary5_majority_of_link_seeds_stabilize(self):
        result = run_corollary5(link_seeds=(0, 1), max_rounds=200, confirm_rounds=40, seed=0)
        data_rows = [row for row in result.rows if isinstance(row["link_seed"], int)]
        assert sum(1 for row in data_rows if row["stabilized"]) >= 1

    def test_post_agreement_failure_rate_bounds(self):
        from repro.network.trace import ExecutionTrace, RoundRecord

        trace = ExecutionTrace(algorithm_name="t", n=2, c=2, faulty=frozenset())
        for index, value in enumerate([None, 0, 1, 0]):
            outputs = {0: value, 1: value} if value is not None else {0: 0, 1: 1}
            trace.append(RoundRecord(round_index=index, outputs=outputs))
        assert post_agreement_failure_rate(trace) == 0.0


class TestAblation:
    def test_block_count_tradeoff(self):
        result = run_block_count_ablation(k_values=(4, 6))
        rows = [row for row in result.rows if "time_overhead" in row]
        assert rows[0]["time_overhead"] < rows[1]["time_overhead"]

    def test_counter_size_only_affects_space(self):
        result = run_counter_size_ablation(counter_sizes=(2, 1024))
        assert result.rows[0]["time_bound"] == result.rows[1]["time_bound"]
        assert result.rows[0]["state_bits"] < result.rows[1]["state_bits"]

    def test_adversary_ablation_boosted_stabilizes_naive_does_not(self):
        result = run_adversary_ablation(
            trials=2, max_rounds=3500, seed=0, strategies=("crash", "adaptive-split")
        )
        boosted_rows = [row for row in result.rows if row["algorithm"].startswith("A(12,3)")]
        naive_rows = [row for row in result.rows if row["algorithm"].startswith("naive")]
        assert all(row["within_bound"] is True for row in boosted_rows)
        assert naive_rows[0]["stabilized"] == "0/1"
