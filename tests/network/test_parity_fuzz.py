"""Differential parity fuzz: batch-vs-scalar over every catalogue strategy.

The sweep (:mod:`repro.network.parity`) replaces "we spot-checked parity"
with "parity is enforced for every registered configuration": a seeded
random grid over the catalogue's algorithms × all strategies × fault counts ×
stopping rules, asserting bit-identity for deterministic kernels and
structural + distributional equivalence for the randomised ones.
"""

from __future__ import annotations

import pytest

from repro.core.errors import SimulationError
from repro.network.batch import (
    adversary_kernel_available,
    bit_identical,
    build_adversary_kernel,
    build_batch_kernel,
)
from repro.network.parity import (
    ALL_SCHEDULES,
    ALL_STRATEGIES,
    FUZZ_ALGORITHMS,
    check_distributions,
    check_parity,
    run_parity_fuzz,
    run_schedule_fuzz,
    sample_configs,
    sample_schedule_configs,
)
from repro.semantics import (
    DeterminismClass,
    active_strategy_names,
    adversary_coverage_notes,
    build_algorithm,
)


class TestCoverageContract:
    @pytest.mark.parametrize("strategy", active_strategy_names())
    def test_every_registered_strategy_has_a_batch_kernel(self, strategy):
        # The acceptance criterion of the vectorisation work: every active
        # strategy of the catalogue resolves to a batch kernel by name.
        assert adversary_kernel_available(strategy)

    def test_only_active_strategies_and_fault_free_runs_have_kernels(self):
        assert adversary_kernel_available(None)
        assert not adversary_kernel_available("none")
        assert not adversary_kernel_available("bogus")
        kernel = build_batch_kernel(build_algorithm("trivial"))
        known = ", ".join(active_strategy_names())
        with pytest.raises(SimulationError) as excinfo:
            build_adversary_kernel("bogus", kernel)
        assert str(excinfo.value) == (
            f"adversary strategy 'bogus' has no batch kernel; "
            f"vectorised strategies: {known}"
        )

    def test_generated_coverage_note_is_total_and_truthful(self):
        coverage = adversary_coverage_notes()
        assert set(coverage) == set(active_strategy_names()) | {"none"}
        # Boosted groups replay the scalar adversary stream, so only the
        # flat-state forgeries that draw NumPy values are not bit-identical.
        for strategy in ("crash", "fixed-state", "mimic", "adaptive-split"):
            assert coverage[strategy] == "bit-identical"
        for strategy in ("random-state", "split-state", "phase-king-skew"):
            assert coverage[strategy] == (
                "statistically equivalent for flat counters, "
                "bit-identical for boosted states"
            )

    @pytest.mark.parametrize("strategy", active_strategy_names())
    def test_coverage_note_states_the_bit_identity_rule(self, strategy):
        # The note shown by the discovery surfaces and the rule the executor
        # batches by are the same fact, per state encoding.
        flat = build_batch_kernel(build_algorithm("naive-majority"))
        boosted = build_batch_kernel(build_algorithm("corollary1"))
        declared = DeterminismClass(
            flat=bit_identical(flat, strategy),
            boosted=bit_identical(boosted, strategy),
        )
        assert adversary_coverage_notes()[strategy] == declared.note()

    def test_fuzz_catalogue_spans_both_models(self):
        names = {name for name, _, _, _ in FUZZ_ALGORITHMS}
        assert {"trivial", "naive-majority", "corollary1", "figure2"} <= names
        assert {"sampled-boosted", "pseudo-random-boosted"} <= names


class TestSampledSweep:
    def test_sampling_is_reproducible_and_covers_all_strategies(self):
        configs = sample_configs(16, seed=5)
        assert configs == sample_configs(16, seed=5)
        assert {config.strategy for config in configs} == set(ALL_STRATEGIES)
        # The stopping-rule axis includes every boundary the engines treat
        # specially: no window, window=1, a small window, window > cap.
        windows = {
            (
                "beyond"
                if config.stop_after_agreement is not None
                and config.stop_after_agreement > config.max_rounds
                else config.stop_after_agreement
            )
            for config in sample_configs(48, seed=5)
        }
        assert {None, 1, 2, "beyond"} <= windows

    def test_seeded_sweep_holds_parity_everywhere(self):
        reports = run_parity_fuzz(count=24, seed=7)
        failures = [
            f"{report.config.label()}: {report.failures}"
            for report in reports
            if not report.ok
        ]
        assert not failures, "\n".join(failures)
        modes = {report.mode for report in reports}
        assert modes == {"bit-identical", "statistical"}
        assert {report.config.strategy for report in reports} == set(ALL_STRATEGIES)

    def test_a_second_seed_also_holds(self):
        # Cheap insurance that seed 7 is not a lucky draw: a smaller sweep
        # with capped rounds under a different master seed.
        reports = run_parity_fuzz(
            count=12, seed=20260729, trials_per_config=2, max_rounds_cap=120
        )
        failures = [
            f"{report.config.label()}: {report.failures}"
            for report in reports
            if not report.ok
        ]
        assert not failures, "\n".join(failures)


class TestTargetedParity:
    @pytest.mark.parametrize("window", [None, 1, 2, 999])
    def test_new_deterministic_kernels_bit_identical_across_windows(self, window):
        from repro.network.parity import ParityConfig

        for strategy, adversary_params in (
            ("fixed-state", ()),
            ("fixed-state", (("state", 2),)),
            ("adaptive-split", ()),
        ):
            config = ParityConfig(
                algorithm="naive-majority",
                params=(("c", 3), ("claimed_resilience", 1), ("n", 6)),
                strategy=strategy,
                adversary_params=adversary_params,
                trials=((11, (1,)), (12, (4,)), (13, (0,))),
                max_rounds=40,
                stop_after_agreement=window,
            )
            report = check_parity(config)
            assert report.mode == "bit-identical", config.label()
            assert report.ok, f"{config.label()}: {report.failures}"

    def test_boosted_fixed_state_is_bit_identical(self):
        from repro.network.parity import ParityConfig

        config = ParityConfig(
            algorithm="figure2",
            params=(("c", 2), ("levels", 1)),
            strategy="fixed-state",
            adversary_params=(("state", 1),),
            trials=((5, (2, 5, 7)), (6, (0, 4, 11))),
            max_rounds=150,
            stop_after_agreement=8,
        )
        report = check_parity(config)
        assert report.mode == "bit-identical"
        assert report.ok, report.failures


class TestPerturbationAxes:
    def test_sweep_draws_loss_delay_configurations(self):
        configs = sample_configs(24, seed=7)
        perturbed = [config for config in configs if config.perturbed]
        assert perturbed, "sweep must exercise the loss/delay axis"
        assert {(config.loss, config.delay) for config in perturbed} != {(0.0, 0)}

    def test_pulling_algorithms_are_never_perturbed(self):
        from repro.semantics import algorithm_semantics

        for config in sample_configs(48, seed=5):
            if algorithm_semantics(config.algorithm).model == "pulling":
                assert not config.perturbed, config.label()

    def test_perturbed_configs_demote_to_statistical_mode(self):
        from repro.network.parity import ParityConfig

        config = ParityConfig(
            algorithm="naive-majority",
            params=(("c", 3), ("claimed_resilience", 1), ("n", 6)),
            strategy="crash",
            adversary_params=(),
            trials=((11, (1,)), (12, (4,))),
            max_rounds=40,
            stop_after_agreement=None,
            loss=0.1,
            delay=1,
        )
        report = check_parity(config)
        # crash is bit-identical unperturbed; the loss/delay plane consumes
        # NumPy randomness, so the same pairing is statistical here.
        assert report.mode == "statistical"
        assert report.ok, report.failures


class TestScheduleFuzz:
    def test_sampling_cycles_every_declared_preset_first(self):
        configs = sample_schedule_configs(len(ALL_SCHEDULES), seed=0)
        assert [config.schedule for config in configs] == list(ALL_SCHEDULES)
        assert configs == sample_schedule_configs(len(ALL_SCHEDULES), seed=0)

    def test_max_rounds_always_clears_the_schedule_horizon(self):
        from repro.semantics import fault_schedule_semantics

        for config in sample_schedule_configs(12, seed=1):
            schedule = fault_schedule_semantics(config.schedule).build(
                **dict(config.params)
            )
            horizon = schedule.last_change_round()
            if horizon is not None:
                assert config.max_rounds > horizon

    def test_seeded_schedule_sweep_holds_everywhere(self):
        results = run_schedule_fuzz(count=len(ALL_SCHEDULES) + 1, seed=7)
        failures = [
            f"{config.label()}: {failure}"
            for config, config_failures in results
            for failure in config_failures
        ]
        assert not failures, "\n".join(failures)
        assert {config.schedule for config, _ in results} == set(ALL_SCHEDULES)


@pytest.mark.parametrize(
    "strategy",
    ["phase-king-skew", "adaptive-split", "random-state", "split-state"],
)
def test_randomized_strategies_match_scalar_distributions(strategy):
    """KS closeness of the stabilisation-time distributions (fixed seeds).

    The 0.3 bound sits above the expected KS distance of two 60-sample
    draws from one distribution (≈ 0.25 at the 0.5% level) and far below a
    genuinely shifted distribution; observed values are ≤ 0.09.
    """
    ks, trials = check_distributions(strategy, trials=60, seed=3)
    assert trials == 60
    assert ks < 0.3, f"{strategy}: KS={ks:.3f}"
