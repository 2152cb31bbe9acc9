"""Unit tests for campaign and run specifications."""

from __future__ import annotations

import pytest

from repro.campaigns.spec import AlgorithmSpec, CampaignSpec, RunSpec
from repro.core.errors import ParameterError, SimulationError
from repro.counters.naive import NaiveMajorityCounter
from repro.network.adversary import CrashAdversary, NoAdversary
from repro.util.rng import derive_rng


class TestAlgorithmSpec:
    def test_build_from_registry(self):
        spec = AlgorithmSpec.create("naive-majority", {"n": 5, "c": 3})
        algorithm = spec.build()
        assert algorithm.n == 5
        assert algorithm.c == 3

    def test_label_and_dict_round_trip(self):
        spec = AlgorithmSpec.create("figure2", {"levels": 1, "c": 2})
        assert spec.label() == "figure2(c=2,levels=1)"
        assert AlgorithmSpec.from_dict(spec.to_dict()) == spec

    def test_params_are_order_insensitive(self):
        one = AlgorithmSpec.create("trivial", {"c": 4})
        two = AlgorithmSpec.create("trivial", dict([("c", 4)]))
        assert one == two

    def test_unhashable_parameter_value_rejected_eagerly(self):
        # A list parameter used to be accepted here and only exploded later
        # when the frozen dataclass was hashed inside the executor.
        with pytest.raises(ParameterError, match="'sample_sizes'.*unhashable"):
            AlgorithmSpec.create("trivial", {"sample_sizes": [2, 4]})
        with pytest.raises(ParameterError, match="list"):
            AlgorithmSpec.create("trivial", {"sample_sizes": [2, 4]})
        # Hashable values (including tuples) stay accepted — and hashable.
        spec = AlgorithmSpec.create("trivial", {"c": 4, "blocks": (0, 1)})
        assert hash(spec) == hash(spec)


class TestRunSpec:
    def test_resolves_declarative_algorithm_and_adversary(self):
        spec = RunSpec(
            run_id="r0",
            algorithm=AlgorithmSpec.create(
                "naive-majority", {"n": 4, "c": 2, "claimed_resilience": 1}
            ),
            adversary="crash",
            faulty=(3,),
        )
        assert spec.resolve_algorithm().n == 4
        assert isinstance(spec.resolve_adversary(), CrashAdversary)
        assert spec.algorithm_label().startswith("naive-majority(")
        assert spec.adversary_label() == "crash"

    def test_resolves_instances_directly(self):
        algorithm = NaiveMajorityCounter(n=4, c=2, claimed_resilience=1)
        adversary = CrashAdversary([3])
        spec = RunSpec(run_id="r0", algorithm=algorithm, adversary=adversary)
        assert spec.resolve_algorithm() is algorithm
        assert spec.resolve_adversary() is adversary
        assert spec.adversary_label() == "CrashAdversary"

    def test_no_adversary_means_fault_free(self):
        spec = RunSpec(
            run_id="r0", algorithm=AlgorithmSpec.create("trivial", {"c": 3})
        )
        assert isinstance(spec.resolve_adversary(), NoAdversary)

    def test_faulty_without_adversary_rejected(self):
        spec = RunSpec(
            run_id="r0",
            algorithm=AlgorithmSpec.create("trivial", {"c": 3}),
            faulty=(0,),
        )
        with pytest.raises(SimulationError):
            spec.resolve_adversary()


def small_campaign(**overrides) -> CampaignSpec:
    settings = dict(
        name="unit",
        algorithms=(
            AlgorithmSpec.create(
                "naive-majority", {"n": 6, "c": 3, "claimed_resilience": 1}
            ),
        ),
        adversaries=("crash", "random-state"),
        runs_per_setting=3,
        seed=5,
        max_rounds=50,
        stop_after_agreement=4,
    )
    settings.update(overrides)
    return CampaignSpec(**settings)


class TestCampaignSpec:
    def test_expand_size_and_unique_ids(self):
        runs = small_campaign().expand()
        assert len(runs) == 2 * 3  # adversaries x repetitions
        assert len({run.run_id for run in runs}) == len(runs)

    def test_expand_is_deterministic(self):
        first = small_campaign().expand()
        second = small_campaign().expand()
        assert first == second

    def test_expand_pins_faulty_sets_and_seeds(self):
        for run in small_campaign().expand():
            assert len(run.faulty) == 1  # num_faults defaults to f=1
            assert all(0 <= node < 6 for node in run.faulty)
            assert run.max_rounds == 50
            # Each run's stream is the one derive_rng gives its grid
            # coordinate under the campaign seed.
            reference = derive_rng(
                5,
                "campaign",
                run.algorithm.label(),
                run.adversary,
                len(run.faulty),
                dict(run.tags)["repetition"],
            )
            assert run.faulty == tuple(sorted(reference.sample(range(6), 1)))
            assert run.sim_seed == reference.getrandbits(32)

    def test_none_strategy_forces_zero_faults(self):
        runs = small_campaign(adversaries=("none",)).expand()
        assert all(run.faulty == () for run in runs)
        assert all(run.adversary is None for run in runs)

    def test_duplicate_grid_coordinates_collapse(self):
        # None means "the algorithm's f", which is 1 here — same runs as f=1.
        runs = small_campaign(num_faults=(None, 1)).expand()
        assert len(runs) == 2 * 3

    def test_spread_pattern_is_deterministic(self):
        runs = small_campaign(
            fault_pattern="spread", adversaries=("crash",)
        ).expand()
        assert {run.faulty for run in runs} == {(0,)}

    def test_excessive_faults_rejected(self):
        with pytest.raises(ParameterError):
            small_campaign(num_faults=(2,)).expand()

    def test_dict_round_trip(self):
        spec = small_campaign(num_faults=(None, 1))
        rebuilt = CampaignSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert rebuilt.expand() == spec.expand()

    def test_active_strategy_with_zero_faults_rejected(self):
        # An active adversary with no nodes to control would silently
        # duplicate the 'none' rows of the grid.
        with pytest.raises(ParameterError, match="crash"):
            small_campaign(num_faults=(0,)).expand()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"name": ""},
            {"algorithms": ()},
            {"adversaries": ()},
            {"adversaries": ("no-such-strategy",)},
            {"runs_per_setting": 0},
            {"max_rounds": 0},
            {"fault_pattern": "clustered"},
            {"model": "gossip"},
            {"loss": -0.1},
            {"loss": 1.0},
            {"delay": -1},
            {"fault_schedule": "no-such-schedule", "adversaries": ("none",)},
            {"fault_schedule": "churn", "fault_schedule_params": (("onset", 5),),
             "adversaries": ("none",)},
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ParameterError):
            small_campaign(**overrides)


class TestPerturbationAxes:
    def test_loss_and_delay_propagate_to_every_run(self):
        runs = small_campaign(loss=0.1, delay=2).expand()
        assert runs
        for run in runs:
            assert run.loss == 0.1 and run.delay == 2
            assert run.perturbed
            perturbations = run.resolve_perturbations()
            assert perturbations.loss == 0.1
            assert perturbations.delay == 2
            assert perturbations.schedule is None

    def test_unperturbed_runs_resolve_no_perturbations(self):
        for run in small_campaign().expand():
            assert not run.perturbed
            assert run.resolve_perturbations() is None

    def test_fault_schedule_requires_fault_free_baseline(self):
        with pytest.raises(ParameterError, match="'none'"):
            small_campaign(fault_schedule="churn")

    def test_fault_schedule_expands_and_resolves(self):
        runs = small_campaign(
            adversaries=("none",),
            fault_schedule="churn",
            fault_schedule_params=(("start", 3), ("down", 2)),
        ).expand()
        assert runs
        for run in runs:
            assert run.fault_schedule == "churn"
            assert run.faulty == ()
            perturbations = run.resolve_perturbations()
            assert perturbations.schedule.name == "churn"
            assert perturbations.schedule.windows[0].start == 3

    def test_perturbations_rejected_for_pulling_model(self):
        with pytest.raises(ParameterError, match="broadcast"):
            pulling_campaign(loss=0.1)
        with pytest.raises(ParameterError, match="broadcast"):
            pulling_campaign(adversaries=("none",), fault_schedule="churn")

    def test_dict_round_trip_keeps_perturbation_axes(self):
        spec = small_campaign(
            adversaries=("none",),
            loss=0.05,
            delay=1,
            fault_schedule="late-adversary",
            fault_schedule_params=(("start", 12),),
        )
        rebuilt = CampaignSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert rebuilt.expand() == spec.expand()


def pulling_campaign(**overrides) -> CampaignSpec:
    settings = dict(
        name="pull-unit",
        algorithms=(AlgorithmSpec.create("sampled-boosted", {"sample_size": 2}),),
        adversaries=("crash",),
        num_faults=(1,),
        runs_per_setting=2,
        seed=3,
        max_rounds=20,
        stop_after_agreement=4,
        model="pulling",
    )
    settings.update(overrides)
    return CampaignSpec(**settings)


class TestPullingModelAxis:
    def test_expand_propagates_model(self):
        runs = pulling_campaign().expand()
        assert len(runs) == 2
        assert all(run.model == "pulling" for run in runs)

    def test_dict_round_trip_keeps_model(self):
        spec = pulling_campaign()
        rebuilt = CampaignSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert rebuilt.model == "pulling"
        assert rebuilt.expand() == spec.expand()

    def test_from_dict_defaults_to_broadcast(self):
        # Pre-model-axis campaign files have no 'model' key.
        data = small_campaign().to_dict()
        data.pop("model")
        assert CampaignSpec.from_dict(data).model == "broadcast"

    def test_pulling_algorithm_in_broadcast_grid_rejected(self):
        with pytest.raises(ParameterError, match="pulling-model algorithm"):
            pulling_campaign(model="broadcast").expand()

    def test_broadcast_algorithm_in_pulling_grid_rejected(self):
        with pytest.raises(ParameterError, match="broadcast-model algorithm"):
            small_campaign(model="pulling").expand()

    def test_run_spec_rejects_unknown_model(self):
        with pytest.raises(ParameterError):
            RunSpec(
                run_id="r0",
                algorithm=AlgorithmSpec.create("trivial", {"c": 3}),
                model="gossip",
            )
