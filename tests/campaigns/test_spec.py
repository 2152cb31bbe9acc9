"""Unit tests for campaign and run specifications."""

from __future__ import annotations

import pytest

from repro.campaigns.spec import AlgorithmSpec, CampaignSpec, RunSpec
from repro.core.errors import ParameterError, SimulationError
from repro.counters.naive import NaiveMajorityCounter
from repro.network.adversary import CrashAdversary, NoAdversary
from repro.semantics import build_algorithm
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
        # A pre-built algorithm resolves to itself; the adversary is always
        # built from its strategy name over the run's faulty set.
        algorithm = NaiveMajorityCounter(n=4, c=2, claimed_resilience=1)
        spec = RunSpec(run_id="r0", algorithm=algorithm, adversary="crash", faulty=(3,))
        assert spec.resolve_algorithm() is algorithm
        adversary = spec.resolve_adversary()
        assert isinstance(adversary, CrashAdversary)
        assert adversary.faulty == frozenset({3})
        assert spec.resolve_adversary() is not adversary
        assert spec.adversary_label() == "crash"
        assert spec.algorithm_label() == algorithm.info.name

    def test_adversary_instance_rejected(self):
        with pytest.raises(ParameterError, match="strategy name.*CrashAdversary"):
            RunSpec(
                run_id="r0",
                algorithm=AlgorithmSpec.create("trivial", {"c": 3}),
                adversary=CrashAdversary([0]),
                faulty=(0,),
            )

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
            # coordinate under the campaign seed; the run id ends in the
            # repetition.
            repetition = int(run.run_id.rsplit("/r", 1)[1])
            reference = derive_rng(
                5,
                "campaign",
                run.algorithm.label(),
                run.adversary,
                len(run.faulty),
                repetition,
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
            {"min_tail": 0},
            {"loss": -0.1},
            {"loss": 1.0},
            {"delay": -1},
            {"fault_schedule": "no-such-schedule", "adversaries": ("none",)},
            {"fault_schedule": "churn", "fault_schedule_params": (("onset", 5),),
             "adversaries": ("none",)},
            {"algorithms": (AlgorithmSpec.create("bogus"),)},
            {"algorithms": (AlgorithmSpec.create("trivial", {"bogus": 1}),)},
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ParameterError):
            small_campaign(**overrides)

    def test_a_bad_algorithm_is_reported_before_a_bad_adversary(self):
        with pytest.raises(ParameterError) as excinfo:
            small_campaign(
                algorithms=(AlgorithmSpec.create("bogus"),), adversaries=("bogus2",)
            )
        assert str(excinfo.value) == (
            "unknown algorithm 'bogus'; registered algorithms: corollary1, "
            "figure2, naive-majority, pseudo-random-boosted, "
            "randomized-follow-majority, sampled-boosted, trivial"
        )

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"runs_per_setting": 2.5}, "runs_per_setting must be an integer, got 2.5"),
            ({"seed": None}, "seed must be an integer, got None"),
            ({"delay": True}, "delay must be an integer, got True"),
            ({"stop_after_agreement": "5"},
             "stop_after_agreement must be an integer or null, got '5'"),
            ({"num_faults": (None, "auto")},
             "num_faults entry must be an integer or null, got 'auto'"),
            ({"loss": "0.1"}, "loss must be a number, got '0.1'"),
        ],
    )
    def test_a_wrongly_typed_field_names_the_campaign_key_and_value(
        self, overrides, message
    ):
        with pytest.raises(ParameterError) as excinfo:
            small_campaign(**overrides)
        assert str(excinfo.value) == f"campaign 'unit': {message}"

    def test_numpy_numbers_are_accepted(self):
        np = pytest.importorskip("numpy")
        spec = small_campaign(
            runs_per_setting=np.int64(2),
            num_faults=(np.int32(1),),
            loss=np.float64(0.0),
        )
        assert len(spec.expand()) == 2 * 2

    def test_unknown_strategy_lists_the_registered_adversaries(self):
        with pytest.raises(ParameterError) as excinfo:
            small_campaign(adversaries=("crash", "bogus"))
        assert str(excinfo.value) == (
            "unknown adversary 'bogus'; registered adversaries: adaptive-split, "
            "crash, fixed-state, mimic, none, phase-king-skew, random-state, "
            "split-state"
        )


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
        # The model is the algorithm's, so the campaign-level check runs per
        # algorithm when the grid expands.
        message = (
            "campaign 'pull-unit': perturbations (loss/delay/fault schedules) "
            "apply to the broadcast model only"
        )
        with pytest.raises(ParameterError) as excinfo:
            pulling_campaign(loss=0.1).expand()
        assert str(excinfo.value) == message
        with pytest.raises(ParameterError, match="broadcast model only"):
            pulling_campaign(adversaries=("none",), fault_schedule="churn").expand()
        # A mixed grid fails on its pulling algorithm only.
        with pytest.raises(ParameterError, match="broadcast model only"):
            pulling_campaign(
                algorithms=(
                    small_campaign().algorithms[0],
                    AlgorithmSpec.create("sampled-boosted", {"sample_size": 2}),
                ),
                delay=1,
            ).expand()
        # A hand-built perturbed pulling run is rejected too.
        with pytest.raises(ParameterError, match="broadcast model only"):
            RunSpec(
                run_id="r0",
                algorithm=AlgorithmSpec.create("sampled-boosted", {"sample_size": 2}),
                loss=0.1,
            )

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
    )
    settings.update(overrides)
    return CampaignSpec(**settings)


class TestPullingModelAxis:
    """The algorithm decides the model; the grid never states it."""

    def test_expand_propagates_model(self):
        runs = pulling_campaign().expand()
        assert len(runs) == 2
        assert all(run.model == "pulling" for run in runs)

    def test_dict_round_trip_keeps_model(self):
        spec = pulling_campaign()
        data = spec.to_dict()
        assert "model" not in data
        rebuilt = CampaignSpec.from_dict(data)
        assert rebuilt == spec
        assert rebuilt.expand() == spec.expand()
        assert all(run.model == "pulling" for run in rebuilt.expand())

    def test_from_dict_defaults_to_broadcast(self):
        # Campaign files without a 'model' key run broadcast algorithms in
        # the broadcast model.
        data = small_campaign().to_dict()
        assert "model" not in data
        assert all(
            run.model == "broadcast" for run in CampaignSpec.from_dict(data).expand()
        )

    def test_older_file_stating_pulling_model_loads(self):
        # Older definition files state the model; the key is ignored, so a
        # file written for a pulling grid loads and expands to the same runs.
        spec = pulling_campaign()
        data = {**spec.to_dict(), "model": "pulling"}
        rebuilt = CampaignSpec.from_dict(data)
        assert rebuilt == spec
        assert rebuilt.expand() == spec.expand()
        assert all(run.model == "pulling" for run in rebuilt.expand())

    def test_older_file_stating_broadcast_model_loads(self):
        # Likewise an older broadcast file with "model": "broadcast".
        spec = small_campaign()
        data = {**spec.to_dict(), "model": "broadcast"}
        rebuilt = CampaignSpec.from_dict(data)
        assert rebuilt == spec
        assert rebuilt.expand() == spec.expand()
        assert all(run.model == "broadcast" for run in rebuilt.expand())

    def test_older_file_with_metadata_loads(self):
        # Older definition files carry free-form "metadata" tags nothing
        # read; the key is ignored.
        spec = small_campaign()
        data = {**spec.to_dict(), "metadata": {"owner": "ci"}}
        assert "metadata" not in spec.to_dict()
        rebuilt = CampaignSpec.from_dict(data)
        assert rebuilt == spec
        assert rebuilt.expand() == spec.expand()

    def test_model_is_not_a_constructor_field(self):
        # The model is no longer a constructor field.
        with pytest.raises(TypeError, match="model"):
            RunSpec(
                run_id="r0",
                algorithm=AlgorithmSpec.create("trivial", {"c": 3}),
                model="gossip",
            )
        with pytest.raises(TypeError, match="model"):
            small_campaign(model="pulling")


class TestRunSpecModel:
    """``RunSpec.model`` is derived from the algorithm, never stated."""

    @pytest.mark.parametrize(
        "algorithm, model",
        [
            (lambda: AlgorithmSpec.create("figure2"), "broadcast"),
            (lambda: AlgorithmSpec.create("sampled-boosted"), "pulling"),
            (lambda: build_algorithm("pseudo-random-boosted", sample_size=3), "pulling"),
            (lambda: NaiveMajorityCounter(n=4, c=2, claimed_resilience=1), "broadcast"),
            # An unknown name still fails, when the run builds the algorithm.
            (lambda: AlgorithmSpec.create("no-such-algorithm"), "broadcast"),
        ],
        ids=["named-broadcast", "named-pulling", "pulling-instance",
             "broadcast-instance", "unknown-name"],
    )
    def test_model_follows_the_algorithm(self, algorithm, model):
        assert RunSpec(run_id="r0", algorithm=algorithm()).model == model
