"""End-to-end scalar execution of fault schedules and perturbed message planes."""

from __future__ import annotations

from repro.faults.schedule import (
    Perturbations,
    build_churn_schedule,
    build_late_adversary_schedule,
)
from repro.network.adversary import NoAdversary
from repro.network.simulator import BroadcastModel, SimulationConfig, run_simulation
from repro.network.stabilization import recovery_round
from repro.obs import Observer
from repro.obs.events import FaultInjected, NodeRecovered
from repro.semantics import build_algorithm


def algorithm():
    return build_algorithm("naive-majority", n=6, c=3, claimed_resilience=1)


def run(perturbations, seed=11, max_rounds=60, window=None, observer=None):
    return run_simulation(
        algorithm(),
        config=SimulationConfig(
            max_rounds=max_rounds,
            stop_after_agreement=window,
            seed=seed,
            perturbations=perturbations,
        ),
        observer=observer,
    )


class TestChurnMidRun:
    def test_churn_emits_events_and_anchors_recovery(self):
        schedule = build_churn_schedule(start=5, down=4, adversarial=4)
        observer = Observer.recording()
        trace = run(Perturbations(schedule=schedule), observer=observer)

        injected = observer.buffer.of_kind(FaultInjected)
        recovered = observer.buffer.of_kind(NodeRecovered)
        # One cohort: corrupted once at the crash window, recovered once at
        # the rejoin; the crash -> adversarial handover keeps the same nodes
        # so it is not an injection event.
        assert [event.round_index for event in injected] == [5]
        assert injected[0].strategy == "crash"
        assert len(injected[0].nodes) == 1
        assert [event.round_index for event in recovered] == [13]
        assert recovered[0].nodes == injected[0].nodes

        assert trace.metadata["last_perturbation_round"] == 13
        assert trace.metadata["perturbations"]["schedule"]["name"] == "churn"
        result = recovery_round(trace)
        assert result.recovered
        assert result.re_stabilization_time is not None
        assert (
            result.recovery_round
            == 13 + result.re_stabilization_time
        )

    def test_faulty_nodes_drop_out_of_outputs_and_rejoin(self):
        schedule = build_churn_schedule(start=5, down=4, adversarial=4)
        observer = Observer.recording()
        trace = run(Perturbations(schedule=schedule), observer=observer)
        (node,) = observer.buffer.of_kind(FaultInjected)[0].nodes
        assert node in trace.rounds[4].outputs
        assert node not in trace.rounds[5].outputs
        assert node not in trace.rounds[12].outputs
        assert node in trace.rounds[13].outputs

    def test_fixed_seed_replay_is_bit_identical(self):
        schedule = build_churn_schedule(start=5, down=4, adversarial=4)
        first = run(Perturbations(schedule=schedule), seed=23)
        second = run(Perturbations(schedule=schedule), seed=23)
        assert first == second


class TestPerturbationAfterAgreement:
    def test_late_adversary_forces_re_stabilization_measurement(self):
        schedule = build_late_adversary_schedule(start=30, duration=6)
        trace = run(Perturbations(schedule=schedule), max_rounds=80)
        assert trace.metadata["last_perturbation_round"] == 36
        result = recovery_round(trace)
        assert result.recovered
        # The anchor is the rejoin round, so the measurement never credits
        # the long pre-perturbation stable prefix.
        assert result.recovery_round >= 36

    def test_open_window_has_no_recovery_phase(self):
        schedule = build_late_adversary_schedule(start=10, duration=None)
        assert schedule.last_change_round() is None
        trace = run(Perturbations(schedule=schedule), max_rounds=40)
        # The only transition is the injection; nothing ever rejoins.
        assert trace.metadata["last_perturbation_round"] == 10


class TestStopGate:
    def test_scheduled_runs_cannot_stop_before_the_last_window(self):
        schedule = build_churn_schedule(start=20, down=6, adversarial=6)
        trace = run(
            Perturbations(schedule=schedule), max_rounds=80, window=2
        )
        # Agreement holds long before round 20, but the stop is gated past
        # the rejoin at round 32 so the full schedule executes.
        assert trace.num_rounds > 32
        assert trace.metadata["last_perturbation_round"] == 32
        baseline = run(None, max_rounds=80, window=2)
        assert baseline.num_rounds < 20

    def test_gate_is_the_schedule_last_change_round(self):
        schedule = build_churn_schedule(start=20, down=6, adversarial=6)
        model = BroadcastModel(
            algorithm(), NoAdversary(), Perturbations(schedule=schedule)
        )
        assert model.stop_gate() == schedule.last_change_round() == 32
        assert BroadcastModel(algorithm(), NoAdversary()).stop_gate() == 0


class TestMessagePlane:
    def test_perturbed_run_is_deterministic_and_stamped(self):
        perturbations = Perturbations(loss=0.2, delay=1)
        first = run(perturbations, seed=7)
        second = run(perturbations, seed=7)
        assert first == second
        assert first.metadata["perturbations"] == {"loss": 0.2, "delay": 1}
        # Message-plane knobs alone are not fault injections.
        assert "last_perturbation_round" not in first.metadata

    def test_inactive_perturbations_match_unperturbed_runs_bit_for_bit(self):
        baseline = run(None, seed=31)
        inactive = run(Perturbations(), seed=31)
        assert baseline == inactive
        assert "perturbations" not in inactive.metadata

    def test_mild_loss_still_stabilizes(self):
        trace = run(Perturbations(loss=0.1), seed=3, max_rounds=120)
        values = trace.agreed_values()
        # Occasionally stale links slow convergence but the counter locks on.
        assert all(value is not None for value in values[-10:])

    def test_heavy_delay_degrades_but_stays_well_formed(self):
        trace = run(Perturbations(loss=0.15, delay=2), seed=3, max_rounds=120)
        values = trace.agreed_values()
        # Permanently staggered links make every-round global agreement
        # unattainable; the run must still be well-formed (outputs in range,
        # intermittent agreement) rather than crash or freeze.
        assert any(value is not None for value in values)
        assert all(
            0 <= output < 3
            for record in trace.rounds
            for output in record.outputs.values()
        )
