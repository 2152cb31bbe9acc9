"""Unit tests for declarative fault schedules and the perturbation surface."""

from __future__ import annotations

import pytest

from repro.core.errors import ParameterError
from repro.faults.schedule import (
    FaultSchedule,
    FaultWindow,
    Perturbations,
    build_churn_schedule,
    build_late_adversary_schedule,
    build_rolling_schedule,
)
from repro.network.adversary import build_adversary
from repro.semantics import build_algorithm


def algorithm():
    return build_algorithm("naive-majority", n=6, c=3, claimed_resilience=1)


class TestFaultWindow:
    def test_covers_half_open_interval(self):
        window = FaultWindow(start=5, duration=3, strategy="crash")
        assert not window.covers(4)
        assert window.covers(5)
        assert window.covers(7)
        assert not window.covers(8)
        assert window.end == 8

    def test_open_window_never_ends(self):
        window = FaultWindow(start=2, duration=None, strategy="crash")
        assert window.end is None
        assert window.covers(10_000)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"start": -1, "duration": 1, "strategy": "crash"},
            {"start": 0, "duration": 0, "strategy": "crash"},
            {"start": 0, "duration": 1, "strategy": "none"},
            {"start": 0, "duration": 1, "strategy": "crash", "num_faults": 0},
        ],
    )
    def test_invalid_windows_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            FaultWindow(**kwargs)

    def test_params_are_frozen_sorted_pairs(self):
        window = FaultWindow(
            start=0, duration=1, strategy="fixed-state", params={"state": 2}
        )
        assert window.params == (("state", 2),)
        assert window == FaultWindow.from_dict(window.to_dict())


class TestFaultSchedule:
    def test_overlapping_windows_rejected(self):
        with pytest.raises(ParameterError, match="overlap"):
            FaultSchedule(
                name="bad",
                windows=(
                    FaultWindow(start=0, duration=5, strategy="crash"),
                    FaultWindow(start=3, duration=2, strategy="crash"),
                ),
            )

    def test_open_window_must_be_last(self):
        with pytest.raises(ParameterError, match="overlap"):
            FaultSchedule(
                name="bad",
                windows=(
                    FaultWindow(start=0, duration=None, strategy="crash"),
                    FaultWindow(start=9, duration=1, strategy="crash"),
                ),
            )

    def test_empty_schedule_rejected(self):
        with pytest.raises(ParameterError, match="no windows"):
            FaultSchedule(name="bad", windows=())

    def test_window_at_and_gaps(self):
        schedule = build_churn_schedule(start=5, down=3, adversarial=4)
        assert schedule.window_at(4) is None
        assert schedule.window_at(5).strategy == "crash"
        assert schedule.window_at(8).strategy == "random-state"
        assert schedule.window_at(12) is None

    def test_last_change_round_closed_and_open(self):
        closed = build_churn_schedule(start=5, down=3, adversarial=4)
        assert closed.last_change_round() == 12
        never = build_late_adversary_schedule(start=10, duration=None)
        assert never.last_change_round() is None

    def test_validate_rejects_unknown_strategy_and_excess_faults(self):
        schedule = FaultSchedule(
            name="bad",
            windows=(FaultWindow(start=0, duration=1, strategy="no-such"),),
        )
        with pytest.raises(ParameterError, match="unknown strategy"):
            schedule.validate()
        greedy = FaultSchedule(
            name="greedy",
            windows=(
                FaultWindow(start=0, duration=1, strategy="crash", num_faults=3),
            ),
        )
        with pytest.raises(ParameterError, match="only tolerates f=1"):
            greedy.validate(algorithm())

    def test_round_trips_through_dict(self):
        schedule = build_rolling_schedule(period=8, rotations=2)
        assert FaultSchedule.from_dict(schedule.to_dict()) == schedule


class TestPresets:
    def test_churn_shares_one_cohort(self):
        schedule = build_churn_schedule(start=5, down=6, adversarial=6)
        crash, adversarial = schedule.windows
        assert crash.strategy == "crash"
        assert adversarial.strategy == "random-state"
        assert crash.cohort == adversarial.cohort == 0
        assert adversarial.start == crash.end

    def test_rolling_rotations_are_contiguous_fresh_cohorts(self):
        schedule = build_rolling_schedule(start=0, period=12, rotations=3)
        assert len(schedule.windows) == 3
        assert [window.start for window in schedule.windows] == [0, 12, 24]
        assert all(window.cohort is None for window in schedule.windows)

    def test_preset_validation(self):
        with pytest.raises(ParameterError):
            build_churn_schedule(down=0)
        with pytest.raises(ParameterError):
            build_rolling_schedule(period=0)
        with pytest.raises(ParameterError):
            build_rolling_schedule(rotations=0)


class TestPerturbations:
    def test_inactive_by_default(self):
        assert not Perturbations().active
        assert Perturbations(loss=0.1).active
        assert Perturbations(delay=1).active
        assert Perturbations(schedule=build_churn_schedule()).active

    def test_message_plane_flag_excludes_schedule(self):
        scheduled = Perturbations(schedule=build_churn_schedule())
        assert not scheduled.message_plane_active
        assert Perturbations(loss=0.2).message_plane_active

    @pytest.mark.parametrize("kwargs", [{"loss": -0.1}, {"loss": 1.0}, {"delay": -1}])
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            Perturbations(**kwargs)

    def test_schedule_requires_fault_free_baseline(self):
        perturbations = Perturbations(schedule=build_churn_schedule())
        perturbations.validate(algorithm(), build_adversary("none", []))
        with pytest.raises(ParameterError, match="fault-free"):
            perturbations.validate(algorithm(), build_adversary("crash", [0]))

    def test_describe_and_round_trip(self):
        bare = Perturbations(loss=0.1, delay=2)
        assert bare.describe() == {"loss": 0.1, "delay": 2}
        scheduled = Perturbations(schedule=build_churn_schedule())
        assert scheduled.describe()["schedule"]["name"] == "churn"
        assert Perturbations.from_dict(scheduled.to_dict()) == scheduled
