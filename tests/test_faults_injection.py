"""Unit tests for repro.faults.injector and repro.faults.campaign."""

import numpy as np
import pytest

from repro.faults import (
    ActivationSchedule,
    AdditiveFault,
    BenignAttack,
    CampaignSpec,
    DynamicCreationAttack,
    FaultInjector,
    StuckAtFault,
    choose_compromised,
)
from repro.faults import injector as injector_module
from repro.sensornet import ConstantEnvironment, SensorMessage


def msg(sensor_id: int, t: float = 0.0) -> SensorMessage:
    return SensorMessage(sensor_id=sensor_id, timestamp=t, attributes=(20.0, 75.0))


class TestFaultInjector:
    def test_untargeted_sensors_pass_through(self):
        injector = FaultInjector(environment=ConstantEnvironment())
        injector.add(StuckAtFault(value=(0.0, 0.0)), [3])
        out = injector(msg(1))
        assert out.attributes == (20.0, 75.0)

    def test_targeted_sensor_is_corrupted(self):
        injector = FaultInjector(environment=ConstantEnvironment())
        injector.add(StuckAtFault(value=(0.0, 0.0)), [3])
        out = injector(msg(3))
        assert out.attributes == (0.0, 0.0)

    def test_schedule_gates_corruption(self):
        injector = FaultInjector(environment=ConstantEnvironment())
        injector.add(
            StuckAtFault(value=(0.0, 0.0)),
            [3],
            ActivationSchedule(start_minutes=100.0),
        )
        early = injector(msg(3, t=50.0))
        late = injector(msg(3, t=150.0))
        assert early.attributes == (20.0, 75.0)
        assert late.attributes == (0.0, 0.0)

    def test_first_matching_injection_wins(self):
        injector = FaultInjector(environment=ConstantEnvironment())
        injector.add(StuckAtFault(value=(1.0, 1.0)), [3])
        injector.add(StuckAtFault(value=(2.0, 2.0)), [3])
        assert injector(msg(3)).attributes == (1.0, 1.0)

    def test_events_log_records_corruptions(self):
        injector = FaultInjector(environment=ConstantEnvironment())
        injector.add(StuckAtFault(value=(0.0, 0.0)), [3])
        injector(msg(3, t=5.0))
        injector(msg(1, t=5.0))
        assert len(injector.events) == 1
        event = injector.events[0]
        assert event.sensor_id == 3
        assert event.kind == "stuck_at"
        assert not event.malicious

    def test_adversary_sees_true_environment(self):
        env = ConstantEnvironment(attributes=(13.0, 93.0))
        injector = FaultInjector(environment=env)
        injector.add(
            DynamicCreationAttack(target=(14.0, 56.0), fraction=0.4), [0]
        )
        report = injector(msg(0)).vector
        mean = 0.6 * np.array([13.0, 93.0]) + 0.4 * report
        assert np.allclose(mean, [14.0, 56.0], atol=1e-9)

    def test_corrupted_sensor_ids(self):
        injector = FaultInjector(environment=ConstantEnvironment())
        injector.add(StuckAtFault(), [1, 2])
        injector.add(AdditiveFault(), [5])
        assert injector.corrupted_sensor_ids() == {1, 2, 5}

    def test_ground_truth_kind(self):
        injector = FaultInjector(environment=ConstantEnvironment())
        injector.add(AdditiveFault(), [5])
        assert injector.ground_truth_kind(5) == "additive"
        assert injector.ground_truth_kind(0) is None

    def test_rejects_empty_sensor_set(self):
        injector = FaultInjector(environment=ConstantEnvironment())
        with pytest.raises(ValueError):
            injector.add(StuckAtFault(), [])


def two_fault_injector() -> FaultInjector:
    injector = FaultInjector(environment=ConstantEnvironment())
    injector.add(StuckAtFault(value=(0.0, 0.0)), [2])
    injector.add(AdditiveFault(), [0])
    return injector


def report_grid(start: float):
    """Three motes, four ticks of identical reports starting at ``start``."""
    tick_times = start + 5.0 * np.arange(4)
    values = np.tile(np.array([20.0, 75.0]), (4, 3, 1))
    return tick_times, np.arange(3), values


def event_key(event):
    return (event.sensor_id, event.timestamp, event.kind, event.malicious)


class TestEventLog:
    def test_scalar_and_columnar_entries_read_back_in_call_order(self):
        injector = two_fault_injector()
        oracle = two_fault_injector()
        # Call order, not time order: the first scalar report is the latest.
        calls = [
            ("scalar", 200.0),
            ("columnar", 0.0),
            ("scalar", 50.0),
            ("columnar", 100.0),
        ]
        for how, start in calls:
            if how == "scalar":
                injector(msg(2, t=start))
                oracle(msg(2, t=start))
                continue
            tick_times, sensor_ids, values = report_grid(start)
            injector.apply_columnar(tick_times, sensor_ids, values)
            for t in tick_times:
                for s in sensor_ids:
                    oracle(msg(int(s), t=float(t)))
        assert injector.events == oracle.events
        assert [event_key(e) for e in injector.events[:3]] == [
            (2, 200.0, "stuck_at", False),
            (0, 0.0, "additive", False),
            (2, 0.0, "stuck_at", False),
        ]
        assert [e.timestamp for e in injector.events] == [
            200.0, 0.0, 0.0, 5.0, 5.0, 10.0, 10.0, 15.0, 15.0,
            50.0, 100.0, 100.0, 105.0, 105.0, 110.0, 110.0, 115.0, 115.0,
        ]

    def test_events_by_sensor_groups_columnar_entries(self):
        injector = two_fault_injector()
        injector.apply_columnar(*report_grid(0.0))
        injector(msg(0, t=30.0))
        grouped = injector.events_by_sensor()
        assert sorted(grouped) == [0, 2]
        assert [e.timestamp for e in grouped[0]] == [0.0, 5.0, 10.0, 15.0, 30.0]
        assert {e.kind for e in grouped[0]} == {"additive"}
        assert [e.timestamp for e in grouped[2]] == [0.0, 5.0, 10.0, 15.0]

    def test_apply_columnar_defers_building_log_objects(self, monkeypatch):
        built = []

        class CountingEvent(injector_module.CorruptionEvent):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(injector_module, "CorruptionEvent", CountingEvent)
        injector = two_fault_injector()
        injector.apply_columnar(*report_grid(0.0))
        injector.apply_columnar(*report_grid(100.0))
        assert built == []
        events = injector.events
        assert len(built) == len(events) == 16
        assert injector.events is events
        assert len(built) == 16


class TestCampaignSpec:
    def test_ground_truth_first_plant_wins(self):
        campaign = CampaignSpec()
        campaign.plant(StuckAtFault(), [1])
        campaign.plant(AdditiveFault(), [1, 2])
        truth = campaign.ground_truth()
        assert truth == {1: "stuck_at", 2: "additive"}

    def test_malicious_vs_faulty_partition(self):
        campaign = CampaignSpec()
        campaign.plant(StuckAtFault(), [1])
        campaign.plant(BenignAttack(), [2, 3])
        assert campaign.faulty_sensor_ids() == [1]
        assert campaign.malicious_sensor_ids() == [2, 3]

    def test_build_injector_materialises_entries(self):
        campaign = CampaignSpec()
        campaign.plant(StuckAtFault(value=(0.0, 0.0)), [4])
        injector = campaign.build_injector(ConstantEnvironment())
        assert injector(msg(4)).attributes == (0.0, 0.0)

    def test_plant_is_chainable(self):
        campaign = CampaignSpec().plant(StuckAtFault(), [1]).plant(
            AdditiveFault(), [2]
        )
        assert len(campaign.entries) == 2


class TestChooseCompromised:
    def test_one_third_of_ten_is_four_with_ceil(self):
        chosen = choose_compromised(range(10), 1.0 / 3.0, seed=0)
        assert len(chosen) == 4

    def test_deterministic_given_seed(self):
        assert choose_compromised(range(10), 0.3, seed=5) == choose_compromised(
            range(10), 0.3, seed=5
        )

    def test_at_least_one_chosen(self):
        assert len(choose_compromised(range(10), 0.01, seed=0)) == 1

    def test_full_fraction_takes_everyone(self):
        assert choose_compromised(range(5), 1.0, seed=0) == list(range(5))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            choose_compromised([], 0.5)
        with pytest.raises(ValueError):
            choose_compromised(range(5), 0.0)
