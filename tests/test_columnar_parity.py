"""Object vs columnar parity: the fast path must match the oracle bitwise.

The columnar generator (:mod:`repro.traces.columnar`) only earns its
speedup if it is *exactly* the object-path simulation — same RNG
streams, same float arithmetic, same quarantine decisions.  Every test
here asserts bit-for-bit equality (``==`` on floats, not ``allclose``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import DetectionPipeline, PipelineConfig
from repro.faults import (
    ActivationSchedule,
    AdditiveFault,
    BenignAttack,
    CalibrationFault,
    DriftFault,
    DynamicChangeAttack,
    DynamicCreationAttack,
    DynamicDeletionAttack,
    FaultInjector,
    IntermittentFault,
    MixedAttack,
    PacketDropper,
    RandomNoiseFault,
    StuckAtFault,
)
from repro.sensornet import (
    CollectorNode,
    GilbertElliottLoss,
    Mote,
    NetworkSimulator,
    StarNetwork,
)
from repro.traces import (
    GDITraceConfig,
    build_environment,
    generate_gdi_trace,
    generate_gdi_trace_columnar,
    simulate_windows_columnar,
    window_trace,
    window_trace_columnar,
)
from repro.traces.columnar import _iid_link_walk


def assert_traces_identical(object_trace, columnar_trace) -> None:
    """Record-for-record bitwise equality, plus metadata."""
    converted = columnar_trace.to_trace()
    assert len(converted.records) == len(object_trace.records)
    for ours, oracle in zip(converted.records, object_trace.records):
        assert ours.sensor_id == oracle.sensor_id
        assert ours.timestamp == oracle.timestamp  # bitwise, no tolerance
        assert ours.attributes == oracle.attributes
    assert converted.attribute_names == object_trace.attribute_names
    assert converted.metadata == object_trace.metadata


class TestCleanTraceParity:
    def test_default_config_small(self):
        config = GDITraceConfig(n_days=2, seed=5)
        assert_traces_identical(
            generate_gdi_trace(config), generate_gdi_trace_columnar(config)
        )

    def test_alternate_knobs(self):
        config = GDITraceConfig(
            n_sensors=4,
            n_days=1,
            sample_period_minutes=7.0,
            noise_std=1.1,
            loss_probability=0.3,
            corruption_probability=0.05,
            seed=99,
        )
        assert_traces_identical(
            generate_gdi_trace(config), generate_gdi_trace_columnar(config)
        )

    def test_delivered_arrays_match_messages(self):
        config = GDITraceConfig(n_days=1, seed=3)
        trace = generate_gdi_trace_columnar(config)
        timestamps, sensor_ids, values = trace.delivered_arrays()
        records = trace.to_trace().records
        assert timestamps.shape == (len(records),)
        assert values.shape == (len(records), trace.n_attributes)
        for row, record in enumerate(records):
            assert timestamps[row] == record.timestamp
            assert int(sensor_ids[row]) == record.sensor_id
            assert tuple(values[row]) == record.attributes


def scalar_link_walk(link_rng, n, loss_probability, corruption_probability):
    """Oracle: the scalar link's decision walk over ``2n`` pre-drawn doubles.

    One double decides loss; a second is consumed only when the packet
    survived, and decides corruption.
    """
    lost = np.zeros(n, dtype=bool)
    malformed = np.zeros(n, dtype=bool)
    draws = link_rng.random(2 * n)
    ptr = 0
    for i in range(n):
        if draws[ptr] < loss_probability:
            lost[i] = True
            ptr += 1
            continue
        ptr += 1
        if draws[ptr] < corruption_probability:
            malformed[i] = True
        ptr += 1
    return lost, malformed


def _walk_probabilities():
    rng = np.random.default_rng(41)
    probabilities = [0.0, 1.0, *rng.random(3).tolist()]
    return [(loss, corr) for loss in probabilities for corr in probabilities]


class TestIidLinkWalk:
    @pytest.mark.parametrize("n", [0, 1, 2, 6048])
    @pytest.mark.parametrize("loss,corruption", _walk_probabilities())
    def test_matches_scalar_walk(self, n, loss, corruption):
        seed = 1000 + n
        lost, malformed = _iid_link_walk(
            np.random.default_rng(seed), np.arange(n), loss, corruption
        )
        oracle_lost, oracle_malformed = scalar_link_walk(
            np.random.default_rng(seed), n, loss, corruption
        )
        assert lost.dtype == bool and malformed.dtype == bool
        assert lost.tolist() == oracle_lost.tolist()
        assert malformed.tolist() == oracle_malformed.tolist()

    @pytest.mark.parametrize("n", [0, 1, 2, 6048])
    def test_consumes_exactly_two_draws_per_attempt(self, n):
        walked = np.random.default_rng(77)
        _iid_link_walk(walked, np.arange(n), 0.3, 0.2)
        bare = np.random.default_rng(77)
        bare.random(2 * n)
        assert walked.bit_generator.state == bare.bit_generator.state


def _make_injector(environment, name: str) -> FaultInjector:
    """Fresh injector per path — corruptors carry private RNG state."""
    injector = FaultInjector(environment=environment)
    if name == "stuck":
        injector.add(StuckAtFault(), [6])
    elif name == "calibration":
        injector.add(CalibrationFault(), [7])
    elif name == "additive":
        injector.add(AdditiveFault(), [2])
    elif name == "random_noise":
        injector.add(RandomNoiseFault(), [1, 4])
    elif name == "drift":
        injector.add(DriftFault(ramp_minutes=12 * 60.0), [5])
    elif name == "dropper":
        injector.add(PacketDropper(), [3])
    elif name == "intermittent":
        injector.add(IntermittentFault(), [0])
    elif name == "creation":
        injector.add(DynamicCreationAttack(), [1, 5, 8])
    elif name == "deletion":
        injector.add(DynamicDeletionAttack(), [0, 4, 7])
    elif name == "change":
        injector.add(DynamicChangeAttack(), [2, 6, 9])
    elif name == "mixed":
        injector.add(MixedAttack(), [3, 5, 8])
    elif name == "benign":
        injector.add(BenignAttack(), [1, 2, 3])
    elif name == "scheduled":
        injector.add(
            StuckAtFault(),
            [6],
            ActivationSchedule(start_minutes=6 * 60.0, end_minutes=18 * 60.0),
        )
    elif name == "overlap":
        # First match wins on sensor 6; second entry still hits 7.
        injector.add(StuckAtFault(), [6])
        injector.add(CalibrationFault(), [6, 7])
    else:  # pragma: no cover - test bug
        raise AssertionError(f"unknown injector fixture {name}")
    return injector


CORRUPTION_NAMES = [
    "stuck",
    "calibration",
    "additive",
    "random_noise",
    "drift",
    "dropper",
    "intermittent",
    "creation",
    "deletion",
    "change",
    "mixed",
    "benign",
    "scheduled",
    "overlap",
]


class TestCorruptionParity:
    @pytest.mark.parametrize("name", CORRUPTION_NAMES)
    def test_injected_trace_and_event_log(self, name):
        config = GDITraceConfig(n_days=1, seed=17)
        environment = build_environment(config)
        injector_object = _make_injector(environment, name)
        injector_columnar = _make_injector(environment, name)

        object_trace = generate_gdi_trace(config, corruption=injector_object)
        columnar_trace = generate_gdi_trace_columnar(
            config, corruption=injector_columnar
        )
        assert_traces_identical(object_trace, columnar_trace)
        # Ground-truth logs must agree too: same events, same order.
        assert injector_columnar.events == injector_object.events


def _object_impaired_run(
    *,
    n_sensors,
    n_days,
    seed,
    window_minutes,
    loss_probability,
    corruption_probability,
    burst,
    delay_probability,
    max_delay_minutes,
    duplicate_probability,
    injector_name,
    clock_skew_minutes,
):
    """The oracle: a live simulator run against an impaired star."""
    config = GDITraceConfig(n_days=n_days, seed=seed)
    environment = build_environment(config)
    motes = [
        Mote(sensor_id=s, environment=environment, seed=seed)
        for s in range(n_sensors)
    ]
    network = StarNetwork.impaired(
        range(n_sensors),
        loss_probability=loss_probability,
        corruption_probability=corruption_probability,
        burst=burst,
        delay_probability=delay_probability,
        max_delay_minutes=max_delay_minutes,
        duplicate_probability=duplicate_probability,
        seed=seed,
    )
    injector = (
        _make_injector(environment, injector_name) if injector_name else None
    )
    skews = clock_skew_minutes or {}

    def corruption(message):
        if injector is not None:
            message = injector(message)
            if message is None:
                return None
        skew = skews.get(message.sensor_id)
        if skew:
            message = message.shifted(skew)
        return message

    simulator = NetworkSimulator(
        environment=environment,
        motes=motes,
        collector=CollectorNode(window_minutes=window_minutes),
        network=network,
        corruption=corruption,
    )
    report = simulator.run(config.duration_minutes)
    return report, simulator.collector.stats, injector


IMPAIRMENT_CASES = {
    "iid-loss-only": dict(),
    "burst": dict(burst=GilbertElliottLoss()),
    "delay-reorder": dict(delay_probability=0.25, max_delay_minutes=90.0),
    "duplicates": dict(duplicate_probability=0.15),
    "skew": dict(clock_skew_minutes={0: -30.0, 3: 12.5, 5: 90.0}),
    "everything": dict(
        burst=GilbertElliottLoss(),
        delay_probability=0.15,
        max_delay_minutes=120.0,
        duplicate_probability=0.1,
        clock_skew_minutes={1: -45.0, 4: 20.0},
        injector_name="mixed",
    ),
}


class TestImpairedSimulationParity:
    @pytest.mark.parametrize("case", sorted(IMPAIRMENT_CASES))
    def test_windows_and_stats(self, case):
        params = dict(
            n_sensors=6,
            n_days=1,
            seed=31,
            window_minutes=60.0,
            loss_probability=0.15,
            corruption_probability=0.02,
            burst=None,
            delay_probability=0.0,
            max_delay_minutes=0.0,
            duplicate_probability=0.0,
            injector_name=None,
            clock_skew_minutes=None,
        )
        params.update(IMPAIRMENT_CASES[case])

        report, stats, _ = _object_impaired_run(**params)

        config = GDITraceConfig(n_days=params["n_days"], seed=params["seed"])
        environment = build_environment(config)
        injector = (
            _make_injector(environment, params["injector_name"])
            if params["injector_name"]
            else None
        )
        result = simulate_windows_columnar(
            environment,
            n_sensors=params["n_sensors"],
            duration_minutes=config.duration_minutes,
            window_minutes=params["window_minutes"],
            seed=params["seed"],
            loss_probability=params["loss_probability"],
            corruption_probability=params["corruption_probability"],
            burst=params["burst"],
            delay_probability=params["delay_probability"],
            max_delay_minutes=params["max_delay_minutes"],
            duplicate_probability=params["duplicate_probability"],
            corruption=injector,
            clock_skew_minutes=params["clock_skew_minutes"],
        )

        assert len(result.windows) == len(report.windows)
        for ours, oracle in zip(result.windows, report.windows):
            assert ours.index == oracle.index
            assert ours.start_minutes == oracle.start_minutes
            assert ours.end_minutes == oracle.end_minutes
            assert ours.sensor_ids == oracle.sensor_ids
            oracle_obs = oracle.observations
            assert ours.observations.shape == oracle_obs.shape
            assert np.array_equal(ours.observations, oracle_obs)
            if not ours.is_empty:
                oracle_means = oracle.per_sensor_mean()
                ours_means = ours.per_sensor_mean()
                assert list(ours_means) == list(oracle_means)
                for sensor_id, mean in oracle_means.items():
                    assert np.array_equal(ours_means[sensor_id], mean)
        assert result.stats == stats
        assert result.n_ticks == report.n_ticks
        assert result.end_minutes == report.end_minutes
        assert result.n_in_flight_at_end == report.n_in_flight_at_end


class TestPipelineParity:
    def test_digest_identical_across_data_paths(self):
        config = GDITraceConfig(n_days=2, seed=7)
        environment = build_environment(config)
        object_trace = generate_gdi_trace(
            config, corruption=_make_injector(environment, "stuck")
        )
        columnar_trace = generate_gdi_trace_columnar(
            config, corruption=_make_injector(environment, "stuck")
        )

        pipeline_config = PipelineConfig()

        object_pipeline = DetectionPipeline(pipeline_config)
        for window in window_trace(
            object_trace, pipeline_config.window_minutes
        ):
            object_pipeline.process_window(window)

        trace_pipeline = DetectionPipeline(pipeline_config)
        trace_pipeline.process_trace(object_trace)

        columnar_pipeline = DetectionPipeline(pipeline_config)
        columnar_pipeline.process_trace(columnar_trace)

        assert object_pipeline.n_windows == columnar_pipeline.n_windows
        assert (
            object_pipeline.digest()
            == trace_pipeline.digest()
            == columnar_pipeline.digest()
        )


class TestEnvironmentBatching:
    def test_values_at_matches_scalar_calls(self):
        config = GDITraceConfig(n_days=2, seed=13)
        environment = build_environment(config)
        times = np.concatenate(
            [np.linspace(0.0, config.duration_minutes, 257), [0.0, 5.0]]
        )
        batched = environment.values_at(times)
        for k, minutes in enumerate(times):
            assert np.array_equal(batched[k], environment.value_at(minutes))


class TestCopyOnWriteGuard:
    def test_columnar_trace_arrays_are_frozen(self):
        trace = generate_gdi_trace_columnar(GDITraceConfig(n_days=1, seed=2))
        for array in (
            trace.tick_times,
            trace.sensor_ids,
            trace.values,
            trace.delivered,
            trace.lost,
            trace.malformed,
            trace.duplicated,
        ):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 0

    def test_window_views_are_frozen(self):
        trace = generate_gdi_trace_columnar(GDITraceConfig(n_days=1, seed=2))
        windows = window_trace_columnar(trace, 60.0)
        assert windows, "expected at least one window"
        for window in windows:
            assert not window.observations.flags.writeable
            assert not window.sensor_id_array.flags.writeable
        with pytest.raises(ValueError):
            windows[0].observations[0, 0] = 1.0

    def test_frozen_views_share_storage(self):
        # The point of the guard: windows are views, not copies.
        trace = generate_gdi_trace_columnar(GDITraceConfig(n_days=1, seed=2))
        timestamps, _, values = trace.delivered_arrays()
        windows = window_trace_columnar(trace, 60.0)
        non_empty = [w for w in windows if not w.is_empty]
        assert non_empty
        assert any(
            np.shares_memory(w.observations, values) for w in non_empty
        )
