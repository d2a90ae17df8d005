"""Fused engine vs per-window oracle: bit-identical or the test fails.

The struct-of-arrays fast path (``process_windows_fast`` /
``process_trace_fast``) only earns its speedup if it is *exactly* the
per-window pipeline — same digests, same checkpoint snapshots, same
``WindowResult`` stream, under every alarm-filter kind and supervisor
mode.  Every assertion here is exact ``==`` (no tolerances): the fused
engine's certified shortcuts (vector filter banks, incremental
clustering caches, steady-stretch certification) are go/no-go caches
that must never change a single bit of output.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import DetectionPipeline, PipelineConfig
from repro.core.filtering import (
    CUSUMFilter,
    FilterBank,
    KOfNFilter,
    SPRTFilter,
    VectorFilterBank,
)
from repro.sensornet.collector import windows_from_arrays
from repro.traces import GDITraceConfig, generate_gdi_trace_columnar

FILTER_KINDS = ("k_of_n", "sprt", "cusum")
SUPERVISOR_MODES = ("off", "warn", "repair")


def snapshot_json(pipeline: DetectionPipeline) -> str:
    return json.dumps(pipeline.snapshot(), sort_keys=True, default=str)


def assert_engines_identical(config: PipelineConfig, windows) -> None:
    """Run both engines over ``windows``; demand exact equality."""
    oracle = DetectionPipeline(config)
    fused = DetectionPipeline(config)
    oracle_results = oracle.process_windows(windows)
    fused.process_windows_fast(windows)
    fused_results = fused.results
    assert oracle.digest() == fused.digest()
    assert snapshot_json(oracle) == snapshot_json(fused)
    assert len(oracle_results) == len(fused_results)
    for ours, theirs in zip(oracle_results, fused_results):
        assert ours == theirs


def synthetic_windows(
    n_windows: int = 300,
    n_sensors: int = 8,
    n_attributes: int = 2,
    seed: int = 0,
):
    """A hostile 300-window workload exercising the fused edge cases.

    Piecewise-constant environment states with jumps big enough to
    spawn model states (breaking steady stretches), periodic sensor
    dropouts (changing the per-window sensor population), NaN readings
    (quarantined at windowing time), and entirely empty windows.
    """
    rng = np.random.default_rng(seed)
    ts, sids, vals = [], [], []
    for index in range(1, n_windows + 1):
        if index % 57 == 0:
            continue  # an empty window mid-trace
        level = 20.0 + 15.0 * ((index // 30) % 3)
        base = np.array([level, 70.0 - level / 2.0])[:n_attributes]
        for sensor in range(n_sensors):
            if (index + sensor) % 41 == 0:
                continue  # sensor dropout: population changes
            value = base + rng.normal(0.0, 0.3, n_attributes)
            if (index * 13 + sensor) % 97 == 0:
                value = value.copy()
                value[0] = np.nan  # quarantined on windowing
            ts.append((index - 1) * 60.0 + 1.0 + sensor * 1e-3)
            sids.append(sensor)
            vals.append(value)
    ts_arr = np.asarray(ts, dtype=float)
    sid_arr = np.asarray(sids)
    val_arr = np.asarray(vals, dtype=float)
    order = np.lexsort((sid_arr, ts_arr))
    return windows_from_arrays(
        ts_arr[order], sid_arr[order], val_arr[order], 60.0
    )


class TestTraceParity:
    @pytest.mark.parametrize("kind", FILTER_KINDS)
    @pytest.mark.parametrize("mode", SUPERVISOR_MODES)
    def test_gdi_trace(self, kind, mode):
        trace = generate_gdi_trace_columnar(GDITraceConfig(n_days=2, seed=11))
        config = PipelineConfig(filter_kind=kind, supervisor_mode=mode)
        oracle = DetectionPipeline(config)
        fused = DetectionPipeline(config)
        oracle_results = oracle.process_trace(trace)
        fused.process_trace_fast(trace)
        fused_results = fused.results
        assert oracle.digest() == fused.digest()
        assert snapshot_json(oracle) == snapshot_json(fused)
        assert len(oracle_results) == len(fused_results)
        for ours, theirs in zip(oracle_results, fused_results):
            assert ours == theirs


class TestSyntheticEdgeCases:
    @pytest.mark.parametrize("kind", FILTER_KINDS)
    def test_hostile_workload(self, kind):
        windows = synthetic_windows()
        assert_engines_identical(PipelineConfig(filter_kind=kind), windows)

    @pytest.mark.parametrize("mode", ("warn", "repair"))
    def test_hostile_workload_supervised(self, mode):
        windows = synthetic_windows()
        assert_engines_identical(PipelineConfig(supervisor_mode=mode), windows)

    def test_single_attribute(self):
        # d == 1 exercises the pairwise-summation fallback in the
        # batched means kernel (bulk means are only bit-stable for
        # d >= 2) and the scalar steady-stretch arithmetic.
        windows = synthetic_windows(n_attributes=1, seed=3)
        assert_engines_identical(PipelineConfig(), windows)

    def test_empty_input(self):
        config = PipelineConfig()
        fused = DetectionPipeline(config)
        assert fused.process_windows_fast([]) == 0
        assert fused.results == []

    def test_checkpoint_mid_run_resumes_identically(self):
        # A snapshot taken after a fast run must restore into a
        # pipeline that continues exactly like the oracle would.
        windows = synthetic_windows()
        half = len(windows) // 2
        config = PipelineConfig()
        oracle = DetectionPipeline(config)
        oracle.process_windows(windows)

        fused = DetectionPipeline(config)
        fused.process_windows_fast(windows[:half])
        resumed = DetectionPipeline.restore(fused.snapshot(), config=config)
        resumed.process_windows_fast(windows[half:])
        assert resumed.digest() == oracle.digest()
        assert snapshot_json(resumed) == snapshot_json(oracle)


# -- multi-group steady stretches -------------------------------------------

#: Environment states for the scripted k-group workloads (default spawn
#: threshold 10, merge threshold 5): every pair is farther apart than
#: the spawn threshold, so each group sits in its own model state.
STATE_A = (20.0, 60.0)
STATE_B = (35.0, 40.0)
STATE_C = (32.0, 55.0)
STATE_D = (45.0, 30.0)


def scripted_windows(
    place,
    n_windows: int = 160,
    n_sensors: int = 10,
    samples: int = 3,
    noise: float = 0.3,
    lossy=(),
    seed: int = 0,
):
    """Windows whose sensors report around ``place(index, sensor)``.

    Each sensor sends ``samples`` readings per window; sensors in
    ``lossy`` lose each reading with probability 0.5, so some windows
    miss them entirely and the window's sensor population changes.
    """
    rng = np.random.default_rng(seed)
    ts, sids, vals = [], [], []
    for index in range(1, n_windows + 1):
        for sensor in range(n_sensors):
            center = np.asarray(place(index, sensor), dtype=float)
            for sample in range(samples):
                value = center + rng.normal(0.0, noise, center.shape)
                if sensor in lossy and rng.random() < 0.5:
                    continue
                start = (index - 1) * 60.0 + 1.0
                ts.append(start + 10.0 * sample + sensor * 1e-3)
                sids.append(sensor)
                vals.append(value)
    ts_arr = np.asarray(ts, dtype=float)
    sid_arr = np.asarray(sids)
    val_arr = np.asarray(vals, dtype=float)
    order = np.lexsort((sid_arr, ts_arr))
    return windows_from_arrays(
        ts_arr[order], sid_arr[order], val_arr[order], 60.0
    )


def multi_group_entries(pipeline: DetectionPipeline) -> list:
    """Pending entries of windows certified inside a k >= 2 stretch.

    Must run before ``pipeline.results`` materializes the entries.
    """
    return [
        entry
        for entry in pipeline._pending_results
        if entry[1] == "steady" and entry[7] is not None
    ]


def assert_k_group_parity(windows, initial_states=None, split=None) -> list:
    """Oracle vs fused for every filter kind; returns the certified
    multi-group entries of the last kind's fused run.

    With ``split`` the fused run stops after ``windows[:split]``, is
    snapshotted and restored, and the restored pipeline consumes the
    rest — it must still finish identical to one uninterrupted oracle.
    """
    entries: list = []
    for kind in FILTER_KINDS:
        config = PipelineConfig(filter_kind=kind)
        oracle = DetectionPipeline(config, initial_states=initial_states)
        oracle_results = oracle.process_windows(windows)
        fused = DetectionPipeline(config, initial_states=initial_states)
        if split is None:
            fused.process_windows_fast(windows)
            entries = multi_group_entries(fused)
            fused_results = fused.results
        else:
            fused.process_windows_fast(windows[:split])
            entries = multi_group_entries(fused)
            head = fused.results
            fused = DetectionPipeline.restore(fused.snapshot(), config=config)
            fused.process_windows_fast(windows[split:])
            entries += multi_group_entries(fused)
            fused_results = head + fused.results
        assert oracle.digest() == fused.digest(), kind
        assert snapshot_json(oracle) == snapshot_json(fused), kind
        assert len(oracle_results) == len(fused_results)
        for ours, theirs in zip(oracle_results, fused_results):
            assert ours == theirs, (kind, ours.window_index)
    return entries


def two_groups(index, sensor):
    """Sensors 8 and 9 form a persistent minority group."""
    return STATE_B if sensor >= 8 else STATE_A


class TestMultiGroupStretches:
    """Hostile workloads for the k-group steady certificate.

    Each case must (a) exercise certified multi-group windows and (b)
    stay bit-identical to the per-window oracle under every filter
    kind.
    """

    def test_plain_two_group_stretch(self):
        entries = assert_k_group_parity(scripted_windows(two_groups))
        # Almost every window after the first few rides the stretch.
        assert len(entries) > 140

    def test_minority_sensor_flips_groups_mid_stretch(self):
        def place(index, sensor):
            if sensor == 8 and 60 <= index < 70:
                return STATE_A  # a minority sensor rejoins the majority
            if sensor == 2 and 100 <= index < 110:
                return STATE_B  # a majority sensor defects
            return two_groups(index, sensor)

        entries = assert_k_group_parity(scripted_windows(place))
        sizes = {entry[7][3] for entry in entries}
        # Certified windows under three different partitions: 8/2,
        # 9/1 (sensor 8 back) and 7/3 (sensor 2 away).
        assert sizes == {7, 8, 9}

    def test_minority_group_rejoins_majority(self):
        # Sensors 8 and 9 leave for state B, then both come back: on the
        # way back the two groups meet in one state, and the window is
        # retried at once on the merged (unanimous) partition.
        def place(index, sensor):
            if sensor >= 8 and 40 <= index < 90:
                return STATE_B
            return STATE_A

        windows = scripted_windows(place, n_windows=120)
        entries = assert_k_group_parity(windows)
        assert len(entries) > 40
        fused = DetectionPipeline(PipelineConfig())
        fused.process_windows_fast(windows)
        kinds = {entry[0]: entry[1] for entry in fused._pending_results}
        assert kinds[90] == "steady"  # the rejoin window itself

    def test_one_group_hands_off_while_another_stays(self):
        def place(index, sensor):
            if sensor >= 8:
                return STATE_B if (index // 20) % 2 == 0 else STATE_D
            return STATE_A if (index // 30) % 2 == 0 else STATE_C

        entries = assert_k_group_parity(scripted_windows(place, n_windows=200))
        by_window = {entry[0]: entry[7][0] for entry in entries}
        handoffs = sum(
            1
            for index, assign in by_window.items()
            if index - 1 in by_window and by_window[index - 1] != assign
        )
        # Certified state switches inside a stretch, each with the other
        # group staying put.
        assert handoffs >= 3

    def test_sensor_drops_out_of_windows(self):
        def place(index, sensor):
            return STATE_B if sensor in (6, 7) else STATE_A

        windows = scripted_windows(place, samples=2, lossy=(6,))
        missing = sum(
            1 for window in windows if 6 not in window.sensor_id_array.tolist()
        )
        assert missing > 10  # the population really changes
        entries = assert_k_group_parity(windows)
        assert len(entries) > 40

    def test_group_centroid_creeps_to_spawn_threshold(self):
        # The minority runs away from its state ever faster: Eq. 6 lags
        # it by about speed * (1 - alpha) / alpha, which climbs through
        # the spawn threshold, so certificates start failing near the
        # threshold and the full path finally spawns.
        def place(index, sensor):
            if sensor < 8:
                return STATE_A
            shift = 0.004 * index * index
            return (STATE_B[0] + shift, STATE_B[1] - shift)

        windows = scripted_windows(place, n_windows=200)
        entries = assert_k_group_parity(windows)
        assert len(entries) > 40
        oracle = DetectionPipeline(PipelineConfig())
        spawned = [
            result.window_index
            for result in oracle.process_windows(windows)
            if result.cluster_update is not None
            and result.window_index > 5
            and result.cluster_update.spawned
        ]
        assert spawned

    def test_pair_bound_fails_and_forces_a_scan(self, monkeypatch):
        # Two initial states 6.5 apart (merge threshold 5): the decayed
        # pair bound soon drops under the merge threshold, and the
        # minority drifting toward the majority ends in a real merge.
        from repro.core.states import StateSet

        peeked = []
        original = StateSet.peek_decayed_pair_bound

        def spy(self, *deltas):
            bound = original(self, *deltas)
            peeked.append(bound)
            return bound

        monkeypatch.setattr(StateSet, "peek_decayed_pair_bound", spy)
        near = (STATE_A[0] + 6.5, STATE_A[1])

        def place(index, sensor):
            if sensor < 7:
                return STATE_A
            pull = min(index, 120) * 0.015
            return (near[0] - pull, near[1])

        windows = scripted_windows(place, n_windows=160, noise=0.6)
        entries = assert_k_group_parity(
            windows, initial_states=[np.array(STATE_A), np.array(near)]
        )
        assert len(entries) > 20
        assert any(bound is not None and bound < 5.0 for bound in peeked)
        oracle = DetectionPipeline(
            PipelineConfig(),
            initial_states=[np.array(STATE_A), np.array(near)],
        )
        assert any(
            result.cluster_update.merged
            for result in oracle.process_windows(windows)
        )

    def test_wide_groups_certified_member_by_member(self):
        # Members sit 4.5 either side of their state, and a second state
        # lies 9 away: the group bound d(g,c) + 2s + delta < d(g,X)
        # cannot hold (2s alone is 9), but every member is nearer to its
        # own state by a wide margin — only the member-by-member check
        # certifies these windows.
        a = np.array(STATE_A)
        b = a + np.array([9.0, 0.0])
        far = np.array(STATE_D)

        def place(index, sensor):
            if sensor >= 8:
                return far  # a tight minority group
            return a + np.array([0.0, 4.5 if sensor % 2 else -4.5])

        windows = scripted_windows(place, noise=0.05)
        entries = assert_k_group_parity(
            windows, initial_states=[a, b, far]
        )
        assert len(entries) > 100

        def unanimous(index, sensor):
            return a + np.array([0.0, 4.5 if sensor % 2 else -4.5])

        windows = scripted_windows(unanimous, noise=0.05)
        config = PipelineConfig()
        fused = DetectionPipeline(config, initial_states=[a, b])
        fused.process_windows_fast(windows)
        steady = sum(1 for e in fused._pending_results if e[1] == "steady")
        assert steady > 100
        assert_k_group_parity(windows, initial_states=[a, b])

    def test_neighbour_state_step_steals_a_member(self):
        # On one axis: a majority state near 0.4 holds sensor 7 at 3.0,
        # and a minority state at 10 holds sensors 8 and 9.  In window 31
        # sensor 7 jumps to 5.1 while the minority drops to 6.0: sensor 7
        # is still nearer the majority state before the Eq. 6 steps, but
        # the minority state steps 0.4 toward it and wins sensor 7's
        # final assignment.  Only the minority state's own step, counted
        # in the majority group's margin, rules that window out.
        def place(index, sensor):
            late = index >= 31
            if sensor < 7:
                return (0.0, 0.0)
            if sensor == 7:
                return (5.1 if late else 3.0, 0.0)
            return (6.0 if late else 10.0, 0.0)

        windows = scripted_windows(place, n_windows=40, noise=0.001)
        initial = [np.array([0.0, 0.0]), np.array([10.0, 0.0])]
        entries = assert_k_group_parity(windows, initial_states=initial)
        assert {entry[0] for entry in entries} >= set(range(5, 31))
        oracle = DetectionPipeline(PipelineConfig(), initial_states=initial)
        results = oracle.process_windows(windows)
        before, after = results[29], results[30]
        assert before.cluster_update.sensor_assignments[7] == 0
        assert after.cluster_update.assignments[7] == 0
        assert after.cluster_update.sensor_assignments[7] == 1

    def test_majority_tie(self):
        def place(index, sensor):
            if index <= 50:  # 5 / 5 tie
                return STATE_A if sensor < 5 else STATE_B
            if index <= 100:  # 4 / 6: a clear majority
                return STATE_A if sensor < 4 else STATE_B
            # 4 / 4 / 2 tie between the two largest groups
            if sensor < 4:
                return STATE_A
            return STATE_B if sensor < 8 else STATE_D

        entries = assert_k_group_parity(scripted_windows(place, n_windows=150))
        assert entries
        for entry in entries:
            counts = sorted(
                entry[7][0].count(sid) for sid in set(entry[7][0])
            )
            assert counts[-1] > counts[-2]  # never certified on a tie
            assert 50 < entry[0] <= 100

    def test_split_mid_stretch_across_calls_and_restore(self):
        def place(index, sensor):
            if sensor >= 8:
                return STATE_B if (index // 20) % 2 == 0 else STATE_D
            return STATE_A

        windows = scripted_windows(place, n_windows=120)
        probe = DetectionPipeline(PipelineConfig())
        probe.process_windows_fast(windows)
        certified = {entry[0] for entry in multi_group_entries(probe)}
        split = next(
            i
            for i in range(60, len(windows))
            if windows[i - 1].index in certified
            and windows[i].index in certified
        )
        # Two calls on one pipeline...
        for kind in FILTER_KINDS:
            config = PipelineConfig(filter_kind=kind)
            oracle = DetectionPipeline(config)
            oracle_results = oracle.process_windows(windows)
            fused = DetectionPipeline(config)
            fused.process_windows_fast(windows[:split])
            fused.process_windows_fast(windows[split:])
            assert oracle.digest() == fused.digest()
            assert snapshot_json(oracle) == snapshot_json(fused)
            assert oracle_results == fused.results
        # ...and a snapshot/restore at the same point.
        entries = assert_k_group_parity(windows, split=split)
        assert any(entry[0] > windows[split].index for entry in entries)


def _scalar_bank(kind: str) -> FilterBank:
    factory = {
        "k_of_n": KOfNFilter,
        "sprt": SPRTFilter,
        "cusum": CUSUMFilter,
    }[kind]
    return FilterBank(factory=factory)


def _vector_bank(kind: str) -> VectorFilterBank:
    prototype = {
        "k_of_n": KOfNFilter,
        "sprt": SPRTFilter,
        "cusum": CUSUMFilter,
    }[kind]()
    return VectorFilterBank.from_prototype(prototype)


def _raw_stream(n_windows: int, n_sensors: int, seed: int = 5):
    rng = np.random.default_rng(seed)
    return rng.random((n_windows, n_sensors)) < 0.4


class TestFilterBankStateDictInterchange:
    """Scalar and vector banks must share one checkpoint format."""

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    def test_state_dicts_match_after_identical_streams(self, kind):
        scalar = _scalar_bank(kind)
        vector = _vector_bank(kind)
        sensor_ids = np.arange(6)
        for index, raws in enumerate(_raw_stream(50, 6)):
            scalar_out = scalar.update(
                index, {int(s): bool(r) for s, r in zip(sensor_ids, raws)}
            )
            vector_out = vector.update_batch(index, sensor_ids, raws)
            assert scalar_out == vector_out
        assert scalar.state_dict() == vector.state_dict()

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    def test_cross_round_trip_continues_identically(self, kind):
        # scalar -> vector and vector -> scalar restores must both
        # continue the stream exactly where the original left off.
        sensor_ids = np.arange(6)
        stream = _raw_stream(80, 6, seed=9)
        scalar = _scalar_bank(kind)
        for index, raws in enumerate(stream[:40]):
            scalar.update(
                index, {int(s): bool(r) for s, r in zip(sensor_ids, raws)}
            )

        vector = _vector_bank(kind)
        vector.load_state_dict(scalar.state_dict())
        assert vector.state_dict() == scalar.state_dict()

        back = _scalar_bank(kind)
        back.load_state_dict(vector.state_dict())
        assert back.state_dict() == scalar.state_dict()

        for index, raws in enumerate(stream[40:], start=40):
            raw_map = {int(s): bool(r) for s, r in zip(sensor_ids, raws)}
            assert (
                scalar.update(index, raw_map)
                == vector.update_batch(index, sensor_ids, raws)
                == back.update(index, raw_map)
            )
        assert scalar.state_dict() == vector.state_dict()
        assert scalar.state_dict() == back.state_dict()

    def test_vector_bank_rejects_mixed_kind_payload(self):
        scalar = FilterBank(factory=KOfNFilter)
        scalar.update(0, {0: True})
        mixed = _scalar_bank("sprt")
        mixed.update(0, {1: True})
        payload = scalar.state_dict()
        payload["filters"].append(mixed.state_dict()["filters"][0])
        vector = _vector_bank("k_of_n")
        with pytest.raises(ValueError):
            vector.load_state_dict(payload)


class TestQuiescentAdvance:
    """``advance_quiescent`` must equal the per-window updates it skips."""

    @staticmethod
    def _internals(bank: VectorFilterBank) -> tuple:
        live = len(bank._slot_of)
        return (
            bank._pos[:live].tolist(),
            bank._updates[:live].tolist(),
            bank._count[:live].tolist(),
            bank._active[:live].tolist(),
            bank._pos_sync,
        )

    @pytest.mark.parametrize("lockstep", [True, False])
    def test_deferred_windows_match_updates(self, lockstep):
        ids = np.arange(6)
        raws = np.array([False, True, False, False, True, True])
        updated = _vector_bank("k_of_n")
        deferred = _vector_bank("k_of_n")
        for bank in (updated, deferred):
            bank.update_batch(0, ids, np.ones(6, dtype=bool))
            if not lockstep:
                # A window without sensor 2 desyncs the ring positions.
                bank.update_batch(
                    1, np.array([0, 1, 3, 4, 5]), np.zeros(5, dtype=bool)
                )
            assert not bank.quiescent(ids, raws)
            for window in range(2, 2 + bank.n):
                bank.update_batch(window, ids, raws)
            assert bank.quiescent(ids, raws)
        assert (updated._pos_sync is None) == (not lockstep)
        for window in range(10, 17):
            assert updated.update_batch(window, ids, raws) == []
        deferred.advance_quiescent(7, ids)
        assert self._internals(updated) == self._internals(deferred)
        assert updated.state_dict() == deferred.state_dict()
        # Both continue identically under a changing stream.
        rng = np.random.default_rng(3)
        for window in range(17, 40):
            step = rng.random(6) < 0.5
            assert updated.update_batch(window, ids, step) == (
                deferred.update_batch(window, ids, step)
            )
        assert updated.state_dict() == deferred.state_dict()

    def test_subset_advance_leaves_absent_sensors_alone(self):
        ids = np.arange(4)
        subset = np.array([0, 2, 3])
        updated = _vector_bank("k_of_n")
        deferred = _vector_bank("k_of_n")
        raws = np.array([True, False, False])
        for bank in (updated, deferred):
            bank.update_batch(0, ids, np.array([True, True, False, False]))
            for window in range(1, 1 + bank.n):
                bank.update_batch(window, subset, raws)
            assert bank.quiescent(subset, raws)
        for window in range(20, 24):
            updated.update_batch(window, subset, raws)
        deferred.advance_quiescent(4, subset)
        assert self._internals(updated) == self._internals(deferred)
        assert updated.state_dict() == deferred.state_dict()

    def test_all_false_shorthand(self):
        bank = _vector_bank("k_of_n")
        ids = np.arange(3)
        bank.update_batch(0, ids, np.array([True, False, False]))
        assert not bank.quiescent_all_false(ids)
        for window in range(1, 1 + bank.n):
            bank.update_batch(window, ids, np.zeros(3, dtype=bool))
        assert bank.quiescent_all_false(ids)

    @pytest.mark.parametrize("kind", ("sprt", "cusum"))
    def test_moving_statistics_never_quiescent(self, kind):
        bank = _vector_bank(kind)
        ids = np.arange(3)
        raws = np.zeros(3, dtype=bool)
        for window in range(30):
            bank.update_batch(window, ids, raws)
        assert not bank.quiescent(ids, raws)


class TestKOfNRunningCount:
    """The O(1) running count must always equal the ring-buffer sum."""

    def test_count_tracks_window_sum(self):
        filt = KOfNFilter(k=3, n=5)
        rng = np.random.default_rng(13)
        for raw in rng.random(200) < 0.5:
            filt.update(bool(raw))
            assert filt._count == sum(filt._window)
            assert filt.active == (filt._count >= filt.k)

    def test_reset_and_restore_rebuild_count(self):
        filt = KOfNFilter(k=2, n=4)
        for raw in (True, True, False, True):
            filt.update(raw)
        payload = filt.state_dict()
        filt.reset()
        assert filt._count == 0 and not filt.active

        from repro.core.filtering import filter_from_state_dict

        restored = filter_from_state_dict(payload)
        assert restored._count == sum(restored._window)
        assert restored.active
