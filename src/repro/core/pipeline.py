"""The full detection pipeline (paper Fig. 1).

:class:`DetectionPipeline` wires every module of §3 together and is the
library's main entry point.  Feed it observation windows (live from the
simulator or batch from a trace) and query it for raw/filtered alarms,
per-sensor diagnoses, and the clean environment model ``M_C``.

Per window the pipeline:

1. averages each sensor's readings (Θ is ~constant within ``w``),
2. runs the online clusterer (spawn / Eq. 6 update / merge),
3. identifies ``o_i``, ``l_j``, ``c_i`` (Eqs. 2-4),
4. generates raw alarms (``l_j != c_i``) and filters them,
5. opens/closes error/attack tracks on filtered-alarm transitions and
   records the window into every open track (⊥ on agreement),
6. updates the global online HMM ``M_CO`` with ``(c_i, o_i)`` (each
   track updates its own ``M_CE`` in step 5),
7. appends ``c_i``/``o_i`` to the sequences behind ``M_C``/``M_O``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from ..sensornet.collector import ObservationWindow

if TYPE_CHECKING:  # avoid a circular import; see repro.config
    from ..config import PipelineConfig
from .alarms import AlarmGenerator, RawAlarm
from .classification import (
    AnomalyType,
    ClassifierConfig,
    Diagnosis,
    classify_system,
    classify_track,
)
from .clustering import ClusterUpdate, OnlineStateClusterer, grouped_means
from .filtering import FilterBank, FilterTransition, VectorFilterBank
from .identification import WindowIdentification, identify_window
from .markov import MarkovModel, estimate_markov_model
from .online_hmm import OnlineHMM
from .tracks import ErrorAttackTrack, TrackManager


class _SteadyStretch:
    """Mutable context for one certified steady-state stretch.

    The stretch holds a fixed partition of the window's sensors into
    ``k >= 1`` groups, each sitting in its own model state.  It tracks
    the Python-float evolution of every live state vector, the deferred
    per-state visit counts, and the deferred alarm-history /
    filter-advance counts folded back into the live modules at stretch
    exit.
    """

    __slots__ = (
        "sids",
        "rows",
        "ids",
        "current",
        "visits",
        "majority",
        "majority_size",
        "assign",
        "alarming",
        "raws",
        "steady_ids",
        "alarm_count",
        "filter_ids",
        "filter_count",
        "filter_check",
        "regroup",
        "runs",
    )

    def __init__(
        self,
        sids: List[int],
        ids: List[int],
        current: List[List[float]],
        rows: Optional[List[List[int]]] = None,
        steady_ids: Optional[List[int]] = None,
    ) -> None:
        #: state id of each group, in group first-occurrence order
        self.sids = sids
        #: each group's sorted sensor positions (None: one group holding
        #: every sensor of the window)
        self.rows = rows
        #: every live state id, in id order, and its current vector (a
        #: spawn or merge would have ended the stretch, so the set of
        #: live states is fixed)
        self.ids = ids
        self.current = current
        #: state id -> Eq. 6 visits deferred to the stretch exit
        self.visits: Dict[int, int] = {}
        self.majority = 0
        self.majority_size = 0
        #: per sorted sensor position: its state id / raw-alarm flag
        #: (None while unanimous: every sensor agrees)
        self.assign: Optional[List[int]] = None
        self.alarming: Optional[List[bool]] = None
        #: the raw-alarm array fed to the filter bank every window
        self.raws: Optional[np.ndarray] = None
        if rows is not None:
            sizes = [len(members) for members in rows]
            self.majority_size = max(sizes)
            self.majority = sizes.index(self.majority_size)
            group_of = [0] * sum(sizes)
            for group, members in enumerate(rows):
                for position in members:
                    group_of[position] = group
            self.assign = [sids[group] for group in group_of]
            self.alarming = [group != self.majority for group in group_of]
            self.raws = np.array(self.alarming)
        #: the stretch's sensor-id set (pinned on entry for a partition,
        #: else on the first certified window; a different set breaks
        #: the stretch)
        self.steady_ids = steady_ids
        #: alarm-history windows deferred for batch append at exit
        self.alarm_count = 0
        #: the sensor-id array once the filter bank certified quiescence
        #: under the stretch's raw alarms (see ``quiescent``)
        self.filter_ids: Optional[np.ndarray] = None
        #: filter windows deferred for ``advance_quiescent`` at exit
        self.filter_count = 0
        #: the certified-window count at which to check quiescence next
        self.filter_check: float = 0
        #: a coarser partition (per sorted sensor position: its state id)
        #: to retry a window on after a failed step, or None
        self.regroup: Optional[List[int]] = None
        #: pending runs of equal pairs for ``M_CO`` and the open tracks:
        #: ``id(model or track) -> [record, first, second, count]``
        self.runs: Dict[int, list] = {}


@dataclass(frozen=True)
class WindowResult:
    """Everything the pipeline derived from one observation window."""

    window_index: int
    skipped: bool
    identification: Optional[WindowIdentification] = None
    cluster_update: Optional[ClusterUpdate] = None
    raw_alarms: Sequence[RawAlarm] = ()
    filter_transitions: Sequence[FilterTransition] = ()
    n_model_states: int = 0
    #: True when the supervisor's ModelUnderAttack meta-alarm froze the
    #: β/γ learning updates for this window (always False unsupervised).
    learning_frozen: bool = False

    @property
    def observable_state(self) -> Optional[int]:
        """``o_i`` of this window (None when skipped)."""
        return self.identification.observable_state if self.identification else None

    @property
    def correct_state(self) -> Optional[int]:
        """``c_i`` of this window (None when skipped)."""
        return self.identification.correct_state if self.identification else None


class DetectionPipeline:
    """The paper's on-the-fly detection and classification procedure.

    Parameters
    ----------
    config:
        All pipeline knobs (Table 1 defaults).
    initial_states:
        Optional initial model-state vectors.  When omitted, the first
        non-empty window bootstraps the state set (the paper notes the
        method "worked equally well when a set of random initial states
        was provided", footnote 5).
    """

    def __init__(
        self,
        config: "Optional[PipelineConfig]" = None,
        initial_states: Optional[Sequence[np.ndarray]] = None,
    ):
        if config is None:
            # Imported lazily: repro.config itself imports repro.core.
            from ..config import PipelineConfig

            config = PipelineConfig()
        self.config = config
        # Resolved kernel backend (repro.backend).  Kernels are
        # bit-identical across backends, so this choice never shows up
        # in digests — only in digest_metadata().
        from ..backend import get_backend

        self._backend = get_backend(getattr(config, "backend", "numpy"))
        #: Owner-private scratch for the grouped window-means kernel.
        #: One dict per pipeline: interleaving two pipelines can never
        #: alias each other's reusable buffers.
        self._kernel_scratch: dict = {}
        self._initial_states = (
            [np.asarray(v, dtype=float) for v in initial_states]
            if initial_states is not None
            else None
        )
        self.clusterer: Optional[OnlineStateClusterer] = None
        self.alarm_generator = AlarmGenerator()
        self.filter_bank = FilterBank(factory=self.config.filter_factory())
        # Table 1's beta/gamma are retention factors; the online HMMs take
        # the complementary innovation rates (see OnlineHMM's docstring).
        self.tracks = TrackManager(
            transition_innovation=1.0 - self.config.beta,
            emission_innovation=1.0 - self.config.gamma,
        )
        self.m_co = OnlineHMM(
            transition_innovation=1.0 - self.config.beta,
            emission_innovation=1.0 - self.config.gamma,
        )
        self.correct_sequence: List[int] = []
        self.observable_sequence: List[int] = []
        #: Materialized per-window results plus the fused path's pending
        #: constructor-argument tuples; see the ``results`` property.
        self._results: List[WindowResult] = []
        self._pending_results: List[tuple] = []
        self._n_windows = 0
        #: Raw alarms a restored checkpoint carried in (see n_raw_alarms).
        self._restored_raw_alarms = 0
        #: Non-finite per-sensor readings dropped by the input guard.
        self.n_non_finite_dropped = 0
        #: Runtime invariant supervisor (None when supervisor_mode is
        #: "off" — every code path is then exactly the unsupervised one,
        #: so digests stay bit-identical).
        self.supervisor = None
        if self.config.supervisor_mode != "off":
            # Imported lazily: repro.resilience imports repro.core.
            from ..resilience.supervisor import PipelineSupervisor

            self.supervisor = PipelineSupervisor.from_config(self.config)

    # -- bootstrap ----------------------------------------------------------

    def _bootstrap_clusterer(self, per_sensor: Dict[int, np.ndarray]) -> None:
        """Create the clusterer from explicit or first-window states."""
        if self._initial_states is not None:
            vectors = self._initial_states
        else:
            # Greedy farthest-point seeding from the first window: take
            # each sensor mean that no existing seed already explains.
            vectors = []
            for vector in per_sensor.values():
                if not vectors or all(
                    np.linalg.norm(vector - seed) > self.config.spawn_threshold
                    for seed in vectors
                ):
                    vectors.append(np.asarray(vector, dtype=float))
                if len(vectors) >= self.config.n_initial_states:
                    break
        self.clusterer = OnlineStateClusterer(
            initial_vectors=vectors,
            alpha=self.config.alpha,
            spawn_threshold=self.config.spawn_threshold,
            merge_threshold=self.config.merge_threshold,
            max_states=self.config.max_states,
            kernels=self._backend,
        )

    # -- the per-window step ---------------------------------------------

    def _sanitize(
        self, window: ObservationWindow
    ) -> "tuple[Dict[int, np.ndarray], Optional[np.ndarray]]":
        """Per-sensor means and overall mean with non-finite readings dropped.

        The collector already quarantines NaN/Inf messages, but windows
        can also be built by the batch windowers or by hand; a single
        non-finite reading must never reach the clusterer, where the
        Eq. 6 convex update would poison a centroid irrecoverably.
        """
        per_sensor = window.per_sensor_mean()
        if not self.config.drop_non_finite:
            overall = window.overall_mean() if per_sensor else None
            return per_sensor, overall
        if not per_sensor:
            return {}, None
        # One vectorized finiteness check over the stacked means instead
        # of a NumPy reduction per sensor.  A non-finite raw reading
        # always makes its sensor's mean non-finite (NaN/Inf propagate
        # through the sum), so an all-finite mean matrix certifies the
        # whole window and the raw rows need no second look.
        means = np.vstack(list(per_sensor.values()))
        finite_mask = np.isfinite(means).all(axis=1)
        if finite_mask.all():
            return per_sensor, window.overall_mean()
        finite = {
            sensor_id: vector
            for (sensor_id, vector), ok in zip(per_sensor.items(), finite_mask)
            if ok
        }
        self.n_non_finite_dropped += len(per_sensor) - len(finite)
        if not finite:
            return {}, None
        rows = window.observations
        finite_rows = rows[np.all(np.isfinite(rows), axis=1)]
        if finite_rows.shape[0] == rows.shape[0]:
            overall = window.overall_mean()
        else:
            overall = finite_rows.mean(axis=0)
        return finite, overall

    def process_window(self, window: ObservationWindow) -> WindowResult:
        """Consume one observation window; returns what was derived."""
        self._n_windows += 1
        per_sensor, overall_mean = self._sanitize(window)
        if not per_sensor:
            result = WindowResult(
                window_index=window.index,
                skipped=True,
                learning_frozen=(
                    self.supervisor.learning_frozen
                    if self.supervisor is not None
                    else False
                ),
            )
            self.results.append(result)
            if self.supervisor is not None:
                self.supervisor.after_window(self)
            return result
        if self.clusterer is None:
            self._bootstrap_clusterer(per_sensor)
        assert self.clusterer is not None
        assert overall_mean is not None

        sensor_ids = sorted(per_sensor.keys())
        observations = np.vstack([per_sensor[s] for s in sensor_ids])
        # One-pass hot path: the clusterer's window update also performs
        # the overall-mean spawn check and hands back the post-update
        # Eq. 2/3 results, so identification never re-scans the states.
        cluster_update = self.clusterer.update(
            observations, overall_mean=overall_mean
        )
        # Key the row-indexed assignments back to sensor ids in the
        # window's own iteration order: alarm and filter bookkeeping
        # follow dict order, which must not change under the hood.
        assignment_of = dict(zip(sensor_ids, cluster_update.sensor_assignments))
        identification = identify_window(
            self.clusterer,
            per_sensor,
            overall_mean=overall_mean,
            sensor_states={s: assignment_of[s] for s in per_sensor},
            observable_state=cluster_update.observable_state,
        )

        raw_alarms = self.alarm_generator.process(window.index, identification)
        raw_by_sensor = {
            sensor_id: state_id != identification.correct_state
            for sensor_id, state_id in identification.sensor_states.items()
        }
        transitions = self.filter_bank.update(window.index, raw_by_sensor)
        for transition in transitions:
            if transition.raised:
                self.tracks.open_track(transition.sensor_id, window.index)
            else:
                self.tracks.close_track(transition.sensor_id, window.index)

        # Majority-assumption monitor: while the ModelUnderAttack
        # meta-alarm is active, every model-learning update is frozen —
        # M_CO, the track M_CE models, and the c_i/o_i sequences behind
        # M_C/M_O — so a coordinated compromise cannot poison the
        # learned models.  Detection (alarms, filters, track open/close)
        # keeps running above.
        frozen = (
            self.supervisor.observe_identification(window.index, identification)
            if self.supervisor is not None
            else False
        )
        if not frozen:
            self.tracks.record_window(
                identification.correct_state, identification.sensor_states
            )
            self.m_co.observe(
                identification.correct_state, identification.observable_state
            )
            self.correct_sequence.append(identification.correct_state)
            self.observable_sequence.append(identification.observable_state)

        result = WindowResult(
            window_index=window.index,
            skipped=False,
            identification=identification,
            cluster_update=cluster_update,
            raw_alarms=tuple(raw_alarms),
            filter_transitions=tuple(transitions),
            n_model_states=self.clusterer.n_states,
            learning_frozen=frozen,
        )
        self.results.append(result)
        if self.supervisor is not None:
            self.supervisor.after_window(self)
        return result

    def process_windows(
        self, windows: Sequence[ObservationWindow]
    ) -> List[WindowResult]:
        """Batch-feed a list of windows (trace-driven experiments)."""
        return [self.process_window(window) for window in windows]

    def process_trace(self, trace) -> List[WindowResult]:
        """Batched entry point: window ``trace`` columnarly and consume it.

        Accepts either a :class:`repro.traces.schema.Trace` or a
        :class:`repro.traces.columnar.ColumnarTrace`.  Windows are cut
        with :func:`repro.sensornet.collector.windows_from_arrays`
        (array views, no per-reading message objects) using the
        config's ``window_minutes``; results are bit-identical to
        windowing via messages and calling :meth:`process_windows`.
        """
        from ..traces.windows import window_trace_columnar

        windows = window_trace_columnar(trace, self.config.window_minutes)
        return [self.process_window(window) for window in windows]

    # -- the fused whole-trace fast path ----------------------------------

    @property
    def results(self) -> List[WindowResult]:
        """Per-window :class:`WindowResult` log.

        The fused path records lightweight argument tuples instead of
        building the frozen dataclasses inline; they materialize here on
        first access, so campaigns that only read digests/alarms never
        pay for them.
        """
        if self._pending_results:
            pending = self._pending_results
            self._pending_results = []
            self._results.extend(
                _materialize_result(entry) for entry in pending
            )
        return self._results

    @property
    def n_raw_alarms(self) -> int:
        """Raw alarms this pipeline object emitted.

        Equals ``sum(len(r.raw_alarms) for r in self.results)`` without
        materializing the results.  A pipeline rebuilt by :meth:`restore`
        starts from zero: the alarm log it restored belongs to the
        windows before the checkpoint, which its results do not hold.
        """
        return len(self.alarm_generator.alarms) - self._restored_raw_alarms

    @property
    def supervisor_violations(self) -> int:
        """Number of invariant violations recorded by the supervisor.

        0 when the pipeline runs unsupervised.  Cheap enough to poll
        between fleet steps: the fault-isolating fleet runtime watches
        this counter to demote a tenant whose repair-mode supervisor
        fired, without failing the batched advance for the other
        tenants.
        """
        return 0 if self.supervisor is None else len(self.supervisor.violations)

    def _vector_filter_bank(self) -> Optional[VectorFilterBank]:
        """The current filter state as a :class:`VectorFilterBank`.

        ``None`` when the configuration's filter factory is not one of
        the three stock filters, or when the scalar bank holds per-sensor
        state the homogeneous vector bank cannot represent (e.g. a
        checkpoint restored under a different filter configuration) —
        the fused path then falls back to the per-window oracle.
        """
        try:
            bank = VectorFilterBank.from_prototype(
                self.filter_bank.factory(), kernels=self._backend
            )
            bank.load_state_dict(self.filter_bank.state_dict())
        except (ValueError, TypeError):
            return None
        return bank

    def process_trace_fast(self, trace) -> int:
        """Fused struct-of-arrays variant of :meth:`process_trace`.

        Windows the trace columnarly and consumes it through
        :meth:`process_windows_fast`; every piece of resulting pipeline
        state (digest, alarms, filters, tracks, HMMs, supervisor
        verdicts) is bit-identical to :meth:`process_trace`.  Returns
        the number of windows consumed; the per-window results are
        available lazily through :attr:`results`.
        """
        from ..traces.windows import window_trace_columnar

        windows = window_trace_columnar(trace, self.config.window_minutes)
        return self.process_windows_fast(windows)

    def process_windows_fast(self, windows: Sequence[ObservationWindow]) -> int:
        """Consume many windows through the struct-of-arrays fast path.

        Identical state evolution to calling :meth:`process_window` per
        window (the oracle), but: per-sensor window means come from one
        whole-trace grouped ``bincount`` pass, alarm filters advance
        through a :class:`VectorFilterBank`, track recording goes
        through ``TrackManager.record_window_batch``, and
        :class:`WindowResult` construction is deferred (see
        :attr:`results`).  Falls back to the oracle loop when the filter
        bank cannot be vectorized (heterogeneous state or a custom
        factory); windows whose means need the non-finite drop path are
        sanitized individually.
        """
        vector_bank = self._vector_filter_bank()
        if vector_bank is None:
            for window in windows:
                self.process_window(window)
            return len(windows)
        stats = _batched_window_means(
            windows, kernels=self._backend, scratch=self._kernel_scratch
        )
        scalar_bank = self.filter_bank
        self.filter_bank = vector_bank  # live filter state during the run
        steady: Optional[_SteadyStretch] = None
        try:
            # One fp-state save for the whole run; the trusted clusterer
            # kernels rely on it (huge observations saturate to inf).
            with np.errstate(over="ignore"):
                for i, window in enumerate(windows):
                    stat = stats[i]
                    while steady is not None:
                        if self._steady_step(window, stat, i, steady):
                            break
                        self._steady_exit(steady)
                        # A failed step may offer a coarser partition (two
                        # groups met in one state): retry the window on it.
                        steady = (
                            None
                            if steady.regroup is None
                            else self._steady_enter(steady.regroup, stat)
                        )
                    else:
                        # No stretch certified the window: full path.
                        hint = self._process_window_fast(
                            window, stat, vector_bank
                        )
                        if hint is not None and self.supervisor is None:
                            steady = self._steady_enter(hint, stat)
        finally:
            if steady is not None:
                self._steady_exit(steady)
            # Fold the vector state back into the scalar bank so
            # checkpoints and later per-window calls continue from it.
            scalar_bank.load_state_dict(vector_bank.state_dict())
            self.filter_bank = scalar_bank
        return len(windows)

    def _process_window_fast(
        self,
        window: ObservationWindow,
        stat: "Optional[tuple]",
        vector_bank: VectorFilterBank,
    ) -> "Optional[int | List[int]]":
        """One fused-path window step (mirrors :meth:`process_window`).

        Returns the unanimous state id when the window qualifies as a
        steady-stretch entry point (see ``_steady_step``), the per-sensor
        state ids (sorted sensor order) when a multi-group window does,
        else None.
        """
        self._n_windows += 1
        supervisor = self.supervisor
        per_sensor: Optional[Dict[int, np.ndarray]] = None
        trusted = False
        full_mean: Optional[np.ndarray] = None
        if stat is None:
            # Slow lane: message-backed window or non-finite means —
            # run the oracle's sanitizer (and its raises) verbatim.
            per_sensor, overall_mean = self._sanitize(window)
            if per_sensor:
                ids_first = list(per_sensor.keys())
                ids_sorted = sorted(ids_first)
                id_array = np.asarray(ids_sorted, dtype=np.int64)
                observations = np.vstack([per_sensor[s] for s in ids_sorted])
                position = {s: i for i, s in enumerate(ids_sorted)}
                order_first: Sequence[int] = [position[s] for s in ids_first]
            else:
                ids_sorted = []
        else:
            (
                ids_sorted,
                id_array,
                observations,
                order_first,
                overall_mean,
                full_mean,
            ) = stat[:6]
            if overall_mean is None:
                overall_mean = window.overall_mean()
            else:
                trusted = True
        if not ids_sorted:
            frozen = (
                supervisor.learning_frozen if supervisor is not None else False
            )
            self._pending_results.append(
                (window.index, True, None, None, (), (), 0, frozen)
            )
            if supervisor is not None:
                supervisor.after_window(self)
            return
        if self.clusterer is None:
            if per_sensor is None:
                per_sensor = {
                    ids_sorted[p]: observations[p] for p in order_first
                }
            self._bootstrap_clusterer(per_sensor)
        assert self.clusterer is not None
        assert overall_mean is not None

        cluster_update = self.clusterer.update(
            observations,
            overall_mean=overall_mean,
            trusted=trusted,
            full_mean=full_mean,
        )
        assignments = cluster_update.sensor_assignments
        # Keyed in the window's first-occurrence order, exactly like the
        # oracle's per_sensor-driven dict (alarm bookkeeping follows it).
        sensor_states = {ids_sorted[p]: assignments[p] for p in order_first}
        identification = identify_window(
            self.clusterer,
            # Only len()/truthiness of per_sensor is read when
            # precomputed states are supplied; the assignment dict has
            # the same keys as the per-sensor means.
            sensor_states,
            overall_mean=overall_mean,
            sensor_states=sensor_states,
            observable_state=cluster_update.observable_state,
        )

        raw_alarms = self.alarm_generator.process(window.index, identification)
        correct = identification.correct_state
        transitions = vector_bank.update_batch(
            window.index,
            id_array,
            [state_id != correct for state_id in assignments],
            assume_sorted=True,
        )
        for transition in transitions:
            if transition.raised:
                self.tracks.open_track(transition.sensor_id, window.index)
            else:
                self.tracks.close_track(transition.sensor_id, window.index)

        frozen = (
            supervisor.observe_identification(window.index, identification)
            if supervisor is not None
            else False
        )
        if not frozen:
            self.tracks.record_window_batch(correct, ids_sorted, assignments)
            self.m_co.observe(correct, identification.observable_state)
            self.correct_sequence.append(correct)
            self.observable_sequence.append(identification.observable_state)

        self._pending_results.append(
            (
                window.index,
                False,
                identification,
                cluster_update,
                tuple(raw_alarms),
                tuple(transitions),
                self.clusterer.n_states,
                frozen,
            )
        )
        if supervisor is not None:
            supervisor.after_window(self)
            return None
        # Steady-stretch entry hint: a trusted window with no structural
        # change is a candidate for the certified fast lane (see
        # ``_steady_step``).  A unanimous window hands over its state id;
        # any other hands over its partition of the sensors.
        if (
            trusted
            and full_mean is not None
            and cluster_update.mean_spawned is None
            and not cluster_update.spawned
            and not cluster_update.merged
        ):
            n = len(assignments)
            c = assignments[0]
            if assignments.count(c) != n:
                return assignments
            if (
                cluster_update.observable_state == c
                and cluster_update.assignments.count(c) == n
            ):
                return c
        return None

    # -- certified steady-state stretch ---------------------------------
    #
    # Most windows repeat the previous window's picture: the sensors
    # split into the same k >= 1 groups (k = 1 on a healthy trace; a
    # faulty or compromised minority forms its own groups), each group
    # sits in its own model state, nothing spawns or merges, and each
    # group's state takes one Eq. 6 step toward the group's centroid.
    # Then every integer the window produces (assignments, o_i, c_i, raw
    # alarms) follows from the partition, and the only float state that
    # evolves outside the filter/HMM modules is the moved centroids — a
    # per-window recurrence ``c <- (1-alpha)*c + alpha*g`` that Python
    # floats compute with the same two roundings per element as the
    # oracle's NumPy expression.
    #
    # The stretch path therefore skips the distance kernels and instead
    # *proves*, per window and in scalar float ops, that the oracle would
    # have produced that outcome.  Per group j (the sensors of the
    # window that entered or last continued the stretch): g_j is the
    # centroid (sequential sum of the member means over n_j, bit-equal
    # to the oracle's ``np.mean`` for d >= 2; for k = 1 the prepass's
    # full group mean), s_j the spread (largest distance from g_j to a
    # member; for k = 1 the prepass spread, which also covers the
    # overall mean), c_j the nearest pre-move state to g_j (so a group
    # may hand off to another state; the k states must stay distinct),
    # and delta_j the length of c_j's Eq. 6 step.  Every other state X
    # moves by delta_X (delta_i when X is group i's state, else 0).  The
    # triangle inequality gives, for every member p of group j:
    #
    # * d(p, c_j) <= d(g_j, c_j) + s_j pre-move, + delta_j post-move — so
    #   ``d(g_j, c_j) + s_j + delta_j <= spawn_threshold`` rules out
    #   every spawn check (they all need a distance *above* it).
    # * d(p, X) >= d(g_j, X) - s_j - delta_X for X pre- or post-move — so
    #   ``d(g_j, c_j) + 2 s_j + delta_j < min_X (d(g_j, X) - delta_X)``
    #   keeps p strictly nearer to c_j than to any other state, before
    #   and after the update: the Eq. 3 assignments before the update,
    #   the group the Eq. 6 step averages, and the final assignments
    #   all land on c_j (no argmin tie-break can intervene).
    #   When these bounds are too loose for a group (a wide spread, or
    #   a centroid between two states), its members are checked one by
    #   one against the pre- and post-move states (``_members_hold``).
    # * the overall mean m (k > 1, or whenever a group was checked member
    #   by member; otherwise it lies within s_1 of g_1) is measured
    #   against the post-move states directly: its nearest state o
    #   within ``spawn_threshold`` rules out the mean spawn, and a strict
    #   margin to the runner-up fixes Eq. 2's o_i = o.
    # * the certified pair-distance lower bound (see ``StateSet``),
    #   decayed once per moved state in group order exactly as
    #   ``update_vector`` would, staying >= merge_threshold rules out
    #   merges.  When the decay has eaten the margin, every pair of
    #   post-move states is measured and the stretch continues on the
    #   measured minimum.  (The bound only decides whether the merge
    #   scan runs; any valid lower bound leaves every result unchanged.)
    #
    # The group sizes are fixed by the partition, so the majority group
    # (Eq. 4's c_i) is fixed too; a partition whose largest groups tie
    # never enters a stretch (``identify_window`` breaks that tie by
    # distances).  Since the k states are distinct, each sensor's raw
    # alarm flag is fixed as well: exactly the minority groups alarm,
    # and once a k-of-n filter bank has seen that constant pattern for
    # n windows every further window only advances its rings
    # (``VectorFilterBank.quiescent``), so those advances are deferred.
    #
    # Every certificate is padded by an absolute + relative slack so
    # float rounding in these scalar evaluations can never certify a
    # window the oracle would have handled differently.  Any window
    # whose certificate fails simply exits the stretch (deferred state
    # is written back first) and reprocesses through the full fused
    # path — certification is a pure go/no-go, never a result.

    def _steady_enter(
        self, hint: "int | List[int]", stat: tuple
    ) -> "Optional[_SteadyStretch]":
        """Open a stretch from an entry hint: a state id (every sensor in
        it) or each sorted sensor position's state id.  None when the
        partition's largest groups tie."""
        assert self.clusterer is not None
        matrix, ids = self.clusterer.states._ensure_cache()
        ids = list(ids)
        current = matrix.tolist()
        if isinstance(hint, int):
            return _SteadyStretch([hint], ids, current)
        group_of: Dict[int, int] = {}
        rows: List[List[int]] = []
        for position, state_id in enumerate(hint):
            group = group_of.get(state_id)
            if group is None:
                group = group_of[state_id] = len(rows)
                rows.append([])
            rows[group].append(position)
        if len(rows) == 1:
            return _SteadyStretch([hint[0]], ids, current)
        sizes = sorted(len(members) for members in rows)
        if sizes[-1] == sizes[-2]:
            return None
        return _SteadyStretch(list(group_of), ids, current, rows, stat[0])

    def _steady_step(
        self,
        window: ObservationWindow,
        stat: "Optional[tuple]",
        i: int,
        ctx: "_SteadyStretch",
    ) -> bool:
        """Process one window inside a certified stretch.

        Returns False when the window cannot be certified, leaving the
        live modules untouched; the caller then writes the deferred
        state back and retries the window on ``ctx.regroup`` when the
        step left one there, else runs the full fused path on it.
        """
        if stat is None:
            return False
        full_mean = stat[5]
        spread = stat[6]
        if full_mean is None or spread is None:
            return False
        ids_sorted = stat[0]
        if ctx.steady_ids is None:
            # First certified window of a unanimous stretch pins its
            # sensor set.
            ctx.steady_ids = ids_sorted
            ctx.raws = np.zeros(len(ids_sorted), dtype=bool)
        elif ids_sorted is not ctx.steady_ids and ids_sorted != ctx.steady_ids:
            # A different sensor population invalidates the partition
            # and the deferred alarm/filter bookkeeping — rejoin the
            # full path.
            return False
        clusterer = self.clusterer
        assert clusterer is not None
        alpha = clusterer.alpha
        keep = 1.0 - alpha
        spawn = clusterer.spawn_threshold
        dist = math.dist
        rows = ctx.rows
        points: "Optional[List[List[float]]]" = None
        if rows is None:
            goals = [full_mean.tolist()]
            spreads = [spread]
        else:
            points = stat[2].tolist()
            goals = grouped_means(points, rows)
            spreads = [
                max([dist(points[p], goal) for p in members])
                for goal, members in zip(goals, rows)
            ]

        # Distances (any accurate evaluation will do: the slack below
        # absorbs rounding) from each group centroid to every pre-move
        # state, the nearest state, and the Eq. 6 step it takes (exact).
        current = ctx.current
        table: List[List[float]] = []
        positions: List[int] = []
        news: List[List[float]] = []
        deltas: List[float] = []
        for goal in goals:
            row = [dist(goal, vector) for vector in current]
            position = row.index(min(row))
            vector = current[position]
            new = [keep * v_t + alpha * g_t for v_t, g_t in zip(vector, goal)]
            table.append(row)
            positions.append(position)
            news.append(new)
            deltas.append(dist(new, vector))
        k = len(positions)
        if k > 1 and len(set(positions)) < k:
            # Two groups met in one state (say, a minority rejoined the
            # majority): the partition itself changed.
            assert ctx.assign is not None
            moved_to = dict(zip(ctx.sids, [ctx.ids[p] for p in positions]))
            ctx.regroup = [moved_to[sid] for sid in ctx.assign]
            return False
        post = list(current)  # the post-move state set
        for position, new in zip(positions, news):
            post[position] = new
        check_mean = rows is not None
        for j in range(k):
            row = table[j]
            position = positions[j]
            s_j = spreads[j]
            reach = row[position] + s_j + deltas[j]
            ranked = sorted(row)
            runner_up = ranked[1] if len(ranked) > 1 else math.inf
            margin = runner_up * (1.0 - 1e-12) - 1e-9
            for other in range(k):
                if other != j:
                    # Group ``other``'s state moves too: its distance to
                    # g_j may shrink by up to its own step.  (``not >=``
                    # lets a NaN through, failing the certificate.)
                    d_x = row[positions[other]]
                    d_o = deltas[other]
                    shrunk = (d_x - d_o) - (d_x + d_o) * 1e-12 - 1e-9
                    if not shrunk >= margin:
                        margin = shrunk
            pad = 1e-9 + 1e-12 * (reach + s_j)
            if reach + pad <= spawn and reach + s_j + pad < margin:
                continue
            # The triangle bounds are too loose for this group (a wide
            # spread, or a centroid between two states): check its
            # members one by one instead.  Their distances no longer
            # bound the overall mean's, so certify that separately.
            if points is None:
                points = stat[2].tolist()
            members = rows[j] if rows is not None else range(len(points))
            if not _members_hold(
                points, members, current, post, position, spawn
            ):
                return False
            check_mean = True
        sids = [ctx.ids[position] for position in positions]
        observable = sids[0]
        if check_mean:
            mean = stat[4].tolist()
            row = [dist(mean, vector) for vector in post]
            ranked = sorted(row)
            gap = ranked[0]
            pad = 1e-9 + 1e-12 * gap
            observable = ctx.ids[row.index(gap)]
            runner_up = ranked[1] if len(ranked) > 1 else math.inf
            if not (
                gap + pad <= spawn
                and gap + pad < runner_up * (1.0 - 1e-12) - 1e-9
                # a unanimous stretch records o_i == c_i
                and (rows is not None or observable == sids[0])
            ):
                return False
        merge = clusterer.merge_threshold
        bound = clusterer.states.peek_decayed_pair_bound(*deltas)
        if bound is None or not bound >= merge:
            # The decayed bound no longer rules out a merge: measure every
            # pair of post-move states instead, with the same kind of
            # slack, and certify on the measured minimum.
            m = len(post)
            bound = (
                min(
                    [
                        dist(post[a], post[b])
                        for a in range(m - 1)
                        for b in range(a + 1, m)
                    ]
                )
                * (1.0 - 1e-12)
                - 1e-9
                if m > 1
                else math.inf
            )
            if not bound >= merge:
                return False
        clusterer.states.commit_pair_bound(bound)

        # -- certified: commit the window ------------------------------
        ctx.current = post
        visits = ctx.visits
        for sid in sids:
            visits[sid] = visits.get(sid, 0) + 1
        if sids != ctx.sids:
            # A group handed off to another state.
            if ctx.assign is not None:
                remap = dict(zip(ctx.sids, sids))
                ctx.assign = [remap[sid] for sid in ctx.assign]
            ctx.sids = sids
        ctx.alarm_count += 1
        self._n_windows += 1
        correct = sids[ctx.majority]
        if ctx.filter_ids is None and ctx.alarm_count >= ctx.filter_check:
            bank = self.filter_bank
            if bank.quiescent(stat[1], ctx.raws):
                # The stretch's constant raw alarms no longer change any
                # filter: defer the positional advances to the exit.
                ctx.filter_ids = stat[1]
            else:
                settle = bank.settle_windows
                ctx.filter_check = (
                    math.inf if settle is None else ctx.alarm_count + settle
                )
        if ctx.filter_ids is not None:
            ctx.filter_count += 1
            transitions: "tuple" = ()
        else:
            transitions = tuple(
                self.filter_bank.update_batch(
                    window.index, stat[1], ctx.raws, assume_sorted=True
                )
            )
            for transition in transitions:
                if transition.raised:
                    self.tracks.open_track(transition.sensor_id, window.index)
                else:
                    self.tracks.close_track(transition.sensor_id, window.index)
        assign = ctx.assign
        if assign is None:
            extra = None
        else:
            alarming = ctx.alarming
            assert alarming is not None
            index = window.index
            # Raw alarms in the window's first-occurrence order, like
            # ``AlarmGenerator.process`` over the identification dict;
            # the per-sensor history is appended at stretch exit.
            raw_alarms = tuple(
                RawAlarm(index, ids_sorted[p], assign[p], correct)
                for p in stat[3]
                if alarming[p]
            )
            self.alarm_generator.alarms.extend(raw_alarms)
            extra = (assign, observable, raw_alarms, ctx.majority_size)
        # M_CO and every open track see the same pair window after
        # window: record each run of equal pairs in one call when it ends
        # or the stretch exits (``OnlineHMM.observe_run``).
        runs = ctx.runs
        _count_run(runs, self.m_co.observe_run, correct, observable)
        for track, symbol in self.tracks.window_symbols(
            correct,
            ids_sorted,
            [correct] * len(ids_sorted) if assign is None else assign,
        ):
            _count_run(runs, track.record_run, correct, symbol)
        self.correct_sequence.append(correct)
        self.observable_sequence.append(observable)
        self._pending_results.append(
            (
                window.index,
                "steady",
                correct,
                ids_sorted,
                stat[3],
                transitions,
                clusterer.n_states,
                extra,
            )
        )
        return True

    def _steady_exit(self, ctx: "_SteadyStretch") -> None:
        """Fold the deferred stretch state back into the live modules:
        the Python-evolved centroids, the alarm-history runs, and the
        quiescent filter-bank position advances."""
        for record, first, second, count in ctx.runs.values():
            record(first, second, count)
        if ctx.visits:
            assert self.clusterer is not None
            states = self.clusterer.states
            for sid, count in ctx.visits.items():
                states.apply_steady_motion(
                    sid, ctx.current[ctx.ids.index(sid)], count
                )
        if ctx.alarm_count and ctx.steady_ids is not None:
            history = self.alarm_generator.history
            alarming = ctx.alarming
            quiet = [False] * ctx.alarm_count
            loud = [True] * ctx.alarm_count if alarming is not None else quiet
            for position, sensor_id in enumerate(ctx.steady_ids):
                alarms = alarming is not None and alarming[position]
                tail = loud if alarms else quiet
                series = history.get(sensor_id)
                if series is None:
                    history[sensor_id] = list(tail)
                else:
                    series.extend(tail)
        if ctx.filter_count:
            self.filter_bank.advance_quiescent(
                ctx.filter_count, ctx.filter_ids
            )

    def digest(self) -> str:
        """Content hash of everything the evaluation reads off a run.

        Covers the correct/observable state sequences, the M^CO model,
        every per-sensor track model, the resolved state vectors, and
        the per-sensor diagnoses.  Two runs produce the same digest iff
        they are observationally equivalent — this is what the parity
        suite and the scenario-cache correctness check compare.
        """
        import hashlib
        import json

        payload = {
            "n_windows": self._n_windows,
            "correct": self.correct_sequence,
            "observable": self.observable_sequence,
            "m_co": self.m_co.state_dict(),
            "tracks": [track.state_dict() for track in self.tracks.tracks],
            "states": {
                str(state_id): [repr(float(x)) for x in vector]
                for state_id, vector in sorted(self.state_vectors().items())
            },
            "diagnoses": {
                str(sensor_id): [
                    diagnosis.category.value,
                    diagnosis.anomaly_type.value,
                    repr(float(diagnosis.confidence)),
                ]
                for sensor_id, diagnosis in sorted(self.diagnose_all().items())
            },
        }
        # Supervision state joins the digest only when a supervisor
        # exists, so unsupervised digests stay bit-identical to the
        # pre-supervisor implementation.
        if self.supervisor is not None:
            payload["supervisor"] = self.supervisor.digest_payload()
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def digest_metadata(self) -> Dict[str, str]:
        """:meth:`digest` plus the backend that produced it.

        The backend never joins the hashed payload — kernels are
        bit-identical across backends, so the same run digests the same
        under ``numpy`` and ``compiled``.  The metadata records which
        implementations actually executed (``backend`` is the requested
        registry name; ``backend_flavor`` is what ran, which differs
        exactly when the compiled tier fell back to NumPy).
        """
        return {
            "digest": self.digest(),
            "backend": self._backend.name,
            "backend_flavor": self._backend.flavor,
        }

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Versioned JSON-ready checkpoint of the full pipeline state.

        See :mod:`repro.resilience.checkpoint`; ``restore(snapshot(p))``
        continues the run with identical downstream diagnoses.
        """
        from ..resilience.checkpoint import snapshot as _snapshot

        return _snapshot(self)

    @classmethod
    def restore(
        cls, payload: Dict[str, object], config: "Optional[PipelineConfig]" = None
    ) -> "DetectionPipeline":
        """Rebuild a pipeline from a :meth:`snapshot` document."""
        from ..resilience.checkpoint import restore as _restore

        return _restore(payload, config=config)

    # -- state access -----------------------------------------------------

    @property
    def n_windows(self) -> int:
        """Number of windows consumed (including skipped ones)."""
        return self._n_windows

    def state_vectors(self) -> Dict[int, np.ndarray]:
        """Every state id ever referenced -> its current attribute vector.

        Ids that were merged away resolve to their survivor's vector, so
        HMM snapshots recorded under old ids stay interpretable.
        """
        if self.clusterer is None:
            return {}
        vectors: Dict[int, np.ndarray] = {}
        referenced = set(self.m_co.state_ids) | set(self.m_co.symbol_ids)
        for track in self.tracks.tracks:
            referenced |= set(track.model.state_ids)
            referenced |= set(track.model.symbol_ids)
        referenced |= set(self.clusterer.states.state_ids)
        for state_id in referenced:
            if state_id < 0:  # the ⊥ symbol has no vector
                continue
            try:
                vectors[state_id] = self.clusterer.state_vector(state_id)
            except KeyError:
                continue
        return vectors

    # -- diagnosis -----------------------------------------------------------

    def _n_tracked_sensors(self) -> int:
        """Distinct sensors that ever had an error/attack track."""
        return len({t.sensor_id for t in self.tracks.tracks})

    def system_diagnosis(self) -> Diagnosis:
        """Classify the system-level condition from ``M_CO``.

        An attack-shaped ``B^CO`` corroborated by fewer tracked sensors
        than the configured coalition minimum is downgraded to NONE: the
        paper's attacks are coalition attacks, and a lone misbehaving
        sensor's leakage can mimic the structural signature (DESIGN.md
        §6).
        """
        diagnosis = classify_system(
            self.m_co, self.state_vectors(), self.config.classifier
        )
        if (
            diagnosis.is_attack
            and self._n_tracked_sensors()
            < self.config.classifier.min_attack_coalition
        ):
            evidence = dict(diagnosis.evidence)
            evidence["downgraded_attack"] = diagnosis.anomaly_type.value
            evidence["n_tracked_sensors"] = self._n_tracked_sensors()
            return Diagnosis(
                anomaly_type=AnomalyType.NONE,
                confidence=0.5,
                evidence=evidence,
            )
        return diagnosis

    def diagnose_sensor(self, sensor_id: int) -> Optional[Diagnosis]:
        """Classify the latest track of one sensor (None if never tracked)."""
        track = self.tracks.latest_track_for(sensor_id)
        if track is None:
            return None
        return classify_track(
            track,
            self.m_co,
            self.state_vectors(),
            self.config.classifier,
            n_tracked_sensors=self._n_tracked_sensors(),
        )

    def diagnose_all(self) -> Dict[int, Diagnosis]:
        """Classify every sensor that ever had a track."""
        diagnoses: Dict[int, Diagnosis] = {}
        for sensor_id in sorted({t.sensor_id for t in self.tracks.tracks}):
            diagnosis = self.diagnose_sensor(sensor_id)
            if diagnosis is not None:
                diagnoses[sensor_id] = diagnosis
        return diagnoses

    def track_for(self, sensor_id: int) -> Optional[ErrorAttackTrack]:
        """The latest error/attack track of a sensor, if any."""
        return self.tracks.latest_track_for(sensor_id)

    # -- user-facing models -------------------------------------------------

    def correct_model(self, prune: bool = True) -> MarkovModel:
        """``M_C`` — the error/attack-free environment dynamics (step 5)."""
        return self._sequence_model(self.correct_sequence, prune)

    def observable_model(self, prune: bool = True) -> MarkovModel:
        """``M_O`` — the dynamics of the environment as observed."""
        return self._sequence_model(self.observable_sequence, prune)

    def _sequence_model(self, sequence: List[int], prune: bool) -> MarkovModel:
        if not sequence:
            raise ValueError("no windows processed yet")
        resolved = (
            self.clusterer.states.resolve_batch(sequence)
            if self.clusterer is not None
            else list(sequence)
        )
        model = estimate_markov_model(resolved, self.state_vectors())
        if prune:
            model = model.prune(self.config.prune_visit_fraction)
        return model


def _count_run(runs: Dict[int, list], record, first: int, second: int) -> None:
    """Count one more ``(first, second)`` pair for ``record``'s owner.

    ``record`` is a bound ``observe_run``/``record_run``; a pending run of
    a different pair for the same owner is recorded first, so every
    owner still sees its pairs in window order.
    """
    key = id(record.__self__)
    run = runs.get(key)
    if run is not None:
        if run[1] == first and run[2] == second:
            run[3] += 1
            return
        run[0](run[1], run[2], run[3])
    runs[key] = [record, first, second, 1]


def _members_hold(
    points: List[List[float]],
    members: Sequence[int],
    pre: List[List[float]],
    post: List[List[float]],
    position: int,
    spawn: float,
) -> bool:
    """Member-by-member form of a group's steady certificate.

    True when every member point is within ``spawn`` of state
    ``position`` before the Eq. 6 moves (no spawn check fires) and
    strictly nearer to it than to any other state both before and after
    the moves (its Eq. 3 assignment and its final assignment), each
    comparison padded like the group certificate.
    """
    dist = math.dist
    for p in members:
        point = points[p]
        for vectors, limit in ((pre, spawn), (post, math.inf)):
            row = [dist(point, vector) for vector in vectors]
            gap = row[position]
            row[position] = math.inf
            pad = 1e-9 + 1e-12 * gap
            if not (
                gap + pad <= limit
                and gap + pad < min(row) * (1.0 - 1e-12) - 1e-9
            ):
                return False
    return True


def _materialize_result(entry: tuple) -> WindowResult:
    """Build one :class:`WindowResult` from a deferred pending entry.

    Two entry shapes exist: the general fused-path tuple mirroring the
    ``WindowResult`` fields, and the compact steady-stretch marker
    (``entry[1] == "steady"``) holding the correct state id, the sensor
    ordering, and — unless the window was unanimous (``None``) — the
    per-sensor assignments, the observable state, the raw alarms and the
    majority size.  The identification and cluster-update objects such
    a window implies are reconstructed here, off the hot loop.
    """
    if entry[1] == "steady":
        (
            window_index,
            _,
            correct,
            ids_sorted,
            order_first,
            transitions,
            n_model_states,
            extra,
        ) = entry
        n = len(ids_sorted)
        if extra is None:
            assignments = [correct] * n
            observable = correct
            raw_alarms: "tuple" = ()
            majority_size = n
        else:
            shared, observable, raw_alarms, majority_size = extra
            # One assignment list serves every window of a stretch; give
            # each result its own.
            assignments = list(shared)
        identification = WindowIdentification(
            observable_state=observable,
            correct_state=correct,
            sensor_states={ids_sorted[p]: assignments[p] for p in order_first},
            majority_size=majority_size,
            n_sensors=n,
        )
        cluster_update = ClusterUpdate(
            assignments=assignments,
            spawned=[],
            merged=[],
            sensor_assignments=assignments,
            observable_state=observable,
            mean_spawned=None,
        )
        return WindowResult(
            window_index=window_index,
            skipped=False,
            identification=identification,
            cluster_update=cluster_update,
            raw_alarms=raw_alarms,
            filter_transitions=transitions,
            n_model_states=n_model_states,
            learning_frozen=False,
        )
    (
        window_index,
        skipped,
        identification,
        cluster_update,
        raw_alarms,
        transitions,
        n_model_states,
        frozen,
    ) = entry
    return WindowResult(
        window_index=window_index,
        skipped=skipped,
        identification=identification,
        cluster_update=cluster_update,
        raw_alarms=raw_alarms,
        filter_transitions=transitions,
        n_model_states=n_model_states,
        learning_frozen=frozen,
    )


def _batched_window_means(
    windows: Sequence[ObservationWindow],
    kernels: "Optional[object]" = None,
    scratch: "Optional[dict]" = None,
) -> "List[Optional[tuple]]":
    """Whole-trace per-window per-sensor means in one grouped pass.

    Returns one entry per window: ``(sorted_sensor_ids,
    sorted_sensor_id_array, means_matrix, first_occurrence_order,
    overall_mean, full_group_mean)`` where ``means_matrix`` rows follow
    ``sorted_sensor_ids`` (given both as a plain-int list for dict keys
    and as the equivalent ``int64`` array for the vector filter bank),
    ``first_occurrence_order`` permutes sorted positions into the
    window's first-occurrence order (the dict order
    ``ArrayWindow.per_sensor_mean`` produces), and ``overall_mean`` is
    the window's Eq. 2 mean (``None`` for single-attribute traces,
    which compute it per window) — or the whole entry is ``None`` when
    the window must go through ``DetectionPipeline._sanitize`` instead
    (message-backed, empty, or holding any non-finite mean).

    Bit-identity with the per-window path: every group's sum is an
    ``np.bincount`` accumulation over the same values in the same row
    order (bincount adds sequentially in input order, so grouping per
    trace or per window yields the same float), divided by the same
    counts.  The grouped-sum passes run through ``kernels`` (a
    :class:`repro.backend.KernelBackend`; NumPy reference when omitted)
    whose implementations share that accumulation order, so the choice
    of backend never changes a single bit.  ``scratch`` is the caller's
    private buffer dict for the one grouped-sum pass whose result does
    not escape this call; callers that interleave multiple engines must
    each own their dict (never share one across instances).
    """
    from ..backend import get_backend
    from ..sensornet.collector import ArrayWindow

    if kernels is None:
        kernels = get_backend("numpy")

    stats: List[Optional[tuple]] = [None] * len(windows)
    keep = [
        i
        for i, window in enumerate(windows)
        if isinstance(window, ArrayWindow) and window.observations.shape[0] > 0
    ]
    if not keep:
        return stats
    ids_all = np.concatenate([windows[i].sensor_id_array for i in keep])
    obs_all = np.vstack([windows[i].observations for i in keep])
    lengths = [windows[i].observations.shape[0] for i in keep]
    window_of = np.repeat(np.arange(len(keep)), lengths)
    unique_ids, codes = np.unique(ids_all, return_inverse=True)
    n_codes = len(unique_ids)
    keys = window_of * n_codes + codes
    total = len(keep) * n_codes
    # ``sums`` never escapes this call (``means`` below is a fresh
    # fancy-indexed quotient), so its buffer may recycle through the
    # caller's private scratch dict.
    counts, sums = kernels.grouped_sums(keys, obs_all, total, scratch)
    present, first_rows = np.unique(keys, return_index=True)
    means = sums[present] / counts[present][:, None]
    # Finiteness is always resolved here (one bulk pass) so the fused
    # loop can hand the clusterer pre-certified inputs: windows with any
    # non-finite mean take the per-window slow lane, where the oracle's
    # own sanitize/raise behaviour applies verbatim.
    finite_ok = np.isfinite(means).all(axis=1)
    n_attributes = obs_all.shape[1]
    if n_attributes >= 2:
        # ``mean(axis=0)`` over a C-order (N, d>=2) matrix reduces each
        # column over *strided* data, which NumPy sums sequentially —
        # the same order ``bincount`` accumulates — so these grouped
        # overall means are bit-identical to the per-window
        # ``window.overall_mean()`` calls they replace.  (A d == 1
        # column is contiguous and takes pairwise summation instead,
        # so those windows compute their mean per window.)
        # These grouped results escape into per-window stats tuples, so
        # they must own fresh arrays: no scratch.
        row_counts = np.asarray(lengths, dtype=np.int64)
        _, overall = kernels.grouped_sums(window_of, obs_all, len(keep), None)
        overall /= row_counts[:, None]
        overall_finite = np.isfinite(overall).all(axis=1)
        # Mean of each window's per-sensor means (the Eq. 6 group mean
        # whenever a window's rows all land in one state — the healthy
        # steady state).  Same strided-sequential == bincount argument as
        # above; ``present`` is ascending, so rows group in order.
        group_of = present // n_codes
        rows_per, group_means = kernels.grouped_sums(
            group_of, means, len(keep), None
        )
        group_means /= rows_per[:, None]
    else:
        overall = None
        overall_finite = None
        group_means = None
    bounds = np.searchsorted(present, np.arange(len(keep) + 1) * n_codes)
    # One bulk reduction each; per-window re-checks only run on the rare
    # trace that actually contains a non-finite mean.
    all_finite = bool(finite_ok.all())
    all_overall_finite = overall_finite is None or bool(overall_finite.all())
    if overall is not None:
        # Per-window point spread: the largest distance from the window
        # centroid (the group mean) to any of the window's points —
        # sensor means and the overall mean.  One whole-trace kernel;
        # the steady-stretch certifier turns it into per-window spawn /
        # unanimity bounds via the triangle inequality without ever
        # touching the point arrays again.  Overflow/NaN just disables
        # certification for that window (comparisons come out False).
        with np.errstate(over="ignore", invalid="ignore"):
            group_of_means = group_means[group_of]
            sdiff = means - group_of_means
            sdist = np.sqrt(np.einsum("nd,nd->n", sdiff, sdiff))
            spread = np.maximum.reduceat(sdist, bounds[:-1])
            odiff = overall - group_means
            odist = np.sqrt(np.einsum("nd,nd->n", odiff, odiff))
            np.maximum(spread, odist, out=spread)
        spreads = spread.tolist()
    else:
        spreads = None
    if all_finite and all_overall_finite and len(present) == total:
        # Uniform fast path: every window heard every sensor, so each
        # window's id block is the full sorted alphabet.  Share one id
        # list/array across all windows and batch the per-window
        # first-occurrence argsorts into a single axis-1 call (stable
        # sort over exact ints — identical rows to per-window calls).
        id_array = unique_ids.astype(np.int64, copy=False)
        sensor_ids = id_array.tolist()
        order_lists = np.argsort(
            first_rows.reshape(len(keep), n_codes), axis=1, kind="stable"
        ).tolist()
        for k, i in enumerate(keep):
            a = k * n_codes
            stats[i] = (
                sensor_ids,
                id_array,
                means[a : a + n_codes],
                order_lists[k],
                overall[k] if overall is not None else None,
                group_means[k] if group_means is not None else None,
                spreads[k] if spreads is not None else None,
            )
        return stats
    for k, i in enumerate(keep):
        a, b = bounds[k], bounds[k + 1]
        if not all_finite and not bool(finite_ok[a:b].all()):
            continue  # slow lane: per-window sanitize handles these
        if (
            not all_overall_finite
            and overall_finite is not None
            and not bool(overall_finite[k])
        ):
            continue  # slow lane: the oracle raises on a non-finite mean
        id_array = unique_ids[present[a:b] - k * n_codes].astype(
            np.int64, copy=False
        )
        sensor_ids = id_array.tolist()
        order_first = np.argsort(first_rows[a:b], kind="stable").tolist()
        stats[i] = (
            sensor_ids,
            id_array,
            means[a:b],
            order_first,
            overall[k] if overall is not None else None,
            group_means[k] if group_means is not None else None,
            spreads[k] if spreads is not None else None,
        )
    return stats
