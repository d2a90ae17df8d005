"""Columnar fast path for scenario/trace generation.

The object-path generator (:func:`repro.traces.gdi.generate_gdi_trace`)
walks the simulator tick by tick, building a :class:`SensorMessage` per
reading.  That is the *oracle*: simple, obviously faithful to the
deployment model, and kept intact.  This module implements the same
computation over dense arrays — one ``(T, S, d)`` value grid plus
parallel id/time/drop masks — and is pinned to the oracle **bit for
bit** by the parity suite (``tests/test_columnar_parity.py``).

Why bit-exact equivalence is possible at all:

* environment sampling is vectorised such that scalar calls delegate to
  the batched kernels (see :mod:`repro.sensornet.environment`);
* ``Generator.normal(size=(T, d))`` consumes the same RNG stream as
  ``T`` sequential size-``d`` draws, so per-mote noise reproduces
  value-for-value;
* per-link loss/corruption draws are *conditionally* consumed (the
  corruption draw only happens when the packet was not lost), so the
  link stage pre-draws a bounded block of doubles from the private link
  RNG and locates the loss decisions in it in closed form (see
  :func:`_iid_link_walk`) — over-drawing a private Generator is
  unobservable;
* fault/attack kernels visit reports in message order (tick-major, then
  mote order), which :meth:`FaultInjector.apply_columnar` guarantees.

``GENERATOR_VERSION`` is the cache-invalidation knob: any change to the
generator's *outputs* (not just its speed) must bump it, which changes
every content hash in :mod:`repro.traces.cache` and forces regeneration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..sensornet.collector import ArrayWindow, DeliveryStats
from ..sensornet.environment import EnvironmentModel
from ..sensornet.network import GilbertElliottLoss
from .gdi import GDITraceConfig, build_environment
from .schema import Trace, TraceRecord

#: Bump on any behavioural change to trace generation (columnar or
#: object path).  Part of every scenario-cache content hash.
GENERATOR_VERSION = 1

#: Canonical empty observation matrix for windows emitted before any
#: report was accepted (the collector does not know the width yet).
_EMPTY_OBSERVATIONS = np.zeros((0, 0))
_EMPTY_OBSERVATIONS.flags.writeable = False


def tick_schedule(duration_minutes: float, period_minutes: float) -> np.ndarray:
    """Sampling times of the simulator's run loop, bit-exactly.

    The simulator accumulates ``minutes += period`` rather than
    multiplying, so for pathological float periods ``k * period`` could
    differ in the last ulp.  Replaying the accumulation keeps every
    downstream timestamp identical.
    """
    if duration_minutes <= 0:
        raise ValueError("duration_minutes must be positive")
    if period_minutes <= 0:
        raise ValueError("period_minutes must be positive")
    ticks: List[float] = []
    minutes = 0.0
    while minutes < duration_minutes:
        ticks.append(minutes)
        minutes += period_minutes
    return np.asarray(ticks, dtype=float)


@dataclass(eq=False)
class ColumnarTrace:
    """A generated deployment month as dense arrays.

    Attributes
    ----------
    tick_times:
        ``(T,)`` sampling times in minutes.
    sensor_ids:
        ``(S,)`` mote id of each column.
    values:
        ``(T, S, d)`` reports as they left the (possibly corrupted)
        motes.  Cells that were lost/suppressed still hold the values
        that *would* have been sent — consult :attr:`delivered`.
    delivered:
        ``(T, S)`` True where the collector accepted the report.
    lost / malformed:
        ``(T, S)`` link-level packet fate masks (drops and CRC
        failures).
    duplicated:
        ``(T, S)`` True where the link also delivered a second copy
        (always False on the loss-only GDI profile).
    attribute_names / metadata:
        Same provenance the object-path :class:`Trace` carries.

    All arrays are frozen read-only after construction: windows and
    pipeline stages hold *views* into them, and the copy-on-write guard
    tests rely on accidental mutation raising.
    """

    tick_times: np.ndarray
    sensor_ids: np.ndarray
    values: np.ndarray
    delivered: np.ndarray
    lost: np.ndarray
    malformed: np.ndarray
    duplicated: np.ndarray
    attribute_names: Tuple[str, ...] = ("temperature", "humidity")
    metadata: Dict[str, float] = field(default_factory=dict)
    _flat: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self) -> None:
        self.tick_times = np.asarray(self.tick_times, dtype=float)
        self.sensor_ids = np.asarray(self.sensor_ids, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=float)
        for name in ("delivered", "lost", "malformed", "duplicated"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=bool))
        expected = (len(self.tick_times), len(self.sensor_ids))
        if self.values.shape[:2] != expected or self.values.ndim != 3:
            raise ValueError("values must have shape (T, S, d)")
        for name in ("delivered", "lost", "malformed", "duplicated"):
            if getattr(self, name).shape != expected:
                raise ValueError(f"{name} must have shape (T, S)")
        for array in (
            self.tick_times,
            self.sensor_ids,
            self.values,
            self.delivered,
            self.lost,
            self.malformed,
            self.duplicated,
        ):
            array.flags.writeable = False

    @property
    def n_ticks(self) -> int:
        """Number of sampling rounds T."""
        return self.values.shape[0]

    @property
    def n_sensors(self) -> int:
        """Number of motes S."""
        return self.values.shape[1]

    @property
    def n_attributes(self) -> int:
        """Attribute dimensionality d."""
        return self.values.shape[2]

    def __len__(self) -> int:
        return int(self.delivered.sum())

    def delivered_arrays(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Flat ``(timestamps, sensor_ids, values)`` of accepted reports.

        Rows come out in canonical trace order — sorted by
        ``(timestamp, sensor_id)`` — which for an ascending-id grid is
        simply row-major order over the delivered mask.  The value
        array is a fresh contiguous ``(K, d)`` block, frozen read-only
        so windows can alias it safely.
        """
        if self._flat is None:
            tick_idx, sensor_idx = np.nonzero(self.delivered)
            timestamps = self.tick_times[tick_idx]
            sensor_ids = self.sensor_ids[sensor_idx]
            values = self.values[tick_idx, sensor_idx]
            if not np.all(np.diff(self.sensor_ids) > 0):
                order = np.lexsort((sensor_ids, timestamps))
                timestamps = timestamps[order]
                sensor_ids = sensor_ids[order]
                values = values[order]
            for array in (timestamps, sensor_ids, values):
                array.flags.writeable = False
            self._flat = (timestamps, sensor_ids, values)
        return self._flat

    def to_trace(self) -> Trace:
        """Materialise the object-path :class:`Trace` (oracle format)."""
        timestamps, sensor_ids, values = self.delivered_arrays()
        records = [
            TraceRecord(
                sensor_id=int(sensor_ids[row]),
                timestamp=float(timestamps[row]),
                attributes=tuple(float(x) for x in values[row]),
            )
            for row in range(len(timestamps))
        ]
        trace = Trace(records=records, attribute_names=self.attribute_names)
        trace.metadata.update(self.metadata)
        return trace


def _iid_link_walk(
    link_rng: np.random.Generator,
    attempt_ticks: np.ndarray,
    loss_probability: float,
    corruption_probability: float,
) -> "tuple[np.ndarray, np.ndarray]":
    """Decide one i.i.d. link's fate for every attempt from pre-drawn doubles.

    Returns boolean ``(lost, malformed)`` arrays aligned with
    ``attempt_ticks``.  The scalar link consumes one double for the
    loss decision and a second one only when the packet survived, so
    the loss decisions sit at a data-dependent subset of the ``2n``
    pre-drawn doubles.  Draw ``k`` is a loss decision iff ``k == 0``,
    or draw ``k-1`` was a lost decision, or draw ``k-1`` was no decision
    (it was the previous packet's corruption draw).  Hence any draw
    below the loss probability forces the next draw to be a decision,
    and from each forced draw on, decisions alternate: a closed form
    instead of a walk.
    """
    n = attempt_ticks.size
    draws = link_rng.random(2 * n)
    positions = np.arange(2 * n)
    forced = np.empty(2 * n, dtype=bool)
    forced[:1] = True
    forced[1:] = draws[:-1] < loss_probability
    last_forced = np.maximum.accumulate(np.where(forced, positions, 0))
    decisions = np.flatnonzero(((positions - last_forced) & 1) == 0)[:n]
    lost = draws[decisions] < loss_probability
    malformed = ~lost & (draws[decisions + 1] < corruption_probability)
    return lost, malformed


def generate_gdi_trace_columnar(
    config: Optional[GDITraceConfig] = None,
    corruption: Optional["FaultInjector"] = None,
) -> ColumnarTrace:
    """Columnar equivalent of :func:`repro.traces.gdi.generate_gdi_trace`.

    Same inputs, same seeds, bit-identical outputs (the parity suite
    compares the materialised :class:`Trace` record by record) — but
    environment sampling, mote noise, and fault application run as
    array kernels instead of one Python object per reading.

    Parameters
    ----------
    config:
        Generator knobs; defaults reproduce the paper's setup.
    corruption:
        Optional :class:`repro.faults.injector.FaultInjector`.  Unlike
        the object path (which accepts any callable stage), the
        columnar path needs the injector's vectorised entry point; pass
        arbitrary stages to the object generator instead.
    """
    config = config or GDITraceConfig()
    environment = build_environment(config)
    tick_times = tick_schedule(
        config.duration_minutes, config.sample_period_minutes
    )
    n_ticks = tick_times.size
    n_sensors = config.n_sensors
    sensor_ids = np.arange(n_sensors, dtype=np.int64)

    truth = environment.values_at(tick_times)
    n_attributes = truth.shape[1]
    values = np.empty((n_ticks, n_sensors, n_attributes))
    for s in range(n_sensors):
        mote_rng = np.random.default_rng((config.seed, s))
        values[:, s, :] = truth + mote_rng.normal(
            0.0, config.noise_std, size=(n_ticks, n_attributes)
        )

    if corruption is not None:
        delivered = corruption.apply_columnar(tick_times, sensor_ids, values)
    else:
        delivered = np.ones((n_ticks, n_sensors), dtype=bool)

    lost = np.zeros((n_ticks, n_sensors), dtype=bool)
    malformed = np.zeros((n_ticks, n_sensors), dtype=bool)
    for s in range(n_sensors):
        link_rng = np.random.default_rng(int(config.seed) * 100_003 + s)
        attempts = np.nonzero(delivered[:, s])[0]
        link_lost, link_malformed = _iid_link_walk(
            link_rng,
            attempts,
            config.loss_probability,
            config.corruption_probability,
        )
        lost[attempts, s] = link_lost
        malformed[attempts, s] = link_malformed
    delivered &= ~lost & ~malformed

    # Hardened-ingest parity: the collector quarantines non-finite
    # readings before they reach a window (or the trace).
    finite = np.isfinite(values).all(axis=2)
    delivered &= finite

    metadata = {
        "n_sensors": float(config.n_sensors),
        "n_days": float(config.n_days),
        "seed": float(config.seed),
        "accepted": float(delivered.sum()),
        "malformed": float(malformed.sum()),
        "lost": float(lost.sum()),
    }
    return ColumnarTrace(
        tick_times=tick_times,
        sensor_ids=sensor_ids,
        values=values,
        delivered=delivered,
        lost=lost,
        malformed=malformed,
        duplicated=np.zeros((n_ticks, n_sensors), dtype=bool),
        attribute_names=environment.attribute_names,
        metadata=metadata,
    )


@dataclass
class ColumnarSimResult:
    """What :func:`simulate_windows_columnar` produced."""

    windows: List[ArrayWindow]
    stats: DeliveryStats
    n_ticks: int
    end_minutes: float
    n_in_flight_at_end: int


def simulate_windows_columnar(
    environment: EnvironmentModel,
    *,
    n_sensors: int,
    duration_minutes: float,
    window_minutes: float,
    sample_period_minutes: float = 5.0,
    noise_std: float = 0.35,
    seed: int = 0,
    loss_probability: float = 0.15,
    corruption_probability: float = 0.01,
    burst: Optional[GilbertElliottLoss] = None,
    delay_probability: float = 0.0,
    max_delay_minutes: float = 0.0,
    duplicate_probability: float = 0.0,
    corruption: Optional["FaultInjector"] = None,
    clock_skew_minutes: Optional[Dict[int, float]] = None,
) -> ColumnarSimResult:
    """Columnar equivalent of a full impaired-link simulator run.

    Reproduces ``NetworkSimulator.run`` against a
    ``StarNetwork.impaired`` star and a hardened collector — including
    burst loss, delay/reordering, duplication, and per-mote clock skew
    (skew is applied to reported timestamps *after* the corruption
    stage, mirroring the chaos harness's composition).  The emitted
    :class:`ArrayWindow` sequence and :class:`DeliveryStats` are
    bit-identical to the object run with the same seeds; the parity
    suite pins this.

    Not modelled (use the object simulator): mote ``skip_probability``,
    battery death, and non-injector corruption stages.
    """
    tick_times = tick_schedule(duration_minutes, sample_period_minutes)
    n_ticks = tick_times.size
    sensor_ids = np.arange(n_sensors, dtype=np.int64)
    # The run loop's clock *after* each tick (pop times), replayed with
    # the same float accumulation.
    end_minutes = (
        float(tick_times[-1]) + sample_period_minutes
        if n_ticks
        else sample_period_minutes
    )
    pop_times = np.empty(n_ticks)
    if n_ticks:
        pop_times[:-1] = tick_times[1:]
        pop_times[-1] = end_minutes

    truth = environment.values_at(tick_times)
    n_attributes = truth.shape[1]
    values = np.empty((n_ticks, n_sensors, n_attributes))
    for s in range(n_sensors):
        mote_rng = np.random.default_rng((seed, s))
        values[:, s, :] = truth + mote_rng.normal(
            0.0, noise_std, size=(n_ticks, n_attributes)
        )

    if corruption is not None:
        emitted = corruption.apply_columnar(tick_times, sensor_ids, values)
    else:
        emitted = np.ones((n_ticks, n_sensors), dtype=bool)

    skew = np.zeros(n_sensors)
    for sensor_id, offset in (clock_skew_minutes or {}).items():
        skew[int(sensor_id)] = float(offset)
    reported_ts = tick_times[:, None] + skew[None, :]

    stats = DeliveryStats()
    # Message-bearing deliveries: (tick, sensor, record_idx, arrival).
    immediate: List[Tuple[int, int, int, float]] = []
    delayed: List[Tuple[int, int, int, float]] = []
    duplicated = np.zeros((n_ticks, n_sensors), dtype=bool)
    for s in range(n_sensors):
        link_rng = np.random.default_rng(int(seed) * 100_003 + s)
        link_bad = bool(burst.start_bad) if burst is not None else False
        attempts = np.nonzero(emitted[:, s])[0]
        if attempts.size == 0:
            continue
        # Worst case per attempt: burst flip + loss + corruption +
        # duplicate + 2×(delay decision, delay amount) = 8 doubles.
        draws = link_rng.random(8 * attempts.size)
        ptr = 0
        for t in attempts:
            now = tick_times[t]
            if burst is not None:
                flip = draws[ptr]
                ptr += 1
                if link_bad:
                    if flip < burst.p_bad_to_good:
                        link_bad = False
                elif flip < burst.p_good_to_bad:
                    link_bad = True
                p_loss = burst.loss_bad if link_bad else burst.loss_good
            else:
                p_loss = loss_probability
            if draws[ptr] < p_loss:
                ptr += 1
                stats.lost += 1
                continue
            ptr += 1
            if draws[ptr] < corruption_probability:
                ptr += 1
                stats.malformed += 1
                continue
            ptr += 1
            n_copies = 1
            if duplicate_probability > 0.0:
                if draws[ptr] < duplicate_probability:
                    n_copies = 2
                    duplicated[t, s] = True
                ptr += 1
            for record_idx in range(n_copies):
                arrival = None
                if delay_probability > 0.0:
                    if draws[ptr] < delay_probability:
                        ptr += 1
                        # uniform(0, max) == 0.0 + max * next_double.
                        arrival = now + 0.0 + max_delay_minutes * draws[ptr]
                        ptr += 1
                    else:
                        ptr += 1
                if arrival is None or arrival <= now:
                    immediate.append((int(t), s, record_idx, now))
                else:
                    delayed.append((int(t), s, record_idx, arrival))

    # The simulator heap-pushes delayed records in global message order
    # (tick-major, mote order, record order) with a monotone tiebreak
    # counter; equal arrivals pop in push order.
    delayed.sort(key=lambda item: (item[0], item[1], item[2]))
    # Receive schedule: (receive_tick, phase, sort_a, sort_b, t, s).
    # Phase 0 = heap pops at tick start (ordered by arrival, counter);
    # phase 1 = in-tick deliveries (ordered by mote, record index).
    events: List[Tuple[int, int, float, int, int, int]] = []
    n_in_flight = 0
    for counter, (t, s, record_idx, arrival) in enumerate(delayed):
        k_recv = int(np.searchsorted(tick_times, arrival, side="left"))
        if k_recv >= n_ticks:
            n_in_flight += 1
            continue
        events.append((k_recv, 0, float(arrival), counter, t, s))
    for t, s, record_idx, now in immediate:
        events.append((t, 1, float(s), record_idx, t, s))
    events.sort(key=lambda e: (e[0], e[1], e[2], e[3]))

    # Collector window/pop bookkeeping, replayed with the collector's
    # exact float comparisons.
    next_index_at_tick = np.empty(n_ticks, dtype=np.int64)
    next_index = 1
    for k in range(n_ticks):
        next_index_at_tick[k] = next_index
        while window_minutes * next_index <= pop_times[k]:
            next_index += 1
    n_windows = next_index - 1
    boundaries = np.asarray(
        [window_minutes * i for i in range(n_windows + 1)]
    )
    # Tick whose end-of-tick pop emits window i (1-based): the one just
    # before the first tick that *starts* with next_index > i.
    pop_tick = (
        np.searchsorted(next_index_at_tick, np.arange(2, n_windows + 2)) - 1
    )

    # Replay the hardened ingest over the receive schedule.
    seen_keys: Dict[int, set] = {}
    accepted_t: List[int] = []
    accepted_s: List[int] = []
    first_accept_tick: Optional[int] = None
    finite = np.isfinite(values).all(axis=2)
    for k_recv, _phase, _a, _b, t, s in events:
        ts = reported_ts[t, s]
        if not finite[t, s]:
            stats.non_finite += 1
            continue
        if ts < window_minutes * (next_index_at_tick[k_recv] - 1):
            stats.late += 1
            continue
        key = (float(ts), t)  # mote sequence number == tick index here
        keys = seen_keys.setdefault(s, set())
        if key in keys:
            stats.duplicate += 1
            continue
        keys.add(key)
        stats.accepted += 1
        if first_accept_tick is None:
            first_accept_tick = k_recv
        accepted_t.append(t)
        accepted_s.append(s)

    acc_t = np.asarray(accepted_t, dtype=np.int64)
    acc_s = np.asarray(accepted_s, dtype=np.int64)
    acc_ts = (
        reported_ts[acc_t, acc_s] if acc_t.size else np.zeros(0)
    )
    # Window of each accepted row; rows past the last emitted window
    # stay in the (never flushed) buffer.
    win_idx = np.searchsorted(boundaries, acc_ts, side="right")
    in_emitted = (win_idx >= 1) & (win_idx <= n_windows)
    acc_t, acc_s, acc_ts, win_idx = (
        acc_t[in_emitted],
        acc_s[in_emitted],
        acc_ts[in_emitted],
        win_idx[in_emitted],
    )
    order = np.argsort(win_idx, kind="stable")  # keeps acceptance order
    flat_values = np.ascontiguousarray(values[acc_t[order], acc_s[order]])
    flat_sensor_ids = sensor_ids[acc_s[order]]
    flat_values.flags.writeable = False
    flat_sensor_ids.flags.writeable = False
    sorted_win = win_idx[order]

    windows: List[ArrayWindow] = []
    for i in range(1, n_windows + 1):
        lo = int(np.searchsorted(sorted_win, i, side="left"))
        hi = int(np.searchsorted(sorted_win, i, side="right"))
        width = (
            n_attributes
            if first_accept_tick is not None
            and first_accept_tick <= pop_tick[i - 1]
            else 0
        )
        observations = (
            flat_values[lo:hi] if (hi > lo or width) else _EMPTY_OBSERVATIONS
        )
        windows.append(
            ArrayWindow(
                index=i,
                start_minutes=float(boundaries[i - 1]),
                end_minutes=float(boundaries[i]),
                observations=observations,
                sensor_id_array=flat_sensor_ids[lo:hi],
                n_attributes=width,
            )
        )
    return ColumnarSimResult(
        windows=windows,
        stats=stats,
        n_ticks=n_ticks,
        end_minutes=end_minutes,
        n_in_flight_at_end=n_in_flight,
    )
