"""Applying corruptors to the live message stream.

The :class:`FaultInjector` is the glue between :mod:`repro.faults` and
the simulator: it is a valid
:data:`~repro.sensornet.simulator.CorruptionStage`, holds the environment
so adversaries can see Θ(t), dispatches per-sensor corruptors according
to their activation schedules, and keeps a ground-truth log of every
report it rewrote.  Nothing in the detection or evaluation path reads
that log; it is there for callers and tests that want to know exactly
what was planted.  :meth:`FaultInjector.apply_columnar` records its
entries as arrays, and :attr:`FaultInjector.events` materializes them
as :class:`CorruptionEvent` objects on first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..sensornet.environment import EnvironmentModel
from ..sensornet.messages import SensorMessage
from .base import ActivationSchedule, Corruptor


@dataclass
class Injection:
    """One corruptor bound to a set of sensors and a schedule."""

    corruptor: Corruptor
    sensor_ids: Set[int]
    schedule: ActivationSchedule = field(default_factory=ActivationSchedule)

    def __post_init__(self) -> None:
        self.sensor_ids = set(self.sensor_ids)
        if not self.sensor_ids:
            raise ValueError("an injection needs at least one sensor")

    def applies_to(self, sensor_id: int, minutes: float) -> bool:
        """True when this injection corrupts ``sensor_id`` at ``minutes``."""
        return sensor_id in self.sensor_ids and self.schedule.active_at(minutes)


@dataclass(frozen=True)
class CorruptionEvent:
    """Ground-truth log entry: one report was rewritten."""

    sensor_id: int
    timestamp: float
    kind: str
    malicious: bool


@dataclass(frozen=True)
class _EventBlock:
    """The log entries of one :meth:`FaultInjector.apply_columnar` call.

    Row ``k`` is one rewritten report, in message order; ``owners[k]``
    indexes ``labels``, the ``(kind, malicious)`` pair of the injection
    that rewrote it.
    """

    sensor_ids: np.ndarray
    timestamps: np.ndarray
    owners: np.ndarray
    labels: Tuple[Tuple[str, bool], ...]

    def materialize(self) -> List[CorruptionEvent]:
        """The block's entries as log objects, in message order."""
        return [
            CorruptionEvent(
                sensor_id=sensor_id,
                timestamp=timestamp,
                kind=self.labels[owner][0],
                malicious=self.labels[owner][1],
            )
            for sensor_id, timestamp, owner in zip(
                self.sensor_ids.tolist(),
                self.timestamps.tolist(),
                self.owners.tolist(),
            )
        ]


@dataclass
class FaultInjector:
    """Applies scheduled corruptors to the message stream.

    Parameters
    ----------
    environment:
        The ground-truth model; adversarial corruptors receive Θ(t).
    injections:
        The active corruption plan.  When several injections cover the
        same sensor at the same time, the first in the list wins —
        deterministic and easy to reason about in campaign specs.

    The ground-truth log (:attr:`events`) is not consumed by the
    detection or evaluation path.  Columnar blocks are kept as arrays
    and materialized into :class:`CorruptionEvent` objects on first read.
    """

    environment: EnvironmentModel
    injections: List[Injection] = field(default_factory=list)
    _events: List[CorruptionEvent] = field(
        default_factory=list, init=False, repr=False, compare=False
    )
    _pending: List[_EventBlock] = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    @property
    def events(self) -> List[CorruptionEvent]:
        """Ground-truth log: one entry per rewritten report, in call order."""
        for block in self._pending:
            self._events.extend(block.materialize())
        self._pending.clear()
        return self._events

    def add(
        self,
        corruptor: Corruptor,
        sensor_ids: Sequence[int],
        schedule: Optional[ActivationSchedule] = None,
    ) -> Injection:
        """Register a corruptor for some sensors; returns the injection."""
        injection = Injection(
            corruptor=corruptor,
            sensor_ids=set(sensor_ids),
            schedule=schedule or ActivationSchedule(),
        )
        self.injections.append(injection)
        return injection

    def corrupted_sensor_ids(self) -> Set[int]:
        """All sensors that any injection ever touches."""
        ids: Set[int] = set()
        for injection in self.injections:
            ids |= injection.sensor_ids
        return ids

    def ground_truth_kind(self, sensor_id: int) -> Optional[str]:
        """The corruptor kind planted on ``sensor_id`` (None if clean)."""
        for injection in self.injections:
            if sensor_id in injection.sensor_ids:
                return injection.corruptor.kind
        return None

    def __call__(self, message: SensorMessage) -> Optional[SensorMessage]:
        """CorruptionStage entry point used by the simulator."""
        for injection in self.injections:
            if not injection.applies_to(message.sensor_id, message.timestamp):
                continue
            truth = self.environment.value_at(message.timestamp)
            corrupted = injection.corruptor.corrupt(
                message, truth, injection.schedule.elapsed(message.timestamp)
            )
            if corrupted is not None and corrupted.attributes != message.attributes:
                self.events.append(
                    CorruptionEvent(
                        sensor_id=message.sensor_id,
                        timestamp=message.timestamp,
                        kind=injection.corruptor.kind,
                        malicious=injection.corruptor.malicious,
                    )
                )
            return corrupted
        return message

    def apply_columnar(
        self,
        tick_times: np.ndarray,
        sensor_ids: np.ndarray,
        values: np.ndarray,
        emitted: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Vectorised equivalent of streaming every message through ``__call__``.

        Parameters
        ----------
        tick_times:
            ``(T,)`` sampling times in minutes.
        sensor_ids:
            ``(S,)`` sensor id of each column, in mote iteration order.
        values:
            ``(T, S, d)`` report grid, **modified in place**.
        emitted:
            Optional ``(T, S)`` mask of reports that exist (False for
            dead/skipped motes).  Defaults to all-True.

        Returns the ``(T, S)`` delivered mask: emitted reports that no
        corruptor suppressed.  The ground-truth ``events`` log receives
        exactly the entries (and order) the scalar path would append,
        kept as one columnar block until it is read.
        """
        tick_times = np.asarray(tick_times, dtype=float)
        sensor_ids = np.asarray(sensor_ids)
        n_ticks, n_sensors, _ = values.shape
        delivered = (
            np.ones((n_ticks, n_sensors), dtype=bool)
            if emitted is None
            else emitted.copy()
        )
        # First-match-wins: a cell visited by an earlier injection is
        # consumed even when that injection left the report unchanged.
        claimed = np.zeros((n_ticks, n_sensors), dtype=bool)
        truth_all: Optional[np.ndarray] = None
        changed_ticks: List[np.ndarray] = []
        changed_sensors: List[np.ndarray] = []
        owners: List[np.ndarray] = []
        labels: List[Tuple[str, bool]] = []
        for injection in self.injections:
            sensor_mask = np.isin(sensor_ids, list(injection.sensor_ids))
            if not sensor_mask.any():
                continue
            time_mask = injection.schedule.active_mask(tick_times)
            cell_mask = (
                time_mask[:, None]
                & sensor_mask[None, :]
                & delivered
                & ~claimed
            )
            if not cell_mask.any():
                continue
            claimed |= cell_mask
            # np.nonzero walks the grid row-major: tick-major, then mote
            # order — the exact order the scalar stream visits messages,
            # which stateful RNG corruptors rely on.
            tt, ss = np.nonzero(cell_mask)
            if truth_all is None:
                truth_all = self.environment.values_at(tick_times)
            sub_values = values[tt, ss]
            new_values, sub_delivered = injection.corruptor.corrupt_columnar(
                sub_values,
                truth_all[tt],
                injection.schedule.elapsed_array(tick_times)[tt],
            )
            values[tt, ss] = new_values
            delivered[tt, ss] = sub_delivered
            changed = np.any(new_values != sub_values, axis=1) & sub_delivered
            changed_ticks.append(tt[changed])
            changed_sensors.append(ss[changed])
            owners.append(np.full(changed_ticks[-1].size, len(labels)))
            labels.append((injection.corruptor.kind, injection.corruptor.malicious))
        if labels:
            tt = np.concatenate(changed_ticks)
            ss = np.concatenate(changed_sensors)
            # Interleave the per-injection blocks back into global
            # message order (the scalar log's order); claimed cells are
            # unique, so the sort has no ties.
            order = np.lexsort((ss, tt))
            self._pending.append(
                _EventBlock(
                    sensor_ids=sensor_ids[ss[order]].astype(np.int64),
                    timestamps=tick_times[tt[order]],
                    owners=np.concatenate(owners)[order],
                    labels=tuple(labels),
                )
            )
        return delivered

    def events_by_sensor(self) -> Dict[int, List[CorruptionEvent]]:
        """Group the ground-truth log per sensor."""
        grouped: Dict[int, List[CorruptionEvent]] = {}
        for event in self.events:
            grouped.setdefault(event.sensor_id, []).append(event)
        return grouped
