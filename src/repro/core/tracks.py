"""Error/attack track management (paper §3.1, Track Management module).

Each sensor with a *set* filtered alarm gets its own open track ``e^k``.
While the track is open, every window appends a symbol:

* the sensor's mapped state ``l_k`` when it disagrees with the correct
  state (``l_k != c_i``), or
* the fictitious ``⊥`` symbol when the tracked sensor happens to agree
  with the majority.

Each track owns its own online HMM ``M_CE`` relating the correct states
to the track symbols; closing (alarm cleared) freezes the track for
post-mortem classification.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .online_hmm import OnlineHMM
from .states import BOTTOM_STATE_ID


@dataclass
class ErrorAttackTrack:
    """One per-sensor error/attack track and its ``M_CE`` model.

    Attributes
    ----------
    track_id:
        Sequential id ("the number of tracks that were previously
        active" naming scheme of §3.1).
    sensor_id:
        The tracked sensor.
    opened_window:
        Window index at which the filtered alarm was raised.
    closed_window:
        Window index of closure, or None while open.
    symbols:
        The per-window ``(c_i, e_i)`` pairs recorded so far.
    """

    track_id: int
    sensor_id: int
    opened_window: int
    model: OnlineHMM
    closed_window: Optional[int] = None
    symbols: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def is_open(self) -> bool:
        """True until the filtered alarm clears."""
        return self.closed_window is None

    @property
    def length(self) -> int:
        """Number of windows recorded on this track."""
        return len(self.symbols)

    def record(self, correct_state: int, error_symbol: int) -> None:
        """Append one window's (c_i, e_i) pair and update ``M_CE``."""
        self.symbols.append((correct_state, error_symbol))
        self.model.observe(correct_state, error_symbol)

    def record_run(
        self, correct_state: int, error_symbol: int, count: int
    ) -> None:
        """:meth:`record` ``count`` times with one pair, bit-identically
        (see :meth:`OnlineHMM.observe_run`)."""
        self.symbols.extend([(correct_state, error_symbol)] * count)
        self.model.observe_run(correct_state, error_symbol, count)

    def truncate(self, max_length: int) -> int:
        """Bounded repair: keep only the most recent ``max_length`` pairs.

        A track longer than the windows elapsed since it opened can only
        arise from corrupted state (double-recording, a bad restore).
        The ``M_CE`` estimator is rebuilt by replaying the surviving
        pairs — not bit-equal to the unbounded history's forgetting
        recursion, but row-stochastic and consistent with ``symbols``.
        Returns the number of dropped pairs.
        """
        if max_length < 0:
            raise ValueError("max_length must be non-negative")
        dropped = len(self.symbols) - max_length
        if dropped <= 0:
            return 0
        self.symbols = self.symbols[-max_length:] if max_length else []
        replayed = OnlineHMM(
            transition_innovation=self.model.transition_innovation,
            emission_innovation=self.model.emission_innovation,
        )
        for correct_state, symbol in self.symbols:
            replayed.observe(correct_state, symbol)
        self.model = replayed
        return dropped

    def disagreement_fraction(self) -> float:
        """Fraction of recorded windows with a non-⊥ symbol."""
        if not self.symbols:
            return 0.0
        disagreeing = sum(1 for _, e in self.symbols if e != BOTTOM_STATE_ID)
        return disagreeing / len(self.symbols)

    # -- checkpointing ----------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot including the track's ``M_CE`` model."""
        return {
            "track_id": self.track_id,
            "sensor_id": self.sensor_id,
            "opened_window": self.opened_window,
            "closed_window": self.closed_window,
            "symbols": [[c, e] for c, e in self.symbols],
            "model": self.model.state_dict(),
        }

    @classmethod
    def from_state_dict(cls, payload: Dict[str, object]) -> "ErrorAttackTrack":
        closed = payload["closed_window"]
        return cls(
            track_id=int(payload["track_id"]),
            sensor_id=int(payload["sensor_id"]),
            opened_window=int(payload["opened_window"]),
            model=OnlineHMM.from_state_dict(payload["model"]),
            closed_window=None if closed is None else int(closed),
            symbols=[(int(c), int(e)) for c, e in payload["symbols"]],
        )


@dataclass
class TrackManager:
    """Opens, feeds, and closes per-sensor error/attack tracks.

    Parameters
    ----------
    transition_innovation / emission_innovation:
        Innovation rates handed to each track's ``M_CE`` estimator
        (``1 - β`` / ``1 - γ`` in Table 1 terms; see
        :class:`repro.core.online_hmm.OnlineHMM`).
    """

    transition_innovation: float = 0.10
    emission_innovation: float = 0.10
    tracks: List[ErrorAttackTrack] = field(default_factory=list)
    _open_by_sensor: Dict[int, ErrorAttackTrack] = field(default_factory=dict)

    def open_track(self, sensor_id: int, window_index: int) -> ErrorAttackTrack:
        """Open a track for ``sensor_id`` (no-op if one is already open)."""
        existing = self._open_by_sensor.get(sensor_id)
        if existing is not None:
            return existing
        track = ErrorAttackTrack(
            track_id=len(self.tracks) + 1,
            sensor_id=sensor_id,
            opened_window=window_index,
            model=OnlineHMM(
                transition_innovation=self.transition_innovation,
                emission_innovation=self.emission_innovation,
            ),
        )
        self.tracks.append(track)
        self._open_by_sensor[sensor_id] = track
        return track

    def close_track(self, sensor_id: int, window_index: int) -> Optional[ErrorAttackTrack]:
        """Close the open track of ``sensor_id`` (None if none open)."""
        track = self._open_by_sensor.pop(sensor_id, None)
        if track is not None:
            track.closed_window = window_index
        return track

    def open_track_for(self, sensor_id: int) -> Optional[ErrorAttackTrack]:
        """The currently open track of a sensor, if any."""
        return self._open_by_sensor.get(sensor_id)

    def record_window(
        self,
        correct_state: int,
        sensor_states: Dict[int, int],
    ) -> None:
        """Feed one window into every open track.

        For each tracked sensor that reported this window, record its
        mapped state when it disagrees with ``correct_state`` and ``⊥``
        otherwise.  Tracked sensors that did not report (packet loss)
        contribute nothing this window.
        """
        for sensor_id, track in self._open_by_sensor.items():
            if sensor_id not in sensor_states:
                continue
            mapped = sensor_states[sensor_id]
            symbol = mapped if mapped != correct_state else BOTTOM_STATE_ID
            track.record(correct_state, symbol)

    def record_window_batch(
        self,
        correct_state: int,
        sensor_ids: Sequence[int],
        assigned_states: Sequence[int],
    ) -> None:
        """:meth:`record_window` over the window's assignment arrays.

        ``sensor_ids`` must be sorted ascending without duplicates,
        positionally paired with ``assigned_states`` (exactly the fused
        pipeline's per-window layout).  Open tracks are fed in the same
        order and with the same symbols as :meth:`record_window` given
        the equivalent ``sensor_states`` dict, but tracked sensors are
        located by bisection instead of building the dict.
        """
        for track, symbol in self.window_symbols(
            correct_state, sensor_ids, assigned_states
        ):
            track.record(correct_state, symbol)

    def window_symbols(
        self,
        correct_state: int,
        sensor_ids: Sequence[int],
        assigned_states: Sequence[int],
    ) -> List[Tuple[ErrorAttackTrack, int]]:
        """The ``(track, symbol)`` pairs :meth:`record_window_batch`
        records for one window, in the same order, without recording
        them (same argument contract)."""
        if not self._open_by_sensor:
            return []
        n = len(sensor_ids)
        pairs: List[Tuple[ErrorAttackTrack, int]] = []
        for sensor_id, track in self._open_by_sensor.items():
            idx = bisect_left(sensor_ids, sensor_id)
            if idx >= n or sensor_ids[idx] != sensor_id:
                continue
            mapped = int(assigned_states[idx])
            symbol = mapped if mapped != correct_state else BOTTOM_STATE_ID
            pairs.append((track, symbol))
        return pairs

    def tracks_for_sensor(self, sensor_id: int) -> List[ErrorAttackTrack]:
        """All (open and closed) tracks of one sensor, oldest first."""
        return [t for t in self.tracks if t.sensor_id == sensor_id]

    def latest_track_for(self, sensor_id: int) -> Optional[ErrorAttackTrack]:
        """The most recent track of a sensor (open or closed)."""
        candidates = self.tracks_for_sensor(sensor_id)
        return candidates[-1] if candidates else None

    @property
    def open_sensor_ids(self) -> List[int]:
        """Sensors with a currently open track."""
        return sorted(self._open_by_sensor.keys())

    @property
    def n_tracks(self) -> int:
        """Total number of tracks ever opened."""
        return len(self.tracks)

    # -- checkpointing ----------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot of all tracks (open and closed)."""
        return {
            "transition_innovation": self.transition_innovation,
            "emission_innovation": self.emission_innovation,
            "tracks": [track.state_dict() for track in self.tracks],
            "open": [
                [sensor_id, track.track_id]
                for sensor_id, track in sorted(self._open_by_sensor.items())
            ],
        }

    @classmethod
    def from_state_dict(cls, payload: Dict[str, object]) -> "TrackManager":
        manager = cls(
            transition_innovation=float(payload["transition_innovation"]),
            emission_innovation=float(payload["emission_innovation"]),
        )
        manager.tracks = [
            ErrorAttackTrack.from_state_dict(entry) for entry in payload["tracks"]
        ]
        by_id = {track.track_id: track for track in manager.tracks}
        manager._open_by_sensor = {
            int(sensor_id): by_id[int(track_id)]
            for sensor_id, track_id in payload["open"]
        }
        return manager
