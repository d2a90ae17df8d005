"""FleetEngine: advance N independent pipelines through shared kernels.

A collector service multiplexing many deployments runs one
:class:`~repro.core.pipeline.DetectionPipeline` per tenant.  Advancing
them one at a time repays the per-window Python overhead N times; this
engine packs the per-tenant state into shared struct-of-arrays blocks
and advances the whole fleet with a near-constant number of NumPy
kernels per window step:

* one :func:`~repro.core.pipeline._batched_window_means` prepass per
  attribute dimensionality covering every tenant's whole trace,
* one batched steady-stretch certificate evaluation per dimensionality
  cohort (persistent ``(K, d)`` centroid and ``(K, M, d)`` other-state
  blocks maintained incrementally as stretches open and close),
* one batched ``(G, N_max, M_max)`` distance kernel per dimensionality
  group for the tenants taking the full clustering path this window,
* one stacked :class:`~repro.core.filtering.VectorFilterBank` update
  per (filter kind, parameters) group, with per-tenant slot regions
  addressed as ``tenant_index << 32 | sensor_id``.

Quiet certified windows additionally defer their per-tenant
bookkeeping (HMM forgetting updates, sequence appends, result tuples)
into per-stretch run-length batches that replay exactly at the next
transition, stretch exit, or unpack — the same operations in the same
order, just executed in one cache-hot burst.

Bit-identity contract: every batched operation is an elementwise
replica of the float arithmetic the per-tenant fast path performs, and
every window a batched lane cannot certify or represent (spawns, mean
spawns, bootstrap, non-finite means, message-backed windows, d == 1
traces, supervised or vector-incompatible tenants) is routed through
the tenant's own exact code path before anything was mutated.  Each
tenant therefore finishes :meth:`FleetEngine.process_windows` with
state bit-identical to running ``process_windows_fast`` on its own —
the ``repro parity --fleet`` CI job pins this per tenant across filter
kinds, supervisor modes, dimensionalities, and sensor counts.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.clustering import ClusterUpdate
from ..core.filtering import FilterTransition, VectorFilterBank
from ..core.identification import identify_window
from ..core.pipeline import (
    DetectionPipeline,
    _batched_window_means,
    _SteadyStretch,
)

#: Tenant slot regions in the stacked filter banks: global slot id =
#: ``tenant_index << 32 | sensor_id``.  Sensor ids must fit 32 bits.
_STRIDE_BITS = 32
_SID_MASK = (1 << _STRIDE_BITS) - 1

#: Padding value for batched state matrices: squared distances to a
#: padded row overflow to inf (the callers hold ``over="ignore"``), so
#: padded columns never win an argmin or shrink a min.
_PAD_VECTOR = 1e300


class _Tenant:
    """One packed deployment: its pipeline plus per-run routing state."""

    __slots__ = (
        "tid",
        "pipeline",
        "mode",
        "windows",
        "stats",
        "bank",
        "scalar_bank",
        "group",
        "steady",
        "cohort",
        "slot",
        "defer",
        "gid_base",
        "_gid_cache",
    )

    def __init__(self, tid: int, pipeline: DetectionPipeline, windows):
        self.tid = tid
        self.pipeline = pipeline
        #: "fleet" (batched lanes + stacked filters), "solo" (own
        #: vector bank, per-window fused step — supervised tenants), or
        #: "oracle" (per-window ``process_window`` — the same fallback
        #: ``process_windows_fast`` takes for unvectorizable banks).
        self.mode = "oracle"
        self.windows: List = windows
        self.stats: List[Optional[tuple]] = [None] * len(windows)
        self.bank: Optional[VectorFilterBank] = None
        self.scalar_bank = None
        self.group: "Optional[_FilterGroup]" = None
        #: The live steady-stretch context (pipeline ``_SteadyStretch``)
        #: while certified; its centroid is authoritative in the cohort's
        #: centroid block and synced back lazily at exit/handoff.
        self.steady: Optional[_SteadyStretch] = None
        self.cohort: "Optional[_SteadyCohort]" = None
        self.slot = -1
        #: Deferred quiet-window commit run:
        #: ``[c_id, ids_sorted, n_states, indexes, order_lists]``.
        self.defer: Optional[list] = None
        self.gid_base = tid << _STRIDE_BITS
        self._gid_cache: "Optional[Tuple[np.ndarray, np.ndarray]]" = None

    def gids_for(self, id_array: np.ndarray) -> np.ndarray:
        """Stacked-bank slot ids for this tenant's sensor-id array."""
        cached = self._gid_cache
        if cached is not None and cached[0] is id_array:
            return cached[1]
        if len(id_array) and (
            int(id_array[0]) < 0 or int(id_array[-1]) > _SID_MASK
        ):
            raise ValueError(
                "sensor ids must fit 32 bits to join a stacked filter bank"
            )
        gids = id_array + self.gid_base
        self._gid_cache = (id_array, gids)
        return gids


class _FilterGroup:
    """One stacked filter bank shared by all tenants of one config."""

    __slots__ = ("bank", "members", "sig", "gids", "raws", "slices", "refs")

    def __init__(self, bank: VectorFilterBank):
        self.bank = bank
        self.members: List[_Tenant] = []
        #: Concatenation cache: per-member id-array identity signature,
        #: the stacked gid array, a reused raw buffer, per-member write
        #: slices, and strong refs pinning the id arrays (so their
        #: ``id()`` can't be recycled while the signature lives).
        self.sig: Optional[tuple] = None
        self.gids: Optional[np.ndarray] = None
        self.raws: Optional[np.ndarray] = None
        self.slices: List[Optional[slice]] = []
        self.refs: List[Optional[np.ndarray]] = []


class _SteadyCohort:
    """Struct-of-arrays block over every steady stretch of one ``d``.

    Slots ``[0, size)`` are live; removal swap-fills from the tail so
    the block stays contiguous and the batched certificate can run on
    plain views.  Per slot: the current centroid ``c`` (authoritative —
    the context's list is synced lazily), the inf-padded other-state
    vectors with their ids, and the tenant's learning/spawn constants.
    """

    __slots__ = (
        "dims",
        "size",
        "tenants",
        "c",
        "others",
        "other_sids",
        "alpha",
        "keep",
        "spawn",
        "bound",
        "merge",
    )

    def __init__(self, dims: int, cap: int = 16, o_cap: int = 6):
        self.dims = dims
        self.size = 0
        self.tenants: List[_Tenant] = []
        self.c = np.empty((cap, dims))
        self.others = np.full((cap, o_cap, dims), np.inf)
        self.other_sids: List[List[int]] = []
        self.alpha = np.empty(cap)
        self.keep = np.empty(cap)
        self.spawn = np.empty(cap)
        #: Mirrored ``StateSet._pair_min_bound`` (NaN encodes None —
        #: both fail every certificate comparison).  Authoritative for
        #: the stretch: only this path commits the bound between entry
        #: and exit, so the decay recurrence lives in the block and is
        #: synced back to the state set when the stretch closes.
        self.bound = np.empty(cap)
        self.merge = np.empty(cap)

    def _grow(self, n_others: int) -> None:
        cap, o_cap, dims = self.others.shape
        new_cap = max(cap, self.size + 1)
        new_ocap = max(o_cap, n_others)
        if new_cap > cap:
            new_cap = max(new_cap, 2 * cap)
        if new_ocap > o_cap:
            new_ocap = max(new_ocap, 2 * o_cap)
        if new_cap == cap and new_ocap == o_cap:
            return
        others = np.full((new_cap, new_ocap, dims), np.inf)
        others[: self.size, :o_cap] = self.others[: self.size]
        self.others = others
        if new_cap > cap:
            for name in ("c", "alpha", "keep", "spawn", "bound", "merge"):
                old = getattr(self, name)
                grown = np.empty((new_cap,) + old.shape[1:])
                grown[: self.size] = old[: self.size]
                setattr(self, name, grown)

    def add(
        self,
        tenant: _Tenant,
        centroid_row: np.ndarray,
        other_rows: np.ndarray,
        other_sids: List[int],
    ) -> int:
        self._grow(len(other_sids))
        slot = self.size
        clusterer = tenant.pipeline.clusterer
        self.c[slot] = centroid_row
        self.others[slot] = np.inf
        self.others[slot, : len(other_sids)] = other_rows
        if slot < len(self.tenants):
            self.tenants[slot] = tenant
            self.other_sids[slot] = other_sids
        else:
            self.tenants.append(tenant)
            self.other_sids.append(other_sids)
        alpha = clusterer.alpha
        self.alpha[slot] = alpha
        self.keep[slot] = 1.0 - alpha
        self.spawn[slot] = clusterer.spawn_threshold
        pair_bound = clusterer.states._pair_min_bound
        self.bound[slot] = np.nan if pair_bound is None else pair_bound
        self.merge[slot] = clusterer.merge_threshold
        self.size = slot + 1
        tenant.cohort = self
        tenant.slot = slot
        return slot

    def remove(self, tenant: _Tenant) -> None:
        slot = tenant.slot
        last = self.size - 1
        if slot != last:
            mover = self.tenants[last]
            self.tenants[slot] = mover
            self.other_sids[slot] = self.other_sids[last]
            self.c[slot] = self.c[last]
            self.others[slot] = self.others[last]
            self.alpha[slot] = self.alpha[last]
            self.keep[slot] = self.keep[last]
            self.spawn[slot] = self.spawn[last]
            self.bound[slot] = self.bound[last]
            self.merge[slot] = self.merge[last]
            mover.slot = slot
        self.size = last
        tenant.cohort = None
        tenant.slot = -1


def _bank_group_key(bank: VectorFilterBank) -> tuple:
    """Hashable (kind, params) identity of a vector bank's config."""
    if bank.kind == "k_of_n":
        params = (("k", bank.k), ("n", bank.n))
    elif bank.kind == "sprt":
        params = (
            ("p0", bank.p0),
            ("p1", bank.p1),
            ("alpha", bank.alpha),
            ("beta", bank.beta),
        )
    else:
        params = (("drift", bank.drift), ("threshold", bank.threshold))
    return (bank.kind, params)


class FleetEngine:
    """Advance many independent detection pipelines in lockstep.

    Parameters
    ----------
    pipelines:
        The tenant pipelines.  The engine never copies their state —
        it routes their window processing through shared kernels and
        leaves each pipeline, after every :meth:`process_windows`
        call, in exactly the state an independent
        ``process_windows_fast`` run would have produced.
    """

    def __init__(self, pipelines: Sequence[DetectionPipeline]):
        from ..backend import get_backend

        self.pipelines: List[DetectionPipeline] = list(pipelines)
        # Fleet-level kernels follow the first tenant's backend (any
        # choice is safe: backends are bit-identical by contract, and
        # parity pins it).
        self._backend = (
            self.pipelines[0]._backend
            if self.pipelines
            else get_backend("numpy")
        )
        #: Engine-private scratch for the grouped prepass kernel (never
        #: shared with tenant pipelines or other engines).
        self._kernel_scratch: dict = {}
        self._cohorts: Dict[int, _SteadyCohort] = {}
        #: Active-run state for the stepwise API (``begin_run`` /
        #: ``step_once`` / ``end_run``); None between runs.
        self._run_tenants: Optional[List[_Tenant]] = None
        self._run_groups: Optional[Dict[tuple, _FilterGroup]] = None
        self._run_step = 0
        self._run_steps = 0
        self._run_consumed = 0
        self._fp_state: Optional[dict] = None

    # -- lifecycle ------------------------------------------------------

    @classmethod
    def from_pipelines(
        cls, pipelines: Sequence[DetectionPipeline]
    ) -> "FleetEngine":
        """Pack live pipelines into a fleet engine (no state copied)."""
        return cls(pipelines)

    def to_pipelines(self) -> List[DetectionPipeline]:
        """The tenant pipelines, consistent and individually usable."""
        return list(self.pipelines)

    def digests(self) -> List[str]:
        """Per-tenant content digests (see ``DetectionPipeline.digest``)."""
        return [pipeline.digest() for pipeline in self.pipelines]

    def state_dict(self) -> Dict[str, object]:
        """Versioned JSON-ready checkpoint of every tenant."""
        from ..resilience.checkpoint import snapshot

        payload: Dict[str, object] = {
            "fleet_version": 1,
            "tenants": [snapshot(pipeline) for pipeline in self.pipelines],
        }
        health = self._health_payload()
        if health is not None:
            payload["fleet_health"] = health
        return payload

    def _health_payload(self) -> Optional[Dict[str, object]]:
        """Fleet health telemetry; None for the bare engine.  The
        fault-isolating :class:`~repro.fleet.ResilientFleetEngine`
        overrides this with per-tenant status and counters."""
        return None

    @classmethod
    def restore(cls, payload: Dict[str, object]) -> "FleetEngine":
        """Rebuild a fleet from :meth:`state_dict` output."""
        from ..resilience.checkpoint import CheckpointVersionError, restore

        version = payload.get("fleet_version")
        if version != 1:
            raise CheckpointVersionError(version, 1)
        return cls([restore(entry) for entry in payload["tenants"]])

    # -- the fleet run --------------------------------------------------

    def process_windows(self, windows_per_tenant: Sequence[Sequence]) -> int:
        """Advance every tenant through its own window list.

        ``windows_per_tenant[i]`` feeds ``pipelines[i]``; lists may have
        different lengths (tenants simply finish early).  Returns the
        total number of windows consumed across the fleet.  On return —
        normal or exceptional — every tenant's state is folded back
        into its pipeline, exactly as one ``process_windows_fast`` call
        per tenant would have left it.
        """
        self.begin_run(windows_per_tenant)
        try:
            while self.step_once():
                pass
        finally:
            consumed = self.end_run()
        return consumed

    def begin_run(self, windows_per_tenant: Sequence[Sequence]) -> int:
        """Pack the fleet for a stepwise run; returns the step count.

        The stepwise API (``begin_run`` / ``step_once`` / ``end_run``)
        is :meth:`process_windows` taken apart, so a caller — the
        fault-isolating runtime, a soak harness — can interleave its
        own bookkeeping (supervisor polling, mid-run :meth:`evict`)
        between window steps.  Exactly one run may be active at a time.
        """
        if self._run_tenants is not None:
            raise RuntimeError("a fleet run is already active")
        if len(windows_per_tenant) != len(self.pipelines):
            raise ValueError(
                f"got {len(windows_per_tenant)} window lists for "
                f"{len(self.pipelines)} pipelines"
            )
        # One fp-state save for the whole run, like the fused path:
        # the trusted kernels legitimately saturate to inf.
        self._fp_state = np.seterr(over="ignore")
        try:
            tenants, groups = self._pack(windows_per_tenant)
        except BaseException:
            np.seterr(**self._fp_state)
            self._fp_state = None
            raise
        self._run_tenants = tenants
        self._run_groups = groups
        self._run_steps = max((len(t.windows) for t in tenants), default=0)
        self._run_step = 0
        self._run_consumed = 0
        return self._run_steps

    def step_once(self) -> bool:
        """Advance the active run by one window step; False when done."""
        if self._run_tenants is None:
            raise RuntimeError("no active fleet run")
        if self._run_step >= self._run_steps:
            return False
        self._step(self._run_step, self._run_tenants, self._run_groups)
        self._run_step += 1
        return True

    def end_run(self) -> int:
        """Fold every tenant back into its pipeline and close the run.

        Returns the total number of windows consumed (including those
        of tenants evicted mid-run).  Safe to call at any step — the
        remaining windows are simply left unconsumed.
        """
        tenants, groups = self._run_tenants, self._run_groups
        if tenants is None:
            return 0
        try:
            self._unpack(tenants, groups)
        finally:
            consumed = self._run_consumed + sum(
                min(self._run_step, len(t.windows)) for t in tenants
            )
            self._clear_run()
        return consumed

    def abort_run(self) -> None:
        """Drop an active run *without* folding state back.

        After an exception inside :meth:`step_once` the packed state
        (and possibly some pipelines) is suspect; callers that will
        restore every packed pipeline from checkpoints use this to
        discard the run without risking a second failure in
        :meth:`end_run`'s unpack.  No-op when no run is active.
        """
        if self._run_tenants is None:
            return
        self._clear_run()

    def _clear_run(self) -> None:
        self._run_tenants = None
        self._run_groups = None
        self._run_step = 0
        self._run_steps = 0
        self._run_consumed = 0
        self._cohorts = {}
        if self._fp_state is not None:
            np.seterr(**self._fp_state)
            self._fp_state = None

    def evict(self, tid: int) -> DetectionPipeline:
        """Unpack one tenant mid-run and remove it from the fleet.

        Callable between steps of an active stepwise run: seals the
        tenant's certified steady stretch — replaying any deferred
        quiet-window commit runs — folds its filter state out of the
        stacked group bank, and detaches it from its cohort and filter
        group.  The remaining tenants continue bit-identically; the
        returned pipeline is immediately usable standalone, exactly as
        a ``process_windows_fast`` run over its consumed prefix would
        have left it.
        """
        tenants = self._run_tenants
        if tenants is None:
            raise RuntimeError("no active fleet run")
        for tenant in tenants:
            if tenant.tid == tid:
                break
        else:
            raise KeyError(f"no active tenant with tid {tid}")
        self._unpack_one(tenant)
        tenants.remove(tenant)
        self._run_consumed += min(self._run_step, len(tenant.windows))
        self.pipelines.remove(tenant.pipeline)
        return tenant.pipeline

    def _unpack_one(self, tenant: _Tenant) -> None:
        """Fold a single tenant out of the packed run state."""
        pipeline = tenant.pipeline
        if tenant.steady is not None:
            # Exiting the stretch flushes the deferred commit run and
            # folds the pair bound back — the sealing step that makes
            # the handoff exact mid-stretch.
            self._exit_steady(tenant)
        if tenant.mode == "solo":
            tenant.scalar_bank.load_state_dict(tenant.bank.state_dict())
            pipeline.filter_bank = tenant.scalar_bank
        elif tenant.mode == "fleet":
            group = tenant.group
            gb = group.bank
            per_tenant: Dict[int, List[tuple]] = {}
            for gid, slot in gb._slot_of.items():
                per_tenant.setdefault(gid >> _STRIDE_BITS, []).append(
                    (gid & _SID_MASK, slot)
                )
            # Demux every member to its scalar bank (the evictee keeps
            # that state; survivors restack from it bit-identically —
            # the same scalar -> vector -> stacked round trip every
            # run's pack performs).
            for member in group.members:
                entries = per_tenant.get(member.tid, [])
                entries.sort()
                member.scalar_bank.load_state_dict(
                    {
                        "filters": [
                            [sid, gb._sensor_state(slot)]
                            for sid, slot in entries
                        ]
                    }
                )
            group.members.remove(tenant)
            for member in group.members:
                member.bank = member.pipeline._vector_filter_bank()
            self._load_group_bank(group)
            group.sig = None
            group.gids = None
            group.raws = None
            group.slices = []
            group.refs = []
            tenant.group = None

    # -- packing --------------------------------------------------------

    def _pack(self, windows_per_tenant):
        tenants: List[_Tenant] = []
        groups: Dict[tuple, _FilterGroup] = {}
        self._cohorts = {}
        for tid, (pipeline, windows) in enumerate(
            zip(self.pipelines, windows_per_tenant)
        ):
            tenant = _Tenant(tid, pipeline, list(windows))
            bank = pipeline._vector_filter_bank()
            if bank is None:
                tenant.mode = "oracle"
            elif pipeline.supervisor is not None:
                # The supervisor's after_window hook may read or repair
                # any module, so supervised tenants keep a private bank
                # and run the exact fused per-window step.
                tenant.mode = "solo"
                tenant.bank = bank
                tenant.scalar_bank = pipeline.filter_bank
                pipeline.filter_bank = bank
            else:
                tenant.mode = "fleet"
                tenant.bank = bank
                tenant.scalar_bank = pipeline.filter_bank
                key = _bank_group_key(bank)
                group = groups.get(key)
                if group is None:
                    group = groups[key] = _FilterGroup(
                        VectorFilterBank(
                            key[0], dict(key[1]), kernels=self._backend
                        )
                    )
                group.members.append(tenant)
                tenant.group = group
            tenants.append(tenant)
        for group in groups.values():
            self._load_group_bank(group)
        self._prepass(tenants)
        return tenants, groups

    @staticmethod
    def _load_group_bank(group: _FilterGroup) -> None:
        """Concatenate the members' vector-bank arrays into the group's.

        Each member bank (freshly loaded from its scalar state) holds
        its slots in ascending-sensor-id order, so stacking them in
        member (ascending tenant) order keeps the group's slots in
        ascending global-id order — the ``full`` update shape — and the
        raw state arrays carry over without a dict round-trip.
        """
        gb = group.bank
        slot_of: Dict[int, int] = {}
        actives: List[np.ndarray] = []
        columns: List[List[np.ndarray]] = [[] for _ in range(4)]
        if gb.kind == "k_of_n":
            names = ("_buf", "_pos", "_updates", "_count")
        elif gb.kind == "sprt":
            names = ("_llr",)
        else:
            names = ("_g",)
        for tenant in group.members:
            bank = tenant.bank
            live = len(bank._slot_of)
            offset = len(slot_of)
            for sid, slot in bank._slot_of.items():
                if not 0 <= sid <= _SID_MASK:
                    raise ValueError(
                        "sensor ids must fit 32 bits to join a stacked "
                        "filter bank"
                    )
                slot_of[tenant.gid_base + sid] = offset + slot
            actives.append(bank._active[:live])
            for column, name in zip(columns, names):
                column.append(getattr(bank, name)[:live])
        gb._slot_of = slot_of
        gb._capacity = len(slot_of)
        gb._slot_cache = None
        gb._active = (
            np.concatenate(actives) if actives else np.zeros(0, dtype=bool)
        )
        for column, name in zip(columns, names):
            empty = np.zeros(
                (0, gb.n) if name == "_buf" else 0,
                dtype=bool if name == "_buf" else getattr(gb, name).dtype,
            )
            setattr(
                gb, name, np.concatenate(column) if column else empty
            )
        if gb.kind == "k_of_n":
            live = len(slot_of)
            if live == 0:
                gb._pos_sync = 0
            elif bool((gb._pos[:live] == gb._pos[0]).all()):
                gb._pos_sync = int(gb._pos[0])
            else:
                gb._pos_sync = None

    def _prepass(self, tenants: List[_Tenant]) -> None:
        """One whole-fleet grouped-means pass per dimensionality.

        Concatenating tenants' window lists into one
        ``_batched_window_means`` call is bit-identical per window to
        per-tenant calls: every per-(window, sensor) bincount sum
        accumulates only that window's rows, in the same row order.
        """
        from ..sensornet.collector import ArrayWindow

        by_d: Dict[int, List[_Tenant]] = {}
        for tenant in tenants:
            if tenant.mode == "oracle" or not tenant.windows:
                continue
            dims = {
                window.observations.shape[1]
                for window in tenant.windows
                if isinstance(window, ArrayWindow)
                and window.observations.shape[0] > 0
            }
            if len(dims) == 1:
                by_d.setdefault(dims.pop(), []).append(tenant)
            elif dims:
                # Mixed dimensionalities inside one trace: rare enough
                # to run the tenant's own prepass call.
                tenant.stats = _batched_window_means(
                    tenant.windows, kernels=self._backend
                )
        for members in by_d.values():
            merged: List = []
            for tenant in members:
                merged.extend(tenant.windows)
            stats = _batched_window_means(
                merged, kernels=self._backend, scratch=self._kernel_scratch
            )
            offset = 0
            for tenant in members:
                tenant.stats = stats[offset : offset + len(tenant.windows)]
                offset += len(tenant.windows)

    def _unpack(self, tenants: List[_Tenant], groups) -> None:
        """Fold every tenant's run state back into its pipeline."""
        for tenant in tenants:
            pipeline = tenant.pipeline
            if tenant.steady is not None:
                self._exit_steady(tenant)
            if tenant.mode == "solo":
                tenant.scalar_bank.load_state_dict(tenant.bank.state_dict())
                pipeline.filter_bank = tenant.scalar_bank
        for group in groups.values():
            gb = group.bank
            per_tenant: Dict[int, List[tuple]] = {}
            for gid, slot in gb._slot_of.items():
                per_tenant.setdefault(gid >> _STRIDE_BITS, []).append(
                    (gid & _SID_MASK, slot)
                )
            for tenant in group.members:
                entries = per_tenant.get(tenant.tid, [])
                entries.sort()
                tenant.scalar_bank.load_state_dict(
                    {
                        "filters": [
                            [sid, gb._sensor_state(slot)]
                            for sid, slot in entries
                        ]
                    }
                )
        self._cohorts = {}

    # -- the per-step loop ----------------------------------------------

    def _step(self, step: int, tenants: List[_Tenant], groups) -> None:
        full_candidates: List[_Tenant] = []
        for tenant in tenants:
            if step >= len(tenant.windows):
                continue
            mode = tenant.mode
            if mode == "fleet":
                if tenant.steady is None:
                    full_candidates.append(tenant)
            elif mode == "solo":
                tenant.pipeline._process_window_fast(
                    tenant.windows[step], tenant.stats[step], tenant.bank
                )
            else:
                tenant.pipeline.process_window(tenant.windows[step])

        certified = self._steady_phase(step, full_candidates)
        stashes = self._full_phase(step, full_candidates)
        transitions = self._filter_phase(step, groups, certified, stashes)

        for tenant, kind in certified:
            stat = tenant.stats[step]
            trans = transitions.get(tenant.tid)
            if (
                trans
                or kind != "primary"
                or tenant.pipeline.tracks._open_by_sensor
            ):
                if tenant.defer is not None:
                    self._flush(tenant)
                self._commit_steady_direct(
                    tenant, step, stat, trans or (), kind
                )
            else:
                run = tenant.defer
                if run is None:
                    ctx = tenant.steady
                    run = tenant.defer = [
                        ctx.sids[0],
                        ctx.steady_ids,
                        tenant.pipeline.clusterer.n_states,
                        [],
                        [],
                    ]
                run[3].append(tenant.windows[step].index)
                run[4].append(stat[3])
        for stash in stashes:
            self._commit_full(stash, transitions.get(stash["tenant"].tid, ()))

    # -- steady lane -----------------------------------------------------

    def _enter_steady(self, tenant: _Tenant, state_id: int) -> None:
        """Open a stretch: the cohort-block analogue of
        ``DetectionPipeline._steady_enter`` (same centroid floats, same
        other-state rows, materialized into arrays instead of lists)."""
        clusterer = tenant.pipeline.clusterer
        matrix, ids = clusterer.states._ensure_cache()
        idx = ids.index(state_id)
        dims = matrix.shape[1]
        cohort = self._cohorts.get(dims)
        if cohort is None:
            cohort = self._cohorts[dims] = _SteadyCohort(dims)
        m = len(ids)
        if idx == m - 1:
            other_rows = matrix[:idx]
            other_sids = ids[:idx]
        else:
            other_rows = np.delete(matrix, idx, axis=0)
            other_sids = ids[:idx] + ids[idx + 1 :]
        cohort.add(tenant, matrix[idx], other_rows, list(other_sids))
        # The centroid stays authoritative in the cohort block; the
        # context's vector is synced back (tolist of the same floats) at
        # exit/handoff.
        tenant.steady = _SteadyStretch(
            [state_id], [state_id], [matrix[idx].tolist()]
        )

    def _exit_steady(self, tenant: _Tenant) -> None:
        """Flush deferred commits, sync the context, and fold the
        stretch back through the pipeline's own ``_steady_exit``."""
        ctx = tenant.steady
        cohort = tenant.cohort
        slot = tenant.slot
        ctx.current[0] = cohort.c[slot].tolist()
        if tenant.defer is not None:
            self._flush(tenant)
        # The stretch's committed pair bound lived in the cohort block;
        # fold it back (NaN encoded an unknown bound).
        bound = cohort.bound[slot]
        tenant.pipeline.clusterer.states._pair_min_bound = (
            None if math.isnan(bound) else float(bound)
        )
        cohort.remove(tenant)
        tenant.steady = None
        tenant.pipeline._steady_exit(ctx)

    def _steady_phase(
        self, step: int, full_candidates: List[_Tenant]
    ) -> List[Tuple[_Tenant, str]]:
        """Batched steady-stretch certification, one cohort at a time.

        Returns ``(tenant, kind)`` pairs whose window certified (their
        centroids already advanced, bit-identically to
        ``DetectionPipeline._steady_step``); every failed candidate's
        stretch is exited and the tenant joins the full lane.
        """
        certified: List[Tuple[_Tenant, str]] = []
        for cohort in self._cohorts.values():
            if cohort.size:
                self._steady_cohort_step(
                    step, cohort, certified, full_candidates
                )
        return certified

    def _steady_cohort_step(
        self,
        step: int,
        cohort: _SteadyCohort,
        certified: List[Tuple[_Tenant, str]],
        full_candidates: List[_Tenant],
    ) -> None:
        tenants = cohort.tenants
        size = cohort.size
        exits: List[_Tenant] = []
        rows: List[int] = []
        goals: List[np.ndarray] = []
        spreads: List[float] = []
        for slot in range(size):
            tenant = tenants[slot]
            if step >= len(tenant.windows):
                continue
            stat = tenant.stats[step]
            if stat is None or stat[5] is None or stat[6] is None:
                exits.append(tenant)
                continue
            ctx = tenant.steady
            ids = stat[0]
            pinned = ctx.steady_ids
            if pinned is None:
                # First certified window pins the stretch's sensor set
                # (the pipeline also decides filter deferral here; the
                # stacked bank updates every window instead, which the
                # quiescence argument proves state-identical).
                ctx.steady_ids = ids
            elif ids is not pinned and ids != pinned:
                exits.append(tenant)
                continue
            rows.append(slot)
            goals.append(stat[5])
            spreads.append(stat[6])
        if rows:
            if len(rows) == size:
                sub = slice(0, size)
            else:
                sub = np.array(rows)
            c_mat = cohort.c[sub]
            others = cohort.others[sub]
            alphas = cohort.alpha[sub]
            keeps = cohort.keep[sub]
            spawn = cohort.spawn[sub]
            goal = np.array(goals)
            spread = np.array(spreads)
            # Elementwise replicas of _steady_step's Python-float
            # recurrence: same two roundings per element, same
            # left-associated sums.
            new_c = keeps[:, None] * c_mat + alphas[:, None] * goal
            move = new_c - c_mat
            delta = np.sqrt(np.einsum("kd,kd->k", move, move))
            away = goal - c_mat
            gc_sq = np.einsum("kd,kd->k", away, away)
            reach = np.sqrt(gc_sq) + spread + delta
            odiff = goal[:, None, :] - others
            osq = np.einsum("kmd,kmd->km", odiff, odiff)
            # The scalar scan skips NaN entries (NaN < x is False), so
            # mask them to inf before the min — an all-NaN row then
            # reports inf, exactly like the scan's untouched initial.
            osq = np.where(np.isnan(osq), np.inf, osq)
            min_other_sq = osq.min(axis=1)
            min_other = np.sqrt(min_other_sq)
            pad = 1e-9 + 1e-12 * (reach + spread)
            # The per-clusterer pair-bound decay (peek_decayed_pair_
            # bound's exact expression) runs on the mirrored bounds; an
            # inf bound (no pair to shrink) survives untouched and a
            # NaN (unknown) bound stays NaN — failing the >= like the
            # scalar None path.
            bounds = cohort.bound[sub]
            merges = cohort.merge[sub]
            with np.errstate(invalid="ignore"):
                dbound = np.where(
                    np.isinf(bounds),
                    bounds,
                    (bounds - delta) - (np.abs(bounds) + delta) * 1e-12,
                )
            passed = (
                (reach + pad <= spawn)
                & (reach + spread + pad < min_other * (1.0 - 1e-12) - 1e-9)
                & (dbound >= merges)
            ).tolist()
            if all(passed):
                # Quiet step: every stretch certified on the primary
                # branch, so the handoff block is never consulted.
                for slot in rows:
                    certified.append((tenants[slot], "primary"))
                cohort.c[sub] = new_c
                cohort.bound[sub] = dbound
            else:
                self._steady_mixed_commit(
                    cohort,
                    certified,
                    exits,
                    rows,
                    sub,
                    others,
                    osq,
                    min_other_sq,
                    min_other,
                    gc_sq,
                    spread,
                    spawn,
                    keeps,
                    alphas,
                    goal,
                    bounds,
                    merges,
                    passed,
                    new_c,
                    dbound,
                )
        for tenant in exits:
            self._exit_steady(tenant)
            full_candidates.append(tenant)

    def _steady_mixed_commit(
        self,
        cohort: _SteadyCohort,
        certified: List[Tuple[_Tenant, str]],
        exits: List[_Tenant],
        rows: List[int],
        sub,
        others: np.ndarray,
        osq: np.ndarray,
        min_other_sq: np.ndarray,
        min_other: np.ndarray,
        gc_sq: np.ndarray,
        spread: np.ndarray,
        spawn: np.ndarray,
        keeps: np.ndarray,
        alphas: np.ndarray,
        goal: np.ndarray,
        bounds: np.ndarray,
        merges: np.ndarray,
        passed: List[bool],
        new_c: np.ndarray,
        dbound: np.ndarray,
    ) -> None:
        """Resolve a cohort step where some primary certificate failed.

        Batched replica of the basin-handoff branch (evaluated for
        every row; consulted only where the primary check failed).
        The scalar scan's min/second/first-argmin semantics over
        duplicate and inf entries match argmin/partition exactly,
        and an inf minimum (no real others, overflow) fails the
        ``min < gc_sq`` gate on both paths.
        """
        tenants = cohort.tenants
        min_idx = osq.argmin(axis=1)
        if osq.shape[1] > 1:
            second_sq = np.partition(osq, 1, axis=1)[:, 1]
        else:
            second_sq = np.full(len(rows), np.inf)
        # inf "targets" (all-others-padded rows) yield NaN rows here
        # and fail every comparison below, like the scalar branch's
        # min_idx == -1 gate; silence the expected inf - inf.
        with np.errstate(invalid="ignore"):
            target = others[np.arange(len(rows)), min_idx]
            new_c2 = keeps[:, None] * target + alphas[:, None] * goal
            move2 = new_c2 - target
            delta2 = np.sqrt(np.einsum("kd,kd->k", move2, move2))
            dbound2 = np.where(
                np.isinf(bounds),
                bounds,
                (bounds - delta2) - (np.abs(bounds) + delta2) * 1e-12,
            )
        reach2 = min_other + spread + delta2
        second_min = np.minimum(np.sqrt(gc_sq), np.sqrt(second_sq))
        pad2 = 1e-9 + 1e-12 * (reach2 + spread)
        handoff = (
            (min_other_sq < gc_sq)
            & (reach2 + pad2 <= spawn)
            & (reach2 + spread + pad2 < second_min * (1.0 - 1e-12) - 1e-9)
            & (dbound2 >= merges)
        ).tolist()
        min_idx_l = min_idx.tolist()
        dbound2_l = dbound2.tolist()
        committed: List[int] = []
        for k, slot in enumerate(rows):
            tenant = tenants[slot]
            if passed[k]:
                committed.append(k)
                certified.append((tenant, "primary"))
            elif handoff[k]:
                self._steady_handoff_commit(
                    tenant, min_idx_l[k], new_c2[k], dbound2_l[k]
                )
                certified.append((tenant, "handoff"))
            else:
                exits.append(tenant)
        if committed:
            idx = (
                np.array(rows)[committed]
                if isinstance(sub, slice)
                else sub[committed]
            )
            cohort.c[idx] = new_c[committed]
            cohort.bound[idx] = dbound[committed]

    def _steady_handoff_commit(
        self,
        tenant: _Tenant,
        min_idx: int,
        new_c2: np.ndarray,
        new_bound: float,
    ) -> None:
        """Commit a basin handoff whose batched certificate (including
        the mirrored pair-bound decay) passed."""
        ctx = tenant.steady
        cohort = tenant.cohort
        slot = tenant.slot
        sid = ctx.sids[0]
        # The stretch hands off: flush the deferred quiet run first so
        # everything below lands after those windows' bookkeeping.
        if tenant.defer is not None:
            self._flush(tenant)
        c = cohort.c[slot].tolist()
        cohort.bound[slot] = new_bound
        visits = ctx.visits.get(sid, 0)
        if visits:
            tenant.pipeline.clusterer.states.apply_steady_motion(
                sid, c, visits
            )
        other_sids = cohort.other_sids[slot]
        new_sid = other_sids[min_idx]
        cohort.others[slot, min_idx] = c
        other_sids[min_idx] = sid
        cohort.c[slot] = new_c2
        ctx.sids = [new_sid]
        ctx.ids = [new_sid]
        ctx.current = [new_c2.tolist()]
        ctx.visits = {new_sid: 1}

    def _flush(self, tenant: _Tenant) -> None:
        """Replay a deferred quiet-window run in one cache-hot burst.

        Every deferred window was certified with no filter transitions
        and no open tracks, so its commit reduces to: the repeated
        ``m_co.observe(c, c)`` update (``OnlineHMM.observe_run``), the
        integer visit counters (plain additions — folding k of them is
        exact), the sequence appends, and the pending result tuples.
        """
        run = tenant.defer
        if run is None:
            return
        tenant.defer = None
        c_id, ids_sorted, n_states, indexes, orders = run
        k = len(indexes)
        pipeline = tenant.pipeline
        ctx = tenant.steady
        ctx.alarm_count += k
        ctx.visits[c_id] = ctx.visits.get(c_id, 0) + k
        pipeline._n_windows += k
        pipeline.m_co.observe_run(c_id, c_id, k)
        run_states = [c_id] * k
        pipeline.correct_sequence.extend(run_states)
        pipeline.observable_sequence.extend(run_states)
        pending = pipeline._pending_results
        for index, order_first in zip(indexes, orders):
            pending.append(
                (
                    index,
                    "steady",
                    c_id,
                    ids_sorted,
                    order_first,
                    (),
                    n_states,
                    None,
                )
            )

    def _commit_steady_direct(
        self, tenant: _Tenant, step: int, stat, transitions, kind: str
    ) -> None:
        """The certified-window commit, mirroring ``_steady_step``'s."""
        pipeline = tenant.pipeline
        ctx = tenant.steady
        window = tenant.windows[step]
        ctx.alarm_count += 1
        c_id = ctx.sids[0]
        if kind == "primary":
            ctx.visits[c_id] = ctx.visits.get(c_id, 0) + 1
        pipeline._n_windows += 1
        ids_sorted = ctx.steady_ids
        transitions = tuple(transitions)
        for transition in transitions:
            if transition.raised:
                pipeline.tracks.open_track(transition.sensor_id, window.index)
            else:
                pipeline.tracks.close_track(transition.sensor_id, window.index)
        pipeline.tracks.record_window_batch(
            c_id, ids_sorted, [c_id] * len(ids_sorted)
        )
        pipeline.m_co.observe(c_id, c_id)
        pipeline.correct_sequence.append(c_id)
        pipeline.observable_sequence.append(c_id)
        pipeline._pending_results.append(
            (
                window.index,
                "steady",
                c_id,
                ids_sorted,
                stat[3],
                transitions,
                pipeline.clusterer.n_states,
                None,
            )
        )

    # -- full lane -------------------------------------------------------

    def _full_phase(self, step: int, tenants: List[_Tenant]) -> List[dict]:
        """The full clustering path for every non-certified tenant.

        Windows with trusted prepass stats and a live clusterer go
        through the batched distance kernels (grouped by attribute
        dimensionality); everything else — slow-lane sanitization,
        bootstrap, untrusted (d == 1) windows — runs the tenant's exact
        per-window mirror of ``_process_window_fast``.
        """
        stashes: List[dict] = []
        by_d: Dict[int, List[_Tenant]] = {}
        for tenant in tenants:
            stat = tenant.stats[step]
            if (
                stat is None
                or stat[4] is None
                or tenant.pipeline.clusterer is None
            ):
                stash = self._full_prefilter_exact(tenant, step)
                if stash is not None:
                    stashes.append(stash)
            else:
                by_d.setdefault(stat[2].shape[1], []).append(tenant)
        for dims, group in by_d.items():
            self._full_batched(step, dims, group, stashes)
        return stashes

    def _full_prefilter_exact(
        self, tenant: _Tenant, step: int
    ) -> Optional[dict]:
        """Per-tenant mirror of ``_process_window_fast`` up to (but not
        including) the filter-bank update; returns None for windows the
        pipeline skips."""
        pipeline = tenant.pipeline
        window = tenant.windows[step]
        stat = tenant.stats[step]
        pipeline._n_windows += 1
        per_sensor = None
        trusted = False
        full_mean = None
        if stat is None:
            per_sensor, overall_mean = pipeline._sanitize(window)
            if per_sensor:
                ids_first = list(per_sensor.keys())
                ids_sorted = sorted(ids_first)
                id_array = np.asarray(ids_sorted, dtype=np.int64)
                observations = np.vstack(
                    [per_sensor[s] for s in ids_sorted]
                )
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
            pipeline._pending_results.append(
                (window.index, True, None, None, (), (), 0, False)
            )
            return None
        if pipeline.clusterer is None:
            if per_sensor is None:
                per_sensor = {
                    ids_sorted[p]: observations[p] for p in order_first
                }
            pipeline._bootstrap_clusterer(per_sensor)
        cluster_update = pipeline.clusterer.update(
            observations,
            overall_mean=overall_mean,
            trusted=trusted,
            full_mean=full_mean,
        )
        return self._full_stash(
            tenant,
            window,
            cluster_update,
            ids_sorted,
            id_array,
            order_first,
            overall_mean,
            trusted,
            full_mean,
        )

    def _full_batched(
        self,
        step: int,
        dims: int,
        group: List[_Tenant],
        stashes: List[dict],
    ) -> None:
        """Batched replica of ``OnlineStateClusterer._update_inner`` for
        the no-spawn case, one dimensionality group at a time.

        Tenants whose window could spawn (the precomputed gate fires)
        fall back to their exact per-window path before anything was
        mutated; mean spawns are handled inline per tenant with the
        oracle's own column ordering.
        """
        fleet = []
        n_rows = []
        matrices = []
        id_lists = []
        for tenant in group:
            tenant.pipeline._n_windows += 1
            matrix, ids = tenant.pipeline.clusterer.states._ensure_cache()
            fleet.append(tenant)
            n_rows.append(tenant.stats[step][2].shape[0])
            matrices.append(matrix)
            id_lists.append(ids)
        G = len(fleet)
        n_max = max(n_rows)
        m_max = max(len(ids) for ids in id_lists)
        obs = np.empty((G, n_max, dims))
        states = np.full((G, m_max, dims), _PAD_VECTOR)
        for g, tenant in enumerate(fleet):
            rows = tenant.stats[step][2]
            obs[g, : n_rows[g]] = rows
            # Pad rows duplicate the first real observation so whole-
            # tensor reductions stay harmless (identical rows produce
            # identical distances and argmins).
            obs[g, n_rows[g] :] = rows[0]
            states[g, : len(id_lists[g])] = matrices[g]
        dist1 = self._backend.batched_distances(obs, states)
        # _spawn_far_observations' gate over the same floats: a tenant
        # whose max-min distance clears the threshold might spawn and
        # leaves the batch untouched.
        gate = dist1.min(axis=2).max(axis=1).tolist()
        cols1 = dist1.argmin(axis=2).tolist()

        survivors = []
        for g, tenant in enumerate(fleet):
            clusterer = tenant.pipeline.clusterer
            stat = tenant.stats[step]
            if gate[g] > clusterer.spawn_threshold:
                # Exact path re-runs the whole update (including its
                # own distance pass — bit-identical to this one).
                tenant.pipeline._n_windows -= 1
                stash = self._full_prefilter_exact(tenant, step)
                if stash is not None:  # pragma: no branch
                    stashes.append(stash)
                continue
            ids = id_lists[g]
            assignments = [ids[column] for column in cols1[g][: n_rows[g]]]
            clusterer._apply_learning_update(stat[2], assignments, stat[5])
            merged = clusterer._merge_close_states()
            survivors.append((g, tenant, assignments, merged))
        if not survivors:
            return

        # Post-update fused identification: one batched (G, N+1, M)
        # query with the overall mean as row 0 (row order only decides
        # which row is the mean's; per-row results are unchanged).
        post_states = []
        m_max2 = 0
        for g, tenant, _, _ in survivors:
            matrix, ids = tenant.pipeline.clusterer.states._ensure_cache()
            post_states.append((matrix, ids))
            m_max2 = max(m_max2, len(ids))
        points = np.empty((len(survivors), n_max + 1, dims))
        states2 = np.full((len(survivors), m_max2, dims), _PAD_VECTOR)
        for row, (g, tenant, _, _) in enumerate(survivors):
            stat = tenant.stats[step]
            n = n_rows[g]
            points[row, 0] = stat[4]
            points[row, 1 : n + 1] = stat[2]
            points[row, n + 1 :] = stat[4]
            matrix, ids = post_states[row]
            states2[row, : len(ids)] = matrix
        dist2 = self._backend.batched_distances(points, states2)
        cols2 = dist2.argmin(axis=2).tolist()

        for row, (g, tenant, assignments, merged) in enumerate(survivors):
            clusterer = tenant.pipeline.clusterer
            stat = tenant.stats[step]
            n = n_rows[g]
            ids2 = post_states[row][1]
            columns = cols2[row]
            mean_distance = float(dist2[row, 0, columns[0]])
            mean_spawned = None
            if (
                mean_distance > clusterer.spawn_threshold
                and len(clusterer.states) < clusterer.max_states
            ):
                mean_spawned, sensor_assignments, observable_state = (
                    self._mean_spawn(
                        tenant, stat, n, ids2, dist2[row], mean_distance
                    )
                )
            else:
                sensor_assignments = [
                    ids2[column] for column in columns[1 : n + 1]
                ]
                observable_state = ids2[columns[0]]
            cluster_update = ClusterUpdate(
                assignments=clusterer.states.resolve_batch(assignments),
                spawned=[],
                merged=merged,
                sensor_assignments=sensor_assignments,
                observable_state=observable_state,
                mean_spawned=mean_spawned,
            )
            stashes.append(
                self._full_stash(
                    tenant,
                    tenant.windows[step],
                    cluster_update,
                    stat[0],
                    stat[1],
                    stat[3],
                    stat[4],
                    True,
                    stat[5],
                )
            )

    def _mean_spawn(self, tenant, stat, n, ids2, dist_rows, mean_distance):
        """Inline replica of ``_update_inner``'s mean-spawn block.

        Rebuilds the oracle's (observations..., mean) row order and
        appends the spawned state's distance column, so the final
        argmin tie-breaks match a per-tenant run bit-for-bit.
        """
        clusterer = tenant.pipeline.clusterer
        state = clusterer.states.spawn(stat[4])
        mean_spawned = state.state_id
        m2 = len(ids2)
        oracle_rows = np.empty((n + 1, m2 + 1))
        oracle_rows[:n, :m2] = dist_rows[1 : n + 1, :m2]
        oracle_rows[n, :m2] = dist_rows[0, :m2]
        pts = np.empty((n + 1, stat[2].shape[1]))
        pts[:n] = stat[2]
        pts[n] = stat[4]
        extra_diff = pts - state.vector
        oracle_rows[:, m2] = np.sqrt(
            np.einsum("nd,nd->n", extra_diff, extra_diff)
        )
        ids_ext = list(ids2) + [mean_spawned]
        final = [ids_ext[column] for column in np.argmin(oracle_rows, axis=1)]
        return mean_spawned, final[:-1], final[-1]

    def _full_stash(
        self,
        tenant: _Tenant,
        window,
        cluster_update,
        ids_sorted,
        id_array,
        order_first,
        overall_mean,
        trusted: bool,
        full_mean,
    ) -> dict:
        """The shared ``_process_window_fast`` tail: identification and
        raw alarms, stopping just before the filter-bank update (which
        runs stacked in the filter phase)."""
        pipeline = tenant.pipeline
        assignments = cluster_update.sensor_assignments
        sensor_states = {
            ids_sorted[p]: assignments[p] for p in order_first
        }
        identification = identify_window(
            pipeline.clusterer,
            sensor_states,
            overall_mean=overall_mean,
            sensor_states=sensor_states,
            observable_state=cluster_update.observable_state,
        )
        raw_alarms = pipeline.alarm_generator.process(
            window.index, identification
        )
        correct = identification.correct_state
        return {
            "tenant": tenant,
            "window": window,
            "identification": identification,
            "cluster_update": cluster_update,
            "raw_alarms": raw_alarms,
            "ids_sorted": ids_sorted,
            "id_array": id_array,
            "raws": [state_id != correct for state_id in assignments],
            "trusted": trusted,
            "full_mean": full_mean,
        }

    def _commit_full(self, stash: dict, transitions) -> None:
        """The post-filter half of ``_process_window_fast``."""
        tenant = stash["tenant"]
        pipeline = tenant.pipeline
        window = stash["window"]
        identification = stash["identification"]
        cluster_update = stash["cluster_update"]
        transitions = tuple(transitions)
        for transition in transitions:
            if transition.raised:
                pipeline.tracks.open_track(transition.sensor_id, window.index)
            else:
                pipeline.tracks.close_track(transition.sensor_id, window.index)
        correct = identification.correct_state
        assignments = cluster_update.sensor_assignments
        pipeline.tracks.record_window_batch(
            correct, stash["ids_sorted"], assignments
        )
        pipeline.m_co.observe(correct, identification.observable_state)
        pipeline.correct_sequence.append(correct)
        pipeline.observable_sequence.append(identification.observable_state)
        pipeline._pending_results.append(
            (
                window.index,
                False,
                identification,
                cluster_update,
                tuple(stash["raw_alarms"]),
                transitions,
                pipeline.clusterer.n_states,
                False,
            )
        )
        # Steady-stretch entry hint, verbatim from the fused path.
        if (
            stash["trusted"]
            and stash["full_mean"] is not None
            and cluster_update.mean_spawned is None
            and not cluster_update.spawned
            and not cluster_update.merged
        ):
            n = len(assignments)
            c = assignments[0]
            if (
                assignments.count(c) == n
                and cluster_update.observable_state == c
                and cluster_update.assignments.count(c) == n
            ):
                self._enter_steady(tenant, c)

    # -- stacked filter phase --------------------------------------------

    def _filter_phase(
        self,
        step: int,
        groups,
        certified: List[Tuple[_Tenant, str]],
        stashes: List[dict],
    ) -> Dict[int, List[FilterTransition]]:
        """One stacked bank update per filter group, then demux.

        Steady tenants contribute all-False raw rows over their pinned
        sensor sets (state-identical to the per-tenant deferred
        advance); full-lane tenants contribute their computed raws.
        Transitions come back in ascending global-slot order — i.e.
        tenant-major, sensor-ascending, exactly each tenant's own
        ordering — and are re-keyed to local sensor ids and the
        tenant's own window index.
        """
        contributions: Dict[int, tuple] = {}
        for tenant, _ in certified:
            contributions[tenant.tid] = (tenant.stats[step][1], None, tenant)
        for stash in stashes:
            contributions[stash["tenant"].tid] = (
                stash["id_array"],
                stash["raws"],
                stash["tenant"],
            )
        per_tenant: Dict[int, List[FilterTransition]] = {}
        for group in groups.values():
            members = group.members
            sig = tuple(
                id(entry[0]) if entry is not None else None
                for entry in map(contributions.get, (t.tid for t in members))
            )
            if sig != group.sig:
                self._rebuild_group_cache(group, contributions, sig)
            gids = group.gids
            if gids is None or not len(gids):
                continue
            raws = group.raws
            raws[:] = False
            for member, span in zip(members, group.slices):
                if span is None:
                    continue
                entry = contributions[member.tid]
                if entry[1] is not None:
                    raws[span] = entry[1]
            stacked = group.bank.update_batch(
                step, gids, raws, assume_sorted=True
            )
            for transition in stacked:
                tid = transition.sensor_id >> _STRIDE_BITS
                window_index = contributions[tid][2].windows[step].index
                per_tenant.setdefault(tid, []).append(
                    FilterTransition(
                        sensor_id=transition.sensor_id & _SID_MASK,
                        window_index=window_index,
                        raised=transition.raised,
                    )
                )
        return per_tenant

    def _rebuild_group_cache(
        self, group: _FilterGroup, contributions, sig
    ) -> None:
        """Re-derive a group's stacked gid layout after membership or
        sensor-population changes (id arrays are compared by identity —
        the prepass shares one array per tenant per stable trace)."""
        parts: List[np.ndarray] = []
        slices: List[Optional[slice]] = []
        refs: List[Optional[np.ndarray]] = []
        offset = 0
        for tenant in group.members:
            entry = contributions.get(tenant.tid)
            if entry is None:
                slices.append(None)
                refs.append(None)
                continue
            gid_block = tenant.gids_for(entry[0])
            parts.append(gid_block)
            slices.append(slice(offset, offset + len(gid_block)))
            refs.append(entry[0])
            offset += len(gid_block)
        group.sig = sig
        group.slices = slices
        group.refs = refs
        if parts:
            group.gids = (
                parts[0] if len(parts) == 1 else np.concatenate(parts)
            )
            group.raws = np.empty(offset, dtype=bool)
        else:
            group.gids = None
            group.raws = None
