"""Shared plumbing for trace-driven experiment runs.

Besides the serial helpers (:func:`run_pipeline`, :func:`run_scenario`),
this module hosts the *fault-tolerant campaign runtime* used by the
table/figure reproductions and the fault campaigns.
:func:`run_campaign` executes a list of :class:`ScenarioSpec` entries
across a ``ProcessPoolExecutor`` with per-task futures carrying
deadlines, exponential backoff with deterministic jitter
(:class:`~repro.experiments.retry.RetryPolicy`), pool rebuild after a
worker crash (``BrokenProcessPool``), and poison-spec quarantine: a
spec that fails every retry is recorded with its traceback in the
returned :class:`CampaignReport` and excluded from the campaign
verdict, never fatal — finished results are always salvaged.  With a
journal directory, every task transition is written to an append-only
JSONL write-ahead log (:mod:`repro.experiments.journal`) so an
interrupted or crashed campaign resumes exactly-once, skipping
completed specs.

Workers return :class:`ScenarioOutcome` summaries (plain picklable
data, no live pipeline objects — the pipeline holds unpicklable filter
factories) in the exact order the specs were submitted, and every
scenario is rebuilt from its own seed, so results are identical
regardless of ``n_jobs`` and of any interleaving of crashes, retries,
and resumes.

Pool campaigns are sharded into chunks; with a trace cache the parent
publishes each chunk's cached traces into shared-memory segments
(:mod:`repro.experiments.shm`) so workers replay them zero-copy from
tiny descriptors instead of re-reading files per attempt.
"""

from __future__ import annotations

import functools
import math
import os
import time
import traceback
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait as futures_wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..analysis.offline_clustering import initial_states_from_trace
from ..config import PipelineConfig
from ..core.pipeline import DetectionPipeline, WindowResult
from ..faults.campaign import CampaignSpec
from ..resilience.chaos import SimulatedWorkerCrash, WorkerChaos
from ..sensornet.collector import ObservationWindow, windows_from_arrays
from ..traces.columnar import ColumnarTrace, generate_gdi_trace_columnar
from ..traces.gdi import GDITraceConfig, build_environment
from ..traces.schema import Trace
from .journal import CampaignJournal
from .retry import RetryPolicy, TaskError


def compute_initial_states(
    trace: Union[Trace, ColumnarTrace], config: PipelineConfig, seed: int = 0
) -> np.ndarray:
    """Table 1's initial state estimate: offline k-means on the data."""
    if isinstance(trace, ColumnarTrace):
        _, _, observations = trace.delivered_arrays()
    else:
        _, _, observations = trace.to_arrays()
    return initial_states_from_trace(
        observations, config.n_initial_states, seed=seed
    )


def run_pipeline(
    trace: Union[Trace, ColumnarTrace],
    config: Optional[PipelineConfig] = None,
    initial_states: Optional[Sequence[np.ndarray]] = None,
) -> DetectionPipeline:
    """Feed a full trace through a fresh pipeline and return it."""
    pipeline = DetectionPipeline(
        config or PipelineConfig(), initial_states=initial_states
    )
    pipeline.process_trace_fast(trace)
    return pipeline


def run_fleet(
    windows_per_tenant: Sequence[Sequence[ObservationWindow]],
    configs: Optional[Sequence[Optional[PipelineConfig]]] = None,
    *,
    resilient: bool = False,
    checkpoint_interval: int = 256,
    probation: int = 16,
    max_recoveries: int = 2,
) -> List[DetectionPipeline]:
    """Advance many independent deployments through one batched engine.

    ``windows_per_tenant[i]`` is deployment ``i``'s window list (lengths
    may differ); ``configs[i]`` is its pipeline configuration (``None``
    entries — or ``configs=None`` — mean a default config).  Returns one
    pipeline per deployment, bit-identical to what a per-deployment
    ``process_windows_fast`` loop would have produced, but advanced
    through the :class:`~repro.fleet.FleetEngine` struct-of-arrays
    kernels so the amortized per-window cost stays near-constant as the
    fleet grows.

    With ``resilient=True`` the fleet runs under the fault-isolating
    :class:`~repro.fleet.ResilientFleetEngine` instead: a tenant that
    raises or trips its supervisor is contained, quarantined, and given
    bounded recovery while the remaining tenants advance bit-identical
    to a clean run (DESIGN.md §14).  The isolation knobs mirror that
    engine's constructor.
    """
    from ..fleet import FleetEngine, ResilientFleetEngine

    if configs is None:
        configs = [None] * len(windows_per_tenant)
    if len(configs) != len(windows_per_tenant):
        raise ValueError(
            f"got {len(configs)} configs for "
            f"{len(windows_per_tenant)} window lists"
        )
    pipelines = [
        DetectionPipeline(config or PipelineConfig()) for config in configs
    ]
    if resilient:
        engine: FleetEngine = ResilientFleetEngine(
            pipelines,
            checkpoint_interval=checkpoint_interval,
            probation=probation,
            max_recoveries=max_recoveries,
        )
    else:
        engine = FleetEngine.from_pipelines(pipelines)
    engine.process_windows(windows_per_tenant)
    return engine.to_pipelines()


@dataclass
class ScenarioRun:
    """Everything one experiment scenario produced.

    Attributes
    ----------
    name:
        Scenario label.
    columnar:
        The (possibly corrupted) generated trace, as dense arrays.
    pipeline:
        The pipeline after consuming the trace.
    campaign:
        The corruption plan, or None for clean runs.
    config:
        Pipeline configuration used.
    trace_config:
        Workload generator configuration used.
    """

    name: str
    columnar: ColumnarTrace
    pipeline: DetectionPipeline
    campaign: Optional[CampaignSpec]
    config: PipelineConfig
    trace_config: GDITraceConfig

    @functools.cached_property
    def trace(self) -> Trace:
        """The delivered trace as records, materialised on first access."""
        return self.columnar.to_trace()

    @property
    def ground_truth(self) -> Dict[int, str]:
        """sensor id -> planted corruption kind (empty for clean runs)."""
        return self.campaign.ground_truth() if self.campaign else {}

    def windows(self) -> List[ObservationWindow]:
        """Re-window the trace (for detectors that need raw windows)."""
        return windows_from_arrays(
            *self.columnar.delivered_arrays(), self.config.window_minutes
        )


def run_scenario(
    name: str,
    campaign: Optional[CampaignSpec] = None,
    trace_config: Optional[GDITraceConfig] = None,
    config: Optional[PipelineConfig] = None,
    initial_states: Optional[Sequence[np.ndarray]] = None,
    use_offline_initial_states: bool = False,
) -> ScenarioRun:
    """Generate a GDI trace (optionally corrupted) and run the pipeline.

    Parameters
    ----------
    name:
        Scenario label for reports.
    campaign:
        Corruption plan; None for a clean run.
    trace_config / config:
        Workload and pipeline configurations (Table 1 defaults).
    initial_states:
        Explicit initial model states.
    use_offline_initial_states:
        When True (and no explicit states given), compute the Table 1
        offline-clustering estimate from the generated trace itself.
    """
    trace_config = trace_config or GDITraceConfig()
    config = config or PipelineConfig()
    environment = build_environment(trace_config)
    injector = campaign.build_injector(environment) if campaign else None
    trace = generate_gdi_trace_columnar(trace_config, corruption=injector)
    if initial_states is None and use_offline_initial_states:
        initial_states = compute_initial_states(trace, config)
    pipeline = run_pipeline(trace, config, initial_states=initial_states)
    return ScenarioRun(
        name=name,
        columnar=trace,
        pipeline=pipeline,
        campaign=campaign,
        config=config,
        trace_config=trace_config,
    )


# -- parallel fan-out ------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario to run in the parallel fan-out.

    ``name`` must be one of the registered standard scenarios (the same
    vocabulary as ``repro scenario`` / ``cached_scenario``); the builder
    is resolved inside the worker process so the spec itself stays a
    tiny picklable value.
    """

    name: str
    n_days: int = 21
    seed: int = 2003


@dataclass(frozen=True)
class ScenarioOutcome:
    """Picklable summary of one scenario run.

    Everything the experiment tables and the campaign scorers consume,
    without the live pipeline (whose filter bank holds closure factories
    that cannot cross a process boundary).  Two runs of the same spec
    compare equal field-by-field, which is what the determinism tests
    assert across ``n_jobs`` settings.
    """

    name: str
    n_days: int
    seed: int
    n_windows: int
    n_model_states: int
    system_diagnosis: str
    #: sensor id -> (category, anomaly type, confidence)
    sensor_diagnoses: Dict[int, Tuple[str, str, float]]
    ground_truth: Dict[int, str]
    n_raw_alarms: int
    n_tracks: int
    correct_model_labels: Tuple[str, ...]
    #: Content hash of the final pipeline state
    #: (:meth:`DetectionPipeline.digest`); cached and regenerated runs
    #: of the same spec must agree on it.
    digest: str = ""
    #: True when the trace came from the scenario cache rather than a
    #: fresh simulation.  Excluded from equality — a cache-hot rerun
    #: compares equal to its cold original.
    from_cache: bool = field(default=False, compare=False)
    #: Why the spec was quarantined (kind, message, traceback); empty
    #: for successful runs.  Quarantined outcomes carry no digest and
    #: zeroed counters — they are placeholders that keep the campaign's
    #: spec order while surfacing the failure in reports.
    error: str = ""
    #: Attempts the campaign runtime spent on this spec (1 = first try
    #: succeeded).  Excluded from equality: retry counts are scheduling
    #: noise, and a chaos-battered rerun must still compare equal to a
    #: clean one — the digest is what certifies the result.
    attempts: int = field(default=1, compare=False)

    @property
    def quarantined(self) -> bool:
        """True when the spec failed every retry and was excluded."""
        return bool(self.error)

    def detected_sensors(self) -> List[int]:
        """Sensors diagnosed with anything (sorted)."""
        return sorted(self.sensor_diagnoses)

    def to_json_dict(self) -> Dict[str, object]:
        """JSON-safe encoding for the campaign journal."""
        return {
            "name": self.name,
            "n_days": int(self.n_days),
            "seed": int(self.seed),
            "n_windows": int(self.n_windows),
            "n_model_states": int(self.n_model_states),
            "system_diagnosis": self.system_diagnosis,
            "sensor_diagnoses": {
                str(sensor): [str(cat), str(kind), float(confidence)]
                for sensor, (cat, kind, confidence)
                in self.sensor_diagnoses.items()
            },
            "ground_truth": {
                str(sensor): str(kind)
                for sensor, kind in self.ground_truth.items()
            },
            "n_raw_alarms": int(self.n_raw_alarms),
            "n_tracks": int(self.n_tracks),
            "correct_model_labels": list(self.correct_model_labels),
            "digest": self.digest,
            "error": self.error,
            "attempts": int(self.attempts),
        }

    @classmethod
    def from_json_dict(
        cls, payload: Mapping[str, object]
    ) -> "ScenarioOutcome":
        """Inverse of :meth:`to_json_dict` (journal resume path)."""
        return cls(
            name=str(payload["name"]),
            n_days=int(payload["n_days"]),
            seed=int(payload["seed"]),
            n_windows=int(payload["n_windows"]),
            n_model_states=int(payload["n_model_states"]),
            system_diagnosis=str(payload["system_diagnosis"]),
            sensor_diagnoses={
                int(sensor): (str(entry[0]), str(entry[1]), float(entry[2]))
                for sensor, entry
                in dict(payload["sensor_diagnoses"]).items()
            },
            ground_truth={
                int(sensor): str(kind)
                for sensor, kind in dict(payload["ground_truth"]).items()
            },
            n_raw_alarms=int(payload["n_raw_alarms"]),
            n_tracks=int(payload["n_tracks"]),
            correct_model_labels=tuple(
                str(label) for label in payload["correct_model_labels"]
            ),
            digest=str(payload["digest"]),
            error=str(payload.get("error", "")),
            attempts=int(payload.get("attempts", 1)),
        )


def _summarize_pipeline(
    pipeline: DetectionPipeline,
    name: str,
    n_days: int,
    seed: int,
    ground_truth: Dict[int, str],
    from_cache: bool = False,
) -> ScenarioOutcome:
    """Condense a finished pipeline into a :class:`ScenarioOutcome`."""
    diagnoses = {
        sensor_id: (
            diagnosis.category.value,
            diagnosis.anomaly_type.value,
            float(diagnosis.confidence),
        )
        for sensor_id, diagnosis in pipeline.diagnose_all().items()
    }
    model = pipeline.correct_model()
    return ScenarioOutcome(
        name=name,
        n_days=n_days,
        seed=seed,
        n_windows=pipeline.n_windows,
        n_model_states=pipeline.clusterer.n_states if pipeline.clusterer else 0,
        system_diagnosis=pipeline.system_diagnosis().anomaly_type.value,
        sensor_diagnoses=diagnoses,
        ground_truth=dict(ground_truth),
        n_raw_alarms=sum(len(r.raw_alarms) for r in pipeline.results),
        n_tracks=len(pipeline.tracks.tracks),
        correct_model_labels=tuple(model.label(s) for s in model.state_ids),
        digest=pipeline.digest(),
        from_cache=from_cache,
    )


def summarize_run(run: ScenarioRun, spec: Optional[ScenarioSpec] = None) -> ScenarioOutcome:
    """Condense a :class:`ScenarioRun` into a :class:`ScenarioOutcome`."""
    return _summarize_pipeline(
        run.pipeline,
        name=run.name,
        n_days=spec.n_days if spec else run.trace_config.n_days,
        seed=spec.seed if spec else run.trace_config.seed,
        ground_truth=dict(run.ground_truth),
    )


def _replay_entry(entry, spec: ScenarioSpec) -> ScenarioOutcome:
    """Replay one cached/shared trace through a fresh pipeline.

    The common tail of both hot paths — a :class:`TraceCache` hit and a
    shared-memory descriptor handed down by the campaign parent.  The
    delivered arrays are re-windowed columnar-style and consumed by the
    fused pipeline, and the planted ground truth travels with the
    entry, so no simulation or campaign rebuild happens; the outcome
    matches a fresh run bit-for-bit (``from_cache`` aside).
    """
    config = PipelineConfig()
    pipeline = DetectionPipeline(config)
    pipeline.process_windows_fast(
        windows_from_arrays(
            entry.timestamps,
            entry.sensor_ids,
            entry.values,
            config.window_minutes,
        )
    )
    return _summarize_pipeline(
        pipeline,
        name=entry.label or spec.name,
        n_days=spec.n_days,
        seed=spec.seed,
        ground_truth=entry.ground_truth,
        from_cache=True,
    )


def _run_scenario_spec(
    spec: ScenarioSpec, cache_dir: "Optional[Union[str, Path]]" = None
) -> ScenarioOutcome:
    """Worker entry point: build and summarise one scenario.

    Imported lazily to avoid the runner<->scenarios import cycle; runs
    in the worker process (or inline for ``n_jobs=1``).

    With a ``cache_dir``, a hit loads the stored delivered arrays and
    replays the pipeline over columnar windows — no simulation, no
    campaign rebuild (the planted ground truth travels with the entry).
    The outcome is identical to a fresh run (``from_cache`` aside);
    a miss runs the scenario and stores its delivered arrays.
    """
    from . import _SCENARIO_BUILDERS

    builder = _SCENARIO_BUILDERS.get(spec.name)
    if builder is None:
        raise KeyError(
            f"unknown scenario {spec.name!r}; "
            f"choose from {sorted(_SCENARIO_BUILDERS)}"
        )
    cache = None
    cache_spec = None
    if cache_dir is not None:
        from ..traces.cache import TraceCache, scenario_spec

        cache = TraceCache(Path(cache_dir))
        cache_spec = scenario_spec(spec.name, spec.n_days, spec.seed)
        entry = cache.load(cache_spec)
        if entry is not None:
            return _replay_entry(entry, spec)
    run = builder(n_days=spec.n_days, seed=spec.seed)
    if cache is not None and cache_spec is not None:
        cache.store(
            cache_spec,
            *run.columnar.delivered_arrays(),
            attribute_names=run.columnar.attribute_names,
            metadata=run.columnar.metadata,
            ground_truth=run.ground_truth,
            label=run.name,
        )
    return summarize_run(run, spec)


def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """Normalise an ``n_jobs`` knob: None/0 -> all cores, floor at 1."""
    if n_jobs is None or n_jobs == 0:
        return os.cpu_count() or 1
    return max(1, int(n_jobs))


#: Per-worker state seeded by :func:`_pool_worker_init`.
_WORKER_STATE: Dict[str, object] = {}


def _pool_worker_init() -> None:
    """One-time setup in each pool worker.

    Pre-imports the full experiment stack so spawned workers pay the
    (substantial) import cost once per worker instead of lazily inside
    their first task, and seeds a per-worker RNG for any worker-local
    jitter needs — task results themselves never read it (each scenario
    rebuilds from its spec's own seed, keeping the determinism
    contract).
    """
    import repro.experiments  # noqa: F401  (side effect: warm imports)

    _WORKER_STATE["rng"] = np.random.default_rng((os.getpid(), 0x5EED))


def campaign_spec_key(spec: ScenarioSpec) -> str:
    """Content hash identifying ``spec`` in journals and chaos draws.

    Same scheme as the :class:`~repro.traces.cache.TraceCache`: a
    SHA-256 over the canonical scenario spec dict, generator version
    included — so a behavioural change to trace generation retires
    journal entries exactly like it retires cache entries.
    """
    from ..traces.cache import canonical_spec_hash, scenario_spec

    return canonical_spec_hash(
        scenario_spec(spec.name, spec.n_days, spec.seed)
    )


@dataclass(frozen=True)
class _TaskPayload:
    """Everything one worker attempt needs (small and picklable)."""

    spec: ScenarioSpec
    key: str
    attempt: int
    cache_dir: "Optional[Union[str, Path]]"
    chaos: Optional[WorkerChaos]
    inline: bool
    #: Shared-memory descriptor published by the campaign parent; when
    #: set the worker replays the trace zero-copy from the segment
    #: instead of opening the cache file itself.
    shm: "Optional[object]" = None


@dataclass
class _Task:
    """Orchestrator-side state of one spec's execution."""

    index: int
    spec: ScenarioSpec
    key: str
    attempt: int = 1
    #: Monotonic-clock deadline of the in-flight attempt.
    deadline: float = math.inf
    #: Monotonic-clock release time while backing off between retries.
    not_before: float = 0.0


@dataclass
class CampaignReport:
    """Outcomes plus the recovery bookkeeping of one campaign run."""

    outcomes: List[ScenarioOutcome] = field(default_factory=list)
    #: Failed attempts that were retried (any failure kind).
    n_retries: int = 0
    #: Attempts declared hung after overrunning the task deadline.
    n_timeouts: int = 0
    #: Attempts lost to a dying worker process (SIGKILL/OOM/segfault),
    #: including innocent in-flight tasks the broken pool took down.
    n_worker_crashes: int = 0
    #: Times the worker pool was torn down and rebuilt.
    n_pool_rebuilds: int = 0
    #: Specs replayed from the journal instead of re-executed.
    n_journal_skips: int = 0

    @property
    def quarantined(self) -> List[ScenarioOutcome]:
        """Specs that failed every retry (placeholder outcomes)."""
        return [o for o in self.outcomes if o.quarantined]

    @property
    def ok(self) -> bool:
        """True when no spec was quarantined."""
        return not self.quarantined

    def stats_line(self) -> str:
        """Human-readable recovery counters for CLI output."""
        return (
            f"recovery: retries={self.n_retries} "
            f"timeouts={self.n_timeouts} "
            f"worker_crashes={self.n_worker_crashes} "
            f"pool_rebuilds={self.n_pool_rebuilds} "
            f"journal_skips={self.n_journal_skips} "
            f"quarantined={len(self.quarantined)}"
        )


def _run_scenario_task(
    payload: _TaskPayload,
) -> "Union[ScenarioOutcome, TaskError]":
    """Worker entry point: one attempt, failures returned not raised.

    Exceptions are converted to :class:`TaskError` records *inside* the
    worker so their tracebacks survive the process boundary verbatim.
    ``KeyboardInterrupt`` propagates (the orchestrator owns shutdown);
    a chaos-injected SIGKILL never returns at all and surfaces as
    ``BrokenProcessPool`` on the parent's future.
    """
    try:
        if payload.chaos is not None:
            payload.chaos.apply(
                payload.key, payload.attempt, inline=payload.inline
            )
        if payload.shm is not None:
            try:
                from .shm import attach_entry

                entry = attach_entry(payload.shm)
            except Exception:
                # A vanished/unmappable segment degrades to the normal
                # cache path rather than failing the task.
                pass
            else:
                return _replay_entry(entry, payload.spec)
        return _run_scenario_spec(payload.spec, cache_dir=payload.cache_dir)
    except KeyboardInterrupt:
        raise
    except Exception as exc:
        kind = (
            "worker-crash"
            if isinstance(exc, SimulatedWorkerCrash)
            else "exception"
        )
        return TaskError(
            kind=kind,
            message=f"{type(exc).__name__}: {exc}",
            traceback_text=traceback.format_exc(),
        )


def _spec_fields(spec: ScenarioSpec) -> Dict[str, object]:
    return {"name": spec.name, "n_days": spec.n_days, "seed": spec.seed}


def _complete_task(
    task: _Task,
    outcome: ScenarioOutcome,
    journal: Optional[CampaignJournal],
    results: "List[Optional[ScenarioOutcome]]",
) -> None:
    outcome = replace(outcome, attempts=task.attempt)
    results[task.index] = outcome
    if journal is not None:
        journal.record_done(task.key, outcome.to_json_dict())


def _quarantine_task(
    task: _Task,
    error: TaskError,
    journal: Optional[CampaignJournal],
    results: "List[Optional[ScenarioOutcome]]",
) -> None:
    """Record a poison spec: placeholder outcome, never an exception."""
    outcome = ScenarioOutcome(
        name=task.spec.name,
        n_days=task.spec.n_days,
        seed=task.spec.seed,
        n_windows=0,
        n_model_states=0,
        system_diagnosis="",
        sensor_diagnoses={},
        ground_truth={},
        n_raw_alarms=0,
        n_tracks=0,
        correct_model_labels=(),
        digest="",
        error=error.describe(),
        attempts=task.attempt,
    )
    results[task.index] = outcome
    if journal is not None:
        journal.record_poisoned(task.key, outcome.error, task.attempt)


def _shutdown_pool(pool: ProcessPoolExecutor) -> None:
    """Shut a pool down hard, reclaiming every worker process.

    ``shutdown(wait=False)`` alone would orphan a hung or chaos-struck
    worker until its sleep ran out; terminating (and, as a last resort,
    killing) the worker processes is what actually frees them after a
    deadline overrun or a Ctrl-C.
    """
    worker_map = getattr(pool, "_processes", None)
    processes = list(worker_map.values()) if worker_map else []
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - already-broken pools
        pass
    for process in processes:
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already dead
            pass
    for process in processes:
        try:
            process.join(timeout=2.0)
            if process.is_alive():
                process.kill()
        except Exception:  # pragma: no cover - already dead
            pass


def _execute_inline(
    tasks: List[_Task],
    cache_dir: "Optional[Union[str, Path]]",
    policy: RetryPolicy,
    chaos: Optional[WorkerChaos],
    journal: Optional[CampaignJournal],
    results: "List[Optional[ScenarioOutcome]]",
    report: CampaignReport,
) -> None:
    """Serial in-process execution (``n_jobs=1`` / single task).

    Same retry/quarantine/journal semantics as the pool path, minus
    deadlines (no second thread to enforce them) — chaos kills and
    hangs degrade to :class:`SimulatedWorkerCrash` failures.  A
    ``KeyboardInterrupt`` propagates after the journal is flushed by
    the caller, leaving a resumable log.
    """
    for task in tasks:
        while True:
            if journal is not None:
                journal.record_start(
                    task.key, _spec_fields(task.spec), task.attempt
                )
            result = _run_scenario_task(
                _TaskPayload(
                    spec=task.spec,
                    key=task.key,
                    attempt=task.attempt,
                    cache_dir=cache_dir,
                    chaos=chaos,
                    inline=True,
                )
            )
            if not isinstance(result, TaskError):
                _complete_task(task, result, journal, results)
                break
            if result.kind == "worker-crash":
                report.n_worker_crashes += 1
            if task.attempt > policy.max_retries:
                _quarantine_task(task, result, journal, results)
                break
            if journal is not None:
                journal.record_retry(
                    task.key, task.attempt, result.kind, result.message
                )
            report.n_retries += 1
            task.attempt += 1
            delay = policy.delay(task.key, task.attempt)
            if delay > 0:
                time.sleep(delay)


def _execute_pool(
    tasks: List[_Task],
    n_workers: int,
    cache_dir: "Optional[Union[str, Path]]",
    policy: RetryPolicy,
    chaos: Optional[WorkerChaos],
    journal: Optional[CampaignJournal],
    results: "List[Optional[ScenarioOutcome]]",
    report: CampaignReport,
    shm_by_key: "Optional[Dict[str, object]]" = None,
) -> None:
    """Fault-tolerant process-pool execution.

    Per-task futures with deadlines; at most ``n_workers`` in flight so
    a queued task's deadline never starts ticking before its worker
    does.  A worker death breaks the whole pool (``BrokenProcessPool``),
    so every in-flight task consumes an attempt — the culprit cannot be
    told from the victims — and the pool is rebuilt.  A deadline
    overrun tears the pool down too (the only way to reclaim a hung
    worker), but there the victims are identifiable and are requeued
    without consuming an attempt.
    """
    clock = time.monotonic
    ready: "Deque[_Task]" = deque(tasks)
    waiting: List[_Task] = []
    in_flight: Dict[Future, _Task] = {}
    pool = ProcessPoolExecutor(
        max_workers=n_workers, initializer=_pool_worker_init
    )

    def fail(task: _Task, error: TaskError) -> None:
        if error.kind == "timeout":
            report.n_timeouts += 1
        elif error.kind == "worker-crash":
            report.n_worker_crashes += 1
        if task.attempt > policy.max_retries:
            _quarantine_task(task, error, journal, results)
            return
        if journal is not None:
            journal.record_retry(
                task.key, task.attempt, error.kind, error.message
            )
        report.n_retries += 1
        task.attempt += 1
        task.not_before = clock() + policy.delay(task.key, task.attempt)
        waiting.append(task)

    def settle(future: Future, task: _Task) -> bool:
        """Fold one finished future into results; True if pool broke."""
        try:
            result = future.result()
        except BrokenProcessPool:
            fail(
                task,
                TaskError(
                    kind="worker-crash",
                    message="worker process died mid-task "
                    "(BrokenProcessPool)",
                ),
            )
            return True
        except Exception as exc:
            fail(
                task,
                TaskError(
                    kind="exception",
                    message=f"{type(exc).__name__}: {exc}",
                    traceback_text=traceback.format_exc(),
                ),
            )
            return False
        if isinstance(result, TaskError):
            fail(task, result)
        else:
            _complete_task(task, result, journal, results)
        return False

    def rebuild() -> None:
        nonlocal pool
        report.n_pool_rebuilds += 1
        _shutdown_pool(pool)
        pool = ProcessPoolExecutor(
            max_workers=n_workers, initializer=_pool_worker_init
        )

    try:
        while ready or waiting or in_flight:
            now = clock()
            if waiting:
                due = [t for t in waiting if t.not_before <= now]
                if due:
                    waiting[:] = [t for t in waiting if t.not_before > now]
                    ready.extend(sorted(due, key=lambda t: t.index))
            while ready and len(in_flight) < n_workers:
                task = ready.popleft()
                if journal is not None:
                    journal.record_start(
                        task.key, _spec_fields(task.spec), task.attempt
                    )
                future = pool.submit(
                    _run_scenario_task,
                    _TaskPayload(
                        spec=task.spec,
                        key=task.key,
                        attempt=task.attempt,
                        cache_dir=cache_dir,
                        chaos=chaos,
                        inline=False,
                        shm=(
                            shm_by_key.get(task.key)
                            if shm_by_key is not None
                            else None
                        ),
                    ),
                )
                task.deadline = (
                    clock() + policy.task_timeout
                    if policy.task_timeout
                    else math.inf
                )
                in_flight[future] = task
            if not in_flight:
                # Everyone is backing off: sleep to the first release.
                pause = min(t.not_before for t in waiting) - clock()
                if pause > 0:
                    time.sleep(pause)
                continue

            horizon = min(t.deadline for t in in_flight.values())
            if waiting:
                horizon = min(
                    horizon, min(t.not_before for t in waiting)
                )
            timeout = min(max(horizon - clock(), 0.0), 0.5)
            done, _ = futures_wait(
                set(in_flight), timeout=timeout, return_when=FIRST_COMPLETED
            )

            broken = False
            for future in done:
                broken |= settle(future, in_flight.pop(future))
            if broken:
                # The pool died under the remaining in-flight tasks.
                # Any that raced to completion first still have results;
                # the rest consume an attempt (chaos draws are
                # per-attempt, so a victim retries with fresh luck).
                for future, task in list(in_flight.items()):
                    if future.done():
                        settle(future, task)
                    else:
                        fail(
                            task,
                            TaskError(
                                kind="worker-crash",
                                message="worker pool broke under this "
                                "task",
                            ),
                        )
                in_flight.clear()
                rebuild()
                continue

            now = clock()
            overdue = [
                task
                for future, task in in_flight.items()
                if task.deadline <= now and not future.done()
            ]
            if overdue:
                # Hung workers are only reclaimable by pool teardown.
                for future, task in list(in_flight.items()):
                    if future.done():
                        settle(future, task)
                    elif task.deadline <= now:
                        fail(
                            task,
                            TaskError(
                                kind="timeout",
                                message=(
                                    "no result within "
                                    f"{policy.task_timeout:.1f}s deadline "
                                    f"(attempt {task.attempt})"
                                ),
                            ),
                        )
                    else:
                        # Innocent bystander of the teardown: requeue
                        # without consuming an attempt.
                        ready.append(task)
                in_flight.clear()
                rebuild()
    except KeyboardInterrupt:
        # Graceful Ctrl-C: cancel pending work, reclaim every worker,
        # leave the journal flushed so the campaign is resumable.
        _shutdown_pool(pool)
        if journal is not None:
            journal.flush()
        raise
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


def _publish_chunk_shm(
    chunk: "List[_Task]", cache_dir: "Union[str, Path]"
) -> "Tuple[List[object], Optional[Dict[str, object]]]":
    """Publish one chunk's cache hits into shared memory (parent side).

    Loads each hit zero-copy from the cache (mmap views) and copies it
    once into a :mod:`multiprocessing.shared_memory` segment; workers
    then receive only ``(shm_name, offsets, shapes, dtypes)``
    descriptors instead of re-reading the file per attempt.  Misses get
    no descriptor and keep the worker-side simulate-and-store path.
    Entirely best-effort: any failure (no shm support, ``/dev/shm``
    pressure) just means the chunk runs through the plain cache path.
    """
    try:
        from ..traces.cache import TraceCache, scenario_spec
        from .shm import publish_entry
    except Exception:  # pragma: no cover - platform without shm
        return [], None
    cache = TraceCache(Path(cache_dir))
    segments: List[object] = []
    by_key: Dict[str, object] = {}
    for task in chunk:
        entry = cache.load(
            scenario_spec(task.spec.name, task.spec.n_days, task.spec.seed)
        )
        if entry is None:
            continue
        try:
            segment, descriptor = publish_entry(entry)
        except Exception:  # pragma: no cover - shm exhaustion
            continue
        segments.append(segment)
        by_key[task.key] = descriptor
    return segments, (by_key or None)


def resolve_chunk_size(
    chunk_size: Optional[int], n_workers: int
) -> int:
    """Shard size for the chunked scheduler.

    The default keeps every worker busy for several rounds per chunk
    (amortizing the per-chunk pool spin-up and shm publish) while
    bounding how many trace segments are simultaneously resident in
    shared memory.  Small campaigns stay single-chunk.
    """
    if chunk_size is not None and chunk_size > 0:
        return int(chunk_size)
    return max(4 * n_workers, 8)


def run_campaign(
    specs: Sequence[ScenarioSpec],
    n_jobs: Optional[int] = None,
    cache_dir: "Optional[Union[str, Path]]" = None,
    policy: Optional[RetryPolicy] = None,
    chaos: Optional[WorkerChaos] = None,
    journal_dir: "Optional[Union[str, Path]]" = None,
    chunk_size: Optional[int] = None,
    use_shared_memory: bool = True,
) -> CampaignReport:
    """Run a campaign fault-tolerantly; outcomes in submission order.

    Determinism contract: every worker rebuilds its scenario from the
    spec's own seed (nothing is shared across workers), and outcomes
    are collected in spec order — so the result is identical for any
    ``n_jobs`` and for any interleaving of crashes, retries, and
    resumes; only the ``attempts`` bookkeeping (excluded from
    equality) differs.

    ``policy`` governs retries, backoff, and per-task deadlines;
    ``chaos`` injects seeded worker-level faults (soak testing);
    ``journal_dir`` enables the durable write-ahead log — a rerun
    against the same directory replays completed specs exactly-once
    and executes only the remainder.  ``cache_dir`` enables the
    scenario trace cache as before.

    Pool execution is sharded into chunks of ``chunk_size`` tasks
    (default :func:`resolve_chunk_size`).  With a ``cache_dir`` and
    ``use_shared_memory`` (the default), the parent publishes each
    chunk's cache hits into shared-memory segments once and hands
    workers zero-copy descriptors — traces cross the process boundary
    as ``(shm_name, offsets, shapes, dtypes)`` tuples, never as pickled
    grids — then unlinks the segments when the chunk completes, so peak
    shm residency is bounded by the chunk, not the campaign.  Misses
    simulate worker-side and populate the cache, which later chunks
    pick up.  A spec that fails every retry is
    quarantined: its placeholder outcome (``error`` set, no digest)
    keeps the campaign order, and :attr:`CampaignReport.quarantined`
    surfaces it — a poison spec never discards finished results.
    """
    specs = list(specs)
    policy = policy or RetryPolicy()
    n_jobs = resolve_n_jobs(n_jobs)
    report = CampaignReport()
    journal = (
        CampaignJournal(journal_dir) if journal_dir is not None else None
    )
    keys = [campaign_spec_key(spec) for spec in specs]
    results: "List[Optional[ScenarioOutcome]]" = [None] * len(specs)
    if journal is not None:
        completed = journal.completed_outcomes()
        for index, key in enumerate(keys):
            payload = completed.get(key)
            if payload is None:
                continue
            try:
                results[index] = ScenarioOutcome.from_json_dict(payload)
            except (KeyError, TypeError, ValueError):
                continue  # malformed journal outcome: re-run the spec
            report.n_journal_skips += 1
    tasks = [
        _Task(index=index, spec=spec, key=key)
        for index, (spec, key) in enumerate(zip(specs, keys))
        if results[index] is None
    ]
    try:
        if tasks:
            if n_jobs == 1 or len(tasks) <= 1:
                _execute_inline(
                    tasks, cache_dir, policy, chaos, journal, results, report
                )
            else:
                n_workers = min(n_jobs, len(tasks))
                size = resolve_chunk_size(chunk_size, n_workers)
                for start in range(0, len(tasks), size):
                    chunk = tasks[start : start + size]
                    segments: List[object] = []
                    shm_by_key: "Optional[Dict[str, object]]" = None
                    if use_shared_memory and cache_dir is not None:
                        segments, shm_by_key = _publish_chunk_shm(
                            chunk, cache_dir
                        )
                    try:
                        _execute_pool(
                            chunk,
                            min(n_workers, len(chunk)),
                            cache_dir,
                            policy,
                            chaos,
                            journal,
                            results,
                            report,
                            shm_by_key,
                        )
                    finally:
                        if segments:
                            from .shm import release_segments

                            release_segments(segments)
    finally:
        if journal is not None:
            journal.close()
    report.outcomes = [
        outcome for outcome in results if outcome is not None
    ]
    return report


def run_scenarios_parallel(
    specs: Sequence[ScenarioSpec],
    n_jobs: Optional[int] = None,
    cache_dir: "Optional[Union[str, Path]]" = None,
    policy: Optional[RetryPolicy] = None,
    chaos: Optional[WorkerChaos] = None,
    journal_dir: "Optional[Union[str, Path]]" = None,
    chunk_size: Optional[int] = None,
    use_shared_memory: bool = True,
) -> List[ScenarioOutcome]:
    """Outcome-list view of :func:`run_campaign` (original API).

    Identical semantics — fault-tolerant executor, retries, quarantine,
    optional journal — returning just the outcomes in submission order.
    Use :func:`run_campaign` when the recovery counters matter.
    """
    return run_campaign(
        specs,
        n_jobs=n_jobs,
        cache_dir=cache_dir,
        policy=policy,
        chaos=chaos,
        journal_dir=journal_dir,
        chunk_size=chunk_size,
        use_shared_memory=use_shared_memory,
    ).outcomes
