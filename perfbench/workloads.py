"""The benchmark's workloads: inputs from a seed, timed operations, checks.

Every workload runs a fixed mix of scenarios at :data:`REFERENCE_SEEDS`,
the seeds for which ``references.json`` holds oracle digests (produced
by ``make_refs.py`` on the object-path generator and the per-window
``process_window`` loop).  The benchmark seed orders that mix: which
scenario runs first, the order of the campaign's specs and of the
fleet's tenants.  The mix
itself is the same for every seed, so every run does the same work and
the spread between runs measures the machine, not the draw.  Every
operation is checked against the references; a missing reference
raises instead of skipping the check.

A workload is set up (inputs built, not timed), then runs operations
until its time is up.  An operation returns its outputs untouched; the
check against the references runs afterwards, outside the timed region
and outside the traced operation span.  Program functions are called
through their ``repro`` module so that the traced run's wrappers (which
rebind names in ``repro`` modules only) see the calls.
"""

from __future__ import annotations

import functools
import hashlib
import json
import multiprocessing
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import repro.experiments as experiments
from repro.config import PipelineConfig
from repro.core.pipeline import DetectionPipeline
from repro.experiments import _SCENARIO_BUILDERS, ScenarioSpec
from repro.experiments import scenarios as _scenarios
from repro.sensornet.collector import windows_from_arrays
from repro.traces.cache import TraceCache, scenario_spec
from repro.traces.columnar import generate_gdi_trace_columnar
from repro.traces.gdi import GDITraceConfig, build_environment

from tracing import CAMPAIGN_TARGETS, CORE_TARGETS, FLEET_TARGETS, GENERATION_TARGETS

FAMILIES: Tuple[str, ...] = tuple(_SCENARIO_BUILDERS)

#: Scenario seeds with stored references: the paper's 2003 and a held-out one.
REFERENCE_SEEDS: Tuple[int, ...] = (2003, 2004)
PAPER_SEED = 2003

SCENARIO_DAYS = 21
CAMPAIGN_DAYS = 7
#: paper_scenario's metric label -> scenario family.
PAPER_SCENARIOS = (("clean", "clean"), ("fault", "faulty"), ("attack", "deletion"))
#: campaign_sweep's specs and fleet's tenant kinds: every family at every seed.
KINDS: Tuple[Tuple[str, int], ...] = tuple(
    (family, seed) for seed in REFERENCE_SEEDS for family in FAMILIES
)
CAMPAIGN_JOBS = 2
FLEET_TENANTS = 64

REFERENCE_FILE = Path(__file__).resolve().parent / "references.json"


class MissingReference(KeyError):
    """An operation has no stored reference, so it cannot be checked."""


# -- digests ---------------------------------------------------------------


def outcome_hash(outcome) -> str:
    """Hash of a :class:`ScenarioOutcome` without its retry bookkeeping."""
    payload = outcome.to_json_dict()
    payload.pop("attempts", None)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def reference_key(family: str, n_days: int, seed: int) -> str:
    return f"{family}/{n_days}/{seed}"


class References:
    """Stored oracle digests; every lookup of an absent entry raises."""

    def __init__(self, payload: Dict[str, object]):
        self.outcomes: Dict[str, Dict[str, str]] = dict(payload.get("outcomes", {}))

    @classmethod
    def load(cls) -> "References":
        with open(REFERENCE_FILE, encoding="utf-8") as handle:
            return cls(json.load(handle))

    def outcome(self, family: str, n_days: int, seed: int) -> Dict[str, str]:
        key = reference_key(family, n_days, seed)
        if key not in self.outcomes:
            raise MissingReference(f"no reference outcome for {key}")
        return self.outcomes[key]


def count_failures(
    expected: Sequence[str], actual: Sequence[Optional[str]]
) -> Tuple[int, int]:
    """``(attempted, failed)`` over paired operations.

    An operation fails when its digest differs from the reference or it
    produced none (``None``: it raised or was quarantined).  An output
    list shorter than the reference counts the missing operations as
    failed, so a run that silently drops work cannot pass.
    """
    attempted = max(len(expected), len(actual))
    failed = sum(
        1
        for i in range(attempted)
        if i >= len(expected) or i >= len(actual) or actual[i] is None
        or actual[i] != expected[i]
    )
    return attempted, failed


def join_children() -> None:
    """Wait for every child process; terminate one that outlives the wait."""
    for child in multiprocessing.active_children():
        child.join(timeout=30)
        if child.is_alive():
            child.terminate()
            child.join(timeout=10)


# -- inputs ----------------------------------------------------------------


class _CapturedRun:
    """A scenario builder's run on the columnar generator (set-up only).

    Stands in for ``run_scenario`` while a builder executes, so the
    builder's own campaign (faults, attack anchors, compromised set) is
    generated through ``generate_gdi_trace_columnar``.  The pipeline is
    built lazily: only attack builders read it, for their reference
    states.  Outputs are checked against the object-path references.
    """

    def __init__(self, name, campaign=None, trace_config=None, config=None, **_):
        self.name = name
        self.campaign = campaign
        self.trace_config = trace_config or GDITraceConfig()
        self.config = config or PipelineConfig()
        injector = (
            campaign.build_injector(build_environment(self.trace_config))
            if campaign
            else None
        )
        trace = generate_gdi_trace_columnar(self.trace_config, corruption=injector)
        self.arrays = trace.delivered_arrays()
        self.attribute_names = trace.attribute_names
        self.metadata = dict(trace.metadata)
        self.windows = windows_from_arrays(*self.arrays, self.config.window_minutes)

    @property
    def ground_truth(self) -> Dict[int, str]:
        return self.campaign.ground_truth() if self.campaign else {}

    @functools.cached_property
    def pipeline(self) -> DetectionPipeline:
        pipeline = DetectionPipeline(self.config)
        pipeline.process_windows_fast(self.windows)
        return pipeline


def capture_scenario(family: str, n_days: int, seed: int) -> _CapturedRun:
    """Inputs of one standard scenario, generated columnar-style."""
    original = _scenarios.run_scenario
    _scenarios.run_scenario = _CapturedRun
    try:
        return _SCENARIO_BUILDERS[family](n_days=n_days, seed=seed)
    finally:
        _scenarios.run_scenario = original


# -- workloads -------------------------------------------------------------


@dataclass
class OpResult:
    """One timed operation: its kind, size, wall time and raw outputs."""

    windows: int
    wall_s: float
    outputs: object
    #: named timing samples (seconds) for the workload's own metrics
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: operations of one kind do the same work; see ``Workload.kinds``
    kind: str = "op"
    #: CPU seconds of the workload's processes, filled in by the runner
    cpu_s: float = 0.0


class Workload:
    """Base: ``setup`` builds inputs, ``op`` runs one timed operation."""

    name = ""
    #: Layers wrapped in the traced run.
    targets: Tuple = ()
    #: Kinds of operation; a run times at least one of each.
    kinds: Tuple[str, ...] = ("op",)

    def __init__(self, seed: int, refs: References, work_dir: Path):
        self.seed = seed
        self.refs = refs
        self.work_dir = work_dir
        self.rng = random.Random(f"{self.name}:{seed}")

    def setup(self, attempt: int) -> None:
        raise NotImplementedError

    def op(self) -> OpResult:
        raise NotImplementedError

    def check(self, result: OpResult) -> Tuple[int, int]:
        raise NotImplementedError

    def close(self) -> None:
        """Release what set-up created."""


class PaperScenario(Workload):
    """One operation is one paper scenario; operations cycle through the plan."""

    name = "paper_scenario"
    targets = GENERATION_TARGETS + CORE_TARGETS

    def __init__(self, *args):
        super().__init__(*args)
        self.plan = [(label, family, PAPER_SEED) for label, family in PAPER_SCENARIOS]
        self.rng.shuffle(self.plan)
        self.kinds = tuple(label for label, _, _ in self.plan)
        self.expected = {
            label: self.refs.outcome(family, SCENARIO_DAYS, seed)["outcome"]
            for label, family, seed in self.plan
        }
        self.next_op = 0

    def setup(self, attempt: int) -> None:
        pass  # generation is the measured work

    def op(self) -> OpResult:
        label, family, seed = self.plan[self.next_op % len(self.plan)]
        self.next_op += 1
        start = time.perf_counter()
        run = _SCENARIO_BUILDERS[family](n_days=SCENARIO_DAYS, seed=seed)
        outcome = experiments.summarize_run(run)
        wall = time.perf_counter() - start
        return OpResult(
            windows=outcome.n_windows,
            wall_s=wall,
            outputs=outcome,
            samples={f"scenario_s.{label}": [wall]},
            kind=label,
        )

    def check(self, result: OpResult) -> Tuple[int, int]:
        return count_failures(
            [self.expected[result.kind]], [outcome_hash(result.outputs)]
        )


class CampaignSweep(Workload):
    name = "campaign_sweep"
    targets = CAMPAIGN_TARGETS

    def __init__(self, *args):
        super().__init__(*args)
        self.specs = [ScenarioSpec(f, CAMPAIGN_DAYS, s) for f, s in KINDS]
        self.rng.shuffle(self.specs)
        self.expected = [
            self.refs.outcome(s.name, s.n_days, s.seed)["outcome"] for s in self.specs
        ]
        self.cache_dir: Optional[Path] = None

    def setup(self, attempt: int) -> None:
        """Fill a fresh trace cache with every spec's delivered trace."""
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir = self.work_dir / f"cache-{attempt}"
        cache = TraceCache(self.cache_dir)
        for spec in self.specs:
            run = capture_scenario(spec.name, spec.n_days, spec.seed)
            cache.store(
                scenario_spec(spec.name, spec.n_days, spec.seed),
                *run.arrays,
                attribute_names=run.attribute_names,
                metadata=run.metadata,
                ground_truth=run.ground_truth,
                label=run.name,
            )

    def op(self) -> OpResult:
        start = time.perf_counter()
        report = experiments.run_campaign(
            self.specs, n_jobs=CAMPAIGN_JOBS, cache_dir=self.cache_dir
        )
        wall = time.perf_counter() - start
        # The pool is shut down without waiting; reap its workers so the
        # next operation does not share the CPUs with them.
        join_children()
        return OpResult(
            windows=sum(o.n_windows for o in report.outcomes),
            wall_s=wall,
            outputs=report,
        )

    def check(self, result: OpResult) -> Tuple[int, int]:
        actual = [
            None if o.quarantined or not o.from_cache else outcome_hash(o)
            for o in result.outputs.outcomes
        ]
        return count_failures(self.expected, actual)

    def close(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)


class Fleet(Workload):
    name = "fleet"
    targets = CORE_TARGETS + FLEET_TARGETS

    def __init__(self, *args):
        super().__init__(*args)
        self.tenants = [KINDS[i % len(KINDS)] for i in range(FLEET_TENANTS)]
        self.rng.shuffle(self.tenants)
        self.expected = [
            self.refs.outcome(f, SCENARIO_DAYS, s)["digest"] for f, s in self.tenants
        ]

    def setup(self, attempt: int) -> None:
        """One real diurnal trace per (family, seed); tenants of a kind share it."""
        self.windows = None  # the previous set-up's inputs go first
        windows = {
            kind: capture_scenario(kind[0], SCENARIO_DAYS, kind[1]).windows
            for kind in sorted(set(self.tenants))
        }
        self.windows = [windows[kind] for kind in self.tenants]

    def op(self) -> OpResult:
        start = time.perf_counter()
        pipelines = experiments.run_fleet(self.windows, resilient=True)
        wall = time.perf_counter() - start
        return OpResult(
            windows=sum(p.n_windows for p in pipelines),
            wall_s=wall,
            outputs=pipelines,
        )

    def check(self, result: OpResult) -> Tuple[int, int]:
        return count_failures(self.expected, [p.digest() for p in result.outputs])


WORKLOADS = {w.name: w for w in (PaperScenario, CampaignSweep, Fleet)}
