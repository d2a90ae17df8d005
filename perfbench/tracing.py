"""Span tracing installed from outside the program.

The traced run wraps public functions and methods of the ``repro``
layers in span recorders; the untraced run installs nothing, so its
timings are the program's own.  ``src/`` is never modified: a wrapper
replaces a class attribute, or every binding of a module-level function
across the loaded ``repro`` modules (``from x import f`` copies the
name, so patching the defining module alone would miss callers).

A span records its name, start, end, parent span and operation id.
Spans stay in memory and are written out once, when the run ends.  A
layer's self time is its spans' duration minus the part of that
interval their child spans cover.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gzip
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

#: Span name of one workload operation (the root of every layer span).
OP_SPAN = "op"

#: ``(counter, fn(args, result) -> amount)``: what a wrapped call adds.
Count = Tuple[str, Callable[[tuple, object], float]]


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.ops: List[int] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._counting: Dict[str, int] = defaultdict(int)
        self._op = -1

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self._op)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, op_id: int) -> Iterator[None]:
        """Root span of one workload operation."""
        self._op = op_id
        index = self.open(OP_SPAN)
        try:
            yield
        finally:
            self.close(index)
            self._op = -1

    def wrap(self, name: str, fn: Callable, counts: Sequence[Count] = ()) -> Callable:
        """``fn`` inside a span; counters are added by the outermost call.

        Counters only count inside an operation.  A call nested inside
        another call that feeds the same counter (``window_trace_columnar``
        -> ``windows_from_arrays``) adds nothing, so one unit of work is
        counted once.
        """
        counting = self._counting

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost = []
            for counter, _ in counts:
                outermost.append(counting[counter] == 0)
                counting[counter] += 1
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
                for counter, _ in counts:
                    counting[counter] -= 1
            if self._op < 0:
                return result  # outside every operation: the checks
            for (counter, amount), first in zip(counts, outermost):
                if first:
                    self.counters[counter] += amount(args, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        """Spans as gzipped CSV, times in microseconds from the first."""
        origin = self.starts[0] if self.starts else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("span,name,start_us,end_us,parent,op\n")
            for i, name in enumerate(self.names):
                out.write(
                    f"{i},{name},{(self.starts[i] - origin) * 1e6:.3f},"
                    f"{(self.ends[i] - origin) * 1e6:.3f},"
                    f"{self.parents[i]},{self.ops[i]}\n"
                )


def layer_of(name: str) -> str:
    """``"core.pipeline:process_window"`` -> ``"core.pipeline"``."""
    return name.split(":", 1)[0]


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> List[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[int]] = defaultdict(list)
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(index)
    result = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        reach = start
        for child in sorted(children.get(index, ()), key=lambda c: starts[c]):
            lo = max(starts[child], reach)
            hi = min(ends[child], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


@dataclasses.dataclass
class SpanSummary:
    """Per-layer self time and per-name inclusive time of a span set."""

    #: layer -> summed self time (seconds)
    self_s: Dict[str, float]
    #: span name -> summed duration of spans not nested in the same name
    inclusive_s: Dict[str, float]
    #: summed duration of the operation root spans
    op_s: float
    n_ops: int

    @property
    def coverage(self) -> float:
        """Share of operation time spent in the self time of layer spans."""
        covered = sum(v for k, v in self.self_s.items() if k != OP_SPAN)
        return covered / self.op_s if self.op_s > 0 else 0.0


def summarize(tracer: Tracer) -> SpanSummary:
    names, starts, ends, parents = (
        tracer.names,
        tracer.starts,
        tracer.ends,
        tracer.parents,
    )
    own = self_times(starts, ends, parents)
    self_s: Dict[str, float] = defaultdict(float)
    inclusive: Dict[str, float] = defaultdict(float)
    op_s = 0.0
    n_ops = 0
    for index, name in enumerate(names):
        if tracer.ops[index] < 0:
            continue  # outside every operation: the checks, not the workload
        self_s[layer_of(name)] += own[index]
        duration = ends[index] - starts[index]
        if name == OP_SPAN:
            op_s += duration
            n_ops += 1
        parent = parents[index]
        while parent >= 0 and names[parent] != name:
            parent = parents[parent]
        if parent < 0:
            inclusive[name] += duration
    return SpanSummary(dict(self_s), dict(inclusive), op_s, n_ops)


# -- installation ---------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Target:
    """One public callable to wrap: ``"module:attr"`` or ``"module:Class.attr"``."""

    layer: str
    path: str
    counts: Tuple[Count, ...] = ()

    @property
    def span_name(self) -> str:
        return f"{self.layer}:{self.path.rsplit('.', 1)[-1].rsplit(':', 1)[-1]}"


def _resolve(path: str):
    module_name, _, attr_path = path.partition(":")
    __import__(module_name)
    owner = sys.modules[module_name]
    *owners, attr = attr_path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, attr


def _module_bindings(obj: object) -> List[Tuple[object, str]]:
    """Every ``(module, name)`` of a loaded ``repro`` module bound to ``obj``."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for name, value in list(vars(module).items()):
            if value is obj:
                found.append((module, name))
    return found


class Installation:
    """Wrappers installed for one traced phase; :meth:`remove` undoes them."""

    def __init__(self, tracer: Tracer, targets: Sequence[Target]):
        self._undo: List[Tuple[object, str, object]] = []
        # Import every target module before patching any, so no module
        # copies a wrapper into its namespace where remove() cannot see it.
        resolved = [(target, *_resolve(target.path)) for target in targets]
        for target, owner, attr in resolved:
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                bindings = [(owner, attr)]
            else:
                original = getattr(owner, attr)
                bindings = _module_bindings(original)
            if target.path == "repro.backend:get_backend":
                wrapped = _traced_backends(tracer, target, original)
            else:
                wrapped = tracer.wrap(target.span_name, original, target.counts)
            for holder, name in bindings:
                self._undo.append((holder, name, original))
                setattr(holder, name, wrapped)

    def remove(self) -> None:
        for holder, name, original in reversed(self._undo):
            setattr(holder, name, original)
        self._undo.clear()


def _traced_backends(tracer: Tracer, target: Target, get_backend: Callable) -> Callable:
    """``get_backend`` returning backends whose kernels run inside spans.

    Pipelines resolve their backend at construction, so the traced
    kernels reach every pipeline (and fleet) built while installed.
    """
    cache: Dict[str, object] = {}
    kernel_fields = (
        "grouped_sums",
        "pairwise_distances",
        "batched_distances",
        "k_of_n_lockstep",
        "sprt_step",
        "cusum_step",
    )

    @functools.wraps(get_backend)
    def traced_get_backend(name: str = "numpy"):
        backend = cache.get(name)
        if backend is None:
            base = get_backend(name)
            backend = dataclasses.replace(
                base,
                **{
                    field: tracer.wrap(
                        f"{target.layer}:{field}",
                        getattr(base, field),
                        target.counts,
                    )
                    for field in kernel_fields
                },
            )
            cache[name] = backend
        return backend

    return traced_get_backend


def _one(args: tuple, result: object) -> float:
    return 1.0


def _length(args: tuple, result: object) -> float:
    return float(len(result))


def _result(args: tuple, result: object) -> float:
    return float(result)


def _cache_hit(args: tuple, result: object) -> float:
    return 0.0 if result is None else 1.0


def _checkpoint_seconds(args: tuple, result: object) -> float:
    return float(args[0].health_report()["overhead_seconds"]["checkpoint_seconds"])


#: Generation, windowing and the in-process detection layers.
GENERATION_TARGETS = (
    Target("traces.gdi", "repro.traces.gdi:generate_gdi_trace"),
    Target("traces.gdi", "repro.traces.gdi:build_environment"),
    Target(
        "sensornet.simulator",
        "repro.sensornet.simulator:NetworkSimulator.run",
        (("sensornet.simulator.ticks", lambda a, r: float(r.n_ticks)),),
    ),
    Target(
        "faults.injector",
        "repro.faults.injector:FaultInjector.__call__",
        (("faults.injector.calls", _one),),
    ),
    Target(
        "faults.injector",
        "repro.faults.injector:FaultInjector.apply_columnar",
        (("faults.injector.calls", _one),),
    ),
    Target("traces.columnar", "repro.traces.columnar:generate_gdi_trace_columnar"),
    Target("traces.columnar", "repro.traces.columnar:ColumnarTrace.delivered_arrays"),
    Target(
        "traces.windows",
        "repro.traces.windows:window_trace_by_samples",
        (("traces.windows.windows", _length),),
    ),
    Target(
        "traces.windows",
        "repro.traces.windows:window_trace_columnar",
        (("traces.windows.windows", _length),),
    ),
    Target(
        "traces.windows",
        "repro.sensornet.collector:windows_from_arrays",
        (("traces.windows.windows", _length),),
    ),
    Target(
        "experiments.scenarios",
        "repro.experiments.scenarios:reference_states",
        (("experiments.scenarios.reference_states_calls", _one),),
    ),
)

CORE_TARGETS = (
    Target(
        "core.pipeline",
        "repro.core.pipeline:DetectionPipeline.process_window",
        (("core.pipeline.windows", _one),),
    ),
    Target(
        "core.pipeline",
        "repro.core.pipeline:DetectionPipeline.process_windows_fast",
        (("core.pipeline.windows", _result),),
    ),
    Target(
        "core.clustering",
        "repro.core.clustering:OnlineStateClusterer.update",
        (("core.clustering.updates", _one),),
    ),
    Target("core.clustering", "repro.core.clustering:OnlineStateClusterer.assign"),
    Target(
        "core.clustering", "repro.core.clustering:OnlineStateClusterer.assign_batch"
    ),
    Target("core.clustering", "repro.core.clustering:OnlineStateClusterer.maybe_spawn"),
    Target("core.identification", "repro.core.identification:identify_window"),
    Target("core.filtering", "repro.core.filtering:FilterBank.update"),
    Target("core.filtering", "repro.core.filtering:VectorFilterBank.update"),
    Target("core.filtering", "repro.core.filtering:VectorFilterBank.update_batch"),
    Target("core.filtering", "repro.core.filtering:VectorFilterBank.advance_quiescent"),
    Target(
        "core.filtering", "repro.core.filtering:VectorFilterBank.quiescent_all_false"
    ),
    Target("core.tracks", "repro.core.tracks:TrackManager.open_track"),
    Target("core.tracks", "repro.core.tracks:TrackManager.close_track"),
    Target("core.tracks", "repro.core.tracks:TrackManager.record_window"),
    Target("core.tracks", "repro.core.tracks:TrackManager.record_window_batch"),
    Target(
        "core.online_hmm",
        "repro.core.online_hmm:OnlineHMM.observe",
        (("core.online_hmm.observations", _one),),
    ),
    Target(
        "core.classification",
        "repro.core.classification:classify_track",
        (("core.classification.calls", _one),),
    ),
    Target(
        "core.classification",
        "repro.core.classification:classify_system",
        (("core.classification.calls", _one),),
    ),
    Target("core.classification", "repro.core.pipeline:DetectionPipeline.diagnose_all"),
    Target(
        "core.classification", "repro.core.pipeline:DetectionPipeline.diagnose_sensor"
    ),
    Target(
        "core.classification", "repro.core.pipeline:DetectionPipeline.system_diagnosis"
    ),
    Target(
        "backend.kernels",
        "repro.backend:get_backend",
        (("backend.kernel_calls", _one),),
    ),
)

FLEET_TARGETS = (
    Target(
        "fleet.engine",
        "repro.fleet.engine:FleetEngine.process_windows",
        (("fleet.deployment_windows", _result),),
    ),
    Target("fleet.engine", "repro.fleet.engine:FleetEngine.begin_run"),
    Target("fleet.engine", "repro.fleet.engine:FleetEngine.step_once"),
    Target("fleet.engine", "repro.fleet.engine:FleetEngine.end_run"),
    Target("fleet.engine", "repro.fleet.engine:FleetEngine.evict"),
    Target(
        "fleet.isolation",
        "repro.fleet.isolation:ResilientFleetEngine.process_windows",
        (
            ("fleet.deployment_windows", _result),
            ("fleet.isolation.checkpoint_s", _checkpoint_seconds),
        ),
    ),
)

#: Parent-side layers of a campaign; worker-side layers run in other
#: processes and are measured by the paper_scenario workload instead.
CAMPAIGN_TARGETS = (
    Target(
        "experiments.runner",
        "repro.experiments.runner:run_campaign",
        (("experiments.runner.retries", lambda a, r: float(r.n_retries)),),
    ),
    Target("experiments.runner.wait", "repro.experiments.runner:futures_wait"),
    Target(
        "traces.cache",
        "repro.traces.cache:TraceCache.load",
        (("traces.cache.loads", _one), ("traces.cache.hits", _cache_hit)),
    ),
    Target(
        "experiments.shm",
        "repro.experiments.shm:publish_entry",
        (("experiments.shm.bytes_published", lambda a, r: float(r[0].size)),),
    ),
    Target("experiments.shm", "repro.experiments.shm:release_segments"),
)


def layer_metrics(summary: SpanSummary, counters: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics, per operation of the workload.

    Times and counts are divided by the number of traced operations so
    that runs of different lengths compare; ratios are not.
    """
    ops = max(summary.n_ops, 1)
    own = summary.self_s
    inc = summary.inclusive_s

    def per_op(value: float) -> float:
        return value / ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    windows = counters.get("core.pipeline.windows", 0.0)
    fleet_windows = counters.get("fleet.deployment_windows", 0.0)
    campaign_s = inc.get("experiments.runner:run_campaign", 0.0)
    wait_s = inc.get("experiments.runner.wait:futures_wait", 0.0)
    metrics = {
        "traces.gdi.self_s": own.get("traces.gdi", 0.0),
        "sensornet.simulator.self_s": own.get("sensornet.simulator", 0.0),
        "sensornet.simulator.ticks": counters.get("sensornet.simulator.ticks", 0.0),
        "faults.injector.self_s": own.get("faults.injector", 0.0),
        "faults.injector.calls": counters.get("faults.injector.calls", 0.0),
        "traces.columnar.self_s": own.get("traces.columnar", 0.0),
        "traces.windows.self_s": own.get("traces.windows", 0.0),
        "traces.windows.windows": counters.get("traces.windows.windows", 0.0),
        "experiments.scenarios.reference_states_s": inc.get(
            "experiments.scenarios:reference_states", 0.0
        ),
        "experiments.scenarios.reference_states_calls": counters.get(
            "experiments.scenarios.reference_states_calls", 0.0
        ),
        "core.pipeline.self_s": own.get("core.pipeline", 0.0),
        "core.pipeline.process_window_s": inc.get("core.pipeline:process_window", 0.0),
        "core.pipeline.process_windows_fast_s": inc.get(
            "core.pipeline:process_windows_fast", 0.0
        ),
        "core.pipeline.windows": windows,
        "core.clustering.update_s": inc.get("core.clustering:update", 0.0),
        "core.identification.self_s": own.get("core.identification", 0.0),
        "core.filtering.self_s": own.get("core.filtering", 0.0),
        "core.tracks.self_s": own.get("core.tracks", 0.0),
        "core.online_hmm.observe_s": inc.get("core.online_hmm:observe", 0.0),
        "core.online_hmm.observations": counters.get(
            "core.online_hmm.observations", 0.0
        ),
        "core.classification.diagnose_s": own.get("core.classification", 0.0),
        "core.classification.calls": counters.get("core.classification.calls", 0.0),
        "backend.kernels_s": own.get("backend.kernels", 0.0),
        "backend.kernel_calls": counters.get("backend.kernel_calls", 0.0),
        "fleet.engine.self_s": own.get("fleet.engine", 0.0),
        "fleet.isolation.self_s": own.get("fleet.isolation", 0.0),
        "fleet.isolation.checkpoint_s": counters.get(
            "fleet.isolation.checkpoint_s", 0.0
        ),
        "fleet.deployment_windows": fleet_windows,
        "traces.cache.load_s": inc.get("traces.cache:load", 0.0),
        "experiments.shm.publish_s": inc.get("experiments.shm:publish_entry", 0.0),
        "experiments.shm.bytes_published": counters.get(
            "experiments.shm.bytes_published", 0.0
        ),
        "experiments.runner.parent_busy_s": campaign_s - wait_s,
        "experiments.runner.worker_wait_s": wait_s,
        "experiments.runner.retries": counters.get("experiments.runner.retries", 0.0),
    }
    metrics = {name: per_op(value) for name, value in metrics.items()}
    metrics["core.clustering.full_window_ratio"] = ratio(
        counters.get("core.clustering.updates", 0.0), windows + fleet_windows
    )
    metrics["traces.cache.hit_ratio"] = ratio(
        counters.get("traces.cache.hits", 0.0), counters.get("traces.cache.loads", 0.0)
    )
    metrics["trace.coverage_ratio"] = summary.coverage
    return metrics
