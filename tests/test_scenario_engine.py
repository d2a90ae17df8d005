"""The scenario engine runs on the columnar generator and the fused pipeline.

``run_scenario`` generates with :func:`generate_gdi_trace_columnar`,
windows with :func:`windows_from_arrays` and detects with
:meth:`DetectionPipeline.process_windows_fast`; the cache-hit replay
uses the fused pipeline too.  The object-path generator,
``window_trace_by_samples`` and per-window ``process_window`` are the
oracles these checks compare against, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import pytest

import repro.sensornet.simulator
import repro.traces.gdi
import repro.traces.windows
from repro import DetectionPipeline, PipelineConfig
from repro.experiments import (
    _SCENARIO_BUILDERS,
    ScenarioSpec,
    scenarios,
    summarize_run,
)
from repro.experiments.runner import _run_scenario_spec
from repro.faults.campaign import CampaignSpec
from repro.traces import (
    GDITraceConfig,
    build_environment,
    generate_gdi_trace,
    window_trace_by_samples,
)
from repro.traces.schema import Trace

DAYS = 3


@dataclass
class OracleRun:
    """The fields of a ScenarioRun that ``summarize_run`` reads."""

    name: str
    trace: Trace
    pipeline: DetectionPipeline
    campaign: Optional[CampaignSpec]
    trace_config: GDITraceConfig

    @property
    def ground_truth(self) -> Dict[int, str]:
        return self.campaign.ground_truth() if self.campaign else {}


def oracle_run_scenario(
    name, campaign=None, trace_config=None, config=None, **_
) -> OracleRun:
    """``run_scenario`` on the object path and the per-window loop."""
    trace_config = trace_config or GDITraceConfig()
    config = config or PipelineConfig()
    injector = (
        campaign.build_injector(build_environment(trace_config)) if campaign else None
    )
    trace = generate_gdi_trace(trace_config, corruption=injector)
    pipeline = DetectionPipeline(config)
    for window in window_trace_by_samples(
        trace, config.window_samples, config.sample_period_minutes
    ):
        pipeline.process_window(window)
    return OracleRun(name, trace, pipeline, campaign, trace_config)


def oracle_scenario(family: str, seed: int, monkeypatch) -> OracleRun:
    """A standard builder with the oracle standing in for ``run_scenario``.

    Builders resolve ``run_scenario`` through the scenarios module, so
    the attack builders' clean reference runs go through the oracle too.
    Faults hold their own RNGs, so each run needs a freshly built plan:
    the builder is called again rather than its campaign reused.
    """
    with monkeypatch.context() as patch:
        patch.setattr(scenarios, "run_scenario", oracle_run_scenario)
        return _SCENARIO_BUILDERS[family](n_days=DAYS, seed=seed)


@pytest.mark.parametrize("seed", [2003, 7])
@pytest.mark.parametrize("family", ["clean", "faulty", "deletion", "creation"])
def test_outcome_matches_object_path_oracle(family, seed, monkeypatch):
    fast = summarize_run(_SCENARIO_BUILDERS[family](n_days=DAYS, seed=seed))
    oracle = summarize_run(oracle_scenario(family, seed, monkeypatch))
    assert fast.digest == oracle.digest
    assert fast == oracle


def _refuse(*_args, **_kwargs):
    raise AssertionError("scenario run reached an object-path oracle")


def test_scenarios_never_reach_the_oracles(monkeypatch, tmp_path):
    monkeypatch.setattr(repro.traces.gdi, "generate_gdi_trace", _refuse)
    monkeypatch.setattr(repro.sensornet.simulator.NetworkSimulator, "run", _refuse)
    monkeypatch.setattr(repro.traces.windows, "window_trace", _refuse)
    monkeypatch.setattr(DetectionPipeline, "process_window", _refuse)

    run = _SCENARIO_BUILDERS["deletion"](n_days=DAYS, seed=2003)
    assert run.pipeline.n_windows == len(run.windows())

    spec = ScenarioSpec("faulty", n_days=DAYS, seed=2003)
    stored = _run_scenario_spec(spec, cache_dir=tmp_path)  # miss: run + store
    replayed = _run_scenario_spec(spec, cache_dir=tmp_path)  # hit: _replay_entry
    assert not stored.from_cache
    assert replayed.from_cache
    assert replayed == stored


def test_lazy_trace_matches_object_generator(monkeypatch):
    run = _SCENARIO_BUILDERS["faulty"](n_days=DAYS, seed=2003)
    assert "trace" not in vars(run)  # not built until asked for
    oracle = oracle_scenario("faulty", 2003, monkeypatch).trace
    trace = run.trace
    assert run.trace is trace
    assert len(trace.records) == len(oracle.records)
    for ours, expected in zip(trace.records, oracle.records):
        assert ours == expected  # bitwise: id, timestamp and attributes
    assert trace.attribute_names == oracle.attribute_names
    assert trace.metadata == oracle.metadata
