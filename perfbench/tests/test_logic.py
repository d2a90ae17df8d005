"""Tests of the benchmark's own logic: statistics, spans, failure counting.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import itertools
import statistics

import pytest

import stats
import tracing


# -- quartiles ----------------------------------------------------------------


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    summary = stats.quartiles(values)
    assert (summary["q1"], summary["median"], summary["q3"]) == (q1, median, q3)
    assert summary["median"] == statistics.median(values)
    assert summary["n"] == 10
    assert stats.quartiles([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}


def test_pass_rate_sums_each_kinds_median_once():
    ops = [
        ("clean", 504, 4.0), ("clean", 504, 6.0), ("clean", 504, 100.0),
        ("attack", 504, 10.0),
        ("fault", 504, 5.0), ("fault", 504, 7.0),
    ]
    # medians 6, 10 and 6: one pass is 1512 windows in 22 s, however
    # many operations of each kind the run happened to finish
    assert stats.pass_rate(ops) == pytest.approx(1512 / 22.0)
    assert stats.pass_rate([("op", 100, 2.0), ("op", 100, 3.0)]) == 40.0
    with pytest.raises(ValueError):
        stats.pass_rate([("op", 100, 1.0), ("op", 99, 1.0)])
    with pytest.raises(ValueError):
        stats.pass_rate([])


# -- self time ----------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    # parent [0, 10]; children [1, 3] and [2, 4] overlap (union 3 s) and
    # [8, 12] sticks out of the parent (2 s inside); the grandchild
    # [1.5, 2] is its own parent's business.
    starts = [0.0, 1.0, 2.0, 8.0, 1.5]
    ends = [10.0, 3.0, 4.0, 12.0, 2.0]
    parents = [-1, 0, 0, 0, 1]
    own = tracing.self_times(starts, ends, parents)
    assert own == pytest.approx([5.0, 1.5, 2.0, 4.0, 0.5])


class _FakeClock:
    def __init__(self):
        self.ticks = itertools.count()

    def __call__(self):
        return float(next(self.ticks))


def test_tracer_summary_self_inclusive_coverage_and_counters(monkeypatch):
    monkeypatch.setattr(tracing.time, "perf_counter", _FakeClock())
    tracer = tracing.Tracer()
    items = (("b.items", lambda args, result: len(result)),)
    inner = tracer.wrap("b.layer:inner", lambda n: list(range(n)), items)
    outer = tracer.wrap("a.layer:outer", lambda: inner(3) + inner(2), items)
    with tracer.op(0):
        result = outer()
    assert len(result) == 5
    inner(4)  # outside every operation: ignored by the summary
    summary = tracing.summarize(tracer)
    # clock reads: op 0, outer 1, inner 2-3, inner 4-5, outer 6, op 7
    assert summary.n_ops == 1
    assert summary.op_s == 7.0
    assert summary.self_s == {"op": 2.0, "a.layer": 3.0, "b.layer": 2.0}
    assert summary.inclusive_s == {
        "op": 7.0,
        "a.layer:outer": 5.0,
        "b.layer:inner": 2.0,
    }
    assert summary.coverage == pytest.approx(5.0 / 7.0)
    # nested calls feeding the same counter count once, at the outermost
    # call; the call outside the op counts nothing
    assert tracer.counters["b.items"] == 5


def test_installation_patches_every_binding_and_restores_them():
    import repro.core.identification as identification
    import repro.core.pipeline as pipeline

    original = identification.identify_window
    tracer = tracing.Tracer()
    target = tracing.Target(
        "core.identification", "repro.core.identification:identify_window"
    )
    installed = tracing.Installation(tracer, [target])
    try:
        assert pipeline.identify_window is identification.identify_window
        assert pipeline.identify_window is not original
    finally:
        installed.remove()
    assert pipeline.identify_window is original
    assert identification.identify_window is original


# -- failure counting ---------------------------------------------------------


def test_count_failures_and_failed_ratio():
    from workloads import count_failures

    assert count_failures(["a", "b", "c"], ["a", "b", "c"]) == (3, 0)
    assert count_failures(["a", "b", "c"], ["a", "x", None]) == (3, 2)
    assert count_failures(["a", "b", "c"], ["a"]) == (3, 2)
    assert count_failures(["a"], ["a", "b"]) == (2, 1)
    assert stats.failed_ratio(3, 0) == 0.0
    assert stats.failed_ratio(4, 1) == 0.25
    with pytest.raises(ValueError):
        stats.failed_ratio(0, 0)


def test_missing_reference_fails_loudly():
    from workloads import MissingReference, PaperScenario, References

    with pytest.raises(MissingReference):
        PaperScenario(2003, References({}), None)


def test_tampered_reference_digest_drives_failed_ratio_above_zero(tmp_path):
    from workloads import CampaignSweep, References, reference_key

    refs = References.load()
    honest = CampaignSweep(2003, refs, tmp_path / "honest")
    spec = honest.specs[3]
    key = reference_key(spec.name, spec.n_days, spec.seed)
    tampered_payload = {"outcomes": dict(refs.outcomes)}
    tampered_payload["outcomes"][key] = {**refs.outcomes[key], "outcome": "0" * 64}
    tampered = CampaignSweep(2003, References(tampered_payload), tmp_path / "tampered")
    assert tampered.specs == honest.specs
    try:
        honest.setup(0)
        result = honest.op()
        assert honest.check(result) == (20, 0)
        attempted, failed = tampered.check(result)
    finally:
        honest.close()
    assert (attempted, failed) == (20, 1)
    assert stats.failed_ratio(attempted, failed) > 0


def test_every_seed_runs_the_same_mix_in_its_own_order(tmp_path):
    from workloads import WORKLOADS, References

    refs = References.load()

    def mix(workload):
        if workload.name == "fleet":
            return workload.tenants
        if workload.name == "campaign_sweep":
            return [(s.name, s.seed) for s in workload.specs]
        return workload.plan

    for name, cls in WORKLOADS.items():
        orders = [mix(cls(seed, refs, tmp_path)) for seed in range(8)]
        assert all(sorted(o) == sorted(orders[0]) for o in orders), name
        assert len({tuple(o) for o in orders}) > 1, name
        assert mix(cls(3, refs, tmp_path)) == orders[3], name
