"""Run one benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 2003

With ``--trace 0`` the run measures with nothing installed and reports
the end-to-end metrics; with ``--trace 1`` it measures half the time
untraced and half with span wrappers around the layers, and reports the
per-layer metrics plus the tracing overhead.  ``--workload all`` runs
every workload in its own process, one after another.  Every line but
the last is for people; the last is one JSON object.

Gated times are CPU seconds of the workload's processes: on a shared
host, the time a process waits for a CPU depends on the other tenants,
not on the program.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported: one BLAS/OpenMP thread per process,
# so the only parallelism is what a workload asks for.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("paper_scenario", "campaign_sweep", "fleet")
#: Import timings and set-ups per run; setup_s reports the sum of their medians.
SETUP_REPEATS = 3
#: CPU time of the benchmark's imports in a fresh interpreter.
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; t = time.process_time(); "
    "import tracing, workloads; print(time.process_time() - t)"
)


def _environment() -> str:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"numpy={numpy.__version__} blas={blas.get('name')} {blas.get('version')} "
        f"threads={os.environ['OPENBLAS_NUM_THREADS']}"
    )


def _cpu_s() -> float:
    """CPU seconds of this process and of its children that have ended."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _import_seconds(repeats: int) -> list:
    """Import CPU time of the benchmark's modules in fresh interpreters."""
    command = [sys.executable, "-c", IMPORT_PROBE, str(HERE), str(ROOT / "src")]
    return [
        float(subprocess.run(command, capture_output=True, text=True, check=True,
                             cwd=ROOT).stdout)
        for _ in range(repeats)
    ]


def _reset_peak_rss() -> None:
    """Restart the kernel's resident-memory high-water mark from now."""
    Path("/proc/self/clear_refs").write_text("5")


def _peak_rss_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _reap_children() -> None:
    from workloads import join_children

    join_children()
    # Shared-memory segments start multiprocessing's resource tracker, a
    # helper process outside active_children(); stop it and wait for it.
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _run_ops(workload, seconds: float, tracer=None):
    """Operations until ``seconds`` have passed and every kind has run."""
    results, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while True:
        gc.collect()
        cpu = _cpu_s()
        if tracer is None:
            result = workload.op()
        else:
            with tracer.op(len(results)):
                result = workload.op()
        result.cpu_s = _cpu_s() - cpu
        a, f = workload.check(result)
        attempted += a
        failed += f
        result.outputs = None  # live outputs would slow later operations' GC
        results.append(result)
        if time.perf_counter() - start >= seconds and {
            r.kind for r in results
        } >= set(workload.kinds):
            return results, attempted, failed


def _rates(results) -> tuple:
    """``(windows per CPU second, windows per wall second)`` of one pass."""
    from stats import pass_rate

    return (
        pass_rate((r.kind, r.windows, r.cpu_s) for r in results),
        pass_rate((r.kind, r.windows, r.wall_s) for r in results),
    )


def _print_metric(name: str, unit: str, summary) -> None:
    print(
        f"  {name} = {summary['median']:.6g} {unit} "
        f"(q1 {summary['q1']:.6g}, q3 {summary['q3']:.6g}, n={summary['n']})"
    )


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, layer_units: dict
) -> dict:
    start = time.process_time()
    import tracing
    import workloads
    from stats import failed_ratio, quartiles

    imports = [time.process_time() - start] + _import_seconds(SETUP_REPEATS - 1)

    refs = workloads.References.load()
    work_dir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    workload = workloads.WORKLOADS[name](seed, refs, work_dir)
    print(f"perfbench {name} seed={seed} seconds={seconds} trace={int(trace)}")
    print(f"  env: {_environment()}")
    try:
        setups = []
        for attempt in range(SETUP_REPEATS):
            gc.collect()
            t0 = _cpu_s()
            workload.setup(attempt)
            setups.append(_cpu_s() - t0)
        setup_s = statistics.median(imports) + statistics.median(setups)

        # The peak from here on is the timed work's, with its inputs resident.
        gc.collect()
        _reset_peak_rss()

        # One untimed operation first: lazy initialisation and first-call
        # costs are not what the timed operations measure.
        gc.collect()
        attempted, failed = workload.check(workload.op())

        tracer = None
        if trace:
            results, a, f = _run_ops(workload, seconds / 2)
            tracer = tracing.Tracer()
            installed = tracing.Installation(tracer, workload.targets)
            try:
                traced, a2, f2 = _run_ops(workload, seconds / 2, tracer)
            finally:
                installed.remove()
            a, f = a + a2, f + f2
        else:
            results, a, f = _run_ops(workload, seconds)
        attempted, failed = attempted + a, failed + f
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)
        _reap_children()

    peak_rss_mb = _peak_rss_mb()
    cpu_rate, wall_rate = _rates(results)
    samples = {}
    for result in results:
        samples.setdefault(f"op_cpu_s.{result.kind}", []).append(result.cpu_s)
        for key, values in result.samples.items():
            samples.setdefault(key, []).extend(values)

    print(
        f"  operations={len(results)} "
        f"windows per pass over {', '.join(workload.kinds)}="
        f"{sum({r.kind: r.windows for r in results}.values())}"
    )
    print(
        f"  setup_s = {setup_s:.6g} s (CPU; median of imports "
        f"{', '.join(f'{s:.4g}' for s in imports)} s + median of "
        f"set-ups {', '.join(f'{s:.4g}' for s in setups)} s)"
    )
    print(f"  windows_per_cpu_s = {cpu_rate:.6g} 1/s (median CPU s per kind)")
    print(f"  windows_per_s = {wall_rate:.6g} 1/s (median wall s per kind)")
    print(f"  peak_rss_mb = {peak_rss_mb:.6g} MiB")
    for key, values in sorted(samples.items()):
        _print_metric(key, "s", quartiles(values))
    print(
        f"  failed_ratio = {failed_ratio(attempted, failed):.6g} "
        f"({failed}/{attempted})"
    )

    if trace:
        summary = tracing.summarize(tracer)
        metrics = tracing.layer_metrics(summary, tracer.counters)
        metrics["trace.overhead_ratio"] = cpu_rate / _rates(traced)[0]
        spans = ROOT / ".bench_out" / f"spans-{name}-seed{seed}.csv.gz"
        tracer.write(spans)
        print(
            f"  traced operations={summary.n_ops} "
            f"spans={len(tracer.names)} -> {spans}"
        )
        for key, value in sorted(metrics.items()):
            print(f"  {key} = {value:.6g}")
        if set(metrics) != set(layer_units):
            raise RuntimeError(
                "per-layer metrics and BENCHMARK.json disagree: "
                f"{sorted(set(metrics) ^ set(layer_units))}"
            )
        reported = {
            key: {"value": value, "unit": layer_units[key]}
            for key, value in metrics.items()
        }
    else:
        reported = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "windows_per_cpu_s": {"value": cpu_rate, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }


def _layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        status = 0
        for name in WORKLOAD_NAMES:
            command = [sys.executable, __file__, "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
            status = max(status, subprocess.run(command, check=False).returncode)
        return status

    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), _layer_units()
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
