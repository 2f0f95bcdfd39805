"""guardpool benchmark: one workload, untraced (end-to-end) or traced (per layer).

    python3 perfbench/run.py --workload fastpath --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``.  The untraced run sets up the workload several times (the
median is ``setup_s``), measures for ``--seconds``, checks every output
and prints the end-to-end metrics.  The traced run wraps each layer,
records spans, prints the per-layer metrics and writes the spans to
``perfbench/out/``.  The last line of standard output is one JSON
object; the exit status is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5
TRACE_SPANS = 300_000
# Ops in a traced pass: enough to enter every layer the workload uses.
TRACE_OPS = {"fastpath": 40_000, "app-traffic": 16_000, "sampled": 10_000, "triage": 1_200}
FILL_OPS = {"fastpath": 20_000, "app-traffic": 2_000, "sampled": 2_000, "triage": 300}

perf_ns = time.perf_counter_ns


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fastpath", "app-traffic", "sampled", "triage"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def set_up(workloads, name: str, seed: int, times: int):
    """Build the workload `times` times; returns the last one and the median
    set-up time in seconds at reference speed."""
    durations = []
    workload = None
    for _ in range(times):
        workload = None
        gc.collect()
        before = reference_chunks(workloads)
        start = workloads.cpu_ns()
        workload = workloads.WORKLOADS[name](seed)
        elapsed = workloads.cpu_ns() - start
        reference = (before + reference_chunks(workloads)) / 2
        durations.append(elapsed * workloads.REFERENCE_NS / reference / 1e9)
    return workload, statistics.median(durations)


def reference_chunks(workloads, count: int = 9) -> float:
    return statistics.median(workloads.reference_ns() for _ in range(count))


def windowed_p99(workloads, samples: list[float], windows: int = 5) -> float:
    """Median of the p99s of consecutive windows of the run.

    A burst of interference lands in one window and moves only that
    window's p99; every window keeps at least ten samples beyond its p99
    once a run has 5000 samples.
    """
    windows = min(windows, len(samples))
    size = len(samples) // windows
    return statistics.median(workloads.percentile(samples[k * size:(k + 1) * size], 0.99)
                             for k in range(windows))


def end_to_end(workloads, name: str, seed: int, seconds: float, setups: int = SETUPS):
    workload, setup_s = set_up(workloads, name, seed, setups)
    # The pre-generated inputs are the benchmark's, not the program's:
    # keep the collector from walking them during the timed loop.
    gc.collect()
    gc.freeze()
    result = workload.measure(seconds)
    gc.unfreeze()
    rss = peak_rss_mb()  # before the samples are expanded into lists
    samples = result.samples()
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (result.ops / result.busy_ns() * 1e9, "op/s"),
        "op_us_p50": (statistics.median(samples), "us"),
        "op_us_p99": (windowed_p99(workloads, samples), "us"),
        "peak_rss_mb": (rss, "MB"),
    }
    summary = {"workload": name, "seed": seed, "latency_samples": len(samples),
               "raw_ops_per_s": result.ops / result.busy_ns(scaled=False) * 1e9,
               **result.extra}
    return metrics, summary, result.attempted, result.failures


def traced_pass(workload, ops: int, seconds: float, tracer_mod):
    """Traced ops, then as many untraced ops.

    Returns the layer metrics, the tracer, the ops run and the failures.
    """
    tracer = tracer_mod.Tracer(TRACE_SPANS, tracer_mod.calibrate())
    allocators = workload.allocators
    before = tracer_mod.counters(allocators)
    restore = tracer_mod.instrument(tracer, allocators)
    first = workload.next_op
    i = first
    deadline = perf_ns() + int(seconds * 1e9)
    start = perf_ns()
    try:
        while i < first + ops and not tracer.full() and perf_ns() < deadline:
            tracer.op = i
            workload.op(i)
            i += 1
        traced_ns = perf_ns() - start
    finally:
        restore()
    after = tracer_mod.counters(allocators)
    failures = workload.check()
    done = i - first
    fault_us = getattr(workload, "fault_us", [])
    fault_mark = len(fault_us)
    start = perf_ns()
    for k in range(i, i + done):
        workload.op(k)
    untraced_ns = perf_ns() - start
    workload.next_op = i + done
    failures += workload.check()
    metrics = tracer_mod.layer_metrics(
        tracer, before, after, traced_ns, untraced_ns, fault_us[fault_mark:])
    return metrics, tracer, 2 * done, failures


def per_layer(workloads, tracer_mod, name: str, seed: int, seconds: float,
              setups: int = 1, scale: float = 1.0):
    workload, _ = set_up(workloads, name, seed, setups)
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    metrics, tracer, attempted, failures = traced_pass(
        workload, int(TRACE_OPS[name] * scale), seconds * 0.6, tracer_mod)
    tracer.write(out_dir / f"spans-{name}-seed{seed}.csv.gz")
    # Rebuilds are rare (none in most passes), so their time is reported
    # beside the metrics rather than as one.
    rebuilds = tracer_mod.self_times(tracer).get("coverage.rebuild")
    mean_rebuild_us = sum(rebuilds) / len(rebuilds) / 1e3 if rebuilds else None
    metrics["sampler.decide_ns"] = tracer_mod.decide_ns(seed)
    passes, read_on, never_called = {}, {}, []
    for metric, (_, home, _) in tracer_mod.LAYER_METRICS.items():
        if metrics[metric] is not None:
            continue
        # The workload never entered this layer: read it on its home workload.
        if home not in passes and home != name:
            home_workload, _ = set_up(workloads, home, seed, 1)
            passes[home], home_tracer, home_ops, home_failures = traced_pass(
                home_workload, int(FILL_OPS[home] * scale), seconds * 0.1, tracer_mod)
            home_tracer.write(out_dir / f"spans-{name}-seed{seed}-from-{home}.csv.gz")
            attempted += home_ops
            failures += home_failures
        metrics[metric] = passes.get(home, {}).get(metric)
        if metrics[metric] is None:
            never_called.append(metric)
            metrics[metric] = 0.0
        else:
            read_on[metric] = home
    summary = {"workload": name, "seed": seed, "traced_ops": attempted,
               "spans": len(tracer), "span_residual_ns": tracer.residual_ns,
               "coverage_rebuild_us": mean_rebuild_us,
               "read_on_home_workload": read_on, "never_called": never_called}
    units = {m: (metrics[m], spec[0]) for m, spec in tracer_mod.LAYER_METRICS.items()}
    return units, summary, attempted, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "guardpool" / "__init__.py").is_file():
        print(f"perfbench: no guardpool sources under {ROOT / 'src'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracer as tracer_mod
    import workloads

    try:
        if args.trace:
            metrics, summary, attempted, failures = per_layer(
                workloads, tracer_mod, args.workload, args.seed, args.seconds)
        else:
            metrics, summary, attempted, failures = end_to_end(
                workloads, args.workload, args.seed, args.seconds)
    except Exception:
        traceback.print_exc()
        return 1
    for message in failures[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    for metric, (value, unit) in metrics.items():
        print(f"{args.workload:12} {metric:28} {value:>16.6g} {unit}")
    print(json.dumps(summary))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
