"""Layer spans for the traced run, recorded from outside the program.

``instrument`` wraps the public objects a workload's allocators expose
(``.fallback``, ``.pool``, ``.store``, ``.coverage``, ``.vm``, the
reporter's fault handler), the ``CounterSampler`` class, and the
module-level functions the layers call into.  Each wrapped call records
one span: name, start, end, the enclosing span, and the op id that all
spans of one op share.  Spans stay in memory until ``write`` stores them.

``layer_metrics`` turns spans into per-layer self times (a span's
duration minus the time its child spans cover) and counts.  Each metric
below names the workload it is read on and the end-to-end metric it
should move; a workload that never enters a layer reads that layer's
timings from a short traced pass of the home workload instead.
"""

from __future__ import annotations

import gzip
import statistics
import time
from array import array

import guardpool
from guardpool import CounterSampler, metadata, reporter, shim, vmem

perf_ns = time.perf_counter_ns

# name: (unit, home workload, end-to-end metric it should move)
LAYER_METRICS = {
    "sampler.decide_ns": ("ns", "fastpath", "host_ratio, op_us_p50 on fastpath; nothing on triage"),
    "sampler.sampled_per_malloc": ("fraction", "fastpath", "about 1/5000 on fastpath"),
    "shim.malloc_ns": ("ns", "fastpath", "host_ratio on fastpath"),
    "shim.free_ns": ("ns", "fastpath", "host_ratio on fastpath"),
    "shim.host_malloc_ns": ("ns", "fastpath", "op_us_p50 on fastpath and app-traffic; faster host raises host_ratio"),
    "shim.host_free_ns": ("ns", "fastpath", "op_us_p50 on fastpath and app-traffic; faster host raises host_ratio"),
    "shim.guarded_malloc_us": ("us", "sampled", "op_us_p50, ops_per_s on sampled"),
    "shim.guarded_free_us": ("us", "sampled", "op_us_p50, ops_per_s on sampled"),
    "shim.guarded_frac": ("fraction", "sampled", "site_coverage on sampled"),
    "shim.coverage_rejected": ("count", "sampled", "site_coverage on sampled"),
    "shim.pool_unavailable": ("count", "sampled", "site_coverage on sampled"),
    "pool.acquire_us": ("us", "sampled", "op_us_p50 on sampled"),
    "pool.release_us": ("us", "sampled", "op_us_p50 on sampled"),
    "pool.classify_ns": ("ns", "triage", "op_us_p50 on triage"),
    "pool.unavailable_frac": ("fraction", "sampled", "site_coverage on sampled"),
    "metadata.capture_us": ("us", "sampled", "op_us_p50 on sampled and triage"),
    "metadata.frames_per_trace": ("frames", "sampled", "op_us_p50 on sampled and triage"),
    "metadata.store_alloc_us": ("us", "sampled", "op_us_p50 on sampled"),
    "metadata.store_dealloc_us": ("us", "sampled", "op_us_p50 on sampled"),
    "metadata.compress_us": ("us", "sampled", "op_us_p50 on sampled"),
    "metadata.snapshot_us": ("us", "triage", "op_us_p50 on triage"),
    "metadata.decompress_us": ("us", "triage", "op_us_p50 on triage"),
    "metadata.trace_bytes": ("bytes", "sampled", "peak_rss_mb on sampled"),
    "metadata.bytes_per_trace": ("bytes", "sampled", "peak_rss_mb on sampled"),
    "coverage.source_us": ("us", "sampled", "op_us_p50 on sampled"),
    "coverage.admit_ns": ("ns", "sampled", "op_us_p50 on sampled"),
    "coverage.insert_ns": ("ns", "sampled", "op_us_p50 on sampled"),
    "coverage.remove_ns": ("ns", "sampled", "op_us_p50 on sampled"),
    "coverage.rebuilds": ("count", "sampled", "op_us_p99 on sampled"),
    "coverage.saturated": ("count", "sampled", "site_coverage on sampled"),
    "vmem.read_us": ("us", "app-traffic", "ops_per_s, op_us_p50 on app-traffic"),
    "vmem.write_us": ("us", "app-traffic", "ops_per_s, op_us_p50 on app-traffic"),
    "vmem.read_ns_per_kib": ("ns/KiB", "app-traffic", "ops_per_s, op_us_p50 on app-traffic"),
    "vmem.write_ns_per_kib": ("ns/KiB", "app-traffic", "ops_per_s, op_us_p50 on app-traffic"),
    "vmem.pages_touched": ("pages", "app-traffic", "ops_per_s, op_us_p50 on app-traffic"),
    "vmem.protect_us": ("us", "sampled", "op_us_p50 on sampled"),
    "vmem.fill_us": ("us", "sampled", "op_us_p50 on sampled"),
    "vmem.faults": ("count", "triage", "equals the faulting injections on triage"),
    "reporter.fault_to_report_us": ("us", "triage", "op_us_p50, op_us_p99 on triage"),
    "reporter.handle_us": ("us", "triage", "op_us_p50 on triage"),
    "reporter.render_us": ("us", "triage", "op_us_p50 on triage"),
    "reporter.parse_us": ("us", "triage", "op_us_p50 on triage"),
    "reporter.reports": ("count", "triage", "detected_frac on triage"),
    "trace.overhead_frac": ("fraction", "", "traced over untraced time per op, minus one"),
}


class Tracer:
    """Flat in-memory span table; spans are row indexes."""

    def __init__(self, capacity: int, residual_ns: float = 0.0) -> None:
        self.capacity = capacity
        self.residual_ns = residual_ns  # see calibrate()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("l")
        self.starts = array("q")
        self.ends = array("q")
        self.outer = array("q")
        self.parents = array("l")
        self.ops = array("l")
        self.stack = [-1]
        self.op = 0
        self.frames: list[int] = []  # pcs per captured trace
        self.compressed: list = []  # every compressed trace
        self.accesses: list[tuple[str, int, int]] = []  # (kind, address, length)

    def __len__(self) -> int:
        return len(self.starts)

    def full(self) -> bool:
        return len(self.starts) >= self.capacity

    def wrap(self, name: str, fn, note=None):
        """fn, recording a span per call; note(tracer, args, result) keeps counts.

        ``outer`` is the whole wrapper's time, bookkeeping included: the
        enclosing span subtracts it, so tracing inflates no self time
        beyond the bare call into the wrapper.
        """
        name_id = self._ids.setdefault(name, len(self._ids))
        if name_id == len(self.names):
            self.names.append(name)
        name_ids, starts, ends, outer, parents, ops, stack = (
            self.name_ids, self.starts, self.ends, self.outer, self.parents,
            self.ops, self.stack)

        def traced(*args, **kwargs):
            enter = perf_ns()
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ops.append(self.op)
            ends.append(0)
            outer.append(0)
            stack.append(index)
            starts.append(perf_ns())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[index] = perf_ns()
                stack.pop()
                outer[index] = perf_ns() - enter
                raise
            ends[index] = perf_ns()
            stack.pop()
            if note is not None:
                note(self, args, result)
            outer[index] = perf_ns() - enter
            return result

        return traced

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,name,start_ns,end_ns,parent,op\n")
            names = self.names
            for i in range(len(self.starts)):
                out.write(f"{i},{names[self.name_ids[i]]},{self.starts[i]},"
                          f"{self.ends[i]},{self.parents[i]},{self.ops[i]}\n")


def _noop(*args, **kwargs) -> None:
    return None


def calibrate(rounds: int = 2000) -> float:
    """ns one wrapped call adds to its caller's self time, beyond a bare call.

    The wrapper's own call and return fall outside ``outer``, so they
    would count as the caller's time; ``self_times`` subtracts this
    median residual once per child span.
    """
    probe = Tracer(0)
    child = probe.wrap("child", _noop)

    def four(fn):
        fn(), fn(), fn(), fn()

    parent = probe.wrap("parent", four)
    for _ in range(rounds):
        parent(child)
        parent(_noop)
    selfs = self_times(probe)["parent"]
    return statistics.median((a - b) / 4 for a, b in zip(selfs[0::2], selfs[1::2]))


def _note_capture(tracer, args, result) -> None:
    tracer.frames.append(len(result))


def _note_compress(tracer, args, result) -> None:
    tracer.compressed.append(result)


def _note_read(tracer, args, result) -> None:
    tracer.accesses.append(("read", args[0], args[1]))


def _note_write(tracer, args, result) -> None:
    tracer.accesses.append(("write", args[0], len(args[1])))


def instrument(tracer: Tracer, allocators):
    """Wrap the layers under the given allocators; returns the undo function."""
    undo = []

    def patch(owner, attr, name, note=None):
        had = attr in vars(owner)
        old = vars(owner).get(attr)
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), note))
        undo.append((owner, attr, had, old))

    patch(CounterSampler, "want_to_sample", "sampler.decide")
    for module in (shim, reporter):
        patch(module, "capture_trace", "metadata.capture", _note_capture)
        patch(module, "decompress_trace", "metadata.decompress")
    patch(shim, "source_of", "coverage.source")
    patch(metadata, "compress_trace", "metadata.compress", _note_compress)
    patch(reporter, "render_report", "reporter.render")
    patch(guardpool, "parse_report", "reporter.parse")
    handlers = []
    for alloc in allocators:
        patch(alloc, "malloc", "shim.malloc")
        patch(alloc, "free", "shim.free")
        patch(alloc.fallback, "malloc", "shim.host_malloc")
        patch(alloc.fallback, "free", "shim.host_free")
        patch(alloc.vm, "read", "vmem.read", _note_read)
        patch(alloc.vm, "write", "vmem.write", _note_write)
        patch(alloc.vm, "protect", "vmem.protect")
        patch(alloc.vm, "fill", "vmem.fill")
        patch(alloc.pool, "acquire", "pool.acquire")
        patch(alloc.pool, "release", "pool.release")
        patch(alloc.pool, "classify_address", "pool.classify")
        patch(alloc.store, "store_alloc", "metadata.store_alloc")
        patch(alloc.store, "store_dealloc", "metadata.store_dealloc")
        patch(alloc.store, "snapshot", "metadata.snapshot")
        for attr in ("admit", "insert", "remove", "rebuild"):
            patch(alloc.coverage, attr, f"coverage.{attr}")
        patch(alloc.reporter, "emit_synthetic", "reporter.handle")
        # The fault handler is reached through the vm's handler chain.
        previous = alloc.vm.install_fault_handler(
            tracer.wrap("reporter.handle", alloc.reporter.handle_fault))
        handlers.append((alloc.vm, previous))

    def restore() -> None:
        for vm, handler in handlers:
            vm.restore_fault_handler(handler)
        for owner, attr, had, old in reversed(undo):
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    return restore


def decide_ns(seed: int) -> float:
    """Median ns per call of a standalone CounterSampler.want_to_sample."""
    decide = CounterSampler(5000, seed).want_to_sample
    per_call = []
    for _ in range(21):
        start = perf_ns()
        for _ in range(10_000):
            decide()
        per_call.append((perf_ns() - start) / 10_000)
    return statistics.median(per_call)


def counters(allocators) -> dict[str, int]:
    """The program's own slow-path counters, summed over the allocators."""
    total = dict.fromkeys((
        "sampled", "guarded", "coverage_rejected", "pool_unavailable",
        "pool_unavailable_count", "faults", "reports", "saturated", "trace_bytes"), 0)
    for alloc in allocators:
        for key in ("sampled", "guarded", "coverage_rejected", "pool_unavailable"):
            total[key] += getattr(alloc.stats, key)
        total["pool_unavailable_count"] += alloc.pool.unavailable_count
        total["faults"] += alloc.vm.fault_count
        total["reports"] += alloc.reporter.reports_emitted
        total["saturated"] += alloc.coverage.saturated_count
        total["trace_bytes"] += alloc.store.accounted_trace_bytes()
    return total


def self_times(tracer: Tracer) -> dict[str, list[int]]:
    """Self time in ns of every span, grouped by name.

    A shim entry point that captured a trace (malloc) or classified its
    pointer (free) took the guarded path and is grouped apart from the
    unsampled calls.
    """
    n = len(tracer)
    names = [tracer.names[i] for i in tracer.name_ids]
    durations = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
    covered = [0] * n
    guarded = set()
    for i in range(n):
        parent = tracer.parents[i]
        if parent >= 0:
            covered[parent] += tracer.outer[i] + tracer.residual_ns
            if names[i] in ("metadata.capture", "pool.classify"):
                guarded.add(parent)
    grouped: dict[str, list[int]] = {}
    for i in range(n):
        name = names[i]
        if i in guarded and name in ("shim.malloc", "shim.free"):
            name = "shim.guarded_" + name[5:]
        grouped.setdefault(name, []).append(durations[i] - covered[i])
    return grouped


def layer_metrics(tracer, before, after, traced_ns, untraced_ns, fault_us) -> dict:
    """Per-layer metrics of one traced pass; None where the pass saw no call."""
    grouped = self_times(tracer)

    def mean(name, scale):
        values = grouped.get(name)
        return sum(values) / len(values) / scale if values else None

    def ratio(num, den):
        return num / den if den else None

    delta = {key: after[key] - before[key] for key in after}
    mallocs = len(grouped.get("shim.malloc", ())) + len(grouped.get("shim.guarded_malloc", ()))
    rw = {kind: [0, 0, 0] for kind in ("read", "write")}  # calls, bytes, pages
    page = vmem.DEFAULT_PAGE_SIZE
    for kind, address, length in tracer.accesses:
        entry = rw[kind]
        entry[0] += 1
        entry[1] += length
        if length:
            entry[2] += (address + length - 1) // page - address // page + 1
    calls = rw["read"][0] + rw["write"][0]
    trace_bytes = [t.byte_size() for t in tracer.compressed if t.frame_count]

    def per_kib(kind):
        total = grouped.get(f"vmem.{kind}")
        return ratio(sum(total), rw[kind][1] / 1024) if total else None

    return {
        "sampler.sampled_per_malloc": ratio(delta["sampled"], mallocs),
        "shim.malloc_ns": mean("shim.malloc", 1),
        "shim.free_ns": mean("shim.free", 1),
        "shim.host_malloc_ns": mean("shim.host_malloc", 1),
        "shim.host_free_ns": mean("shim.host_free", 1),
        "shim.guarded_malloc_us": mean("shim.guarded_malloc", 1e3),
        "shim.guarded_free_us": mean("shim.guarded_free", 1e3),
        "shim.guarded_frac": ratio(delta["guarded"], delta["sampled"]),
        "shim.coverage_rejected": delta["coverage_rejected"],
        "shim.pool_unavailable": delta["pool_unavailable"],
        "pool.acquire_us": mean("pool.acquire", 1e3),
        "pool.release_us": mean("pool.release", 1e3),
        "pool.classify_ns": mean("pool.classify", 1),
        "pool.unavailable_frac": ratio(delta["pool_unavailable_count"],
                                       len(grouped.get("pool.acquire", ()))),
        "metadata.capture_us": mean("metadata.capture", 1e3),
        "metadata.frames_per_trace": ratio(sum(tracer.frames), len(tracer.frames)),
        "metadata.store_alloc_us": mean("metadata.store_alloc", 1e3),
        "metadata.store_dealloc_us": mean("metadata.store_dealloc", 1e3),
        "metadata.compress_us": mean("metadata.compress", 1e3),
        "metadata.snapshot_us": mean("metadata.snapshot", 1e3),
        "metadata.decompress_us": mean("metadata.decompress", 1e3),
        "metadata.trace_bytes": after["trace_bytes"],
        "metadata.bytes_per_trace": ratio(sum(trace_bytes), len(trace_bytes)),
        "coverage.source_us": mean("coverage.source", 1e3),
        "coverage.admit_ns": mean("coverage.admit", 1),
        "coverage.insert_ns": mean("coverage.insert", 1),
        "coverage.remove_ns": mean("coverage.remove", 1),
        "coverage.rebuilds": len(grouped.get("coverage.rebuild", ())),
        "coverage.saturated": after["saturated"],
        "vmem.read_us": mean("vmem.read", 1e3),
        "vmem.write_us": mean("vmem.write", 1e3),
        "vmem.read_ns_per_kib": per_kib("read"),
        "vmem.write_ns_per_kib": per_kib("write"),
        "vmem.pages_touched": ratio(rw["read"][2] + rw["write"][2], calls),
        "vmem.protect_us": mean("vmem.protect", 1e3),
        "vmem.fill_us": mean("vmem.fill", 1e3),
        "vmem.faults": delta["faults"],
        "reporter.fault_to_report_us": statistics.median(fault_us) if fault_us else None,
        "reporter.handle_us": mean("reporter.handle", 1e3),
        "reporter.render_us": mean("reporter.render", 1e3),
        "reporter.parse_us": mean("reporter.parse", 1e3),
        "reporter.reports": delta["reports"],
        "trace.overhead_frac": traced_ns / untraced_ns - 1,
    }
