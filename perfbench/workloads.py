"""The four benchmark workloads, each a closed loop on one thread.

Every workload builds its allocators and generates all of its inputs
from the seed in its constructor (the set-up that ``setup_s`` times),
then warms up, so the timed loops only call the program.  ``op(i)`` runs
one operation on input ``i`` (inputs repeat with a fixed period);
``check()`` verifies what the operations since the last check produced
and returns one message per failed operation or broken invariant.
``measure(seconds)`` is the untimed-checks, timed-ops loop that gives
the end-to-end numbers.

The benchmark only drives the public API of ``guardpool``.
"""

from __future__ import annotations

import io
import random
import statistics
import time
from array import array

import guardpool
from guardpool import (
    AccessType,
    AlignmentSide,
    GuardianAllocator,
    GuardianConfig,
    ReportKind,
    ReportParseError,
    SegmentationFault,
    SlotState,
)

perf_ns = time.perf_counter_ns
# Timed work is measured in the thread's CPU time: on shared cores the
# wall clock also counts the time other tenants hold the core.
cpu_ns = time.thread_time_ns


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(p25, p50, p75) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


REFERENCE_NS = 150_000  # nominal time of one reference chunk
SMOOTHING = 5  # reference chunks per scale factor, centred on the group


class _Probe:
    __slots__ = ("x",)

    def __init__(self) -> None:
        self.x = 1

    def get(self, k: int) -> int:
        return self.x + k


def reference_ns() -> int:
    """Time of a fixed pure-Python loop that never calls the program.

    A 2-core shared VM changes speed by up to 1.6x in phases of a few
    seconds (other tenants on the same cores).  A time divided by
    interleaved reference chunks cancels most of that drift; multiplied
    by REFERENCE_NS it reads as the time at a fixed reference speed.  The
    chunk mixes the interpreter work the layers do (dict updates, integer
    hashing, method calls, byte copies), because a slow phase slows each
    kind of work by a different factor.
    """
    start = cpu_ns()
    table = {}
    for i in range(250):
        table[i] = (i, 16)
    for i in range(250):
        table.pop(i)
    h = 0xCBF29CE484222325
    for b in range(400):
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    probe, total = _Probe(), 0
    for i in range(250):
        total += probe.get(i)
    buf, src = bytearray(8192), bytes(4096)
    for i in range(40):
        buf[i:i + 4096] = src
        bytes(buf[i:i + 2048])
    return cpu_ns() - start


class Measurement:
    """Timed batches, scaled to reference speed when the run ends.

    Batches are collected in groups; closing a group times one reference
    chunk.  Each group is scaled by REFERENCE_NS over the median of the
    SMOOTHING chunks centred on it, so one disturbed chunk does not skew
    a group.
    """

    def __init__(self) -> None:
        self.ops = 0  # ops behind the samples: the rate and latency metrics
        self.attempted = 0  # every op run, all legs included
        self.failures: list[str] = []
        self.extra: dict[str, object] = {}
        self.elapsed = array("q")  # per timed batch
        self.batch_ops = array("l")
        self.group = array("l")
        self.references = array("q")  # per group

    def add(self, elapsed_ns: int, ops: int) -> None:
        self.elapsed.append(elapsed_ns)
        self.batch_ops.append(ops)
        self.group.append(len(self.references))
        self.ops += ops
        self.attempted += ops

    def close_group(self) -> None:
        self.references.append(reference_ns())

    def scales(self) -> list[float]:
        refs, half = self.references, SMOOTHING // 2
        return [REFERENCE_NS / statistics.median(refs[max(0, g - half):g + half + 1])
                for g in range(len(refs))]

    def samples(self) -> list[float]:
        """us per op at reference speed, one per timed batch."""
        scales = self.scales()
        return [e * scales[g] / n / 1000
                for e, n, g in zip(self.elapsed, self.batch_ops, self.group)]

    def busy_ns(self, scaled: bool = True) -> float:
        if not scaled:
            return sum(self.elapsed)
        scales = self.scales()
        return sum(e * scales[g] for e, g in zip(self.elapsed, self.group))


class Workload:
    name = ""
    batch = 1  # ops per timed sample
    check_every = 256  # ops between output checks

    def __init__(self) -> None:
        self.next_op = 0
        self.allocators: list[GuardianAllocator] = []

    def op(self, i: int) -> None:
        raise NotImplementedError

    def check(self) -> list[str]:
        return []

    def run_ops(self, count: int) -> None:
        """Untimed ops, for warm-up."""
        for i in range(self.next_op, self.next_op + count):
            self.op(i)
        self.next_op += count

    def measure(self, seconds: float) -> Measurement:
        result = Measurement()
        op, batch = self.op, self.batch
        i = self.next_op
        deadline = perf_ns() + int(seconds * 1e9)
        while perf_ns() < deadline:
            for _ in range(self.check_every // batch):
                start = cpu_ns()
                for k in range(i, i + batch):
                    op(k)
                result.add(cpu_ns() - start, batch)
                i += batch
            result.close_group()
            result.failures += self.check()
        self.next_op = i
        self.finish(result)
        return result

    def finish(self, result: Measurement) -> None:
        """Workload-specific end-to-end metrics, added to result.extra."""


# -- fastpath ------------------------------------------------------------


def _pairs(malloc, free, ring, batch) -> None:
    for slot, size in batch:
        free(ring[slot])
        ring[slot] = malloc(size)


class Fastpath(Workload):
    """Unsampled malloc/free pairs on three allocators, in interleaved legs.

    The legs run in alternating order (absent, disabled, enabled, then
    the reverse), one fixed batch each per round, so slow drift of the
    machine hits every leg alike.  ``cli._time_leg`` is not reused: it
    times the legs one after another and keeps the best repeat, and
    legs running identical code measured up to 25% apart that way.
    """

    name = "fastpath"
    RING = 64
    BATCH = 100
    BATCHES = 160
    SIZES = (16, 32, 48, 64, 96, 128, 192, 256)
    LEGS = (
        ("absent", {"enabled": False}),
        ("disabled", {"process_sample_probability": 0.0}),
        ("enabled", {}),
    )

    def __init__(self, seed: int) -> None:
        super().__init__()
        rng = random.Random(seed)
        weights = [rng.random() + 0.1 for _ in self.SIZES]
        self.batches = [
            list(zip(rng.choices(range(self.RING), k=self.BATCH),
                     rng.choices(self.SIZES, weights, k=self.BATCH)))
            for _ in range(self.BATCHES)
        ]
        self.inputs = [pair for batch in self.batches for pair in batch]
        self.legs = {
            name: GuardianAllocator(GuardianConfig(seed=seed, sink=io.StringIO(), **kw))
            for name, kw in self.LEGS
        }
        self.enabled = self.legs["enabled"]
        self.allocators = [self.enabled]
        first = rng.choices(self.SIZES, weights, k=self.RING)
        self.rings = {name: [a.malloc(s) for s in first] for name, a in self.legs.items()}
        self.requests = {name: list(first) for name in self.legs}
        for batch in self.batches:
            for name, alloc in self.legs.items():
                self._leg(name, alloc, batch)

    def _leg(self, name: str, alloc: GuardianAllocator, batch) -> int:
        ring = self.rings[name]
        start = cpu_ns()
        _pairs(alloc.malloc, alloc.free, ring, batch)
        elapsed = cpu_ns() - start
        requests = self.requests[name]
        for slot, size in dict(batch).items():
            requests[slot] = size
        return elapsed

    def _check_ring(self, name: str) -> list[str]:
        alloc, ring, requests = self.legs[name], self.rings[name], self.requests[name]
        failures = []
        if len(set(ring)) != len(ring):
            failures.append(f"fastpath/{name}: live pointers are not distinct")
        for slot, ptr in enumerate(ring):
            if alloc.usable_size(ptr) != requests[slot]:
                failures.append(
                    f"fastpath/{name}: usable_size(0x{ptr:x}) != {requests[slot]}"
                )
        return failures

    def op(self, i: int) -> None:
        slot, size = self.inputs[i % len(self.inputs)]
        alloc, ring = self.enabled, self.rings["enabled"]
        alloc.free(ring[slot])
        ring[slot] = alloc.malloc(size)
        self.requests["enabled"][slot] = size

    def check(self) -> list[str]:
        return self._check_ring("enabled")

    def measure(self, seconds: float) -> Measurement:
        result = Measurement()
        raw = {name: [] for name in self.legs}
        order = list(self.legs.items())
        deadline = perf_ns() + int(seconds * 1e9)
        rounds = 0
        while perf_ns() < deadline:
            batch = self.batches[rounds % self.BATCHES]
            for name, alloc in order if rounds % 2 == 0 else reversed(order):
                elapsed = self._leg(name, alloc, batch)
                raw[name].append(elapsed / len(batch) / 1000)
                if name == "enabled":
                    result.add(elapsed, len(batch))
                else:
                    result.attempted += len(batch)
            result.close_group()
            for name in self.legs:
                result.failures += self._check_ring(name)
            rounds += 1
        absent = raw["absent"]
        result.extra["host_ratio"] = statistics.median(
            e / a for e, a in zip(raw["enabled"], absent))
        result.extra["disabled_ratio"] = statistics.median(
            d / a for d, a in zip(raw["disabled"], absent))
        result.extra["rounds"] = rounds
        scales = result.scales()
        for name, values in raw.items():
            result.extra[f"{name}_us_quartiles"] = quartiles(
                [v * scale for v, scale in zip(values, scales)])
        return result


# -- app-traffic -----------------------------------------------------------


class AppTraffic(Workload):
    """malloc, write the payload, read it back twice, free an older entry.

    Sizes are log-uniform from 16 B to 16 KiB, drawn from a fixed pool
    of distinct sizes so that the host arena stops growing after warm-up
    while still spreading over many regions and exact-size free lists.
    """

    name = "app-traffic"
    batch = 4
    RING = 32
    DISTINCT_SIZES = 512
    INPUTS = 2048

    def __init__(self, seed: int) -> None:
        super().__init__()
        rng = random.Random(seed)
        # Stratified: one size per equal slice of the log scale, so the
        # mix of small and page-crossing copies is the same for every seed.
        sizes = [int(16 * 1024 ** ((k + rng.random()) / self.DISTINCT_SIZES))
                 for k in range(self.DISTINCT_SIZES)]
        order = sizes * (self.INPUTS // self.DISTINCT_SIZES)
        rng.shuffle(order)
        blob = rng.randbytes(2 * 16384)
        self.inputs = []
        for size in order:
            start = rng.randrange(len(blob) - size)
            data = blob[start:start + size]
            lo = rng.randrange(size)
            hi = rng.randrange(lo + 1, size + 1)
            self.inputs.append((size, data, lo, data[lo:hi]))
        self.alloc = GuardianAllocator(GuardianConfig(seed=seed, sink=io.StringIO()))
        self.allocators = [self.alloc]
        self.ring = [0] * self.RING
        self.mismatches = 0
        self.run_ops(self.INPUTS)

    def op(self, i: int) -> None:
        size, data, lo, part = self.inputs[i % self.INPUTS]
        alloc = self.alloc
        vm = alloc.vm
        ptr = alloc.malloc(size)
        vm.write(ptr, data)
        if vm.read(ptr, size) != data or vm.read(ptr + lo, len(part)) != part:
            self.mismatches += 1
        slot = i % self.RING
        alloc.free(self.ring[slot])
        self.ring[slot] = ptr

    def check(self) -> list[str]:
        failures = [f"app-traffic: read differs from bytes written"] * self.mismatches
        self.mismatches = 0
        return failures


# -- sampled -----------------------------------------------------------------


def _at_depth(depth: int, fn, arg):
    """Call fn(arg) under depth extra frames: one call site per depth."""
    return _at_depth(depth - 1, fn, arg) if depth else fn(arg)


class Sampled(Workload):
    """Every allocation sampled, under pool pressure, from skewed call sites.

    The live ring is larger than ``max_live`` and the pool keeps
    quarantined slots out of service, so coverage admission and slot
    reuse both act.  The record ring holds more than the live ring, so a
    live guarded pointer's metadata is never recycled and the snapshot
    invariant must hold.
    """

    name = "sampled"
    check_every = 64
    SLOTS = 128
    MAX_LIVE = 112
    QUARANTINE = 16
    RING = 160
    SITES = 12
    HOT_SHARE = 0.4
    INPUTS = 8192
    PAYLOAD = bytes(range(16))

    def __init__(self, seed: int) -> None:
        super().__init__()
        rng = random.Random(seed)
        tail = [1 / k for k in range(1, self.SITES)]
        weights = [self.HOT_SHARE] + [(1 - self.HOT_SHARE) * w / sum(tail) for w in tail]
        self.inputs = list(zip(rng.choices(range(self.SITES), weights, k=self.INPUTS),
                               rng.choices(range(16, 257), k=self.INPUTS)))
        self.alloc = GuardianAllocator(GuardianConfig(
            slot_count=self.SLOTS,
            max_live=self.MAX_LIVE,
            quarantine_min_slots=self.QUARANTINE,
            metadata_capacity=2 * self.RING,
            sample_rate=1,
            seed=seed,
            sink=io.StringIO(),
        ))
        self.allocators = [self.alloc]
        self.ring = [0] * self.RING
        self.requests = [0] * self.RING
        self.sampled_sites = [False] * self.SITES
        self.guarded_sites = [False] * self.SITES
        self.run_ops(4 * self.RING)

    def op(self, i: int) -> None:
        site, size = self.inputs[i % self.INPUTS]
        alloc = self.alloc
        stats = alloc.stats
        sampled_before = stats.sampled
        ptr = _at_depth(site + 1, alloc.malloc, size)
        if stats.sampled != sampled_before:
            self.sampled_sites[site] = True
            if alloc.is_guarded(ptr):
                self.guarded_sites[site] = True
        alloc.vm.write(ptr, self.PAYLOAD)
        slot = i % self.RING
        alloc.free(self.ring[slot])
        self.ring[slot] = ptr
        self.requests[slot] = size

    def check(self) -> list[str]:
        alloc = self.alloc
        pool, store = alloc.pool, alloc.store
        failures = []
        allocated = sum(s.state is SlotState.ALLOCATED for s in pool.slots)
        if pool.live_count != allocated:
            failures.append(f"sampled: live_count {pool.live_count} != {allocated} allocated slots")
        if alloc.stats.guarded != pool.acquire_count:
            failures.append(
                f"sampled: stats.guarded {alloc.stats.guarded} != acquire_count {pool.acquire_count}")
        for ptr, size in zip(self.ring, self.requests):
            if not alloc.is_guarded(ptr):
                continue
            index = pool.classify_address(ptr).slot_index
            slot = pool.slots[index]
            snapshot = store.snapshot(slot.metadata_index, slot.metadata_seq)
            if snapshot is None or snapshot.user_size != size or snapshot.slot_index != index:
                failures.append(f"sampled: no metadata record for live 0x{ptr:x}")
        return failures

    def finish(self, result: Measurement) -> None:
        result.extra["site_coverage"] = sum(self.guarded_sites) / sum(self.sampled_sites)


# -- triage ------------------------------------------------------------------

_FREED_KINDS = ("uaf-read", "uaf-write", "double-free")
_FAULTING_KINDS = ("uaf-read", "uaf-write", "overflow", "underflow")
_EXPECTED_KIND = {
    "uaf-read": ReportKind.USE_AFTER_FREE,
    "uaf-write": ReportKind.USE_AFTER_FREE,
    "overflow": ReportKind.BUFFER_OVERFLOW,
    "underflow": ReportKind.BUFFER_UNDERFLOW,
    "double-free": ReportKind.DOUBLE_FREE,
    "invalid-free": ReportKind.INVALID_FREE,
}


class Triage(Workload):
    """Inject one bug into a fresh guarded victim, then parse the report.

    Kinds cycle in a fixed order.  As ``guardpool inject`` does, every
    victim is placed with ``min_alignment=1``: overflow victims flush
    against the right guard, all others against the left, so each bug
    lands on a guard page or a quarantined page.
    """

    name = "triage"
    INPUTS = 600
    check_every = 24

    def __init__(self, seed: int) -> None:
        super().__init__()
        rng = random.Random(seed)
        kinds = list(_EXPECTED_KIND)
        self.inputs = []
        for i in range(self.INPUTS):
            kind = kinds[i % len(kinds)]
            size = rng.randint(8, 1024)
            if kind.startswith("uaf"):
                distance, access = rng.randrange(size), kind[4:]
            elif kind in ("overflow", "underflow"):
                distance, access = rng.randint(1, 64), rng.choice(("read", "write"))
            elif kind == "invalid-free":
                distance, access = rng.randint(1, size - 1), None
            else:
                distance, access = 0, None
            self.inputs.append((kind, size, distance, access))
        self.sides = {}
        for side in (AlignmentSide.LEFT, AlignmentSide.RIGHT):
            self.sides[side] = GuardianAllocator(GuardianConfig(
                sample_rate=1, seed=seed, min_alignment=1,
                force_alignment_side=side, sink=io.StringIO()))
        self.allocators = list(self.sides.values())
        self.pending: list[tuple] = []
        self.fault_us: list[float] = []
        self.injected = self.detected = 0
        self.faults_seen = self._faults()
        self.run_ops(10 * len(kinds))
        self.check()
        self.injected = self.detected = 0
        self.fault_us.clear()

    def _faults(self) -> int:
        return sum(a.vm.fault_count for a in self.allocators)

    def op(self, i: int) -> None:
        kind, size, distance, access = self.inputs[i % self.INPUTS]
        alloc = self.sides[AlignmentSide.RIGHT if kind == "overflow" else AlignmentSide.LEFT]
        victim = alloc.malloc(size)
        while not alloc.is_guarded(victim):
            alloc.free(victim)
            victim = alloc.malloc(size)
        if kind in _FREED_KINDS:
            alloc.free(victim)
        if kind.startswith("uaf"):
            address = victim + distance
        elif kind == "overflow":
            address = victim + size + distance - 1
        elif kind == "underflow":
            address = victim - distance
        else:
            address = victim + distance
        reports_before = alloc.reporter.reports_emitted
        raised = False
        start = cpu_ns()
        try:
            if access == "read":
                alloc.vm.read(address, 1)
            elif access == "write":
                alloc.vm.write(address, b"\x41")
            else:
                alloc.free(address)
        except SegmentationFault:
            raised = True
        self.fault_us.append((cpu_ns() - start) / 1000)
        sink = alloc.config.sink
        text = sink.getvalue()
        sink.seek(0)
        sink.truncate()
        try:
            report = guardpool.parse_report(text)
        except ReportParseError:
            report = None
        if kind not in _FREED_KINDS:
            alloc.free(victim)
        emitted = alloc.reporter.reports_emitted - reports_before
        self.pending.append((kind, size, victim, address, access, raised, emitted, report))

    def check(self) -> list[str]:
        failures = []
        for kind, size, victim, address, access, raised, emitted, report in self.pending:
            self.injected += 1
            problem = _report_problem(kind, size, victim, address, access, raised, emitted, report)
            if problem:
                failures.append(f"triage/{kind}: {problem}")
            else:
                self.detected += 1
        faulting = sum(entry[0] in _FAULTING_KINDS for entry in self.pending)
        faults = self._faults()
        if faults - self.faults_seen != faulting:
            failures.append(
                f"triage: {faults - self.faults_seen} faults for {faulting} faulting injections")
        self.faults_seen = faults
        self.pending.clear()
        return failures

    def finish(self, result: Measurement) -> None:
        result.extra["detected_frac"] = self.detected / self.injected
        result.extra["fault_to_report_us_p50"] = statistics.median(self.fault_us)


def _report_problem(kind, size, victim, address, access, raised, emitted, report) -> str:
    """Why a parsed report does not match its injection, or '' when it does."""
    if not raised:
        return "the bad access or free did not stop the program"
    if emitted != 1 or report is None:
        return f"{emitted} reports emitted, parsed: {report is not None}"
    expected_access = AccessType(access) if access else AccessType.UNKNOWN
    freed = kind in _FREED_KINDS
    checks = (
        (report.kind, _EXPECTED_KIND[kind]),
        (report.access_address, address),
        (report.access_kind, expected_access),
        (report.allocation_address, victim),
        (report.allocation_size, size),
        (report.metadata_lost, False),
        (bool(report.alloc_trace), True),
        (bool(report.dealloc_trace), freed),
    )
    for got, want in checks:
        if got != want:
            return f"report has {got!r} where the injection gives {want!r}"
    return ""


WORKLOADS = {cls.name: cls for cls in (Fastpath, AppTraffic, Sampled, Triage)}
