"""Allocator front end: routing, free-path validation, passthrough cost model."""

import io
import random
import sys
import threading

import pytest

from guardpool.pool import AlignmentSide, SlotState
from guardpool.reporter import REPORT_HEADER, AccessType, ReportKind, parse_report
from guardpool.sampler import CounterSampler
from guardpool.shim import FallbackAllocator, GuardianAllocator, GuardianConfig
from guardpool.vmem import SegmentationFault, VirtualMemory


def make_allocator(**kwargs):
    kwargs.setdefault("sample_rate", 1)
    kwargs.setdefault("seed", 9)
    kwargs.setdefault("sink", io.StringIO())
    config = GuardianConfig(**kwargs)
    allocator = GuardianAllocator(config)
    return allocator, config.sink


def guarded_malloc(allocator, size, alignment=0, attempts=128):
    """Retry until the sampler fires: rate 1 still skips every other window."""
    for _ in range(attempts):
        ptr = allocator.malloc(size, alignment)
        if allocator.is_guarded(ptr):
            return ptr
        allocator.free(ptr)
    raise AssertionError("sampler never produced a guarded allocation")


def sampled_call(allocator, fn, attempts=128):
    """Repeat fn until the call is actually sampled; returns its pointer."""
    for _ in range(attempts):
        before = allocator.stats.sampled
        ptr = fn()
        if allocator.stats.sampled > before:
            return ptr
        allocator.free(ptr)
    raise AssertionError("sampling never fired")


# -- fallback arena ---------------------------------------------------------


def test_fallback_alignment_and_reuse():
    vm = VirtualMemory()
    arena = FallbackAllocator(vm)
    a = arena.malloc(24, 16)
    assert a % 16 == 0
    assert arena.usable_size(a) == 24
    arena.free(a)
    b = arena.malloc(24, 16)
    assert b == a, "exact-size free list must recycle"
    c = arena.malloc(100, 64)
    assert c % 64 == 0
    assert arena.usable_size(c) == 100
    with pytest.raises(ValueError):
        arena.usable_size(c + 1)


def test_fallback_recycles_without_scrubbing():
    vm = VirtualMemory()
    arena = FallbackAllocator(vm)
    a = arena.malloc(32)
    vm.write(a, b"\xaa" * 32)
    arena.free(a)
    b = arena.malloc(32)
    assert b == a
    assert vm.read(b, 32) == b"\xaa" * 32


def test_fallback_grows_arena():
    vm = VirtualMemory()
    arena = FallbackAllocator(vm, initial_pages=1)
    blocks = [arena.malloc(4096) for _ in range(8)]
    assert len(set(blocks)) == 8


def test_fallback_argument_validation():
    arena = FallbackAllocator(VirtualMemory())
    with pytest.raises(ValueError):
        arena.malloc(-1)
    with pytest.raises(ValueError):
        arena.malloc(8, 3)
    arena.free(0)  # free(NULL) is a no-op


def test_fallback_rejects_foreign_pointers_without_side_effects():
    arena = FallbackAllocator(VirtualMemory())
    a = arena.malloc(32)
    arena.free(arena.malloc(48))
    sizes, free_lists = dict(arena._sizes), {k: list(v) for k, v in arena._free.items()}
    for bad in (a + 1, a + 4096):
        with pytest.raises(ValueError, match=f"0x{bad:x}"):
            arena.free(bad)
        with pytest.raises(ValueError, match=f"0x{bad:x}"):
            arena.usable_size(bad)
    assert arena._sizes == sizes
    assert arena._free == free_lists
    arena.free(a)  # the real pointer is still live and frees normally


def test_foreign_free_through_the_shim_is_a_value_error():
    allocator, _ = make_allocator(sample_rate=10**9)
    host_ptr = allocator.malloc(32)
    with pytest.raises(ValueError, match=f"0x{host_ptr + 1:x}"):
        allocator.free(host_ptr + 1)
    assert allocator.usable_size(host_ptr) == 32


# -- enablement and passthrough ---------------------------------------------


def test_disabled_allocator_is_the_fallback():
    allocator, _ = make_allocator(enabled=False)
    assert not allocator.enabled
    assert allocator.pool is None
    # The entry points are the fallback's own bound methods: the
    # disabled tool adds zero per-call work, not even a forwarding frame.
    assert allocator.malloc.__self__ is allocator.fallback
    assert allocator.free.__self__ is allocator.fallback
    assert allocator.usable_size.__self__ is allocator.fallback
    addr = allocator.malloc(64)
    assert not allocator.is_guarded(addr)
    assert allocator.estimated_resident_bytes() == 0


def test_zero_probability_launch_never_enables():
    allocator, _ = make_allocator(process_sample_probability=0.0)
    assert not allocator.enabled
    assert allocator.pool is None


def test_config_validation():
    with pytest.raises(ValueError, match="slot_count"):
        GuardianAllocator(GuardianConfig(slot_count=0))
    with pytest.raises(ValueError, match="max_live"):
        GuardianAllocator(GuardianConfig(slot_count=2, max_live=3))


def test_probability_bounds_validated():
    for probability in (1.5, -0.1, float("nan")):
        with pytest.raises(ValueError, match="process_sample_probability"):
            GuardianConfig(process_sample_probability=probability).validate()


def test_bad_config_rejected_whatever_the_launch_decision():
    # Half of these launches would be sampled out; each must still fail.
    for seed in range(40):
        with pytest.raises(ValueError, match="slot_count"):
            GuardianAllocator(
                GuardianConfig(seed=seed, slot_count=0, process_sample_probability=0.5)
            )


@pytest.mark.parametrize("launch", [
    {"enabled": False},
    {"process_sample_probability": 0.0},
    {},
], ids=["disabled", "probability-0", "enabled"])
@pytest.mark.parametrize("field, value", [
    ("slot_count", 0),
    ("slot_count", -1),
    ("max_live", 0),
    ("max_live", 17),
    ("process_sample_probability", -0.1),
    ("process_sample_probability", 1.5),
    ("coverage_threshold", 0.0),
    ("coverage_threshold", 1.5),
    ("sample_interval", float("nan")),
    ("max_frames", 0),
    ("max_frames", -3),
    ("min_alignment", 8192),
])
def test_every_bad_field_is_rejected_on_every_launch(launch, field, value):
    config = GuardianConfig(**{"seed": 3, "sink": io.StringIO(), **launch, field: value})
    with pytest.raises(ValueError, match=field):
        GuardianAllocator(config)


def test_launch_decision_is_seed_deterministic():
    decisions = []
    for _ in range(2):
        allocator, _ = make_allocator(process_sample_probability=0.5, seed=123)
        decisions.append(allocator.enabled)
    assert decisions[0] == decisions[1]


# -- the inlined countdown ------------------------------------------------


@pytest.mark.parametrize("rate", [1, 7, 5000])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sampled_calls_match_the_counter_sampler(seed, rate):
    allocator, _ = make_allocator(sample_rate=rate, seed=seed, max_frames=1)
    oracle = CounterSampler(rate, seed).want_to_sample
    malloc, free, stats = allocator.malloc, allocator.free, allocator.stats
    got, want = [], []
    for call in range(100_000):
        before = stats.sampled
        free(malloc(16))
        if stats.sampled > before:
            got.append(call)
        if oracle():
            want.append(call)
    assert got == want


def test_unlocked_countdown_keeps_sampling_under_threads():
    allocator, _ = make_allocator(sample_rate=50, seed=4)
    errors = []

    def worker():
        try:
            for _ in range(20_000):
                allocator.free(allocator.malloc(16))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    pool = allocator.pool
    assert pool.live_count == sum(s.state is SlotState.ALLOCATED for s in pool.slots)
    sampled = allocator.stats.sampled
    assert sampled > 0
    for _ in range(1000):
        allocator.free(allocator.malloc(16))
    assert allocator.stats.sampled > sampled


def _sampled_outcomes_add_up(stats):
    return stats.sampled == (
        stats.guarded + stats.coverage_rejected + stats.pool_unavailable + stats.oversized)


def _sampling_churn(allocator, rounds, seed):
    # Rate 1 on a small pool: every sampled call ends as guarded,
    # coverage-rejected, pool-unavailable or oversized (every 7th asks
    # for more than a page).  Four sites keep coverage admission busy.
    rng = random.Random(seed)
    live = []

    def site(depth, size):
        return site(depth - 1, size) if depth else allocator.malloc(size)

    for i in range(rounds):
        live.append(site(rng.randrange(4), 4097 if i % 7 == 0 else 16))
        if len(live) > 6:
            allocator.free(live.pop(rng.randrange(len(live))))
    for addr in live:
        allocator.free(addr)


def test_sampled_counts_add_up_on_one_thread():
    allocator, _ = make_allocator(slot_count=8, max_live=4)
    _sampling_churn(allocator, 3000, seed=1)
    stats = allocator.stats
    assert stats.guarded and stats.coverage_rejected and stats.oversized
    assert stats.pool_unavailable
    assert _sampled_outcomes_add_up(stats)


def test_sampled_counts_add_up_under_threads():
    # Four churning threads, and an observer that reads the counters
    # under pool.lock the whole time: the identity must hold at every
    # moment the lock is free, not only once the threads are done.
    allocator, _ = make_allocator(slot_count=8, max_live=4)
    errors = []
    torn = [0]
    done = threading.Event()

    def worker(seed):
        try:
            _sampling_churn(allocator, 3000, seed)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    def observer():
        stats = allocator.stats
        while not done.is_set():
            with allocator.pool.lock:
                torn[0] += not _sampled_outcomes_add_up(stats)

    workers = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
    watcher = threading.Thread(target=observer)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        watcher.start()
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=120)
    finally:
        done.set()
        watcher.join(timeout=120)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in workers + [watcher])
    assert errors == []
    assert torn == [0], "observer saw sampled out of step with its outcomes"
    assert _sampled_outcomes_add_up(allocator.stats), allocator.stats


# -- routing ------------------------------------------------------------------


def test_sampled_allocation_routes_to_the_pool():
    allocator, _ = make_allocator(slot_count=4)
    addr = guarded_malloc(allocator, 41)
    assert allocator.is_guarded(addr)
    assert allocator.stats.guarded == 1
    assert allocator.stats.sampled >= 1
    assert allocator.usable_size(addr) == 41
    allocator.free(addr)
    slot_index = allocator.pool.classify_address(addr).slot_index
    assert allocator.pool.slots[slot_index].state is SlotState.QUARANTINED


def test_high_rate_serves_from_fallback():
    allocator, _ = make_allocator(sample_rate=10**9)
    addrs = [allocator.malloc(16) for _ in range(50)]
    assert all(not allocator.is_guarded(a) for a in addrs)
    assert all(allocator.fallback.usable_size(a) == 16 for a in addrs)
    assert allocator.stats.guarded == 0
    for a in addrs:
        allocator.free(a)


def test_oversized_request_is_a_wasted_sample():
    allocator, _ = make_allocator()
    for _ in range(64):
        addr = allocator.malloc(4097)
        assert not allocator.is_guarded(addr)
        if allocator.stats.sampled:
            break
        allocator.free(addr)
    assert allocator.stats.oversized == 1
    assert allocator.stats.guarded == 0
    assert allocator.usable_size(addr) == 4097


def test_pool_exhaustion_falls_back():
    allocator, _ = make_allocator(slot_count=2)
    live = [guarded_malloc(allocator, 16) for _ in range(2)]
    assert all(allocator.is_guarded(a) for a in live)
    for _ in range(64):
        extra = allocator.malloc(16)
        assert not allocator.is_guarded(extra)
        allocator.free(extra)
        if allocator.stats.pool_unavailable:
            break
    assert allocator.stats.pool_unavailable >= 1


def test_guarded_allocation_honors_alignment():
    allocator, _ = make_allocator()
    for request in (1, 24, 41, 100):
        addr = guarded_malloc(allocator, request, 64)
        assert addr % 64 == 0
        allocator.free(addr)


def test_min_alignment_applies_to_guarded_allocations():
    allocator, _ = make_allocator(min_alignment=32)
    for _ in range(8):
        addr = guarded_malloc(allocator, 41)
        assert addr % 32 == 0
        allocator.free(addr)


def test_timer_policy_samples_once_per_interval():
    now = [0.0]
    allocator, _ = make_allocator(
        policy="timer", sample_interval=1.0, timer_clock=lambda: now[0]
    )
    assert not allocator.is_guarded(allocator.malloc(16))
    now[0] = 1.5  # past the arming boundary: next malloc wins the sample
    first = allocator.malloc(16)
    second = allocator.malloc(16)
    assert allocator.is_guarded(first)
    assert not allocator.is_guarded(second)
    for interval in range(2, 7):
        now[0] = interval + 0.5
        guarded = [allocator.is_guarded(allocator.malloc(16)) for _ in range(50)]
        assert guarded.count(True) == 1
    assert allocator.stats.sampled == 6


# -- coverage admission -------------------------------------------------------


def test_hot_site_is_throttled_above_threshold():
    # max_frames=1 pins site identity to the malloc call line, so the
    # harness loop position cannot smear one site into many.
    allocator, _ = make_allocator(slot_count=4, coverage_threshold=0.75, max_frames=1)

    def hot():
        return allocator.malloc(16)

    live = [sampled_call(allocator, hot) for _ in range(4)]
    # util 0, .25, .5 admit freely; at .75 the hot site is already covered.
    assert [allocator.is_guarded(a) for a in live] == [True, True, True, False]
    assert allocator.stats.coverage_rejected == 1

    def cold():
        return allocator.malloc(16)

    fresh = sampled_call(allocator, cold)
    assert allocator.is_guarded(fresh), "uncovered site must win the last slot"


def test_freeing_reopens_coverage_for_the_site():
    allocator, _ = make_allocator(slot_count=4, max_frames=1)

    def hot():
        return allocator.malloc(16)

    live = [sampled_call(allocator, hot) for _ in range(4)]
    assert not allocator.is_guarded(live[3])
    for addr in live[:3]:
        allocator.free(addr)
    again = sampled_call(allocator, hot)
    assert allocator.is_guarded(again)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_coverage_counters_drain_to_zero(seed):
    # Twelve call sites, told apart by recursion depth, churn through a
    # 240-entry ring on a 256-slot pool at rate 1, so a site holds more
    # than 15 slots at once.  Once everything is freed, no site may
    # still read as holding a slot.
    allocator, _ = make_allocator(slot_count=256, seed=seed)
    rng = random.Random(seed)

    def site(depth):
        return site(depth - 1) if depth else allocator.malloc(16)

    ring = []
    held = [0] * 12
    peak = 0
    for _ in range(3000):
        depth = rng.randrange(12)
        addr = site(depth)
        ring.append((addr, depth))
        held[depth] += allocator.is_guarded(addr)
        peak = max(peak, held[depth])
        if len(ring) > 240:
            addr, depth = ring.pop(0)
            held[depth] -= allocator.is_guarded(addr)
            allocator.free(addr)
    for addr, _ in ring:
        allocator.free(addr)
    assert allocator.pool.live_count == 0
    assert allocator.coverage._table == [0] * allocator.coverage.counters
    assert peak > 15


# -- free-path validation -----------------------------------------------------


def test_double_free_detected_without_a_page_fault():
    allocator, sink = make_allocator()
    addr = guarded_malloc(allocator, 41)
    allocator.free(addr)
    with pytest.raises(SegmentationFault):
        allocator.free(addr)
    assert allocator.stats.double_free == 1
    assert allocator.vm.fault_count == 0, "shim validation must not fault"
    report = parse_report(sink.getvalue())
    assert report.kind is ReportKind.DOUBLE_FREE
    assert report.access_address == addr
    assert report.allocation_address == addr
    assert report.dealloc_trace, "first free's stack is the key evidence"
    assert report.access_kind is AccessType.UNKNOWN


def test_invalid_interior_free_detected():
    allocator, sink = make_allocator()
    addr = guarded_malloc(allocator, 41)
    with pytest.raises(SegmentationFault):
        allocator.free(addr + 1)
    assert allocator.stats.invalid_free == 1
    assert allocator.vm.fault_count == 0
    report = parse_report(sink.getvalue())
    assert report.kind is ReportKind.INVALID_FREE
    assert report.access_address == addr + 1
    assert report.allocation_address == addr
    assert report.dealloc_trace is None


def test_free_of_guard_page_address_is_invalid():
    allocator, sink = make_allocator()
    guard = allocator.pool.guard_page_addr(1)
    with pytest.raises(SegmentationFault):
        allocator.free(guard)
    assert allocator.stats.invalid_free == 1
    assert "Invalid-free at" in sink.getvalue()
    assert "no associated allocation" in sink.getvalue()


def test_recoverable_free_error_reports_and_continues():
    allocator, sink = make_allocator(recoverable=True)
    addr = guarded_malloc(allocator, 41)
    allocator.free(addr)
    allocator.free(addr)  # no exception in recoverable mode
    assert sink.getvalue().count(REPORT_HEADER) == 1
    # Recovery turns sampling off process-wide: the pool is done.
    later = allocator.malloc(16)
    assert not allocator.is_guarded(later)
    allocator.free(addr)  # still quarantined, but reporting is disabled
    assert sink.getvalue().count(REPORT_HEADER) == 1


def test_free_null_is_a_no_op():
    allocator, _ = make_allocator()
    allocator.free(0)
    assert allocator.stats.invalid_free == 0


# -- whole-lifecycle integration ---------------------------------------------


def test_use_after_free_through_the_shim_has_both_traces():
    allocator, sink = make_allocator()
    addr = guarded_malloc(allocator, 41)
    allocator.free(addr)
    with pytest.raises(SegmentationFault):
        allocator.vm.read(addr + 8, 1)
    report = parse_report(sink.getvalue())
    assert report.kind is ReportKind.USE_AFTER_FREE
    assert report.alloc_thread == threading.get_ident()
    assert report.dealloc_thread == threading.get_ident()
    assert report.alloc_trace and report.dealloc_trace
    assert report.alloc_trace != report.dealloc_trace
    assert report.allocation_size == 41


def test_live_allocation_keeps_its_evidence_through_churn():
    allocator = GuardianAllocator(GuardianConfig(sample_rate=1, sink=io.StringIO()))
    pool = allocator.pool
    victim = guarded_malloc(allocator, 41)
    slot_index = pool.classify_address(victim).slot_index
    for _ in range(10 * pool.slot_count):
        allocator.free(guarded_malloc(allocator, 32))
    assert pool.acquire_count == 10 * pool.slot_count + 1
    with pytest.raises(SegmentationFault):
        allocator.vm.read(pool.slot_page_addr(slot_index) + pool.page_size, 1)
    report = parse_report(allocator.config.sink.getvalue())
    assert report.kind is ReportKind.BUFFER_OVERFLOW
    assert not report.metadata_lost
    assert report.allocation_address == victim
    assert report.allocation_size == 41
    assert report.alloc_thread == threading.get_ident()
    assert report.alloc_trace


def test_freed_allocation_keeps_both_stacks_until_its_slot_is_reused():
    allocator = GuardianAllocator(GuardianConfig(sample_rate=1, sink=io.StringIO()))
    pool, sink = allocator.pool, allocator.config.sink
    victim = guarded_malloc(allocator, 41)
    slot_index = pool.classify_address(victim).slot_index
    seq = pool.slots[slot_index].metadata_seq
    allocator.free(victim)
    # FIFO: every other slot is served once before the victim's comes back.
    for _ in range(pool.slot_count - 1):
        allocator.free(guarded_malloc(allocator, 32))
    assert pool.slots[slot_index].state is SlotState.QUARANTINED
    with pytest.raises(SegmentationFault):
        allocator.vm.read(victim, 1)
    report = parse_report(sink.getvalue())
    assert report.kind is ReportKind.USE_AFTER_FREE
    assert not report.metadata_lost
    assert report.allocation_size == 41
    assert report.alloc_trace and report.dealloc_trace
    allocator.free(guarded_malloc(allocator, 32))
    assert pool.acquire_count == pool.slot_count + 1
    assert allocator.store.snapshot(slot_index, seq) is None


def test_overflow_through_the_shim():
    allocator, sink = make_allocator(
        force_alignment_side=AlignmentSide.RIGHT, min_alignment=1
    )
    addr = guarded_malloc(allocator, 41)
    with pytest.raises(SegmentationFault):
        allocator.vm.read(addr + 41, 1)
    report = parse_report(sink.getvalue())
    assert report.kind is ReportKind.BUFFER_OVERFLOW
    assert report.offset == 41
    assert "1B right of 41B allocation" in sink.getvalue()


def test_recovered_fault_stops_future_guarding():
    allocator, sink = make_allocator(recoverable=True)
    addr = guarded_malloc(allocator, 41)
    allocator.free(addr)
    assert allocator.vm.read(addr, 8) == b"\x00" * 8  # recovered
    assert sink.getvalue().count(REPORT_HEADER) == 1
    sampled = allocator.stats.sampled
    for _ in range(100):
        assert not allocator.is_guarded(allocator.malloc(16))
    assert allocator.stats.sampled == sampled


# -- library calls ------------------------------------------------------------


def test_calloc_zeroes_both_paths():
    guarded, _ = make_allocator()
    addr = sampled_call(guarded, lambda: guarded.calloc(41, 1))
    assert guarded.is_guarded(addr)
    assert guarded.vm.read(addr, 41) == b"\x00" * 41

    unsampled, _ = make_allocator(sample_rate=10**9)
    a = unsampled.malloc(32)
    unsampled.vm.write(a, b"\xaa" * 32)
    unsampled.free(a)
    b = unsampled.calloc(2, 16)
    assert unsampled.vm.read(b, 32) == b"\x00" * 32


def test_calloc_validates_arguments():
    allocator, _ = make_allocator()
    with pytest.raises(ValueError):
        allocator.calloc(-1, 8)


def test_realloc_copies_and_frees():
    allocator, _ = make_allocator(slot_count=4)
    addr = guarded_malloc(allocator, 16)
    allocator.vm.write(addr, bytes(range(16)))
    bigger = allocator.realloc(addr, 64)
    assert bigger != addr
    assert allocator.vm.read(bigger, 16) == bytes(range(16))
    assert allocator.usable_size(bigger) == 64
    with pytest.raises(SegmentationFault):
        allocator.usable_size(addr)  # the old block is freed: a use-after-free

    smaller = allocator.realloc(bigger, 8)
    assert allocator.vm.read(smaller, 8) == bytes(range(8))


def test_realloc_of_null_allocates():
    allocator, _ = make_allocator()
    addr = allocator.realloc(0, 24)
    assert allocator.usable_size(addr) == 24


def test_usable_size_is_the_requested_size():
    allocator, _ = make_allocator()
    addr = guarded_malloc(allocator, 41)
    assert allocator.usable_size(addr) == 41


def _freed_guarded(recoverable):
    allocator, sink = make_allocator(slot_count=4, recoverable=recoverable)
    addr = guarded_malloc(allocator, 41)
    allocator.vm.write(addr, b"x" * 41)
    allocator.free(addr)
    return allocator, sink, addr


def _one_use_after_free_report(sink, addr):
    assert sink.getvalue().count(REPORT_HEADER) == 1
    report = parse_report(sink.getvalue())
    assert report.kind is ReportKind.USE_AFTER_FREE
    assert report.access_address == report.allocation_address == addr
    assert report.allocation_size == 41
    assert report.alloc_trace and report.dealloc_trace  # both stacks
    return report


@pytest.mark.parametrize("recoverable", [False, True], ids=["fatal", "recoverable"])
def test_usable_size_of_a_freed_guarded_pointer_reports_use_after_free(recoverable):
    allocator, sink, addr = _freed_guarded(recoverable)
    if recoverable:
        assert allocator.usable_size(addr) == 41  # the freed request's size
    else:
        with pytest.raises(SegmentationFault):
            allocator.usable_size(addr)
    _one_use_after_free_report(sink, addr)


@pytest.mark.parametrize("recoverable", [False, True], ids=["fatal", "recoverable"])
def test_realloc_of_a_freed_guarded_pointer_reports_use_after_free(recoverable):
    allocator, sink, addr = _freed_guarded(recoverable)
    faults = allocator.vm.fault_count
    if recoverable:
        moved = allocator.realloc(addr, 64)
        assert allocator.usable_size(moved) == 64
    else:
        with pytest.raises(SegmentationFault):
            allocator.realloc(addr, 64)
    _one_use_after_free_report(sink, addr)
    # The freed block is neither read (no fault) nor freed again.
    assert allocator.vm.fault_count == faults
    assert allocator.stats.double_free == 0


@pytest.mark.parametrize("recoverable", [False, True], ids=["fatal", "recoverable"])
def test_interior_pointer_of_a_freed_guarded_block_is_a_value_error(recoverable):
    allocator, sink, addr = _freed_guarded(recoverable)
    for call in (lambda: allocator.usable_size(addr + 1),
                 lambda: allocator.realloc(addr + 1, 8)):
        with pytest.raises(ValueError):
            call()
    assert sink.getvalue() == ""


def test_usable_size_of_an_interior_guarded_pointer_is_a_value_error():
    # The host only sizes the start of a live block; a guarded one must
    # answer the same way for any other address in its slot.
    allocator, _ = make_allocator(slot_count=4)
    addr = guarded_malloc(allocator, 32)
    for inside in (addr + 1, addr + 16, addr + 31):
        with pytest.raises(ValueError):
            allocator.usable_size(inside)
    assert allocator.usable_size(addr) == 32
    host_ptr = allocator.fallback.malloc(32, 16)
    with pytest.raises(ValueError):
        allocator.fallback.usable_size(host_ptr + 1)


def test_destroy_detaches_but_keeps_the_reservation():
    allocator, sink = make_allocator()
    addr = guarded_malloc(allocator, 41)
    allocator.free(addr)
    allocator.destroy()
    with pytest.raises(SegmentationFault):
        allocator.vm.read(addr, 1)  # still protected, no reporter attached
    assert sink.getvalue() == ""
    sampled = allocator.stats.sampled
    for _ in range(100):
        assert not allocator.is_guarded(allocator.malloc(16))
    assert allocator.stats.sampled == sampled


# -- memory accounting --------------------------------------------------------


def test_resident_footprint_is_tens_of_kilobytes():
    allocator, _ = make_allocator(slot_count=16)
    for _ in range(16):
        allocator.free(allocator.malloc(48))
    footprint = allocator.estimated_resident_bytes()
    assert 60_000 < footprint < 90_000, footprint


def test_max_live_caps_the_footprint():
    allocator, _ = make_allocator(slot_count=16, max_live=4)
    assert allocator.estimated_resident_bytes() < 4 * 4096 + 16 * 4096
