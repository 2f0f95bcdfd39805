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
    assert arena.owns(c)
    assert not arena.owns(c + 1)


def test_fallback_recycles_without_scrubbing():
    vm = VirtualMemory()
    arena = FallbackAllocator(vm)
    a = arena.malloc(32)
    vm.write(a, b"\xaa" * 32)
    arena.free(a)
    b = arena.malloc(32)
    assert b == a
    assert vm.read(b, 32) == b"\xaa" * 32


def test_fallback_calloc_zeroes_recycled_block():
    vm = VirtualMemory()
    arena = FallbackAllocator(vm)
    a = arena.malloc(32, 16)
    vm.write(a, b"\xaa" * 32)
    arena.free(a)
    b = arena.calloc(2, 16)
    assert vm.read(b, 32) == b"\x00" * 32


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
    assert all(allocator.fallback.owns(a) for a in addrs)
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
    with pytest.raises(ValueError):
        allocator.usable_size(addr)  # the old block is gone

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
    allocator.free(addr)
    with pytest.raises(ValueError):
        allocator.usable_size(addr)


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
