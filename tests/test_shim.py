"""Allocator front end: routing, free-path validation, passthrough cost model."""

import io
import itertools
import operator
import random
import sys
import threading
import tracemalloc

import pytest

from guardpool import reporter as reporter_module
from guardpool import shim as shim_module
from guardpool.pool import AddressKind, AlignmentSide, SlotState
from guardpool.reporter import REPORT_HEADER, AccessType, ReportKind, parse_report
from guardpool.sampler import CounterSampler
from guardpool.shim import AllocatorStats, FallbackAllocator, GuardianAllocator, GuardianConfig
from guardpool.vmem import SegmentationFault, VirtualMemory

from conftest import at_depth, guard_page_addr, python_calls, slot_page_addr, traced_opcodes


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


def host_and_hooked():
    """A plain host, and an enabled allocator that will not sample soon.

    The enabled allocator is the host with the sampling check written
    in, so its unsampled entry points must act as the host's do.
    """
    return FallbackAllocator(VirtualMemory()), make_allocator(sample_rate=10**9)[0]


def _layout(arena):
    """The host's two maps as plain values, with the links checked.

    Each live block maps to the key of its free list, found by identity:
    a size-map entry that is not its key's list itself fails here.  Each
    free list maps to its size and its blocks.
    """
    keys = {id(bucket): key for key, bucket in arena._free.items()}
    sizes = {addr: keys[id(bucket)] for addr, bucket in arena._sizes.items()}
    return sizes, {key: (bucket.size, list(bucket)) for key, bucket in arena._free.items()}


def test_fallback_alignment_and_reuse():
    for arena in host_and_hooked():
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
    for arena in host_and_hooked():
        with pytest.raises(ValueError):
            arena.malloc(-1)
        with pytest.raises(ValueError):
            arena.malloc(8, 3)
        arena.free(0)  # free(NULL) is a no-op


def test_alignment_zero_asks_the_hosts_default():
    # On every launch, enabled or not, 0 is the host's default of 16: the
    # block is 16-aligned and recycles through the default's free list.
    disabled, _ = make_allocator(enabled=False)
    for arena in (*host_and_hooked(), disabled):
        a = arena.malloc(24, 0)
        assert a % 16 == 0 and arena.usable_size(a) == 24
        arena.free(a)
        assert arena.malloc(24) == a
        arena.free(a)
        assert arena.malloc(24, 16) == a
        assert list(arena._free) == [24]


def test_fallback_rejects_foreign_pointers_without_side_effects():
    for arena in host_and_hooked():
        a = arena.malloc(32)
        arena.free(arena.malloc(48))
        layout = _layout(arena)
        # Arena addresses no block starts at, and addresses past the
        # arena and far outside the address space in use.
        for bad in (a + 1, a + 4096, arena._limit + 64, 1 << 60, -16):
            with pytest.raises(ValueError, match=f"0x{bad:x}"):
                arena.free(bad)
            assert not arena._lock.locked(), "a rejected free kept the host lock"
            with pytest.raises(ValueError, match=f"0x{bad:x}"):
                arena.usable_size(bad)
        assert _layout(arena) == layout
        if isinstance(arena, GuardianAllocator):  # nor did the guarded side move
            assert arena.stats == AllocatorStats()
            assert arena.config.sink.getvalue() == ""
        arena.free(a)  # the real pointer is still live and frees normally


@pytest.mark.parametrize("hooked", [False, True], ids=["host", "hooked-host"])
def test_a_failed_carve_propagates_and_releases_the_host_lock(monkeypatch, hooked):
    # The carve runs under the host lock; when the platform refuses more
    # pages, the error reaches the caller and the lock is free again.
    arena = host_and_hooked()[hooked]
    recycled = arena.malloc(32)
    arena.free(recycled)

    def no_memory(*args, **kwargs):
        raise MemoryError("no pages left")

    monkeypatch.setattr(arena.vm, "reserve", no_memory)
    with pytest.raises(MemoryError, match="no pages left"):
        arena.malloc(65 * arena.vm.page_size)  # past the arena's end: it must grow
    assert not arena._lock.locked(), "a failed carve kept the host lock"
    assert arena.malloc(32) == recycled  # a recycled size needs no carve


class _LostRace(shim_module._FreeList):
    """A free list whose last block another thread took after the check."""

    def pop(self, *args):
        raise IndexError("pop from empty list")


@pytest.mark.parametrize("hooked", [False, True], ids=["host", "hooked-host"])
def test_a_pop_that_loses_the_race_carves_instead(hooked):
    # The recycle path checks the list, then pops it, with no lock: a
    # thread between the two can take the last block.  The pop's
    # IndexError must become a carve, not reach the caller.
    arena = host_and_hooked()[hooked]
    taken = arena.malloc(40)
    arena.free(taken)
    arena._free[40] = bucket = _LostRace([taken])
    bucket.size = 40
    fresh = arena.malloc(40)
    assert fresh >= taken + 40, "not a fresh block"
    assert list(arena._sizes) == [fresh] and arena._sizes[fresh] is bucket
    assert arena.usable_size(fresh) == 40
    assert arena._free[40] is bucket  # the carve keeps the key's list
    arena.free(fresh)
    assert arena._sizes == {} and list(bucket) == [taken, fresh]


@pytest.mark.parametrize("hooked", [False, True], ids=["host", "hooked-host"])
def test_threads_never_share_a_block(hooked):
    """Four threads churn sizes of 1-3000 on a one-page arena, so carves
    and grows contend as well as recycles.  No block is live in two
    threads at once, and at the end every block ever handed out sits in
    its key's free list exactly once.

    On CPython 3.11 this is a smoke test only: threads switch only at
    calls and backward jumps, so even a malloc that peeks at a list's
    last block and then removes it, or a carve without the host lock,
    races in principle, passes it.  The argument for the lock-free
    recycle path is FallbackAllocator's docstring, and the lost race is
    tested deterministically above.
    """
    arena = host_and_hooked()[hooked]
    arena._grow_pages = 1  # before the first carve: start on one page, as initial_pages=1
    book = threading.Lock()  # the test's own bookkeeping, not the allocator's
    go = threading.Barrier(4, timeout=60)
    live, handed_out, errors = set(), {}, []

    def worker(seed):
        rng = random.Random(seed)
        common = rng.sample(range(1, 3001), 6)
        mine = []
        try:
            go.wait()
            for _ in range(3000):
                if len(mine) < 8 and (not mine or rng.random() < 0.55):
                    size = rng.choice(common) if rng.random() < 0.6 else rng.randint(1, 3000)
                    addr = arena.malloc(size)
                    with book:
                        assert addr not in live, f"0x{addr:x} handed out twice"
                        live.add(addr)
                        assert handed_out.setdefault(addr, size) == size
                    mine.append(addr)
                else:
                    addr = mine.pop(rng.randrange(len(mine)))
                    with book:
                        live.remove(addr)
                    arena.free(addr)
            for addr in mine:
                with book:
                    live.remove(addr)
                arena.free(addr)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert live == set() and arena._sizes == {}
    freed = [(addr, key, bucket) for key, bucket in arena._free.items() for addr in bucket]
    assert sorted(addr for addr, _, _ in freed) == sorted(handed_out), "lost or listed twice"
    assert all(key == bucket.size == handed_out[addr] for addr, key, bucket in freed)
    ends = sorted((addr, addr + size) for addr, size in handed_out.items())
    assert all(end <= start for (_, end), (start, _) in zip(ends, ends[1:])), "blocks overlap"


def _outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:  # compared, type and message, with the host's
        return type(exc), str(exc)


# Sizes and alignments the call-for-call tests below draw from; -1, 3, 12
# and -4 are invalid requests, and alignment 0 asks the host's default.
_SIZES = (0, 1, 16, 24, 100, 4096, 5000, -1)
_ALIGNMENTS = (None, None, 0, 1, 8, 16, 64, 4096, 3, 12, -4)


@pytest.mark.parametrize("seed, min_alignment", [
    *(pytest.param(seed, 16, id=str(seed)) for seed in (1, 2, 3)),
    pytest.param(4, 1, id="4-min_alignment=1"),
    pytest.param(5, 256, id="5-min_alignment=256"),
])
def test_the_hooked_host_matches_the_host_call_for_call(seed, min_alignment):
    # The enabled allocator's unsampled malloc, free and usable_size
    # repeat the host's statements; a seeded script, valid calls and
    # invalid ones alike, must get the same answers from both.
    # min_alignment is for guarded blocks only: host blocks keep the
    # host's default of 16.
    hooked, sink = make_allocator(sample_rate=10**9, seed=seed, min_alignment=min_alignment)
    vm = VirtualMemory()
    vm.reserve(hooked.pool.region_length // vm.page_size)  # where the pool sits
    host = FallbackAllocator(vm)
    rng = random.Random(seed)
    live, dead = [], [0, 1 << 60, -16]
    for step in range(4000):
        roll = rng.random()
        if roll < 0.45 or not live:
            size = rng.choice(_SIZES)
            alignment = rng.choice(_ALIGNMENTS)
            args = (size,) if alignment is None else (size, alignment)
            name = "malloc"
        elif roll < 0.75:
            ptr = live.pop(rng.randrange(len(live)))
            dead.append(ptr)
            name, args = "free", (ptr,)
        elif roll < 0.85:
            name, args = "usable_size", (rng.choice(live),)
        else:
            # Freed blocks (some recycled since), interior pointers,
            # free(0) and addresses no allocator owns.
            bad = rng.choice(dead) if rng.random() < 0.6 else rng.choice(live) + rng.choice((1, 8))
            name, args = rng.choice(("free", "usable_size")), (bad,)
        got = _outcome(getattr(hooked, name), *args)
        want = _outcome(getattr(host, name), *args)
        assert got == want, (step, name, args)
        if name == "malloc" and isinstance(want, int):
            live.append(want)
    assert _layout(hooked) == _layout(host)
    assert hooked.stats == AllocatorStats()
    assert sink.getvalue() == ""


def test_a_sampled_malloc_rejects_what_the_host_rejects(monkeypatch):
    # At rate 1 the countdown draws 1 or 2, so these calls reach both the
    # hooked host's checks and the guarded path.  On each, an invalid
    # request raises the host's error before a stack is captured or a
    # counter moves.
    allocator, sink = make_allocator(sample_rate=1)
    host = FallbackAllocator(VirtualMemory())
    captures, guarded_calls = [], []
    monkeypatch.setattr(shim_module, "capture_trace",
                        lambda max_frames: captures.append(max_frames) or [])
    guarded_malloc_ = allocator._guarded_malloc
    allocator._guarded_malloc = lambda *args: guarded_calls.append(args) or guarded_malloc_(*args)
    invalid = [(size,) if alignment is None else (size, alignment)
               for size in _SIZES for alignment in dict.fromkeys(_ALIGNMENTS)
               if size < 0 or alignment in (3, 12, -4)]
    for args in invalid * 4:
        want = _outcome(host.malloc, *args)
        assert want[0] is ValueError, args
        assert _outcome(allocator.malloc, *args) == want, args
    assert 0 < len(guarded_calls) < 4 * len(invalid)
    assert captures == []
    assert allocator.stats == AllocatorStats()
    assert allocator.pool.live_count == 0 and allocator._sizes == {}
    assert sink.getvalue() == ""


@pytest.mark.parametrize("config", [
    {"sample_rate": 1}, {"sample_rate": 10**9}, {"enabled": False},
], ids=["rate-1", "rate-1e9", "disabled"])
def test_a_non_int_size_is_rejected_before_anything_moves(config):
    # A float size once moved the host's cursor to a float, so every
    # later carved address was one too; on the guarded path a block
    # placed right got a float address that free could not release.
    # Now malloc, calloc and realloc raise before a block is carved,
    # guarded or handed out, sampled or not; calloc and realloc even when
    # an int-equal size would find a recycled block.
    allocator, sink = make_allocator(force_alignment_side=AlignmentSide.RIGHT, **config)
    live = allocator.malloc(32)
    allocator.free(FallbackAllocator.malloc(allocator, 16))  # 16.0 finds a recycled block
    guarded_calls = []
    if allocator.enabled:
        guarded_malloc_ = allocator._guarded_malloc
        allocator._guarded_malloc = lambda *args: guarded_calls.append(args) or guarded_malloc_(*args)
    layout, cursor = _layout(allocator), allocator._cursor
    stats = AllocatorStats(**vars(allocator.stats))
    live_slots = allocator.pool.live_count if allocator.enabled else 0
    calls = [(allocator.malloc, 8.5), (allocator.malloc, 3.5, 64), (allocator.calloc, 2, 3.5),
             (allocator.calloc, 3.5, 2), (allocator.calloc, 4, 4.0), (allocator.realloc, 0, 8.5),
             (allocator.realloc, live, 8.5), (allocator.realloc, live, 16.0)]
    for call, *args in calls * 4:
        with pytest.raises(TypeError, match="must be (an int|ints), got"):
            call(*args)
    assert (_layout(allocator), allocator._cursor) == (layout, cursor)
    assert allocator.stats == stats
    assert _sampled_outcomes_add_up(allocator.stats)
    if allocator.enabled:
        assert allocator.pool.live_count == live_slots
    assert (len(guarded_calls) > 0) is (config == {"sample_rate": 1})
    assert allocator.usable_size(live) == 32
    assert all(isinstance(allocator.malloc(16), int) for _ in range(8))
    assert sink.getvalue() == ""


def _timer_declined():
    allocator, _ = make_allocator(policy="timer", timer_clock=lambda: 0.0, min_alignment=256)
    return allocator, allocator.malloc(40)


def _oversized():
    allocator, _ = make_allocator(min_alignment=256)
    return allocator, sampled_call(allocator, lambda: allocator.malloc(5000))


def _coverage_rejected():
    allocator, _ = make_allocator(slot_count=4, max_frames=1, min_alignment=256)

    def hot():
        return allocator.malloc(40)

    # As in test_hot_site_is_throttled_above_threshold: the fourth is rejected.
    ptr = [sampled_call(allocator, hot) for _ in range(4)][-1]
    assert allocator.stats.coverage_rejected == 1
    return allocator, ptr


def _pool_unavailable():
    allocator, _ = make_allocator(slot_count=2, min_alignment=256)
    for _ in range(2):
        guarded_malloc(allocator, 16)
    # A site that holds no slot passes coverage, and finds the pool full.
    ptr = sampled_call(allocator, lambda: allocator.malloc(40))
    assert allocator.stats.pool_unavailable == 1
    return allocator, ptr


def _tool_off():
    allocator, _ = make_allocator(min_alignment=256)
    allocator.destroy()
    return allocator, allocator.malloc(40)


@pytest.mark.parametrize("wasted", [
    _timer_declined, _oversized, _coverage_rejected, _pool_unavailable, _tool_off,
], ids=["timer-declined", "oversized", "coverage-rejected", "pool-unavailable", "tool-off"])
def test_a_wasted_sample_is_a_host_block_of_the_one_size_map(wasted):
    # The guarded path takes its fallbacks from the unhooked host, on the
    # maps the hooked entry points use: such a block is sized and freed
    # like any unsampled one, and is never taken for a guarded pointer.
    # Each allocator asks min_alignment=256, which is for guarded blocks
    # only: the host block keeps the host's 16.
    allocator, ptr = wasted()
    size = allocator.usable_size(ptr)
    assert not allocator.is_guarded(ptr)
    assert size in (40, 5000)
    assert FallbackAllocator.usable_size(allocator, ptr) == size
    stats = AllocatorStats(**vars(allocator.stats))
    allocator.free(ptr)
    assert allocator.stats == stats
    assert allocator.config.sink.getvalue() == ""
    for call in (allocator.free, allocator.usable_size):
        with pytest.raises(ValueError, match=f"0x{ptr:x}"):
            call(ptr)
    assert FallbackAllocator.malloc(allocator, size, 16) == ptr  # recycled by the host


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
    # The entry points are the host's own methods, bound to the
    # allocator (which is the host): the disabled tool adds zero
    # per-call work, not even the countdown.
    for name in ("malloc", "free", "usable_size"):
        entry = getattr(allocator, name)
        assert entry.__self__ is allocator
        assert entry.__func__ is getattr(FallbackAllocator, name)
    addr = allocator.malloc(64)
    assert not allocator.is_guarded(addr)


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
    ("sample_interval", float("inf")),
    ("sample_rate", 0),
    ("sample_rate", 2**62 + 1),
    ("sample_rate", 2.5),
    ("max_frames", 0),
    ("max_frames", -3),
    ("min_alignment", 8192),
    # Floats that pass the range checks.
    ("slot_count", 2.5),
    ("max_live", 1.5),
    ("max_frames", 2.5),
    ("min_alignment", 32.0),
    # A side by its name would place every block left; a float seed fails on ^.
    ("force_alignment_side", "right"),
    ("seed", 1.5),
    # A bool is an int: True would build a one-slot pool, sample at rate 1,
    # or stand for 1.0 in a float field.
    ("slot_count", True),
    ("max_live", True),
    ("max_frames", True),
    ("sample_rate", True),
    ("min_alignment", True),
    ("seed", False),
    ("process_sample_probability", True),
    ("coverage_threshold", True),
    ("sample_interval", True),
    # A truthy string would turn the flag on; the numbers would fail their
    # range checks with a bare TypeError.
    ("recoverable", "no"),
    ("enabled", "no"),
    ("process_sample_probability", "1"),
    ("coverage_threshold", None),
    ("sample_interval", "0.1"),
    # A sink with no write fails inside the first report; a clock that is
    # not callable fails inside the timer gate.
    pytest.param("sink", object(), id="sink-object"),
    ("timer_clock", 5),
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


def test_an_unseeded_launch_seeds_slot_order_from_the_time(monkeypatch):
    # Slot order comes from the launch's one seed, the time when none is
    # given, so unseeded processes do not all place blocks alike.
    def slot_order(now):
        monkeypatch.setattr(shim_module.time, "time_ns", lambda: now)
        allocator, _ = make_allocator(seed=None, slot_count=64)
        return list(allocator.pool._free_list)

    assert slot_order(1_700_000_000_000_000_001) != slot_order(1_700_000_000_000_000_002)
    assert slot_order(1_700_000_000_000_000_001) == slot_order(1_700_000_000_000_000_001)


# -- the inlined countdown ------------------------------------------------


# Skips from 1 call (a countdown run out from the start) up to 80,000:
# 128, 256 and 257 draw skips either side of 256, the largest int CPython
# caches, and 40,000 skips far past it.  A skip is at most 2 * rate
# calls, so 6 * rate calls hold at least three samples.
@pytest.mark.parametrize("rate", [1, 7, 128, 256, 257, 5000, 40_000])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sampled_calls_match_the_counter_sampler(seed, rate):
    allocator, _ = make_allocator(sample_rate=rate, seed=seed, max_frames=1)
    oracle = CounterSampler(rate, seed).want_to_sample
    malloc, free, stats = allocator.malloc, allocator.free, allocator.stats
    got, want = [], []
    for call in range(max(100_000, 6 * rate)):
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


def test_two_threads_keep_the_sampling_rate():
    # The countdown is unlocked, but its step is one C operation, so two
    # threads' decrements never overwrite each other; a race can only
    # take an extra sample (two threads run it out before either parks
    # it).  The realized rate must stay in gate 3a's band.
    allocator, _ = make_allocator(sample_rate=1000, seed=8, max_frames=1)
    per_thread = 100_000
    errors = []

    def worker():
        malloc, free = allocator.malloc, allocator.free
        try:
            for _ in range(per_thread):
                free(malloc(16))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(2)]
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
    rate = allocator.stats.sampled / (2 * per_thread)
    assert 0.0008 <= rate <= 0.0012, allocator.stats


def test_a_malloc_while_the_policy_decides_is_not_sampled_too():
    # Threads switch inside the policy, which is Python code.  A malloc
    # that runs there, as another thread's would, must count down from
    # the parked countdown instead of taking a second sample; the
    # policy's next skip then sets the countdown as on one thread.
    allocator, _ = make_allocator(sample_rate=1000)
    sampler = allocator._sampler
    next_skip, raced = sampler.next_skip, []

    def next_skip_while_another_thread_mallocs():
        if not raced:
            raced.append(None)
            raced.append(allocator.malloc(16))
        return next_skip()

    sampler.next_skip = next_skip_while_another_thread_mallocs
    ptrs = [allocator.malloc(16) for _ in range(2001)]
    assert len(raced) == 2 and not allocator.is_guarded(raced[1])
    assert allocator.stats.sampled == sum(map(allocator.is_guarded, ptrs)) >= 1


def test_the_largest_sample_rate_fits_the_countdown():
    # A skip of up to 2 * sample_rate calls is held as repeat(None,
    # skip - 1), whose counter is a C Py_ssize_t: 2**62 is the largest
    # rate whose every skip fits.
    rate = 2**62
    itertools.repeat(None, 2 * rate - 1)
    with pytest.raises(OverflowError):
        itertools.repeat(None, 2 * (rate + 1) - 1)
    allocator, _ = make_allocator(sample_rate=rate, seed=5)
    allocator.free(allocator.malloc(16))
    assert allocator.stats == AllocatorStats()


def test_a_clock_error_leaves_the_timer_gate_asked_again():
    # The countdown is rearmed before the clock is read: a clock that
    # raises once must not leave it parked, which would end sampling.
    reads, now = [], [0.0]

    def clock():
        reads.append(now[0])
        if len(reads) == 2:  # the first malloc's read; the gate's set-up is the first
            raise RuntimeError("clock failed")
        return now[0]

    allocator, _ = make_allocator(policy="timer", sample_interval=1.0, timer_clock=clock)
    with pytest.raises(RuntimeError, match="clock failed"):
        allocator.malloc(16)
    now[0] = 1.5
    assert allocator.is_guarded(allocator.malloc(16))
    assert len(reads) == 3
    assert allocator.stats.sampled == 1


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


def test_every_live_host_block_has_a_free_list():
    # A free appends to its key's list with no lock and never creates
    # one: the carve made it before the block was published, and no
    # list is ever removed.  A seeded mix of every entry point, with
    # the guarded path's host fallbacks, keeps both facts at every step.
    allocator, _ = make_allocator(slot_count=4, max_live=2)
    rng = random.Random(24)
    lists, live = {}, []

    def site(depth, call, *args):
        return site(depth - 1, call, *args) if depth else call(*args)

    for step in range(3000):
        roll = rng.random()
        size = 5000 if step % 9 == 0 else rng.choice((0, 16, 40, 100))
        if roll < 0.35 or not live:
            live.append(site(rng.randrange(4), allocator.malloc, size))
        elif roll < 0.45:
            live.append(site(rng.randrange(4), allocator.calloc, 2, size))
        elif roll < 0.6:
            ptr = live.pop(rng.randrange(len(live)))
            live.append(site(rng.randrange(4), allocator.realloc, ptr, size))
        else:
            allocator.free(live.pop(rng.randrange(len(live))))
        # Every request here asks the default alignment, so each key is its size.
        assert all(allocator._free.get(bucket.size) is bucket
                   for bucket in allocator._sizes.values()), step
        assert all(allocator._free.get(key) is bucket for key, bucket in lists.items()), step
        lists.update(allocator._free)
    stats = allocator.stats
    assert stats.guarded and stats.oversized and stats.coverage_rejected
    assert stats.pool_unavailable


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


# The sampled pair's Python-level calls: malloc, _guarded_malloc,
# next_skip (its draw inline), capture_trace, source_of, admit, acquire
# (the side's draw inline), protect, fill, store_alloc, compress_trace,
# the record's __init__, insert; then free, _guarded_free (the slot by
# address arithmetic), remove, capture_trace (an argument of release),
# release, protect, store_dealloc, compress_trace, the record's __init__.
GUARDED_PAIR_CALLS = 22

# The unsampled pair's: the hooked host's malloc and free, with the
# countdown and the pool-bounds check written into them.
UNSAMPLED_PAIR_CALLS = 2


def test_an_unsampled_pair_makes_one_python_call_per_entry_point():
    # The countdown is stepped in C: each malloc takes exactly one count
    # off it, and no step runs Python code.
    allocator, _ = make_allocator(sample_rate=10**9)
    allocator.free(allocator.malloc(64))  # carve once; the pairs below recycle
    malloc, free = allocator.malloc, allocator.free
    left = operator.length_hint(allocator._ticks)

    def pairs():
        for _ in range(600):
            free(malloc(64))

    _, calls = python_calls(pairs)
    assert calls[0] == "test_shim.py:pairs"
    assert len(calls[1:]) == 600 * UNSAMPLED_PAIR_CALLS
    assert calls[1:] == ["shim.py:malloc", "shim.py:free"] * 600
    assert left - operator.length_hint(allocator._ticks) == 600
    assert allocator.stats == AllocatorStats()


class _OnceLock:
    """A lock counting its holds; a hold that re-enters it fails."""

    def __init__(self, lock):
        self._lock = lock
        self.holds = 0

    def acquire(self, *args):
        assert self._lock.acquire(blocking=False), "lock re-entered"
        self.holds += 1
        return True

    def release(self):
        self._lock.release()

    def locked(self):
        return self._lock.locked()

    def __enter__(self):
        return self.acquire()

    def __exit__(self, *exc_info):
        self.release()


@pytest.mark.parametrize("hooked", [False, True], ids=["host", "hooked-host"])
def test_only_a_carve_takes_the_host_lock(hooked):
    # A recycled malloc/free pair is single dict and list operations,
    # atomic under the GIL, and takes no lock, as a production
    # allocator's per-thread cache takes none.  Each carve, a grow
    # included, holds the host lock once.
    arena = host_and_hooked()[hooked]
    lock = arena._lock = _OnceLock(arena._lock)
    sizes = (0, 16, 24, 100, 4096, 65 * arena.vm.page_size)  # the last one grows the arena
    blocks = []
    for carves, size in enumerate(sizes, 1):
        blocks.append(arena.malloc(size))
        assert lock.holds == carves, size
    for addr in blocks:
        arena.free(addr)
    for step in range(600):
        arena.free(arena.malloc(sizes[step % len(sizes)]))
    assert lock.holds == len(sizes), "a recycled pair took the host lock"
    assert not lock.locked()
    if hooked:
        assert arena.stats == AllocatorStats()


@pytest.mark.parametrize("hooked", [False, True], ids=["host", "hooked-host"])
def test_a_recycled_malloc_allocates_nothing(hooked):
    # A default-alignment malloc keys its free list on the int size and
    # stores that list in the size map: it builds no object, so blocks
    # held live after recycling cost the host no memory of its own.
    # The hooked host runs at sample_rate=10**9: its countdown makes no
    # int at any rate.
    arena = host_and_hooked()[hooked]
    # Warm-up: 3,000 live blocks grow the size map past what the measured
    # run needs, and their free list to more than it takes, so neither
    # is resized while tracemalloc watches.
    blocks = [arena.malloc(24) for _ in range(3000)]
    for addr in blocks:
        arena.free(addr)
    # CPython reuses up to 2,000 freed 2-tuples out of tracemalloc's
    # sight; holding more makes any pair a malloc builds a traced block.
    pairs = [(n, -n) for n in range(2500)]
    tracemalloc.start()
    try:
        live = [arena.malloc(24) for _ in range(1000)]
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert set(live) <= set(blocks) and len(pairs) == 2500
    traces = snapshot.filter_traces([tracemalloc.Filter(True, shim_module.__file__)]).traces
    assert len(traces) == 0, [str(trace.traceback) for trace in traces][:5]


def test_each_guarded_call_holds_the_pool_lock_once():
    # As GWP-ASan's allocate and deallocate hold PoolMutex once around
    # reserveSlot and freeSlot: the pool's acquire and release run under
    # the shim's hold, and every outcome of a sample takes one hold.
    allocator, _ = make_allocator(slot_count=4, max_live=2)
    lock = allocator.pool.lock = _OnceLock(allocator.pool.lock)
    live = []
    for step in range(200):
        holds, sampled = lock.holds, allocator.stats.sampled
        ptr = allocator.malloc(5000 if step % 7 == 0 else 64)
        assert lock.holds - holds == allocator.stats.sampled - sampled
        live.append(ptr)
        if len(live) > 3:
            ptr = live.pop(0)
            holds = lock.holds
            if allocator.is_guarded(ptr):
                allocator.usable_size(ptr)
            allocator.free(ptr)
            assert lock.holds - holds == 2 * allocator.is_guarded(ptr)
    stats = allocator.stats
    assert stats.guarded and stats.oversized and stats.coverage_rejected
    assert _sampled_outcomes_add_up(stats)


def test_a_guarded_pair_makes_a_fixed_number_of_python_calls():
    allocator, _ = make_allocator(slot_count=16)
    pairs = []
    for _ in range(60):
        # One call site for every pair: after the first, the trace, site
        # and probe memos all hit.
        ptr, malloc_calls = python_calls(allocator.malloc, 64)
        if not allocator.is_guarded(ptr):
            allocator.free(ptr)
            continue
        _, free_calls = python_calls(allocator.free, ptr)
        pairs.append(malloc_calls + free_calls)
    assert len(pairs) >= 20
    for calls in pairs[1:]:
        assert len(calls) == GUARDED_PAIR_CALLS, " ".join(calls)
    assert not any(name.startswith("enum.py:") for calls in pairs for name in calls)


# A declined sample goes on as the host inside malloc, with no host call:
# a coverage-rejected one makes malloc, _guarded_malloc, next_skip,
# capture_trace, source_of and admit; a timer not yet due makes malloc,
# _guarded_malloc and the gate's want_to_sample (its clock is builtin).
COVERAGE_REJECTED_MALLOC_CALLS = 6
UNDUE_TIMER_MALLOC_CALLS = 3


def test_a_declined_malloc_makes_no_host_call():
    # One site: once two of four slots hold its blocks, utilization is at
    # the threshold and the site is live, so its next sample is rejected.
    allocator, _ = make_allocator(slot_count=4, coverage_threshold=0.5)
    for addr in [FallbackAllocator.malloc(allocator, 64) for _ in range(8)]:
        allocator.free(addr)  # host blocks to recycle: no carve
    for _ in range(16):
        rejected = allocator.stats.coverage_rejected
        ptr, calls = python_calls(allocator.malloc, 64)
        if allocator.stats.coverage_rejected > rejected:
            break
        if not allocator.is_guarded(ptr):
            allocator.free(ptr)
    else:
        raise AssertionError("no sample was coverage-rejected")
    assert len(calls) == COVERAGE_REJECTED_MALLOC_CALLS, " ".join(calls)
    assert calls[-1] == "coverage.py:admit" and not allocator.is_guarded(ptr)

    timer, _ = make_allocator(policy="timer", sample_interval=3600.0)
    timer.free(timer.malloc(64))  # carve once; the traced malloc recycles
    ptr, calls = python_calls(timer.malloc, 64)
    assert calls == ["shim.py:malloc", "shim.py:_guarded_malloc", "sampler.py:want_to_sample"]
    assert len(calls) == UNDUE_TIMER_MALLOC_CALLS
    assert not timer.is_guarded(ptr) and timer.stats == AllocatorStats()


_PACKAGE_DIR = shim_module.__file__.rsplit("/", 1)[0]


def _code_name(code):
    return f"{code.co_filename.rsplit('/', 1)[-1]}:{code.co_name}"


def _is_tool_code(code):
    # The record's __init__ is a dataclass's, compiled from a string.
    return code.co_filename.startswith(_PACKAGE_DIR) or code.co_filename == "<string>"


def _guarded_pair_opcodes(counted):
    """Bytecodes a guarded 64 B malloc and free run in code counted accepts.

    At max_frames=4 under five at_depth frames, so pytest's own depth
    does not matter; the second guarded pair at one site, so the trace
    and site memos hit, as on a warm process.
    """
    alloc = GuardianAllocator(GuardianConfig(sample_rate=1, seed=4, max_frames=4,
                                             sink=io.StringIO()))
    for traced in (False, True):
        while operator.length_hint(alloc._ticks):  # the next malloc is not sampled
            alloc.free(at_depth(4, alloc.malloc, 64))
        if not traced:
            alloc.free(at_depth(4, alloc.malloc, 64))
    addr, malloc_count = traced_opcodes(counted, at_depth, 4, alloc.malloc, 64)
    assert alloc.is_guarded(addr)
    return malloc_count + traced_opcodes(counted, at_depth, 4, alloc.free, addr)[1]


# The first row of a cost ledger: a guarded pair's bytecodes by code
# object, counted on CPython 3.11.  vmem.py:protect runs twice, and the
# record's __init__, capture_trace and compress_trace once per entry
# point.
GUARDED_PAIR_OPCODES = {(3, 11): {
    "<string>:__init__": 64,
    "coverage.py:admit": 7,
    "coverage.py:insert": 16,
    "coverage.py:remove": 20,
    "coverage.py:source_of": 8,
    "metadata.py:capture_trace": 242,
    "metadata.py:compress_trace": 16,
    "pool.py:acquire": 152,
    "pool.py:release": 56,
    "pool.py:store_alloc": 29,
    "pool.py:store_dealloc": 34,
    "sampler.py:next_skip": 55,
    "shim.py:_guarded_free": 77,
    "shim.py:_guarded_malloc": 147,
    "shim.py:free": 30,
    "shim.py:malloc": 21,
    "vmem.py:fill": 64,
    "vmem.py:protect": 129,
}}


def test_a_guarded_pair_runs_pinned_bytecode_counts():
    pinned = GUARDED_PAIR_OPCODES.get(sys.version_info[:2])
    if pinned is None:
        pytest.skip("bytecode counts are pinned for CPython 3.11 only")
    ran = set()
    _guarded_pair_opcodes(lambda code: _is_tool_code(code) and ran.add(_code_name(code)))
    counts = {name: _guarded_pair_opcodes(lambda code: _is_tool_code(code)
                                          and _code_name(code) == name)
              for name in sorted(ran)}
    assert counts == pinned
    assert _guarded_pair_opcodes(_is_tool_code) == sum(pinned.values()) == 1167


# An accessible vm.read or vm.write runs in its own frame alone: the region
# lookup, the protection scan and the copy are inline.
@pytest.mark.parametrize("size", [64, 3 * 4096 + 100], ids=["one-page", "multi-page"])
def test_an_accessible_vm_access_is_one_python_call(size):
    host, _ = make_allocator(sample_rate=10**9)
    blocks = [(host.vm, host.malloc(size))]
    if size <= 4096:  # a guarded block fits in its slot's page
        guarded, _ = make_allocator()
        blocks.append((guarded.vm, guarded_malloc(guarded, size)))
    data = random.Random(size).randbytes(size)
    for vm, ptr in blocks:
        assert ((ptr + size - 1) // vm.page_size > ptr // vm.page_size) == (size > 4096)
        _, write_calls = python_calls(vm.write, ptr, data)
        result, read_calls = python_calls(vm.read, ptr, size)
        assert result == data
        assert (write_calls, read_calls) == (["vmem.py:write"], ["vmem.py:read"])


# Counted on CPython 3.11, for a 16 B access.  The fault branch for a
# span's first byte runs only after the protection scan has failed, so an
# accessible access pays nothing for it.
ACCESS_OPCODES = {(3, 11): {"plain read": 50, "plain write": 53,
                            "guarded read": 77, "guarded write": 80}}


def test_accessible_vm_accesses_run_pinned_bytecode_counts():
    pinned = ACCESS_OPCODES.get(sys.version_info[:2])
    if pinned is None:
        pytest.skip("bytecode counts are pinned for CPython 3.11 only")
    host, _ = make_allocator(sample_rate=10**9)
    guarded, _ = make_allocator()
    codes = (VirtualMemory.read.__code__, VirtualMemory.write.__code__)
    data = bytes(range(16))
    counts = {}
    for block, alloc, ptr in (("plain", host, host.malloc(16)),
                              ("guarded", guarded, guarded_malloc(guarded, 16))):
        _, counts[f"{block} write"] = traced_opcodes(codes.__contains__, alloc.vm.write, ptr, data)
        result, counts[f"{block} read"] = traced_opcodes(codes.__contains__, alloc.vm.read, ptr, 16)
        assert result == data
    assert counts == pinned


def test_high_rate_serves_from_fallback():
    allocator, _ = make_allocator(sample_rate=10**9)
    addrs = [allocator.malloc(16) for _ in range(50)]
    assert all(not allocator.is_guarded(a) for a in addrs)
    assert all(FallbackAllocator.usable_size(allocator, a) == 16 for a in addrs)
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
    sources = set()
    peak = 0
    for _ in range(3000):
        depth = rng.randrange(12)
        addr = site(depth)
        ring.append((addr, depth))
        if allocator.is_guarded(addr):
            held[depth] += 1
            slot_index = allocator.pool.classify_address(addr).slot_index
            sources.add(allocator.pool.slots[slot_index].coverage_source)
        peak = max(peak, held[depth])
        if len(ring) > 240:
            addr, depth = ring.pop(0)
            held[depth] -= allocator.is_guarded(addr)
            allocator.free(addr)
    for addr, _ in ring:
        allocator.free(addr)
    assert allocator.pool.live_count == 0
    assert len(sources) == 12
    assert not any(allocator.coverage.query(source) for source in sources)
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
    guard = guard_page_addr(allocator.pool, 1)
    with pytest.raises(SegmentationFault):
        allocator.free(guard)
    assert allocator.stats.invalid_free == 1
    assert "Invalid-free at" in sink.getvalue()
    assert "no associated allocation" in sink.getvalue()


def test_invalid_free_into_a_never_used_slot_names_no_allocation():
    # A never-used slot holds no allocation, so the report names none,
    # as a fault on that page does.
    allocator, sink = make_allocator(slot_count=4)
    assert allocator.pool.slots[0].state is SlotState.FREE
    with pytest.raises(SegmentationFault):
        allocator.free(slot_page_addr(allocator.pool, 0) + 16)
    report = parse_report(sink.getvalue())
    assert report.kind is ReportKind.INVALID_FREE
    assert report.allocation_address is None
    assert report.metadata_lost
    assert "no associated allocation" in sink.getvalue()
    assert allocator.stats.invalid_free == 1


@pytest.mark.parametrize("recoverable", [False, True], ids=["fatal", "recoverable"])
def test_double_free_access_stack_is_the_free_call_site(recoverable):
    allocator, sink = make_allocator(recoverable=recoverable)
    addr = guarded_malloc(allocator, 41)
    raised = 0
    for _ in range(2):  # one call site, so both frees see the same stack
        try:
            allocator.free(addr)
        except SegmentationFault:
            raised += 1
    assert raised == (0 if recoverable else 1)
    report = parse_report(sink.getvalue())
    assert report.kind is ReportKind.DOUBLE_FREE
    assert report.access_trace
    assert report.access_trace == report.dealloc_trace


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


@pytest.mark.parametrize("recoverable", [False, True], ids=["fatal", "recoverable"])
def test_interior_free_of_a_freed_guarded_block_is_invalid(recoverable):
    # The start of the block is checked before its state: freeing p + 1
    # after p is an invalid free, not a double free.
    allocator, sink = make_allocator(slot_count=4, recoverable=recoverable)
    addr = guarded_malloc(allocator, 41)
    allocator.free(addr)
    if recoverable:
        allocator.free(addr + 1)
    else:
        with pytest.raises(SegmentationFault):
            allocator.free(addr + 1)
    report = parse_report(sink.getvalue())
    assert report.kind is ReportKind.INVALID_FREE
    assert report.access_address == addr + 1
    assert report.allocation_address == addr
    assert (allocator.stats.invalid_free, allocator.stats.double_free) == (1, 0)


@pytest.mark.parametrize("recoverable", [False, True], ids=["fatal", "recoverable"])
def test_free_error_counters_count_emitted_reports(recoverable):
    allocator, sink = make_allocator(slot_count=4, recoverable=recoverable)
    addr = guarded_malloc(allocator, 41)
    allocator.free(addr)
    for bad_free in (addr, addr, guard_page_addr(allocator.pool, 0)):
        if recoverable:
            allocator.free(bad_free)  # reports once, then swallows
        else:
            with pytest.raises(SegmentationFault):
                allocator.free(bad_free)
    emitted = allocator.reporter.reports_emitted
    assert emitted == sink.getvalue().count(REPORT_HEADER) == (1 if recoverable else 3)
    assert allocator.stats.double_free + allocator.stats.invalid_free == emitted
    assert allocator.stats.double_free == (1 if recoverable else 2)


# -- free's check against the earlier rule ----------------------------------


def _pool_with_every_slot_state(seed, recoverable):
    """Five guarded blocks in eight slots, two of them freed: every state,
    with sides drawn by the seeded pool.  The same seed builds the same pool."""
    allocator, _ = make_allocator(slot_count=8, seed=seed, recoverable=recoverable,
                                  coverage_threshold=1.0)
    rng = random.Random(seed)
    blocks = [guarded_malloc(allocator, rng.randrange(1, 3000)) for _ in range(5)]
    for addr in blocks[:2]:
        allocator.free(addr)
    return allocator


def _free_probes(pool):
    """Each page's start, start + 1, last byte and end, and on a slot page
    its block's start, start + 1 and last byte, inside the pool."""
    probes = set()
    for page_index in range(2 * pool.slot_count + 1):
        page = pool.base + page_index * pool.page_size
        offsets = {0, 1, pool.page_size - 1, pool.page_size}
        if page_index & 1:
            record = pool.slots[page_index >> 1]
            offsets |= {record.user_offset, record.user_offset + 1,
                        record.user_offset + max(record.user_size, 1) - 1}
        probes.update(page + offset for offset in offsets)
    return sorted(addr for addr in probes if addr < pool.base + pool.region_length)


def _earlier_free_rule(allocator, addr):
    """What free did by classify_address: (outcome, slot named)."""
    pool = allocator.pool
    classification = pool.classify_address(addr)
    kind, slot_index = classification.kind, classification.slot_index
    if (kind is AddressKind.ALLOCATED_SLOT
            and (addr - pool.base) % pool.page_size == pool.slots[slot_index].user_offset):
        return "release", slot_index
    if allocator.reporter.disabled:
        return "swallowed", None
    if kind is AddressKind.QUARANTINED_SLOT and addr == pool.user_address(slot_index):
        return "double-free", slot_index
    return "invalid-free", None if kind is AddressKind.FREE_SLOT else slot_index


def _free_outcome(allocator, addr):
    """What free does now: (outcome, slot named), read off the pool and reporter."""
    pool, reporter = allocator.pool, allocator.reporter
    states = [record.state for record in pool.slots]
    emitted, counts = reporter.reports_emitted, (allocator.stats.double_free,
                                                 allocator.stats.invalid_free)
    try:
        allocator.free(addr)
        raised = False
    except SegmentationFault:
        raised = True
    moved = [i for i, record in enumerate(pool.slots) if record.state is not states[i]]
    if moved:
        assert not raised and reporter.reports_emitted == emitted
        assert len(moved) == 1 and pool.slots[moved[0]].state is SlotState.QUARANTINED
        return "release", moved[0]
    if reporter.reports_emitted == emitted:
        assert not raised
        return "swallowed", None
    assert raised != allocator.config.recoverable
    report = reporter.last_report
    named = report.allocation_address
    outcome = {ReportKind.DOUBLE_FREE: "double-free",
               ReportKind.INVALID_FREE: "invalid-free"}[report.kind]
    kinds = (allocator.stats.double_free - counts[0], allocator.stats.invalid_free - counts[1])
    assert kinds == ((1, 0) if outcome == "double-free" else (0, 1))
    return outcome, None if named is None else (named - pool.base) // pool.page_size >> 1


@pytest.mark.parametrize("mode", ["fatal", "recoverable", "destroyed"])
def test_free_checks_its_block_as_classify_address_did(mode):
    # free finds the slot by address arithmetic and reads its record; the
    # earlier rule classified every guarded free.  Each probe frees into
    # a fresh copy of the same seeded pool, so every outcome is a first.
    seen, sides, states = set(), set(), set()
    for seed in (1, 2, 3, 4):
        probes = _free_probes(_pool_with_every_slot_state(seed, mode == "recoverable").pool)
        for addr in probes:
            allocator = _pool_with_every_slot_state(seed, mode == "recoverable")
            if mode == "destroyed":
                allocator.destroy()
            want = _earlier_free_rule(allocator, addr)
            assert _free_outcome(allocator, addr) == want, (seed, hex(addr))
            seen.add(want[0])
            states.update(record.state for record in allocator.pool.slots)
            sides.update(record.user_offset > 0 for record in allocator.pool.slots
                         if record.state is not SlotState.FREE)
    assert states == set(SlotState) and sides == {False, True}
    if mode == "destroyed":
        assert seen == {"release", "swallowed"}
    else:
        assert seen == {"release", "double-free", "invalid-free"}


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
        allocator.vm.read(slot_page_addr(pool, slot_index) + pool.page_size, 1)
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
    assert pool.snapshot(slot_index, seq) is None


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


# Each way a recoverable report can be raised on a freed guarded pointer.
RECOVERABLE_SOURCES = {
    "guard-fault": lambda allocator, addr: allocator.vm.read(addr, 8) == b"\x00" * 8,
    "double-free": lambda allocator, addr: allocator.free(addr) is None,
    "usable-size": lambda allocator, addr: allocator.usable_size(addr) == 41,
}


@pytest.mark.parametrize("source", RECOVERABLE_SOURCES)
def test_recovered_fault_stops_future_guarding(source):
    allocator, sink = make_allocator(recoverable=True)
    addr = guarded_malloc(allocator, 41)
    allocator.free(addr)
    assert RECOVERABLE_SOURCES[source](allocator, addr)  # reported, recovered
    assert sink.getvalue().count(REPORT_HEADER) == 1
    assert allocator.reporter.disabled
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
    host_ptr = FallbackAllocator.malloc(allocator, 32, 16)
    with pytest.raises(ValueError):
        FallbackAllocator.usable_size(allocator, host_ptr + 1)
    with pytest.raises(ValueError):
        allocator.usable_size(host_ptr + 1)


def _after_recoverable_report():
    allocator, sink = make_allocator(slot_count=4, recoverable=True)
    first, addr = guarded_malloc(allocator, 16), guarded_malloc(allocator, 41)
    allocator.free(first)
    allocator.free(addr)
    allocator.free(first)  # a double free: reported, and the tool turns off
    return allocator, sink, addr


def _after_destroy():
    allocator, sink = make_allocator(slot_count=4)
    addr = guarded_malloc(allocator, 41)
    allocator.free(addr)
    allocator.destroy()
    return allocator, sink, addr


@pytest.mark.parametrize("turned_off", [_after_recoverable_report, _after_destroy],
                         ids=["recoverable-report", "destroy"])
def test_usable_size_of_a_freed_guarded_pointer_is_not_reported_once_the_tool_is_off(
        turned_off, monkeypatch):
    allocator, sink, addr = turned_off()
    assert allocator.reporter.disabled
    text = sink.getvalue()
    captures = []
    real_capture = reporter_module.capture_trace
    monkeypatch.setattr(reporter_module, "capture_trace",
                        lambda *args: captures.append(args) or real_capture(*args))
    assert allocator.usable_size(addr) == 41  # the freed request's size
    assert captures == []
    assert sink.getvalue() == text


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
    allocator.free(addr)  # a double free: the tool is off, so it is swallowed
    assert sink.getvalue() == ""
    assert allocator.stats.double_free == 0
