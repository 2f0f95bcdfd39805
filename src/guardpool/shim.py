"""The allocator: the host with the sampling check written in, and free checks.

GuardianAllocator is the host allocator (FallbackAllocator, a
bump-plus-freelist arena in the same modeled address space) with the
sampling check written into its own fast paths, as GWP-ASan is built
into Scudo's: an unsampled malloc or free runs one Python frame of
single dict and list operations, atomic under the GIL; it takes no lock
and, on the default alignment, builds no object (see
FallbackAllocator).  malloc first steps a countdown kept on the
allocator: an itertools.repeat, whose C counter next() decrements in one
operation, atomic under the GIL, that makes no int, as GWP-ASan's hook
decrements a plain thread-local integer.  Until it runs out, malloc
goes on as the host's malloc.  When it runs out, malloc asks the policy
in sampler.py, and sampled requests that fit a page go to the guarded
pool, get their stack captured and recorded, and are registered with
the coverage filter.  free pops the pointer's free list
from the host's size map and appends the pointer to it; only on a miss
does it compare the pointer with the pool bounds cached at enable time.
Guarded frees are validated, so double frees and mid-object frees are
detected without any page fault.

Per-process enablement happens at construction: a disabled allocator
reserves no pool pages and binds FallbackAllocator's methods as its
entry points, making the disabled tool bit-identical to no tool at all.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional, TextIO

from .coverage import CoverageFilter, source_of
from .metadata import capture_trace
from .metadata import decompress_trace  # noqa: F401  perfbench/tracer.py wraps it here
from .pool import AddressKind, AlignmentSide, GuardedPool, PoolUnavailableError
from .reporter import Reporter, ReportKind
from .sampler import (
    CounterSampler,
    TimerGate,
    Xorshift64Star,
    process_sampling_decision,
    splitmix64,
)
from .vmem import PROT_READ, PROT_WRITE, AccessType, VirtualMemory

_MASK64 = (1 << 64) - 1

# malloc's countdowns: next(countdown, True) is True once it runs out, so a
# skip of S calls is repeat(None, S - 1).  It is parked on the endless one
# while the policy decides; the timer's is run out: each malloc asks its gate.
_PARKED = itertools.repeat(None)
_RUN_OUT = itertools.repeat(None, 0)


class _FreeList(list):  # one key's recycled blocks
    __slots__ = ("size",)  # the size they were asked at


class FallbackAllocator:
    """Host allocator stand-in: bump arena with exact-size free lists.

    Recycles freed blocks without scrubbing them, like a production
    malloc fast path; newly carved arena space is zero because the
    backing reservation is anonymous.  The default alignment, 16, keys
    its free list on the int size, any other on (size, alignment); the
    size map holds each live block's list itself, as Scudo's chunk header
    holds its size class, so free reaches the list with no lookup.

    Threads: recycling takes no lock.  Its steps (the free list's get,
    pop and append, the size map's store and pop) are each one builtin
    dict or list operation (_FreeList overrides none), atomic under the
    GIL; a pop that loses the last block to another thread raises
    IndexError, and malloc carves instead.  The carve holds the host
    lock (it moves the cursor, and its grow runs vm.reserve's Python)
    and makes the key's free list before it publishes the block; no
    free list is ever removed.
    """

    def __init__(self, vm: VirtualMemory, initial_pages: int = 64):
        self.vm = vm
        self._lock = threading.Lock()
        self._cursor = 0
        self._limit = 0
        self._grow_pages = max(initial_pages, 1)
        self._sizes: dict[int, _FreeList] = {}  # addr -> its key's free list
        self._free: dict[int | tuple[int, int], _FreeList] = {}  # never loses a key

    def malloc(self, size: int, alignment: int = 16) -> int:
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        if alignment < 1 or alignment & (alignment - 1):
            if alignment:
                raise ValueError(f"alignment must be a power of two, got {alignment}")
            alignment = 16  # 0 asks the default
        key = size if alignment == 16 else (size, alignment)
        bucket = self._free.get(key)
        if bucket:
            try:
                addr = bucket.pop()
            except IndexError:  # another thread took the last block
                return self._carve(key, size, alignment)
            self._sizes[addr] = bucket
            return addr
        return self._carve(key, size, alignment)

    def free(self, addr: int) -> None:
        if not addr:
            return
        bucket = self._sizes.pop(addr, None)
        if bucket is None:
            raise ValueError(f"0x{addr:x} is not a live allocation")
        bucket.append(addr)

    def usable_size(self, addr: int) -> int:
        try:
            return self._sizes[addr].size
        except KeyError:
            raise ValueError(f"0x{addr:x} is not a live allocation") from None

    def _carve(self, key: int | tuple[int, int], size: int, alignment: int) -> int:
        """A fresh block from the arena's end, carved under the host lock."""
        if not isinstance(size, int):  # a float cursor would make every later address one
            raise TypeError(f"size must be an int, got {size!r}")
        span = max(size, 1)
        with self._lock:
            addr = -(-self._cursor // alignment) * alignment
            if addr + span > self._limit:
                self._grow(span + alignment)
                addr = -(-self._cursor // alignment) * alignment
            self._cursor = addr + span
            bucket = self._free.get(key)
            if bucket is None:
                bucket = self._free[key] = _FreeList()
                bucket.size = size
            self._sizes[addr] = bucket
        return addr

    def _grow(self, need: int) -> None:
        pages = max(self._grow_pages, -(-need // self.vm.page_size))
        base = self.vm.reserve(pages, PROT_READ | PROT_WRITE)
        self._cursor = base
        self._limit = base + pages * self.vm.page_size
        self._grow_pages *= 2


@dataclass
class GuardianConfig:
    """Everything a deployment tunes, with small-test-friendly defaults.

    The allocator checks the whole config before its launch decision,
    so a bad value is rejected on every launch, enabled or not.
    """

    slot_count: int = 16
    max_live: Optional[int] = None
    quarantine_min_slots: int = 0  # unread; perfbench/workloads.py (sampled) passes it
    metadata_capacity: Optional[int] = None  # unread; perfbench/workloads.py (sampled) passes it
    max_frames: int = 64
    policy: str = "counter"  # "counter" or "timer"
    sample_rate: int = 5000
    sample_interval: float = 0.1
    timer_clock: Callable[[], float] = time.monotonic  # the timer policy's clock
    process_sample_probability: float = 1.0
    seed: Optional[int] = None
    recoverable: bool = False
    min_alignment: int = 16
    force_alignment_side: Optional[AlignmentSide] = None
    coverage_threshold: float = 0.75
    sink: Optional[TextIO] = None
    enabled: bool = True  # False models running with no tool linked in

    def validate(self) -> None:
        # Int fields are type-checked too: a float passes the range checks,
        # then fails inside the pool or caps nothing (max_frames=2.5 never
        # equals a frame count, max_live=1.5 lets 2 blocks live, seed=1.5
        # fails on ^); a side of "right" would place every block left.  A
        # string flag is truthy ("no" turns it on); a string or None float
        # fails the range checks with a bare TypeError.
        if self.seed is not None and not isinstance(self.seed, int):
            raise ValueError(f"seed must be None or an int, got {self.seed!r}")
        for name in ("recoverable", "enabled"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)!r}")
        for name in ("process_sample_probability", "coverage_threshold", "sample_interval"):
            if not isinstance(getattr(self, name), (int, float)):
                raise ValueError(f"{name} must be an int or a float, got {getattr(self, name)!r}")
        if not isinstance(self.force_alignment_side, (AlignmentSide, type(None))):
            raise ValueError("force_alignment_side must be None or an AlignmentSide,"
                             f" got {self.force_alignment_side!r}")
        if not isinstance(self.slot_count, int) or self.slot_count < 1:
            raise ValueError(f"slot_count must be an int >= 1, got {self.slot_count!r}")
        if not isinstance(self.max_frames, int) or self.max_frames < 1:
            raise ValueError(f"max_frames must be an int >= 1, got {self.max_frames!r}")
        if self.max_live is not None and (not isinstance(self.max_live, int)
                                          or not 1 <= self.max_live <= self.slot_count):
            raise ValueError(
                f"max_live must be an int in [1, {self.slot_count}], got {self.max_live!r}"
            )
        if not 0.0 <= self.process_sample_probability <= 1.0:
            raise ValueError(
                "process_sample_probability must be in [0, 1],"
                f" got {self.process_sample_probability}"
            )
        if not 0.0 < self.coverage_threshold <= 1.0:
            raise ValueError(
                f"coverage_threshold must be in (0, 1], got {self.coverage_threshold}"
            )
        if self.policy not in ("counter", "timer"):
            raise ValueError(f"policy must be 'counter' or 'timer', got {self.policy!r}")
        # The countdown's C Py_ssize_t counter holds up to 2*sample_rate - 1.
        if not isinstance(self.sample_rate, int) or not 1 <= self.sample_rate <= 2**62:
            raise ValueError(f"sample_rate must be an int in [1, 2**62], got {self.sample_rate!r}")
        if not (math.isfinite(self.sample_interval) and self.sample_interval > 0):
            raise ValueError(
                f"sample_interval must be positive and finite, got {self.sample_interval}")
        if (not isinstance(self.min_alignment, int) or self.min_alignment < 1
                or self.min_alignment & (self.min_alignment - 1)):
            raise ValueError(
                f"min_alignment must be an int power of two, got {self.min_alignment!r}")
        if self.sink is not None and not callable(getattr(self.sink, "write", None)):
            raise ValueError(f"sink must be None or have a callable write, got {self.sink!r}")
        if not callable(self.timer_clock):
            raise ValueError(f"timer_clock must be callable, got {self.timer_clock!r}")


@dataclass
class AllocatorStats:
    """Slow-path counters only: the unsampled path is deliberately unobserved."""

    sampled: int = 0
    guarded: int = 0
    pool_unavailable: int = 0
    oversized: int = 0
    coverage_rejected: int = 0
    double_free: int = 0
    invalid_free: int = 0


class GuardianAllocator(FallbackAllocator):
    """The user-facing allocator: malloc/calloc/realloc/free/usable_size.

    It is the host allocator with the sampling check written into its
    fast paths.  Every host block, sampled or not, lives in the one size
    map; the guarded path takes its host blocks from
    ``FallbackAllocator.malloc(self, ...)``, the host without the check.
    """

    def __init__(self, config: Optional[GuardianConfig] = None, vm: Optional[VirtualMemory] = None):
        self.config = config or GuardianConfig()
        self.config.validate()
        vm = vm if vm is not None else VirtualMemory()
        if self.config.min_alignment > vm.page_size:
            raise ValueError(
                f"min_alignment must be at most the page size ({vm.page_size}),"
                f" got {self.config.min_alignment}"
            )
        super().__init__(vm)
        self.fallback = self  # the host itself; perfbench's tracer patches it
        self.stats = AllocatorStats()

        self.pool: Optional[GuardedPool] = None
        self.coverage: Optional[CoverageFilter] = None
        self.reporter: Optional[Reporter] = None
        self._sampler = None
        self._pool_lo = self._pool_hi = 0  # pool bounds: empty until enabled

        # One seed for the launch decision, the skip lengths and slot placement.
        seed = self.config.seed if self.config.seed is not None else time.time_ns()
        launch_rng = Xorshift64Star(splitmix64((seed ^ 0x70726F63) & _MASK64))
        if self.config.enabled and process_sampling_decision(
            self.config.process_sample_probability, launch_rng
        ):
            try:
                self._enable(seed)
            except PoolUnavailableError:
                # No pool, no tool: behave exactly as if sampling had
                # been disabled for this launch.
                self.pool = None
        self.enabled = self.pool is not None
        self.store = self.pool  # the record store; perfbench's tracer patches it
        if not self.enabled:
            self._bind_passthrough()

    def _enable(self, seed: int) -> None:
        cfg = self.config
        self.pool = GuardedPool(self.vm, cfg.slot_count, cfg.max_live, seed,
                                cfg.force_alignment_side)
        self.coverage = CoverageFilter(utilization_threshold=cfg.coverage_threshold)
        self.reporter = Reporter(self.pool, cfg.max_frames, cfg.recoverable, cfg.sink)
        self.reporter.install(self.vm)
        self._min_alignment = cfg.min_alignment
        self._max_frames = cfg.max_frames
        if cfg.policy == "counter":
            self._sampler = CounterSampler(cfg.sample_rate, seed)
            self._ticks = itertools.repeat(None, self._sampler.next_skip() - 1)
        else:
            self._sampler = TimerGate(cfg.sample_interval, cfg.timer_clock)
            self._ticks = _RUN_OUT
        self._pool_lo = self.pool.base
        self._pool_hi = self.pool.base + self.pool.region_length

    def _bind_passthrough(self) -> None:
        # A disabled allocator is the unhooked host: its entry points are
        # the host's own methods bound to it, so "tool present but off"
        # costs one attribute lookup.
        self.malloc = FallbackAllocator.malloc.__get__(self)
        self.free = FallbackAllocator.free.__get__(self)
        self.usable_size = FallbackAllocator.usable_size.__get__(self)

    # -- allocation entry points ------------------------------------------

    def malloc(self, size: int, alignment: int = 0) -> int:
        if next(self._ticks, True):  # the countdown ran out: park it, ask the policy
            self._ticks = _PARKED
            return self._guarded_malloc(size, alignment)
        # The host's malloc from here on, as in FallbackAllocator.malloc;
        # the host's default alignment, 16, needs no power-of-two check.
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        if not alignment:
            alignment = 16
        elif alignment < 1 or alignment & (alignment - 1):
            raise ValueError(f"alignment must be a power of two, got {alignment}")
        key = size if alignment == 16 else (size, alignment)
        bucket = self._free.get(key)
        if bucket:
            try:
                addr = bucket.pop()
            except IndexError:  # another thread took the last block
                return self._carve(key, size, alignment)
            self._sizes[addr] = bucket
            return addr
        return self._carve(key, size, alignment)

    def calloc(self, count: int, size: int) -> int:
        if count < 0 or size < 0:
            raise ValueError("calloc arguments must be non-negative")
        total = count * size
        if not isinstance(total, int):  # before a recycled block is handed out
            raise TypeError(f"calloc arguments must be ints, got {count!r} and {size!r}")
        addr = self.malloc(total)
        # Guarded slots are scrubbed on acquire; recycled host blocks
        # are not, so calloc zeroes explicitly there.
        if total and not self._pool_lo <= addr < self._pool_hi:
            self.vm.fill(addr, total, 0)
        return addr

    def realloc(self, addr: int, size: int) -> int:
        """Move-based realloc: fresh sampling decision for the new block."""
        if not isinstance(size, int):  # before a recycled block is handed out
            raise TypeError(f"size must be an int, got {size!r}")
        if not addr:
            return self.malloc(size)
        if self._pool_lo <= addr < self._pool_hi:
            old_size, live = self._guarded_size(addr)
            if not live:
                # Reported and recovered: the freed block is neither
                # read nor freed again.
                return self.malloc(size)
        else:
            old_size = FallbackAllocator.usable_size(self, addr)
        new_addr = self.malloc(size)
        copy = min(old_size, size)
        if copy:
            self.vm.write(new_addr, self.vm.read(addr, copy))
        self.free(addr)
        return new_addr

    def free(self, addr: int) -> None:
        # The host's free first: a host block is the common case.
        bucket = self._sizes.pop(addr, None)
        if bucket is not None:
            bucket.append(addr)
            return
        if self._pool_lo <= addr < self._pool_hi:
            self._guarded_free(addr)
        elif addr:
            raise ValueError(f"0x{addr:x} is not a live allocation")

    def usable_size(self, addr: int) -> int:
        if self._pool_lo <= addr < self._pool_hi:
            return self._guarded_size(addr)[0]
        return FallbackAllocator.usable_size(self, addr)

    def is_guarded(self, addr: int) -> bool:
        """Constant-time ownership test, safe from any thread."""
        return self._pool_lo <= addr < self._pool_hi

    def destroy(self) -> None:
        """Detach from the fault-handler chain and turn the tool off.

        Nothing is guarded or reported afterwards: a bad free of a
        guarded pointer is swallowed, as after a recoverable report.
        Guarded pointers may outlive the allocator object, so the pool
        pages are never returned to the platform.
        """
        if self.reporter is not None:
            self.reporter.uninstall()
            self.reporter.disabled = True

    # -- slow paths ----------------------------------------------------------

    def _guarded_malloc(self, size: int, alignment: int) -> int:
        """The countdown expired: ask the policy, then guard the request."""
        # Rearm the countdown before the timer's clock, which can raise,
        # so that an error never leaves it parked.
        sampler = self._sampler
        if isinstance(sampler, TimerGate):
            self._ticks = _RUN_OUT
            sample = sampler.want_to_sample()
        else:
            self._ticks = itertools.repeat(None, sampler.next_skip() - 1)
            sample = True
        if (not sample or self.reporter.disabled or not isinstance(size, int)
                or size < 0 or alignment < 0 or alignment & (alignment - 1)):
            # Not sampled, or a request for the host alone: one it rejects,
            # or a non-int size, which would place a block at a non-int
            # address.  It raises its own error before a stack is captured
            # or a counter moves.
            return FallbackAllocator.malloc(self, size, alignment)

        # Every stats counter moves under pool.lock, so sampled always
        # equals guarded + coverage_rejected + pool_unavailable + oversized.
        pool = self.pool
        effective_alignment = max(alignment, self._min_alignment)
        if size <= 0 or size > pool.page_size or effective_alignment > pool.page_size:
            # Wasted sample: the request cannot be guarded.
            with pool.lock:
                self.stats.sampled += 1
                self.stats.oversized += 1
            return FallbackAllocator.malloc(self, size, alignment)

        # One tuple, hashed by source_of's memo and kept by compress_trace's.
        trace = tuple(capture_trace(self._max_frames, depth=3))  # past this frame and malloc
        thread_id = threading.get_ident()
        with pool.lock:
            self.stats.sampled += 1
            source = source_of(trace)
            if not self.coverage.admit(pool.live_count / pool.max_live, source):
                self.stats.coverage_rejected += 1
                return FallbackAllocator.malloc(self, size, alignment)
            user_address = pool.acquire(size, effective_alignment, source, thread_id, trace)
            if user_address is None:
                self.stats.pool_unavailable += 1
                return FallbackAllocator.malloc(self, size, alignment)
            self.coverage.insert(source)
            self.stats.guarded += 1
            return user_address

    def _guarded_size(self, addr: int) -> tuple[int, bool]:
        """(requested size, still live) of the guarded block starting at addr.

        Requested size, not page capacity: keeps byte-exact bounds so
        off-by-one reads past the request still look like bugs to
        callers honoring usable_size.  A freed block is a use-after-free,
        reported with both stacks as free reports a double free; only a
        recoverable reporter lets the call return.
        """
        pool = self.pool
        with pool.lock:
            classification = pool.classify_address(addr)
            kind = classification.kind
            slot_index = classification.slot_index
            if (kind not in (AddressKind.ALLOCATED_SLOT, AddressKind.QUARANTINED_SLOT)
                    or addr != pool.user_address(slot_index)):
                # Like the host: only the start of a block has a size.
                raise ValueError(f"0x{addr:x} is not a live guarded allocation")
            size = pool.slots[slot_index].user_size
            if kind is AddressKind.ALLOCATED_SLOT:
                return size, True
            if self.reporter.disabled:
                return size, False  # recovered or destroyed: nothing to report
            report = self.reporter.slot_report(ReportKind.USE_AFTER_FREE, slot_index, addr,
                                               AccessType.UNKNOWN, threading.get_ident())
        # Emitting outside the pool lock: the reporter may terminate.
        self.reporter.emit_synthetic(report)
        return size, False

    def _guarded_free(self, addr: int) -> None:
        pool = self.pool
        with pool.lock:
            classification = pool.classify_address(addr)
            slot_index = classification.slot_index
            # user_address inlined: on its slot's page, addr starts the
            # block when its offset in the page is the block's.
            if (classification.kind is AddressKind.ALLOCATED_SLOT
                    and (addr - pool.base) % pool.page_size == pool.slots[slot_index].user_offset):
                self.coverage.remove(pool.slots[slot_index].coverage_source)
                pool.release(slot_index, threading.get_ident(),  # depth 3: past this frame and free
                             capture_trace(self._max_frames, depth=3))
                return
            if self.reporter.disabled:
                return  # recovered or destroyed: swallowed, and not counted
            # The start of a block before its state, as GWP-ASan's
            # deallocate checks: freeing p + 1 after p is an invalid free.
            if (classification.kind is AddressKind.QUARANTINED_SLOT
                    and addr == pool.user_address(slot_index)):
                kind = ReportKind.DOUBLE_FREE
                self.stats.double_free += 1
            else:
                # Interior pointer, guard page or free slot: never valid.
                kind = ReportKind.INVALID_FREE
                self.stats.invalid_free += 1
                if classification.kind is AddressKind.FREE_SLOT:
                    slot_index = None  # never used: no allocation to name
            report = self.reporter.slot_report(kind, slot_index, addr, AccessType.UNKNOWN,
                                               threading.get_ident())
        # Emitting outside the pool lock: the reporter may terminate.
        self.reporter.emit_synthetic(report)
