"""Allocator front end: sampling, routing, and free-path validation.

GuardianAllocator wraps a host allocator (here FallbackAllocator, a
bump-plus-freelist arena in the same modeled address space) and inlines
the sampling check as GWP-ASan does: malloc decrements a countdown kept
on the allocator and forwards to the host until it expires, and only
then asks the policy in sampler.py.  Sampled requests that fit a page go
to the guarded pool, get their stack captured and recorded, and are
registered with the coverage filter.  free compares the pointer with
the pool bounds cached at enable time; guarded frees are validated, so
double frees and mid-object frees are detected without any page fault.

Per-process enablement happens at construction: a disabled allocator
reserves no pool pages and rebinds its entry points straight to the
fallback's bound methods, making the disabled tool bit-identical to no
tool at all.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional, TextIO

from .coverage import CoverageFilter, source_of
from .metadata import MetadataStore, capture_trace
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


class FallbackAllocator:
    """Host allocator stand-in: bump arena with exact-size free lists.

    Recycles freed blocks without scrubbing them, like a production
    malloc fast path; newly carved arena space is zero because the
    backing reservation is anonymous.
    """

    def __init__(self, vm: VirtualMemory, initial_pages: int = 64):
        self.vm = vm
        self._lock = threading.Lock()
        self._cursor = 0
        self._limit = 0
        self._grow_pages = max(initial_pages, 1)
        self._sizes: dict[int, tuple[int, int]] = {}  # addr -> (size, alignment)
        self._free: dict[tuple[int, int], list[int]] = {}

    def malloc(self, size: int, alignment: int = 16) -> int:
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        if alignment < 1 or alignment & (alignment - 1):
            raise ValueError(f"alignment must be a power of two, got {alignment}")
        with self._lock:
            bucket = self._free.get((size, alignment))
            if bucket:
                addr = bucket.pop()
                self._sizes[addr] = (size, alignment)
                return addr
            span = max(size, 1)
            addr = -(-self._cursor // alignment) * alignment
            if addr + span > self._limit:
                self._grow(span + alignment)
                addr = -(-self._cursor // alignment) * alignment
            self._cursor = addr + span
            self._sizes[addr] = (size, alignment)
            return addr

    def free(self, addr: int) -> None:
        if not addr:
            return
        with self._lock:
            try:
                size, alignment = self._sizes.pop(addr)
            except KeyError:
                raise ValueError(f"0x{addr:x} is not a live allocation") from None
            self._free.setdefault((size, alignment), []).append(addr)

    def usable_size(self, addr: int) -> int:
        try:
            return self._sizes[addr][0]
        except KeyError:
            raise ValueError(f"0x{addr:x} is not a live allocation") from None

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
        if self.slot_count < 1:
            raise ValueError(f"slot_count must be >= 1, got {self.slot_count}")
        if self.max_frames < 1:
            raise ValueError(f"max_frames must be >= 1, got {self.max_frames}")
        if self.max_live is not None and not 1 <= self.max_live <= self.slot_count:
            raise ValueError(
                f"max_live must be in [1, {self.slot_count}], got {self.max_live}"
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
        if self.sample_rate < 1:
            raise ValueError(f"sample_rate must be >= 1, got {self.sample_rate}")
        if not self.sample_interval > 0:  # also rejects NaN
            raise ValueError(f"sample_interval must be positive, got {self.sample_interval}")
        if self.min_alignment < 1 or self.min_alignment & (self.min_alignment - 1):
            raise ValueError(f"min_alignment must be a power of two, got {self.min_alignment}")


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


class GuardianAllocator:
    """The user-facing allocator: malloc/calloc/realloc/free/usable_size."""

    def __init__(self, config: Optional[GuardianConfig] = None, vm: Optional[VirtualMemory] = None):
        self.config = config or GuardianConfig()
        self.config.validate()
        self.vm = vm if vm is not None else VirtualMemory()
        if self.config.min_alignment > self.vm.page_size:
            raise ValueError(
                f"min_alignment must be at most the page size ({self.vm.page_size}),"
                f" got {self.config.min_alignment}"
            )
        self.fallback = FallbackAllocator(self.vm)
        self.stats = AllocatorStats()

        self.pool: Optional[GuardedPool] = None
        self.store: Optional[MetadataStore] = None
        self.coverage: Optional[CoverageFilter] = None
        self.reporter: Optional[Reporter] = None
        self._sampler = None
        self._sampling_off = False
        self._pool_lo = self._pool_hi = 0  # pool bounds: empty until enabled

        seed = self.config.seed if self.config.seed is not None else time.time_ns()
        launch_rng = Xorshift64Star(splitmix64((seed ^ 0x70726F63) & _MASK64))
        if self.config.enabled and process_sampling_decision(
            self.config.process_sample_probability, launch_rng
        ):
            try:
                self._enable()
            except PoolUnavailableError:
                # No pool, no tool: behave exactly as if sampling had
                # been disabled for this launch.
                self.pool = None
        self.enabled = self.pool is not None
        if not self.enabled:
            self._bind_passthrough()

    def _enable(self) -> None:
        cfg = self.config
        self.pool = GuardedPool(
            self.vm, cfg.slot_count, cfg.max_live, cfg.seed, cfg.force_alignment_side
        )
        self.store = MetadataStore(cfg.slot_count, cfg.max_frames)
        self.coverage = CoverageFilter(utilization_threshold=cfg.coverage_threshold)
        self.reporter = Reporter(
            self.pool, self.store, cfg.recoverable, cfg.sink, self._stop_sampling
        )
        self.reporter.install(self.vm)
        self._min_alignment = cfg.min_alignment
        if cfg.policy == "counter":
            self._sampler = CounterSampler(cfg.sample_rate, cfg.seed)
            self._skip = self._sampler.next_skip()
        else:
            self._sampler = TimerGate(cfg.sample_interval, cfg.timer_clock)
            self._skip = 1
        self._pool_lo = self.pool.base
        self._pool_hi = self.pool.base + self.pool.region_length

    def _bind_passthrough(self) -> None:
        # Bound-method rebinding: a disabled allocator IS the fallback,
        # so the "tool present but off" cost is one attribute lookup.
        self.malloc = self.fallback.malloc
        self.free = self.fallback.free
        self.usable_size = self.fallback.usable_size

    def _stop_sampling(self) -> None:
        """Recovery hook: never route another allocation to the pool."""
        self._sampling_off = True

    # -- allocation entry points ------------------------------------------

    def malloc(self, size: int, alignment: int = 0) -> int:
        skip = self._skip - 1  # stores only values >= 1, even under races
        if skip > 0:
            self._skip = skip
            return self.fallback.malloc(size, alignment or self._min_alignment)
        return self._countdown_expired(size, alignment)

    def calloc(self, count: int, size: int) -> int:
        if count < 0 or size < 0:
            raise ValueError("calloc arguments must be non-negative")
        total = count * size
        addr = self.malloc(total)
        # Guarded slots are scrubbed on acquire; recycled fallback
        # blocks are not, so calloc zeroes explicitly there.
        if total and not self._pool_lo <= addr < self._pool_hi:
            self.vm.fill(addr, total, 0)
        return addr

    def realloc(self, addr: int, size: int) -> int:
        """Move-based realloc: fresh sampling decision for the new block."""
        if not addr:
            return self.malloc(size)
        if self._pool_lo <= addr < self._pool_hi:
            old_size, live = self._guarded_size(addr)
            if not live:
                # Reported and recovered: the freed block is neither
                # read nor freed again.
                return self.malloc(size)
        else:
            old_size = self.fallback.usable_size(addr)
        new_addr = self.malloc(size)
        copy = min(old_size, size)
        if copy:
            self.vm.write(new_addr, self.vm.read(addr, copy))
        self.free(addr)
        return new_addr

    def free(self, addr: int) -> None:
        if self._pool_lo <= addr < self._pool_hi:
            self._guarded_free(addr)
        else:
            self.fallback.free(addr)

    def usable_size(self, addr: int) -> int:
        if self._pool_lo <= addr < self._pool_hi:
            return self._guarded_size(addr)[0]
        return self.fallback.usable_size(addr)

    def is_guarded(self, addr: int) -> bool:
        """Constant-time ownership test, safe from any thread."""
        return self._pool_lo <= addr < self._pool_hi

    def destroy(self) -> None:
        """Detach from the fault-handler chain; the reservation stays.

        Guarded pointers may outlive the allocator object, so the pool
        pages are never returned to the platform.
        """
        if self.reporter is not None:
            self.reporter.uninstall()
        self._sampling_off = True

    # -- slow paths ----------------------------------------------------------

    def _countdown_expired(self, size: int, alignment: int) -> int:
        sampler = self._sampler
        if isinstance(sampler, TimerGate):  # the countdown stays at 1
            sample = sampler.want_to_sample()
        else:
            self._skip = sampler.next_skip()
            sample = True
        if sample and not self._sampling_off:
            return self._guarded_malloc(size, alignment)
        return self.fallback.malloc(size, alignment or self._min_alignment)

    def _guarded_malloc(self, size: int, alignment: int) -> int:
        # Every stats counter moves under pool.lock, so sampled always
        # equals guarded + coverage_rejected + pool_unavailable + oversized.
        pool = self.pool
        effective_alignment = max(alignment, self._min_alignment)
        if size <= 0 or size > pool.page_size or effective_alignment > pool.page_size:
            # Wasted sample: the request cannot be guarded.
            with pool.lock:
                self.stats.sampled += 1
                self.stats.oversized += 1
            return self.fallback.malloc(size, alignment or self._min_alignment)

        trace = capture_trace(self.config.max_frames)
        thread_id = threading.get_ident()
        with pool.lock:
            self.stats.sampled += 1
            source = source_of(trace)
            if not self.coverage.admit(pool.live_count / pool.max_live, source):
                self.stats.coverage_rejected += 1
                return self.fallback.malloc(size, effective_alignment)
            acquired = pool.acquire(size, effective_alignment)
            if acquired is None:
                self.stats.pool_unavailable += 1
                return self.fallback.malloc(size, effective_alignment)
            slot_index, user_address = acquired
            slot = pool.slots[slot_index]
            slot.metadata_seq = self.store.store_alloc(slot_index, size, thread_id, trace)
            slot.coverage_source = source
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
            report = self.reporter.slot_report(
                ReportKind.USE_AFTER_FREE, slot_index, access_address=addr,
                access_kind=AccessType.UNKNOWN, faulting_thread=threading.get_ident(),
                access_trace=capture_trace(self.config.max_frames))
        # Emitting outside the pool lock: the reporter may terminate.
        self.reporter.emit_synthetic(report)
        return size, False

    def _guarded_free(self, addr: int) -> None:
        pool = self.pool
        with pool.lock:
            classification = pool.classify_address(addr)
            slot_index = classification.slot_index
            if (classification.kind is AddressKind.ALLOCATED_SLOT
                    and addr == pool.user_address(slot_index)):
                slot = pool.slots[slot_index]
                self.store.store_dealloc(
                    slot_index,
                    slot.metadata_seq,
                    threading.get_ident(),
                    capture_trace(self.config.max_frames),
                )
                self.coverage.remove(slot.coverage_source)
                pool.release(slot_index)
                return
            if classification.kind is AddressKind.QUARANTINED_SLOT:
                kind = ReportKind.DOUBLE_FREE
                self.stats.double_free += 1
            else:
                # Interior pointer, guard page or free slot: never valid.
                kind = ReportKind.INVALID_FREE
                self.stats.invalid_free += 1
            report = self.reporter.slot_report(
                kind, slot_index, access_address=addr, access_kind=AccessType.UNKNOWN,
                faulting_thread=threading.get_ident(),
                access_trace=capture_trace(self.config.max_frames))
        # Emitting outside the pool lock: the reporter may terminate.
        self.reporter.emit_synthetic(report)

    # -- introspection ---------------------------------------------------------

    def estimated_resident_bytes(self) -> int:
        """Touched-memory footprint: live-capable slot pages plus metadata.

        Guard pages and quarantined pages are reserved but never
        touched, so they cost address space, not memory.
        """
        pool = self.pool
        if pool is None:
            return 0
        slot_bytes = pool.max_live * pool.page_size
        per_record_overhead = 64  # fixed fields of one record
        trace_bytes = self.store.accounted_trace_bytes()
        metadata_bytes = self.store.capacity * per_record_overhead + trace_bytes
        # A counter never exceeds max_live, so max_live's bit length suffices.
        filter_bytes = -(-self.coverage.counters * pool.max_live.bit_length() // 8)
        return slot_bytes + metadata_bytes + filter_bytes
