"""Guarded slot pool: page-sized slots fenced by inaccessible guard pages.

A pool of slot_count slots reserves 2*slot_count+1 contiguous pages:
guard, slot 0, guard, slot 1, guard, ..., slot N-1, guard.  Slot i
occupies the page at base + (2*i+1)*page_size; every even page is a
guard that stays inaccessible for the life of the pool.  An allocation
is placed inside its slot page flush against the left or the right
guard (side chosen randomly unless forced), so underflows or overflows
hit a guard page immediately.  Released slots are re-protected and
quarantined: the page stays inaccessible until the slot is reused, so
use-after-free accesses fault too.

The pool owns one record per slot, as GWP-ASan's allocator owns
Metadata[SlotIndex]: self.slots[i] holds the slot's state, the
occupant's geometry and coverage source, and both stacks, in one
object.  Each transition is one call, under the caller's hold of the
pool lock, as GWP-ASan's allocate and deallocate each run under one
hold of PoolMutex: acquire does the page work and publishes the
ALLOCATED record, release re-protects the page and publishes the
QUARANTINED one.  The lock is a plain, non-reentrant Lock.  A record
is never changed once published; each transition stores a whole new
one with one list store.  So a reader reads a slot's record once and
takes everything it needs from that one object, without a lock.

classify_address runs on every guarded free and every fault.  It
shifts rather than divides (the page size is a power of two), tells
slot states apart by identity, and returns one of a fixed set of
frozen AddressClassification instances built with the pool, so it
allocates nothing.

The free list is a FIFO queue: never-used slots first, in a seeded
shuffle, then released slots in release order.  acquire takes the
front, so every never-used slot is served before any quarantined one,
and a quarantined slot is reused only after every slot released before
it, maximizing time-in-quarantine.
"""

from __future__ import annotations

import collections
import enum
import threading
from dataclasses import dataclass
from typing import Optional, Sequence

from . import metadata  # compress_trace through the module: perfbench's tracer patches it
from .sampler import Xorshift64Star, splitmix64
from .vmem import PROT_NONE, PROT_READ, PROT_WRITE, VirtualMemory


class AlignmentSide(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


class AddressKind(enum.Enum):
    """What a faulting or freed address landed on."""

    LEFT_GUARD = "left-guard"
    RIGHT_GUARD = "right-guard"
    ALLOCATED_SLOT = "allocated-slot"
    QUARANTINED_SLOT = "quarantined-slot"
    FREE_SLOT = "free-slot"
    UNATTRIBUTED_GUARD = "unattributed-guard"
    NOT_OURS = "not-ours"


@dataclass(frozen=True, slots=True)
class AddressClassification:
    kind: AddressKind
    slot_index: Optional[int] = None


class SlotState(enum.Enum):
    FREE = "free"
    ALLOCATED = "allocated"
    QUARANTINED = "quarantined"


@dataclass(slots=True)
class SlotRecord:
    """Everything known about one slot's occupant: state, geometry, evidence.

    A record is never changed once published; each transition publishes
    a new one in its place.  Not frozen, as ErrorReport is not: a frozen
    __init__ sets each field through object.__setattr__, twice per
    guarded pair.  A FREE record is a slot that never held an allocation.
    """

    slot_index: int
    state: SlotState = SlotState.FREE
    user_offset: int = 0
    user_size: int = 0
    coverage_source: Optional[int] = None
    metadata_seq: int = 0  # the allocation's sequence number; 0 before the first
    alloc_thread: Optional[int] = None
    alloc_trace: Optional[metadata.CompressedTrace] = None
    dealloc_thread: Optional[int] = None
    dealloc_trace: Optional[metadata.CompressedTrace] = None

    @property
    def metadata_index(self) -> int:
        """The slot's own index; perfbench/workloads.py (sampled) reads it."""
        return self.slot_index


# classify_address compares states by identity through these names, and
# returns one shared instance per answer.
_ALLOCATED = SlotState.ALLOCATED
_QUARANTINED = SlotState.QUARANTINED
_FREE = SlotState.FREE
_NOT_OURS = AddressClassification(AddressKind.NOT_OURS)
_UNATTRIBUTED_GUARD = AddressClassification(AddressKind.UNATTRIBUTED_GUARD)


class PoolUnavailableError(Exception):
    """Raised when the pool's reservation cannot be made at init."""


class GuardedPool:
    """The guarded region, its slot records, and the slot lifecycle.

    acquire/release mutate the pool and run under self.lock, which the
    caller takes once and holds across the transition, the publication
    of the slot's record included.  The lock is a plain Lock:
    nothing re-enters it, and the report path never takes it, so a
    fault raised while the lock is held still reports.
    classify_address is lock-free and safe to call from a fault
    handler.  max_live (default slot_count) caps the live slots; the
    caller validates both counts.
    """

    def __init__(
        self,
        vm: VirtualMemory,
        slot_count: int = 16,
        max_live: Optional[int] = None,
        seed: Optional[int] = None,
        force_alignment_side: Optional[AlignmentSide] = None,
    ):
        self.vm = vm
        self.page_size = vm.page_size
        self._page_shift = vm.page_size.bit_length() - 1
        self.slot_count = slot_count
        self.max_live = max_live if max_live is not None else slot_count
        self.force_alignment_side = force_alignment_side
        self.lock = threading.Lock()

        try:
            self.base = vm.reserve(2 * self.slot_count + 1, PROT_NONE)
        except (MemoryError, OSError) as exc:
            raise PoolUnavailableError(f"pool reservation failed: {exc}") from exc
        self.region_length = (2 * self.slot_count + 1) * self.page_size

        self.slots = [SlotRecord(i) for i in range(self.slot_count)]  # one FREE record each
        self._next_seq = 1
        self._rng = Xorshift64Star(splitmix64((seed or 0) ^ 0x706F6F6C))
        order = list(range(self.slot_count))
        # Fisher-Yates with the pool rng: slot order is unpredictable to
        # the application but reproducible under a fixed seed.
        for i in range(self.slot_count - 1, 0, -1):
            j = self._rng.below(i + 1)
            order[i], order[j] = order[j], order[i]
        self._free_list = collections.deque(order)  # FIFO: take front, append back

        # Every answer classify_address can give, built once: the fault
        # and free paths then allocate nothing per pointer.
        (self._as_allocated, self._as_quarantined, self._as_free, self._as_left_guard,
         self._as_right_guard) = (
            [AddressClassification(kind, i) for i in range(self.slot_count)]
            for kind in (AddressKind.ALLOCATED_SLOT, AddressKind.QUARANTINED_SLOT,
                         AddressKind.FREE_SLOT, AddressKind.LEFT_GUARD, AddressKind.RIGHT_GUARD))

        self.live_count = 0
        self.acquire_count = 0
        self.unavailable_count = 0
        self.protect_failure_count = 0

    # -- geometry ----------------------------------------------------

    def user_address(self, slot_index: int) -> int:
        page = self.base + (2 * slot_index + 1) * self.page_size
        return page + self.slots[slot_index].user_offset

    # -- lifecycle ---------------------------------------------------

    def acquire(self, size: int, alignment: int, source: Optional[int], thread_id: int,
                trace: Sequence[int]) -> Optional[int]:
        """Take, open and scrub a slot, and publish its ALLOCATED record.

        The caller holds self.lock.  Returns the user address, or None
        when the pool cannot serve the request (slot pressure, oversized
        request, or a page-protection failure).  Raises ValueError only
        on caller bugs: non-positive size or a bad alignment.
        """
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        if alignment < 1 or alignment & (alignment - 1):
            raise ValueError(f"alignment must be a power of two, got {alignment}")
        if size > self.page_size or alignment > self.page_size:
            return None

        if self.live_count >= self.max_live:
            self.unavailable_count += 1
            return None
        # live_count < max_live <= slot_count == len(free list) +
        # live_count, so the free list is not empty.
        slot_index = self._free_list.popleft()

        page = self.base + (2 * slot_index + 1) * self.page_size
        try:
            self.vm.protect(page, self.page_size, PROT_READ | PROT_WRITE)
        except (OSError, ValueError):
            self.protect_failure_count += 1
            self._free_list.appendleft(slot_index)
            return None
        # Scrub before handing out: releases leave page contents in
        # place for the quarantine window, so reuse must not leak.
        self.vm.fill(page, self.page_size, 0)

        side = self.force_alignment_side
        if side is None:
            # The low bit is below(2): 2**64 is even, so no draw is rejected.
            right = self._rng.next_u64() & 1
        else:
            right = side is AlignmentSide.RIGHT
        offset = ((self.page_size - size) // alignment) * alignment if right else 0
        self.live_count += 1
        self.acquire_count += 1
        self.store_alloc(slot_index, offset, size, source, thread_id, trace)
        return page + offset

    def release(self, slot_index: int, thread_id: int, trace: Sequence[int]) -> None:
        """Re-protect the slot page, queue the slot for reuse, and publish
        its QUARANTINED record.  The caller holds self.lock."""
        state = self.slots[slot_index].state
        if state is not _ALLOCATED:
            raise ValueError(f"slot {slot_index} is {state.value}, not allocated")
        page = self.base + (2 * slot_index + 1) * self.page_size
        self.vm.protect(page, self.page_size, PROT_NONE)
        self.live_count -= 1
        self._free_list.append(slot_index)
        self.store_dealloc(slot_index, thread_id, trace)

    # -- records -----------------------------------------------------------
    #
    # acquire and release publish through store_alloc and store_dealloc,
    # looked up on self: perfbench's tracer times each on the instance.

    def store_alloc(self, slot_index: int, user_offset: int, user_size: int,
                    coverage_source: Optional[int], thread_id: int,
                    trace: Sequence[int]) -> None:
        """Publish the ALLOCATED record of a new occupant of slot_index."""
        seq = self._next_seq
        self._next_seq = seq + 1
        self.slots[slot_index] = SlotRecord(
            slot_index, _ALLOCATED, user_offset, user_size, coverage_source, seq,
            thread_id, metadata.compress_trace(trace),
        )

    def store_dealloc(self, slot_index: int, thread_id: int, trace: Sequence[int]) -> None:
        """Publish the QUARANTINED record: the occupant's, plus its deallocation."""
        record = self.slots[slot_index]
        self.slots[slot_index] = SlotRecord(
            slot_index, _QUARANTINED, record.user_offset, record.user_size,
            record.coverage_source, record.metadata_seq, record.alloc_thread,
            record.alloc_trace, thread_id, metadata.compress_trace(trace),
        )

    def snapshot(self, slot_index: int, seq: Optional[int] = None) -> Optional[SlotRecord]:
        """Slot slot_index's record, read once; None if out of range.

        With seq, None also when the record is not that allocation's.
        """
        if not 0 <= slot_index < self.slot_count:
            return None
        record = self.slots[slot_index]
        if seq is not None and record.metadata_seq != seq:
            return None
        return record

    def accounted_trace_bytes(self) -> int:
        """Total bytes held by stored compressed traces; frameless ones count 0.

        Counts each record's traces, as GWP-ASan stores a trace per
        slot, even though records of equal stacks share one interned
        CompressedTrace.
        """
        total = 0
        for record in self.slots:
            for trace in (record.alloc_trace, record.dealloc_trace):
                if trace is not None and trace.frame_count:
                    total += trace.byte_size()
        return total

    # -- classification ------------------------------------------------

    def classify_address(self, addr: int) -> AddressClassification:
        """Classify an address against the pool layout, lock-free.

        Guard pages are attributed to an adjacent non-Free slot: an
        Allocated neighbor wins over a Quarantined one, and on a tie
        between two Allocated (or two Quarantined) neighbors the slot
        whose own guard this would be for an overflow (the slot on the
        left) wins, since overflows are the more common linear-walk
        failure.  A guard with both neighbors Free cannot be attributed.
        """
        offset = addr - self.base
        if not 0 <= offset < self.region_length:
            return _NOT_OURS
        page_index = offset >> self._page_shift
        slots = self.slots
        if page_index & 1:
            slot_index = page_index >> 1
            state = slots[slot_index].state
            if state is _ALLOCATED:
                return self._as_allocated[slot_index]
            if state is _QUARANTINED:
                return self._as_quarantined[slot_index]
            return self._as_free[slot_index]

        # Guard g fences slot g-1 on its right and slot g on its left.
        guard_index = page_index >> 1
        left = slots[guard_index - 1].state if guard_index else _FREE
        right = slots[guard_index].state if guard_index < self.slot_count else _FREE
        if left is _ALLOCATED or (left is _QUARANTINED and right is not _ALLOCATED):
            # This guard is the right-hand fence of the slot to its left.
            return self._as_right_guard[guard_index - 1]
        if right is _FREE:
            return _UNATTRIBUTED_GUARD
        return self._as_left_guard[guard_index]
