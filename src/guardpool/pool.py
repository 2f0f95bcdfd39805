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
from typing import Optional

from .sampler import Xorshift64Star, splitmix64
from .vmem import PROT_NONE, PROT_READ, PROT_WRITE, VirtualMemory


class SlotState(enum.Enum):
    FREE = "free"
    ALLOCATED = "allocated"
    QUARANTINED = "quarantined"


# Which neighbour a guard page is attributed to: higher rank wins.
_GUARD_RANK = {SlotState.ALLOCATED: 2, SlotState.QUARANTINED: 1, SlotState.FREE: 0}


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


@dataclass(frozen=True)
class AddressClassification:
    kind: AddressKind
    slot_index: Optional[int] = None


class PoolUnavailableError(Exception):
    """Raised when the pool's reservation cannot be made at init."""


@dataclass
class PoolConfig:
    slot_count: int = 16
    max_live: Optional[int] = None  # defaults to slot_count
    seed: Optional[int] = None
    force_alignment_side: Optional[AlignmentSide] = None

    def validate(self, page_size: int) -> None:
        if self.slot_count < 1:
            raise ValueError(f"slot_count must be >= 1, got {self.slot_count}")
        if self.max_live is not None and not 1 <= self.max_live <= self.slot_count:
            raise ValueError(
                f"max_live must be in [1, {self.slot_count}], got {self.max_live}"
            )
        if page_size <= 0 or page_size & (page_size - 1):
            raise ValueError(f"page size must be a power of two, got {page_size}")


class SlotRecord:
    """Mutable per-slot bookkeeping; guarded by the pool lock for writes.

    The fault path reads these fields without the lock; state is always
    written last on acquire so a slot never looks allocated with stale
    geometry.
    """

    __slots__ = (
        "state",
        "user_offset",
        "user_size",
        "alignment_side",
        "metadata_index",
        "metadata_seq",
        "coverage_source",
    )

    def __init__(self, slot_index: int) -> None:
        self.state = SlotState.FREE
        self.user_offset = 0
        self.user_size = 0
        self.alignment_side = AlignmentSide.LEFT
        # Always the slot's own index (the metadata record's index); kept
        # only because perfbench/workloads.py (sampled) reads it.
        self.metadata_index = slot_index
        self.metadata_seq = -1
        self.coverage_source: Optional[int] = None


class GuardedPool:
    """The guarded region plus slot lifecycle.

    acquire/release mutate under self.lock (an RLock so the owning
    allocator can hold it across composite operations);
    classify_address is lock-free and safe to call from a fault
    handler.
    """

    def __init__(self, config: PoolConfig, vm: VirtualMemory):
        config.validate(vm.page_size)
        self.config = config
        self.vm = vm
        self.page_size = vm.page_size
        self.slot_count = config.slot_count
        self.max_live = config.max_live if config.max_live is not None else config.slot_count
        self.lock = threading.RLock()

        try:
            self.base = vm.reserve(2 * self.slot_count + 1, PROT_NONE)
        except (MemoryError, OSError) as exc:
            raise PoolUnavailableError(f"pool reservation failed: {exc}") from exc
        self.region_length = (2 * self.slot_count + 1) * self.page_size

        self.slots = [SlotRecord(i) for i in range(self.slot_count)]
        seed = config.seed if config.seed is not None else 0
        self._rng = Xorshift64Star(splitmix64(seed ^ 0x706F6F6C))
        order = list(range(self.slot_count))
        # Fisher-Yates with the pool rng: slot order is unpredictable to
        # the application but reproducible under a fixed seed.
        for i in range(self.slot_count - 1, 0, -1):
            j = self._rng.below(i + 1)
            order[i], order[j] = order[j], order[i]
        self._free_list = collections.deque(order)  # FIFO: take front, append back

        self.live_count = 0
        self.acquire_count = 0
        self.unavailable_count = 0
        self.protect_failure_count = 0

    # -- geometry ----------------------------------------------------

    def slot_page_addr(self, slot_index: int) -> int:
        return self.base + (2 * slot_index + 1) * self.page_size

    def guard_page_addr(self, guard_index: int) -> int:
        """Guard i is the page left of slot i; guard slot_count is the far right."""
        return self.base + 2 * guard_index * self.page_size

    def user_address(self, slot_index: int) -> int:
        return self.slot_page_addr(slot_index) + self.slots[slot_index].user_offset

    def contains(self, addr: int) -> bool:
        """Wait-free region membership test (the is_guarded fast check)."""
        return self.base <= addr < self.base + self.region_length

    # -- lifecycle ---------------------------------------------------

    def acquire(self, size: int, alignment: int = 1) -> Optional[tuple[int, int]]:
        """Acquire a slot for a size-byte allocation.

        Returns (slot_index, user_address), or None when the pool
        cannot serve the request (slot pressure, oversized request, or
        a page-protection failure).  Raises ValueError only on caller
        bugs: non-positive size or a bad alignment.
        """
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        if alignment < 1 or alignment & (alignment - 1):
            raise ValueError(f"alignment must be a power of two, got {alignment}")
        if size > self.page_size or alignment > self.page_size:
            return None

        with self.lock:
            if self.live_count >= self.max_live:
                self.unavailable_count += 1
                return None
            # live_count < max_live <= slot_count == len(free list) +
            # live_count, so the free list is not empty.
            slot_index = self._free_list.popleft()

            slot = self.slots[slot_index]
            page = self.slot_page_addr(slot_index)
            try:
                self.vm.protect(page, self.page_size, PROT_READ | PROT_WRITE)
            except (OSError, ValueError):
                self.protect_failure_count += 1
                self._free_list.appendleft(slot_index)
                return None
            # Scrub before handing out: releases leave page contents in
            # place for the quarantine window, so reuse must not leak.
            self.vm.fill(page, self.page_size, 0)

            if self.config.force_alignment_side is not None:
                side = self.config.force_alignment_side
            else:
                side = AlignmentSide.LEFT if self._rng.below(2) == 0 else AlignmentSide.RIGHT
            if side is AlignmentSide.LEFT:
                offset = 0
            else:
                offset = ((self.page_size - size) // alignment) * alignment

            slot.user_offset = offset
            slot.user_size = size
            slot.alignment_side = side
            slot.metadata_seq = -1
            slot.coverage_source = None
            slot.state = SlotState.ALLOCATED  # last: fault path sees full geometry
            self.live_count += 1
            self.acquire_count += 1
            return slot_index, page + offset

    def release(self, slot_index: int) -> None:
        """Re-protect the slot page and move the slot into quarantine."""
        with self.lock:
            slot = self.slots[slot_index]
            if slot.state is not SlotState.ALLOCATED:
                raise ValueError(f"slot {slot_index} is {slot.state.value}, not allocated")
            page = self.slot_page_addr(slot_index)
            self.vm.protect(page, self.page_size, PROT_NONE)
            slot.state = SlotState.QUARANTINED
            self.live_count -= 1
            self._free_list.append(slot_index)

    # -- classification ------------------------------------------------

    def classify_address(self, addr: int) -> AddressClassification:
        """Classify an address against the pool layout, lock-free.

        Guard pages are attributed to an adjacent non-Free slot: an
        Allocated neighbor wins over a Quarantined one, and on a tie
        between two Allocated neighbors the slot whose own guard this
        would be for an overflow (the slot on the left) wins, since
        overflows are the more common linear-walk failure.  A guard
        with both neighbors Free cannot be attributed.
        """
        if not self.contains(addr):
            return AddressClassification(AddressKind.NOT_OURS)
        page_index, _ = divmod(addr - self.base, self.page_size)
        if page_index % 2 == 1:
            slot_index = (page_index - 1) // 2
            state = self.slots[slot_index].state
            if state is SlotState.ALLOCATED:
                return AddressClassification(AddressKind.ALLOCATED_SLOT, slot_index)
            if state is SlotState.QUARANTINED:
                return AddressClassification(AddressKind.QUARANTINED_SLOT, slot_index)
            return AddressClassification(AddressKind.FREE_SLOT, slot_index)

        # Guard g fences slot g-1 on its right and slot g on its left.
        guard_index = page_index // 2
        left_rank = _GUARD_RANK[self.slots[guard_index - 1].state] if guard_index > 0 else 0
        right_rank = (
            _GUARD_RANK[self.slots[guard_index].state] if guard_index < self.slot_count else 0
        )
        if left_rank == 0 and right_rank == 0:
            return AddressClassification(AddressKind.UNATTRIBUTED_GUARD)
        if left_rank >= right_rank:
            # This guard is the right-hand fence of the slot to its left.
            return AddressClassification(AddressKind.RIGHT_GUARD, guard_index - 1)
        return AddressClassification(AddressKind.LEFT_GUARD, guard_index)
