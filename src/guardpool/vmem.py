"""Modeled virtual address space with mmap/mprotect-style semantics.

Addresses are plain integers into a process-local address space.  Every
reservation is anonymous, page-granular and zero-filled, and each page
carries its own protection bits.  A reservation is backed by a private
anonymous host mapping, so its pages are committed on first touch:
guard pages and unused arena tail cost address space, not memory.  All
user-level memory accesses go through :meth:`VirtualMemory.read` and
:meth:`VirtualMemory.write`, which enforce protections and deliver
access violations to an installable fault handler, mirroring how a
SIGSEGV handler observes a faulting address plus (on most platforms) a
read/write flag.

An access finds its region once, checks the protections of the pages it
spans once, and moves its bytes with one copy.  Only a span that meets
an inaccessible page is moved run by run: the accessible prefix first,
then a fault at the first inaccessible byte, then the rest.

Handler chaining follows sigaction semantics: installing a handler
returns the previously installed one, and a handler that decides a
fault is not its business invokes that predecessor itself.  A handler
may resolve the fault (``FaultAction.RESUME``, the access retries) or
let the default disposition run, which raises :class:`SegmentationFault`
on the accessing thread.
"""

from __future__ import annotations

import enum
import mmap
import threading
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

PROT_NONE = 0
PROT_READ = 1
PROT_WRITE = 2

DEFAULT_PAGE_SIZE = 4096

# Virtual placement starts high so addresses look like real heap pointers
# and never collide with small integers used as sentinels.
_BASE_CURSOR_START = 0x2000_0000_0000

# A resolved fault retries the access; this bounds a handler that keeps
# claiming to resolve a fault without actually changing protections.
_MAX_FAULT_RETRIES = 64


class AccessKind(enum.Enum):
    READ = "read"
    WRITE = "write"


class FaultAction(enum.Enum):
    """What a fault handler tells the memory system to do next."""

    RESUME = "resume"
    TERMINATE = "terminate"


@dataclass(frozen=True)
class FaultInfo:
    """Snapshot of a faulting access, as a signal handler would see it.

    ``access`` is None when the platform was configured to not expose
    the read/write flag, matching hardware where the fault status does
    not distinguish loads from stores.
    """

    address: int
    access: Optional[AccessKind]
    thread_id: int


class SegmentationFault(Exception):
    """Default disposition of an unresolved access violation."""

    def __init__(self, fault: Optional[FaultInfo], message: str = ""):
        self.fault = fault
        if not message and fault is not None:
            message = f"access violation at 0x{fault.address:x}"
        super().__init__(message)


FaultHandler = Callable[[FaultInfo], FaultAction]


class _Region:
    __slots__ = ("base", "end", "mem", "prots")

    def __init__(self, base: int, mem: mmap.mmap, prots: bytearray):
        self.base = base
        self.end = base + len(mem)
        self.mem = mem
        self.prots = prots  # one byte per page


@dataclass
class VirtualMemory:
    """One modeled address space.

    page_size must be a power of two.  expose_access_kind mirrors
    whether the fault path can tell reads from writes; when False every
    FaultInfo carries access=None.
    """

    page_size: int = DEFAULT_PAGE_SIZE
    expose_access_kind: bool = True
    fault_count: int = 0
    # Regions in address order, with their bases alongside for bisect.
    # reserve appends to _regions before _bases, so a lock-free lookup
    # that finds a base always finds its region.
    _regions: list[_Region] = field(default_factory=list)
    _bases: list[int] = field(default_factory=list)
    _cursor: int = _BASE_CURSOR_START
    _handler: Optional[FaultHandler] = None
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _page_shift: int = field(init=False)

    def __post_init__(self) -> None:
        if self.page_size <= 0 or self.page_size & (self.page_size - 1):
            raise ValueError(f"page_size must be a power of two, got {self.page_size}")
        self._page_shift = self.page_size.bit_length() - 1

    # -- reservation / protection ------------------------------------

    def reserve(self, num_pages: int, prot: int = PROT_NONE) -> int:
        """Reserve num_pages of anonymous zero-filled memory.

        Returns the base address.  The base is aligned to the region
        length rounded up to a power of two, so a reservation never
        straddles an alignment boundary larger than itself.  Raises
        MemoryError when the host cannot map that much.
        """
        if num_pages <= 0:
            raise ValueError("num_pages must be positive")
        length = num_pages * self.page_size
        align = 1 << (length - 1).bit_length()
        try:
            mem = mmap.mmap(-1, length, flags=mmap.MAP_PRIVATE)
        except OSError as exc:
            raise MemoryError(f"cannot reserve {num_pages} pages") from exc
        with self._lock:
            base = -(-self._cursor // align) * align
            # Keep an unmapped hole page after every region so adjacent
            # reservations can never be mistaken for one another.
            self._cursor = base + length + self.page_size
            self._regions.append(_Region(base, mem, bytearray([prot]) * num_pages))
            self._bases.append(base)
        return base

    def protect(self, addr: int, length: int, prot: int) -> None:
        """Change protection on whole pages, mprotect-style.

        addr must be page-aligned; length is rounded up to a page
        multiple and the range must lie within a single reservation.
        """
        if addr % self.page_size:
            raise ValueError(f"0x{addr:x} is not page-aligned")
        if length <= 0:
            raise ValueError("length must be positive")
        region = self._find_region(addr)
        if region is None or addr + length > region.end:
            raise ValueError(f"[0x{addr:x}, +{length}) is not a mapped range")
        first = (addr - region.base) >> self._page_shift
        npages = -(-length // self.page_size)
        with self._lock:
            region.prots[first : first + npages] = bytes([prot]) * npages

    def page_protection(self, addr: int) -> Optional[int]:
        """Protection bits of the page containing addr, None if unmapped."""
        region = self._find_region(addr)
        if region is None:
            return None
        return region.prots[(addr - region.base) >> self._page_shift]

    # -- fault handler chain -------------------------------------------

    def install_fault_handler(self, handler: FaultHandler) -> Optional[FaultHandler]:
        """Install handler, returning the previous one (sigaction-style).

        The new handler owns the decision to chain to the returned
        predecessor for faults it does not recognize.
        """
        prev = self._handler
        self._handler = handler
        return prev

    def restore_fault_handler(self, handler: Optional[FaultHandler]) -> None:
        self._handler = handler

    # -- access --------------------------------------------------------

    def read(self, addr: int, length: int) -> bytes:
        """Read length bytes, faulting at the first inaccessible byte."""
        if length < 0:
            raise ValueError("length must be non-negative")
        if not length:
            return b""
        end = addr + length
        region, stop = self._accessible_run(addr, end, PROT_READ)
        if stop == end:
            off = addr - region.base
            return region.mem[off : off + length]
        return b"".join(
            region.mem[lo - region.base : hi - region.base]
            for region, lo, hi in self._runs(addr, end, AccessKind.READ)
        )

    def write(self, addr: int, data: bytes) -> None:
        """Write data, faulting at the first inaccessible byte.

        A terminating fault part-way through leaves the already-written
        prefix in place, as a real partial store sequence would.
        """
        length = len(data)
        if not length:
            return
        end = addr + length
        region, stop = self._accessible_run(addr, end, PROT_WRITE)
        if stop == end:
            off = addr - region.base
            region.mem[off : off + length] = data
            return
        view = memoryview(data)
        for region, lo, hi in self._runs(addr, end, AccessKind.WRITE):
            region.mem[lo - region.base : hi - region.base] = view[lo - addr : hi - addr]

    def fill(self, addr: int, length: int, value: int = 0) -> None:
        """Privileged fill that ignores protections (kernel-side store).

        Used by the allocator to scrub pages it owns without first
        making them accessible.
        """
        region = self._find_region(addr)
        if region is None or addr + length > region.end:
            raise ValueError(f"[0x{addr:x}, +{length}) is not a mapped range")
        off = addr - region.base
        region.mem[off : off + length] = bytes([value & 0xFF]) * length

    # -- internals -------------------------------------------------------

    def _find_region(self, addr: int) -> Optional[_Region]:
        i = bisect_right(self._bases, addr) - 1
        if i >= 0:
            region = self._regions[i]
            if addr < region.end:
                return region
        return None

    def _accessible_run(self, pos: int, end: int, needed: int) -> tuple[Optional[_Region], int]:
        """Return pos's region and where the run accessible from pos stops.

        The run ends at end, at the region's end, or at the first page
        without the needed bit, whichever comes first; an unmapped pos
        gives (None, pos).
        """
        region = self._find_region(pos)
        if region is None:
            return None, pos
        base = region.base
        stop = end if end < region.end else region.end
        shift = self._page_shift
        prots = region.prots
        page = (pos - base) >> shift
        if not prots[page] & needed:
            return region, pos
        last = (stop - 1 - base) >> shift
        while page < last:
            page += 1
            if not prots[page] & needed:
                return region, base + (page << shift)
        return region, stop

    def _runs(self, pos: int, end: int, kind: AccessKind) -> Iterator[tuple[_Region, int, int]]:
        """Yield the accessible runs (region, lo, hi) of [pos, end) in order.

        Between runs, delivers a fault at the first inaccessible byte and
        retries once the handler resolves it; a handler that resolves
        without making progress trips the retry bound.  The caller moves
        each run's bytes before the next fault is delivered.
        """
        needed = PROT_READ if kind is AccessKind.READ else PROT_WRITE
        faults = 0
        while pos < end:
            region, stop = self._accessible_run(pos, end, needed)
            if stop > pos:
                yield region, pos, stop
                pos = stop
                faults = 0
                continue
            self._deliver_fault(pos, kind)
            faults += 1
            if faults == _MAX_FAULT_RETRIES:
                raise RuntimeError(
                    f"fault handler resolved 0x{pos:x} {_MAX_FAULT_RETRIES} times "
                    "without making it accessible"
                )

    def _deliver_fault(self, addr: int, kind: AccessKind) -> None:
        self.fault_count += 1
        fault = FaultInfo(
            address=addr,
            access=kind if self.expose_access_kind else None,
            thread_id=threading.get_ident(),
        )
        handler = self._handler
        action = handler(fault) if handler is not None else FaultAction.TERMINATE
        if action is FaultAction.RESUME:
            return
        raise SegmentationFault(fault)
