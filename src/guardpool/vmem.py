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

An accessible read or write is one Python frame.  A region reserved
read-write whose pages no protect() has narrowed is plain memory, as
the heap outside GWP-ASan's pool is: an access inside it is a bisect
for its region and one copy, with no look at its pages.  protect()
clears the region's plain flag before it stores any protection short of
read-write, and nothing sets the flag again, so an access that saw the
flag set is ordered before that store.  An access inside any other
region is a bisect, a scan of the protections of the pages it spans,
and one copy.  An access whose first page lacks the needed bit traps
at its first byte in that frame, as a load or store traps at the
faulting instruction; only if the handler resolves the fault does it
move run by run, as any other span does: the accessible prefix
first, then a fault at the first inaccessible byte, then the rest.

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
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

PROT_NONE = 0
PROT_READ = 1
PROT_WRITE = 2
_PROT_RW = PROT_READ | PROT_WRITE

DEFAULT_PAGE_SIZE = 4096

# Virtual placement starts high so addresses look like real heap pointers
# and never collide with small integers used as sentinels.
_BASE_CURSOR_START = 0x2000_0000_0000

# A resolved fault retries the access; this bounds a handler that keeps
# claiming to resolve a fault without actually changing protections.
_MAX_FAULT_RETRIES = 64


class AccessType(enum.Enum):
    READ = "read"
    WRITE = "write"
    UNKNOWN = "unknown"


class FaultAction(enum.Enum):
    """What a fault handler tells the memory system to do next."""

    RESUME = "resume"
    TERMINATE = "terminate"


@dataclass(frozen=True)
class FaultInfo:
    """Snapshot of a faulting access, as a signal handler would see it.

    ``access`` is UNKNOWN when the platform was configured to not expose
    the read/write flag, matching hardware where the fault status does
    not distinguish loads from stores.
    """

    address: int
    access: AccessType
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
    __slots__ = ("base", "end", "mem", "prots", "plain")

    def __init__(self, base: int, mem: mmap.mmap, prot: int, num_pages: int):
        self.base = base
        self.end = base + len(mem)
        self.mem = mem
        self.prots = bytearray([prot]) * num_pages  # one byte per page
        # Every page read-write and never narrowed: accesses skip the scan.
        self.plain = (prot & _PROT_RW) == _PROT_RW


class VirtualMemory:
    """One modeled address space.

    page_size must be a power of two.  expose_access_kind mirrors
    whether the fault path can tell reads from writes; when False every
    FaultInfo carries access=AccessType.UNKNOWN.
    """

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE, expose_access_kind: bool = True):
        if page_size <= 0 or page_size & (page_size - 1):
            raise ValueError(f"page_size must be a power of two, got {page_size}")
        self.page_size = page_size
        self.expose_access_kind = expose_access_kind
        self.fault_count = 0
        self._page_shift = page_size.bit_length() - 1
        self._zero_page = bytes(page_size)  # what fill stores to scrub a page
        # Regions in address order, with their bases alongside for bisect.
        # reserve appends to _regions before _bases, so a lock-free lookup
        # that finds a base always finds its region.
        self._regions: list[_Region] = []
        self._bases: list[int] = []
        self._cursor = _BASE_CURSOR_START
        self._handler: Optional[FaultHandler] = None
        self._lock = threading.Lock()

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
            self._regions.append(_Region(base, mem, prot, num_pages))
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
        # _find_region inlined: the pool protects a page per guarded
        # malloc and per guarded free.
        i = bisect_right(self._bases, addr) - 1
        region = self._regions[i] if i >= 0 else None
        if region is None or addr + length > region.end:
            raise ValueError(f"[0x{addr:x}, +{length}) is not a mapped range")
        if (prot & _PROT_RW) != _PROT_RW:
            region.plain = False  # before the store, so no access skips it
        first = (addr - region.base) >> self._page_shift
        if length <= self.page_size:
            region.prots[first] = prot  # one byte store: atomic on its own
            return
        npages = -(-length // self.page_size)
        with self._lock:
            region.prots[first : first + npages] = bytes([prot]) * npages

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
        # Region lookup and page scan inlined: an accessible read is one
        # frame.  A plain region skips the scan: protect clears plain
        # before it stores a narrower protection, so a set flag means
        # every page was read-write when the flag was read.
        i = bisect_right(self._bases, addr) - 1
        if i >= 0 and end <= (region := self._regions[i]).end:
            off = addr - region.base
            if region.plain:
                return region.mem[off : off + length]
            prots = region.prots
            page = off >> self._page_shift
            last = (off + length - 1) >> self._page_shift
            while page < last and prots[page] & PROT_READ:
                page += 1
            if prots[page] & PROT_READ:
                return region.mem[off : off + length]
            # A first-byte fault traps in this frame: no run walk unless resolved.
            faults = page == off >> self._page_shift
            if faults:
                self._deliver_fault(addr, AccessType.READ)
        else:
            faults = 0
        return b"".join(
            region.mem[lo - region.base : hi - region.base]
            for region, lo, hi in self._runs(addr, end, AccessType.READ, faults)
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
        i = bisect_right(self._bases, addr) - 1  # inlined, as in read
        if i >= 0 and end <= (region := self._regions[i]).end:
            off = addr - region.base
            if region.plain:  # never narrowed: no scan, as in read
                region.mem[off : off + length] = data
                return
            prots = region.prots
            page = off >> self._page_shift
            last = (off + length - 1) >> self._page_shift
            while page < last and prots[page] & PROT_WRITE:
                page += 1
            if prots[page] & PROT_WRITE:
                region.mem[off : off + length] = data
                return
            faults = page == off >> self._page_shift  # a first-byte fault traps here
            if faults:
                self._deliver_fault(addr, AccessType.WRITE)
        else:
            faults = 0
        view = memoryview(data)
        for region, lo, hi in self._runs(addr, end, AccessType.WRITE, faults):
            region.mem[lo - region.base : hi - region.base] = view[lo - addr : hi - addr]

    def fill(self, addr: int, length: int, value: int = 0) -> None:
        """Privileged fill that ignores protections (kernel-side store).

        Used by the allocator to scrub pages it owns without first
        making them accessible.
        """
        if length < 0:
            raise ValueError("length must be non-negative")
        i = bisect_right(self._bases, addr) - 1  # _find_region inlined
        region = self._regions[i] if i >= 0 else None
        if region is None or not addr < region.end or addr + length > region.end:
            raise ValueError(f"[0x{addr:x}, +{length}) is not a mapped range")
        off = addr - region.base
        region.mem[off : off + length] = (self._zero_page if value == 0 and length == self.page_size
                                          else bytes([value & 0xFF]) * length)

    # -- internals -------------------------------------------------------

    def _find_region(self, addr: int) -> Optional[_Region]:
        i = bisect_right(self._bases, addr) - 1
        if i >= 0:
            region = self._regions[i]
            if addr < region.end:
                return region
        return None

    def _runs(self, pos: int, end: int, kind: AccessType,
              faults: int) -> Iterator[tuple[_Region, int, int]]:
        """Yield the accessible runs (region, lo, hi) of [pos, end) in order.

        A run stops at end, its region's end or a page without the needed
        bit.  Between runs, delivers a fault at the first inaccessible byte
        and retries once the handler resolves it; a handler that resolves
        without making progress trips the retry bound.  The caller moves
        each run's bytes before the next fault is delivered.  faults is
        the number read or write already delivered at pos (1 after a
        first-byte fault, else 0), so the bound counts every delivery.
        """
        needed = PROT_READ if kind is AccessType.READ else PROT_WRITE
        shift = self._page_shift
        while pos < end:
            region = self._find_region(pos)
            stop = pos
            if region is not None:
                base = region.base
                prots = region.prots
                stop = end if end < region.end else region.end
                page = (pos - base) >> shift
                last = (stop - 1 - base) >> shift
                while page <= last and prots[page] & needed:
                    page += 1
                if page <= last:
                    stop = base + (page << shift)
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

    def _deliver_fault(self, addr: int, kind: AccessType) -> None:
        self.fault_count += 1
        fault = FaultInfo(addr, kind if self.expose_access_kind else AccessType.UNKNOWN,
                          threading.get_ident())
        handler = self._handler
        action = handler(fault) if handler is not None else FaultAction.TERMINATE
        if action is FaultAction.RESUME:
            return
        raise SegmentationFault(fault)
