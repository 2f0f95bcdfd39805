"""Modeled virtual address space with mmap/mprotect-style semantics.

Addresses are plain integers into a process-local address space.  Every
reservation is anonymous, page-granular and zero-filled, and each page
carries its own protection bits.  All user-level memory accesses go
through :meth:`VirtualMemory.read` and :meth:`VirtualMemory.write`,
which enforce protections and deliver access violations to an
installable fault handler, mirroring how a SIGSEGV handler observes a
faulting address plus (on most platforms) a read/write flag.

Handler chaining follows sigaction semantics: installing a handler
returns the previously installed one, and a handler that decides a
fault is not its business invokes that predecessor itself.  A handler
may resolve the fault (``FaultAction.RESUME``, the access retries) or
let the default disposition run, which raises :class:`SegmentationFault`
on the accessing thread.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

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


@dataclass
class _Region:
    base: int
    length: int
    buf: bytearray
    prots: list[int]  # one entry per page

    @property
    def end(self) -> int:
        return self.base + self.length


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
    _regions: list[_Region] = field(default_factory=list)
    _cursor: int = _BASE_CURSOR_START
    _handler: Optional[FaultHandler] = None
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def __post_init__(self) -> None:
        if self.page_size <= 0 or self.page_size & (self.page_size - 1):
            raise ValueError(f"page_size must be a power of two, got {self.page_size}")

    # -- reservation / protection ------------------------------------

    def reserve(self, num_pages: int, prot: int = PROT_NONE) -> int:
        """Reserve num_pages of anonymous zero-filled memory.

        Returns the base address.  The base is aligned to the region
        length rounded up to a power of two, so a reservation never
        straddles an alignment boundary larger than itself.
        """
        if num_pages <= 0:
            raise ValueError("num_pages must be positive")
        length = num_pages * self.page_size
        align = 1 << (length - 1).bit_length()
        with self._lock:
            base = -(-self._cursor // align) * align
            # Keep an unmapped hole page after every region so adjacent
            # reservations can never be mistaken for one another.
            self._cursor = base + length + self.page_size
            region = _Region(base, length, bytearray(length), [prot] * num_pages)
            self._regions.append(region)
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
        first = (addr - region.base) // self.page_size
        npages = -(-length // self.page_size)
        with self._lock:
            for i in range(first, first + npages):
                region.prots[i] = prot

    def page_protection(self, addr: int) -> Optional[int]:
        """Protection bits of the page containing addr, None if unmapped."""
        region = self._find_region(addr)
        if region is None:
            return None
        return region.prots[(addr - region.base) // self.page_size]

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
        """Read length bytes, faulting per-page on protection violations."""
        if length < 0:
            raise ValueError("length must be non-negative")
        out = bytearray()
        pos = addr
        remaining = length
        while remaining > 0:
            chunk = min(remaining, self.page_size - pos % self.page_size)
            region = self._check_access(pos, AccessKind.READ)
            off = pos - region.base
            out += region.buf[off : off + chunk]
            pos += chunk
            remaining -= chunk
        return bytes(out)

    def write(self, addr: int, data: bytes) -> None:
        """Write data, faulting per-page on protection violations.

        A terminating fault part-way through leaves the already-written
        prefix in place, as a real partial store sequence would.
        """
        pos = addr
        view = memoryview(data)
        while view:
            chunk = min(len(view), self.page_size - pos % self.page_size)
            region = self._check_access(pos, AccessKind.WRITE)
            off = pos - region.base
            region.buf[off : off + chunk] = view[:chunk]
            pos += chunk
            view = view[chunk:]

    def fill(self, addr: int, length: int, value: int = 0) -> None:
        """Privileged fill that ignores protections (kernel-side store).

        Used by the allocator to scrub pages it owns without first
        making them accessible.
        """
        region = self._find_region(addr)
        if region is None or addr + length > region.end:
            raise ValueError(f"[0x{addr:x}, +{length}) is not a mapped range")
        off = addr - region.base
        region.buf[off : off + length] = bytes([value & 0xFF]) * length

    # -- internals -------------------------------------------------------

    def _find_region(self, addr: int) -> Optional[_Region]:
        for region in self._regions:
            if region.base <= addr < region.end:
                return region
        return None

    def _check_access(self, addr: int, kind: AccessKind) -> _Region:
        """Return the region once addr is accessible, delivering faults.

        Retries after a handler resolves the fault; a handler that
        resolves without making progress trips the retry bound.
        """
        needed = PROT_READ if kind is AccessKind.READ else PROT_WRITE
        for _ in range(_MAX_FAULT_RETRIES):
            region = self._find_region(addr)
            if region is not None:
                prot = region.prots[(addr - region.base) // self.page_size]
                if prot & needed:
                    return region
            self._deliver_fault(addr, kind)
        raise RuntimeError(
            f"fault handler resolved 0x{addr:x} {_MAX_FAULT_RETRIES} times "
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
