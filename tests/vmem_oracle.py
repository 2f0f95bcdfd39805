"""The access path guardpool.vmem used before reads and writes did their
region lookup and protection scan inline, kept as an oracle.

read and write take the VirtualMemory as their first argument and use
only its regions, bases, page shift and fault delivery.  test_vmem's
differential test checks that VirtualMemory.read and write return the
same bytes, deliver the same faults in the same order, leave the same
partial-write prefix and raise the same retry-bound error as these.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator, Optional

from guardpool.vmem import _MAX_FAULT_RETRIES, PROT_READ, PROT_WRITE, AccessType


def read(vm, addr: int, length: int) -> bytes:
    if length < 0:
        raise ValueError("length must be non-negative")
    if not length:
        return b""
    end = addr + length
    region, stop = _accessible_run(vm, addr, end, PROT_READ)
    if stop == end:
        off = addr - region.base
        return region.mem[off : off + length]
    return b"".join(
        region.mem[lo - region.base : hi - region.base]
        for region, lo, hi in _runs(vm, addr, end, AccessType.READ)
    )


def write(vm, addr: int, data: bytes) -> None:
    length = len(data)
    if not length:
        return
    end = addr + length
    region, stop = _accessible_run(vm, addr, end, PROT_WRITE)
    if stop == end:
        off = addr - region.base
        region.mem[off : off + length] = data
        return
    view = memoryview(data)
    for region, lo, hi in _runs(vm, addr, end, AccessType.WRITE):
        region.mem[lo - region.base : hi - region.base] = view[lo - addr : hi - addr]


def _find_region(vm, addr: int):
    i = bisect_right(vm._bases, addr) - 1
    if i >= 0:
        region = vm._regions[i]
        if addr < region.end:
            return region
    return None


def _accessible_run(vm, pos: int, end: int, needed: int) -> tuple[Optional[object], int]:
    """pos's region and where the run accessible from pos stops: at end,
    at the region's end, or at the first page without the needed bit;
    an unmapped pos gives (None, pos)."""
    region = _find_region(vm, pos)
    if region is None:
        return None, pos
    base = region.base
    stop = end if end < region.end else region.end
    shift = vm._page_shift
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


def _runs(vm, pos: int, end: int, kind: AccessType) -> Iterator[tuple[object, int, int]]:
    """The accessible runs (region, lo, hi) of [pos, end) in order, with a
    fault delivered at the first inaccessible byte between runs."""
    needed = PROT_READ if kind is AccessType.READ else PROT_WRITE
    faults = 0
    while pos < end:
        region, stop = _accessible_run(vm, pos, end, needed)
        if stop > pos:
            yield region, pos, stop
            pos = stop
            faults = 0
            continue
        vm._deliver_fault(pos, kind)
        faults += 1
        if faults == _MAX_FAULT_RETRIES:
            raise RuntimeError(
                f"fault handler resolved 0x{pos:x} {_MAX_FAULT_RETRIES} times "
                "without making it accessible"
            )
