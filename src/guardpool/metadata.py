"""Allocation metadata: stack capture, trace compression, record store.

Traces are lists of program-counter-like integers captured by walking
the interpreter stack; a frame's pc is its code object address plus the
bytecode offset, so frames of one function cluster tightly.  Capture is
the one place that caps a trace's length; the store keeps what it is
given.  Stored traces are delta-encoded (consecutive pcs tend to be
close) and the deltas zigzag-mapped then ULEB128-encoded, trading
decode time on the rare error path for a large resident-memory
reduction on every sampled allocation.  Allocation stacks repeat, so
compress_trace interns them as sanitizer stack depots do: a bounded
memo keyed by the pcs encodes each distinct stack once, and records of
equal stacks share one immutable CompressedTrace.

The record store keeps one record per pool slot, indexed by the slot
index as in GWP-ASan's Metadata[SlotIndex]: an allocation's evidence
lives exactly as long as its slot holds the allocation or its
quarantine.  Readers on the fault path take no lock: a record is never
changed once stored, and writers publish a new one with a single list
store, so a reader gets either the whole old record or the whole new
one.  Each record carries a monotonically increasing allocation
sequence number, so a reader can tell a record that was recycled when
the slot was reused.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

_MASK64 = (1 << 64) - 1

# Frames whose module lives here are tool internals and are skipped
# during capture; the harness CLI is deliberately absent so injected
# scenarios show up in their own reports.
_TOOL_MODULES = frozenset(
    __package__ + suffix
    for suffix in ("", ".metadata", ".pool", ".shim", ".reporter", ".coverage",
                   ".sampler", ".vmem")
)


def capture_trace(max_frames: int) -> list[int]:
    """Capture up to max_frames pcs, innermost first, skipping tool frames.

    A frame's pc is id(f_code) + f_lasti.  Returns an empty list when
    unwinding is unavailable or fails; an empty trace renders as
    <unavailable> rather than aborting a report.
    """
    if max_frames <= 0:
        return []
    getframe = getattr(sys, "_getframe", None)
    if getframe is None:
        return []
    try:
        frame = getframe(1)
    except ValueError:
        return []
    pcs: list[int] = []
    append = pcs.append
    tool_modules = _TOOL_MODULES
    while frame is not None:
        if frame.f_globals.get("__name__") not in tool_modules:
            lasti = frame.f_lasti
            append((id(frame.f_code) + (lasti if lasti > 0 else 0)) & _MASK64)
            if len(pcs) == max_frames:
                break
        frame = frame.f_back
    return pcs


@dataclass(frozen=True)
class CompressedTrace:
    """Delta + zigzag + ULEB128 encoded stack trace.

    The first pc is kept whole; each later frame is its zigzag-mapped
    delta from the previous pc, ULEB128-encoded into deltas.  Immutable,
    so records of equal stacks share one.
    """

    frame_count: int
    first_pc: int
    deltas: bytes

    def byte_size(self) -> int:
        """Encoded size: a uleb128 frame count, 8 bytes of first pc, the deltas."""
        if self.frame_count == 0:
            return 1
        return (self.frame_count.bit_length() + 6) // 7 + 8 + len(self.deltas)


# Distinct allocation stacks are few (26 on perfbench's sampled workload,
# 8 on triage), so each is encoded once.  One memo entry holds its key
# tuple, the pcs' int objects and the CompressedTrace: at most about
# 3.5 KB for a 64-frame stack (measured with tracemalloc), so under 1 MB
# in all.
_TRACE_MEMO_SIZE = 256


def compress_trace(pcs: Sequence[int]) -> CompressedTrace:
    """Delta-encode a trace; equal traces share one CompressedTrace."""
    return _compress(tuple(pcs))


@functools.lru_cache(maxsize=_TRACE_MEMO_SIZE)
def _compress(pcs: tuple[int, ...]) -> CompressedTrace:
    """Zigzag and ULEB128 of each delta, in one loop."""
    if not pcs:
        return CompressedTrace(0, 0, b"")
    out = bytearray()
    append = out.append
    frames = iter(pcs)
    first = prev = next(frames)
    for pc in frames:
        delta = pc - prev
        prev = pc
        # zigzag: 2d for d >= 0, -2d - 1 == ~(2d) below zero.
        value = delta << 1 if delta >= 0 else ~(delta << 1)
        while value > 0x7F:
            append((value & 0x7F) | 0x80)
            value >>= 7
        append(value)
    return CompressedTrace(len(pcs), first & _MASK64, bytes(out))


def decompress_trace(trace: CompressedTrace) -> list[int]:
    """Inverse of compress_trace; ValueError on truncated or trailing deltas."""
    count = trace.frame_count
    if count == 0:
        return []
    data = trace.deltas
    pc = trace.first_pc
    pcs = [pc]
    append = pcs.append
    value = shift = 0
    # One pass over the bytes: a byte below 0x80 ends a delta.
    for byte in data:
        value |= (byte & 0x7F) << shift
        if byte > 0x7F:
            shift += 7
        else:
            pc += ~(value >> 1) if value & 1 else value >> 1
            append(pc)
            value = shift = 0
    if len(pcs) < count:
        raise ValueError("truncated uleb128 sequence")
    if len(pcs) > count or shift:
        # The bytes after the end of delta count - 1 trail.
        ends = [pos for pos, byte in enumerate(data, 1) if byte < 0x80]
        trailing = len(data) - (ends[count - 2] if count > 1 else 0)
        raise ValueError(f"{trailing} trailing bytes after deltas")
    return pcs


# -- record store ------------------------------------------------------


@dataclass(slots=True)
class AllocationMetadata:
    """One allocation's evidence: what a slot's snapshot returns.

    A record is never changed once stored.  Deallocation evidence is
    attached by storing a new record in its place, so a lock-free
    reader never sees a half-written one.
    """

    alloc_seq: int
    slot_index: int
    user_size: int
    alloc_thread: int
    alloc_trace: CompressedTrace
    dealloc_thread: Optional[int] = None
    dealloc_trace: Optional[CompressedTrace] = None


class MetadataStore:
    """One allocation record per pool slot.

    Writers (allocation and deallocation paths) serialize externally on
    the pool lock; the fault path reads records without any lock.  A
    record is addressed by (slot_index, alloc_seq); a stale sequence
    number means the slot was reused and the evidence is gone.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity  # the pool's slot count
        self._records: list[Optional[AllocationMetadata]] = [None] * capacity
        self._next_seq = 1

    def store_alloc(
        self, slot_index: int, size: int, thread_id: int, trace: Sequence[int]
    ) -> int:
        """Store a new record for an allocation in slot_index; returns its alloc_seq."""
        seq = self._next_seq
        self._records[slot_index] = AllocationMetadata(
            seq, slot_index, size, thread_id, compress_trace(trace)
        )
        self._next_seq = seq + 1
        return seq

    def store_dealloc(
        self, slot_index: int, alloc_seq: int, thread_id: int, trace: Sequence[int]
    ) -> bool:
        """Replace the record with one carrying deallocation evidence.

        Returns False (no-op) when the slot's record was recycled for a
        newer allocation.
        """
        record = self._records[slot_index]
        if record is None or record.alloc_seq != alloc_seq:
            return False
        self._records[slot_index] = AllocationMetadata(
            alloc_seq, slot_index, record.user_size, record.alloc_thread,
            record.alloc_trace, thread_id, compress_trace(trace),
        )
        return True

    def snapshot(self, slot_index: int, alloc_seq: int) -> Optional[AllocationMetadata]:
        """Lock-free read of the stored record, or None if it is lost.

        None means the slot is out of range, never held a record, or was
        reused for a newer allocation (sequence mismatch); callers treat
        all three as lost evidence, never as grounds to block.
        """
        if not 0 <= slot_index < self.capacity:
            return None
        record = self._records[slot_index]
        if record is None or record.alloc_seq != alloc_seq:
            return None
        return record

    def accounted_trace_bytes(self) -> int:
        """Total bytes held by stored compressed traces; frameless ones count 0.

        Counts each record's traces, as GWP-ASan stores a trace per
        slot, even though records of equal stacks share one interned
        CompressedTrace.  Needs no lock: each record it reads is a whole
        stored one.
        """
        total = 0
        for record in self._records:
            if record is None:
                continue
            if record.alloc_trace.frame_count:
                total += record.alloc_trace.byte_size()
            dealloc_trace = record.dealloc_trace
            if dealloc_trace is not None and dealloc_trace.frame_count:
                total += dealloc_trace.byte_size()
        return total
