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

The record store holds one record per pool slot, indexed by the slot
index as in GWP-ASan's Metadata[SlotIndex]: the slot's state, the
occupant's geometry and coverage source, and both stacks, in one
object.  The pool reads slot states from the same list.  A record is
never changed once stored; each transition stores a whole new record
with one list store.  So a reader reads a slot's record once and
takes everything it needs from that one object, without a lock.
"""

from __future__ import annotations

import enum
import functools
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

_MASK64 = (1 << 64) - 1

# Frames whose module lives here are tool internals: the innermost run
# of them is skipped during capture.  The harness CLI is deliberately
# absent so injected scenarios show up in their own reports.
_TOOL_MODULES = frozenset(__package__ + suffix for suffix in (
    "", ".metadata", ".pool", ".shim", ".reporter", ".coverage", ".sampler", ".vmem"))

_getframe = getattr(sys, "_getframe", None)


def capture_trace(max_frames: int, depth: int = 1) -> list[int]:
    """Capture up to max_frames pcs, innermost first, from depth frames up.

    The walk starts depth frames above this one (1 is the caller), past
    the tool frames a caller knows of; it skips the innermost run of tool
    frames left there and keeps every frame beyond, program or tool.  A
    frame's pc is id(f_code) + f_lasti.  An empty list, when unwinding is
    unavailable or the stack is shallower than depth, renders as
    <unavailable> rather than aborting a report.

    No clamp or mask is needed: each frame on the f_back chain has run
    its call instruction, so its f_lasti >= 0, and an id is below 2**64.
    """
    if max_frames <= 0 or _getframe is None:
        return []
    try:
        frame = _getframe(depth)
    except ValueError:
        return []
    while frame is not None and frame.f_globals.get("__name__") in _TOOL_MODULES:
        frame = frame.f_back
    pcs: list[int] = []
    append = pcs.append
    for _ in range(max_frames):
        if frame is None:
            break
        append(id(frame.f_code) + frame.f_lasti)
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
    alloc_trace: Optional[CompressedTrace] = None
    dealloc_thread: Optional[int] = None
    dealloc_trace: Optional[CompressedTrace] = None

    @property
    def metadata_index(self) -> int:
        """The slot's own index; perfbench/workloads.py (sampled) reads it."""
        return self.slot_index


class MetadataStore:
    """The one list of slot records, and its only writer.

    records[i] is slot i's record, as GWP-ASan's Metadata[SlotIndex];
    the pool reads slot states from the same list.  Writers serialize
    on the pool lock, and each publishes a whole new record with one
    list store.  So a reader that reads a slot's record once sees one
    occupant at one moment, without a lock.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.records = [SlotRecord(i) for i in range(capacity)]
        self._next_seq = 1

    def store_alloc(self, slot_index: int, user_offset: int, user_size: int,
                    coverage_source: Optional[int], thread_id: int,
                    trace: Sequence[int]) -> None:
        """Publish the ALLOCATED record of a new occupant of slot_index."""
        seq = self._next_seq
        self._next_seq = seq + 1
        self.records[slot_index] = SlotRecord(
            slot_index, SlotState.ALLOCATED, user_offset, user_size, coverage_source, seq,
            thread_id, compress_trace(trace),
        )

    def store_dealloc(self, slot_index: int, thread_id: int, trace: Sequence[int]) -> None:
        """Publish the QUARANTINED record: the occupant's, plus its deallocation."""
        record = self.records[slot_index]
        self.records[slot_index] = SlotRecord(
            slot_index, SlotState.QUARANTINED, record.user_offset, record.user_size,
            record.coverage_source, record.metadata_seq, record.alloc_thread,
            record.alloc_trace, thread_id, compress_trace(trace),
        )

    def snapshot(self, slot_index: int, seq: Optional[int] = None) -> Optional[SlotRecord]:
        """Slot slot_index's record, read once; None if out of range.

        With seq, None also when the record is not that allocation's.
        """
        if not 0 <= slot_index < len(self.records):
            return None
        record = self.records[slot_index]
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
        for record in self.records:
            for trace in (record.alloc_trace, record.dealloc_trace):
                if trace is not None and trace.frame_count:
                    total += trace.byte_size()
        return total
