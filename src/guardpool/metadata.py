"""Allocation metadata: stack capture, trace compression, record store.

Traces are lists of program-counter-like integers captured by walking
the interpreter stack; a frame's pc is its code object address plus the
bytecode offset, so frames of one function cluster tightly.  Stored
traces are delta-encoded (consecutive pcs tend to be close) and the
deltas zigzag-mapped then ULEB128-encoded, trading decode time on the
rare error path for a large resident-memory reduction on every sampled
allocation.

The record store keeps one record per pool slot, indexed by the slot
index as in GWP-ASan's Metadata[SlotIndex]: an allocation's evidence
lives exactly as long as its slot holds the allocation or its
quarantine.  Readers on the fault path take no lock; instead every
record carries a version counter written odd-before / even-after
mutation (seqlock protocol) plus a monotonically increasing allocation
sequence number, so a reader can tell both torn reads and records that
were recycled when the slot was reused.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional, Sequence

_MASK64 = (1 << 64) - 1

DEFAULT_MAX_FRAMES = 64

# Frames whose module lives here are tool internals and are skipped
# during capture; the harness CLI is deliberately absent so injected
# scenarios show up in their own reports.
_TOOL_MODULES = frozenset(
    __package__ + suffix
    for suffix in ("", ".metadata", ".pool", ".shim", ".reporter", ".coverage",
                   ".sampler", ".vmem")
)


def _frame_pc(frame) -> int:
    return (id(frame.f_code) + max(frame.f_lasti, 0)) & _MASK64


def capture_trace(max_frames: int = DEFAULT_MAX_FRAMES) -> list[int]:
    """Capture up to max_frames pcs, innermost first, skipping tool frames.

    Returns an empty list when unwinding is unavailable or fails; an
    empty trace renders as <unavailable> rather than aborting a report.
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
    while frame is not None and len(pcs) < max_frames:
        if frame.f_globals.get("__name__") not in _TOOL_MODULES:
            pcs.append(_frame_pc(frame))
        frame = frame.f_back
    return pcs


# -- varint coding -----------------------------------------------------


def zigzag_encode(value: int) -> int:
    """Map signed to unsigned: 0,-1,1,-2,... -> 0,1,2,3,..."""
    return value * 2 if value >= 0 else -value * 2 - 1


def zigzag_decode(value: int) -> int:
    if value < 0:
        raise ValueError("zigzag values are non-negative")
    return value // 2 if value % 2 == 0 else -(value // 2) - 1


def uleb128_encode(value: int) -> bytes:
    """Unsigned LEB128: 7 bits per byte, high bit marks continuation."""
    if value < 0:
        raise ValueError("uleb128 encodes non-negative integers")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def uleb128_decode(data: bytes, pos: int = 0) -> tuple[int, int]:
    """Decode one value starting at pos; returns (value, next_pos)."""
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise ValueError("truncated uleb128 sequence")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


@dataclass(frozen=True)
class CompressedTrace:
    """Delta + zigzag + ULEB128 encoded stack trace.

    Wire layout of to_bytes(): uleb128 frame count, then the first pc
    as 8 little-endian bytes, then one uleb128 zigzag delta per
    remaining frame.
    """

    frame_count: int
    first_pc: int
    deltas: bytes

    def to_bytes(self) -> bytes:
        if self.frame_count == 0:
            return uleb128_encode(0)
        head = uleb128_encode(self.frame_count)
        return head + self.first_pc.to_bytes(8, "little") + self.deltas

    @classmethod
    def from_bytes(cls, data: bytes) -> "CompressedTrace":
        count, pos = uleb128_decode(data, 0)
        if count == 0:
            return cls(0, 0, b"")
        if pos + 8 > len(data):
            raise ValueError("truncated trace: missing first pc")
        first_pc = int.from_bytes(data[pos : pos + 8], "little")
        return cls(count, first_pc, bytes(data[pos + 8 :]))

    def byte_size(self) -> int:
        """len(to_bytes()) without encoding: uleb128 count, first pc, deltas."""
        if self.frame_count == 0:
            return 1
        return (self.frame_count.bit_length() + 6) // 7 + 8 + len(self.deltas)


def compress_trace(pcs: Sequence[int]) -> CompressedTrace:
    if not pcs:
        return CompressedTrace(0, 0, b"")
    out = bytearray()
    prev = pcs[0]
    for pc in pcs[1:]:
        out += uleb128_encode(zigzag_encode(pc - prev))
        prev = pc
    return CompressedTrace(len(pcs), pcs[0] & _MASK64, bytes(out))


def decompress_trace(trace: CompressedTrace) -> list[int]:
    if trace.frame_count == 0:
        return []
    pcs = [trace.first_pc]
    pos = 0
    for _ in range(trace.frame_count - 1):
        encoded, pos = uleb128_decode(trace.deltas, pos)
        pcs.append(pcs[-1] + zigzag_decode(encoded))
    if pos != len(trace.deltas):
        raise ValueError(f"{len(trace.deltas) - pos} trailing bytes after deltas")
    return pcs


# -- record store ------------------------------------------------------


class AllocationMetadata:
    """One slot's record, recycled on slot reuse; fields valid when version is even."""

    __slots__ = (
        "version",
        "alloc_seq",
        "user_size",
        "alloc_thread",
        "alloc_trace",
        "dealloc_thread",
        "dealloc_trace",
    )

    def __init__(self) -> None:
        self.version = 0
        # 0, never a slot's initial metadata_seq (-1): a slot acquired
        # without a stored record snapshots as lost, not as a match.
        self.alloc_seq = 0
        self.user_size = 0
        self.alloc_thread = 0
        self.alloc_trace = CompressedTrace(0, 0, b"")
        self.dealloc_thread: Optional[int] = None
        self.dealloc_trace: Optional[CompressedTrace] = None


@dataclass(frozen=True)
class MetadataSnapshot:
    """Consistent copy of one record, taken lock-free on the fault path."""

    alloc_seq: int
    slot_index: int
    user_size: int
    alloc_thread: int
    alloc_trace: CompressedTrace
    dealloc_thread: Optional[int]
    dealloc_trace: Optional[CompressedTrace]


class MetadataStore:
    """One allocation record per pool slot.

    Writers (allocation and deallocation paths) serialize externally on
    the pool lock; the fault path reads records without any lock via
    the per-record seqlock.  A record is addressed by (slot_index,
    alloc_seq); a stale sequence number means the slot was reused and
    the evidence is gone.
    """

    def __init__(self, capacity: int, max_frames: int = DEFAULT_MAX_FRAMES):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity  # the pool's slot count
        self.max_frames = max_frames
        self._records = [AllocationMetadata() for _ in range(capacity)]
        self._next_seq = 1

    def store_alloc(
        self, slot_index: int, size: int, thread_id: int, trace: Sequence[int]
    ) -> int:
        """Record an allocation in slot_index's record; returns its alloc_seq."""
        record = self._records[slot_index]
        seq = self._next_seq
        self._next_seq += 1

        compressed = compress_trace(list(trace)[: self.max_frames])

        record.version += 1  # odd: readers retry
        record.alloc_seq = seq
        record.user_size = size
        record.alloc_thread = thread_id
        record.alloc_trace = compressed
        record.dealloc_thread = None
        record.dealloc_trace = None
        record.version += 1  # even: readers may proceed
        return seq

    def store_dealloc(
        self, slot_index: int, alloc_seq: int, thread_id: int, trace: Sequence[int]
    ) -> bool:
        """Attach deallocation evidence if the record still matches.

        Returns False (no-op) when the slot's record was recycled for a
        newer allocation.
        """
        record = self._records[slot_index]
        if record.alloc_seq != alloc_seq:
            return False
        compressed = compress_trace(list(trace)[: self.max_frames])
        record.version += 1
        record.dealloc_thread = thread_id
        record.dealloc_trace = compressed
        record.version += 1
        return True

    def snapshot(
        self, slot_index: int, alloc_seq: int, retries: int = 8
    ) -> Optional[MetadataSnapshot]:
        """Lock-free consistent read of a record, or None if unavailable.

        None means either the record was recycled (sequence mismatch) or
        a concurrent writer kept it torn for every retry; callers treat
        both as lost evidence, never as grounds to block.
        """
        if not 0 <= slot_index < self.capacity:
            return None
        record = self._records[slot_index]
        for _ in range(retries):
            before = record.version
            if before % 2:
                continue
            snap = MetadataSnapshot(
                alloc_seq=record.alloc_seq,
                slot_index=slot_index,
                user_size=record.user_size,
                alloc_thread=record.alloc_thread,
                alloc_trace=record.alloc_trace,
                dealloc_thread=record.dealloc_thread,
                dealloc_trace=record.dealloc_trace,
            )
            if record.version != before:
                continue
            if snap.alloc_seq != alloc_seq:
                return None
            return snap
        return None

    def accounted_trace_bytes(self) -> int:
        """Total bytes currently held by compressed traces.

        Sums the per-slot records, so call it where writers are excluded
        (under the pool lock) to never see a half-written record.
        """
        return sum(self._record_trace_bytes(record) for record in self._records)

    def _record_trace_bytes(self, record: AllocationMetadata) -> int:
        # Frameless placeholders hold no trace memory worth accounting.
        total = record.alloc_trace.byte_size() if record.alloc_trace.frame_count else 0
        if record.dealloc_trace is not None and record.dealloc_trace.frame_count:
            total += record.dealloc_trace.byte_size()
        return total
