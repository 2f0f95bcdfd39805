"""Allocation metadata: stack capture and trace compression.

Traces are lists of program-counter-like integers captured by walking
the interpreter stack; a frame's pc is its code object address plus the
bytecode offset, so frames of one function cluster tightly.  Capture is
the one place that caps a trace's length; the pool's slot records
keep what they are given.  Stored traces are delta-encoded
(consecutive pcs tend to be close) and the deltas zigzag-mapped then
ULEB128-encoded, trading decode time on the rare error path for a
large resident-memory reduction on every sampled allocation.
Allocation stacks repeat, so compress_trace interns them as sanitizer
stack depots do: a bounded memo keyed by the pcs encodes each distinct
stack once, and records of equal stacks share one immutable
CompressedTrace.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from typing import Sequence

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

