"""Trace capture, varint compression, and the pool's per-slot records."""

import dataclasses
import io
import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guardpool import cli, metadata
from guardpool import reporter as reporter_module
from guardpool import shim as shim_module
from guardpool.metadata import (
    CompressedTrace,
    capture_trace,
    compress_trace,
    decompress_trace,
)
from guardpool.pool import AlignmentSide, GuardedPool, SlotState
from guardpool.shim import GuardianAllocator, GuardianConfig
from guardpool.vmem import VirtualMemory

from conftest import acquire_slot, at_depth, release_slot, traced_opcodes

# -- the reference encoder ---------------------------------------------------
#
# The program stores CompressedTrace objects and never serializes them,
# but byte_size() counts the bytes of this encoding: a uleb128 frame
# count, the first pc as 8 little-endian bytes, then one uleb128 zigzag
# delta per remaining frame.  The helpers below build those bytes one
# step at a time; the one-loop coders are checked against them.


def zigzag_encode(value):
    """Map signed to unsigned: 0,-1,1,-2,... -> 0,1,2,3,..."""
    return value * 2 if value >= 0 else -value * 2 - 1


def zigzag_decode(value):
    if value < 0:
        raise ValueError("zigzag values are non-negative")
    return value // 2 if value % 2 == 0 else -(value // 2) - 1


def uleb128_encode(value):
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


def uleb128_decode(data, pos=0):
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


def reference_bytes(trace):
    """The encoded bytes of a CompressedTrace, whose length byte_size() gives."""
    if trace.frame_count == 0:
        return uleb128_encode(0)
    return (uleb128_encode(trace.frame_count) + trace.first_pc.to_bytes(8, "little")
            + trace.deltas)


# Independent oracle: encodes a non-negative integer to ULEB128 by
# string-slicing the binary representation, nothing shared with the
# implementation under test.
def _oracle_uleb(value):
    bits = bin(value)[2:]
    pad = (7 - len(bits) % 7) % 7
    bits = "0" * pad + bits
    groups = [bits[i : i + 7] for i in range(0, len(bits), 7)][::-1]
    encoded = bytes(
        int(group, 2) | (0x80 if i + 1 < len(groups) else 0)
        for i, group in enumerate(groups)
    )
    return encoded


def _oracle_zigzag(value):
    return 2 * value if value >= 0 else -2 * value - 1


@pytest.mark.parametrize(
    "value,expected",
    [
        (0, b"\x00"),
        (1, b"\x01"),
        (127, b"\x7f"),
        (128, b"\x80\x01"),
        (300, b"\xac\x02"),
        (16384, b"\x80\x80\x01"),
    ],
)
def test_uleb128_known_values(value, expected):
    assert uleb128_encode(value) == expected


@given(st.integers(min_value=0, max_value=1 << 70))
def test_uleb128_matches_oracle(value):
    assert uleb128_encode(value) == _oracle_uleb(value)


@given(st.integers(min_value=0, max_value=1 << 70))
def test_uleb128_round_trip(value):
    encoded = uleb128_encode(value)
    decoded, pos = uleb128_decode(encoded)
    assert decoded == value
    assert pos == len(encoded)


def test_uleb128_rejects_negative():
    with pytest.raises(ValueError):
        uleb128_encode(-1)


def test_uleb128_decode_truncated():
    with pytest.raises(ValueError, match="truncated"):
        uleb128_decode(b"\x80")


@pytest.mark.parametrize(
    "value,expected", [(0, 0), (-1, 1), (1, 2), (-2, 3), (2, 4), (2**40, 2**41)]
)
def test_zigzag_known_values(value, expected):
    assert zigzag_encode(value) == expected


@given(st.integers(min_value=-(1 << 64), max_value=1 << 64))
def test_zigzag_round_trip_matches_oracle(value):
    assert zigzag_encode(value) == _oracle_zigzag(value)
    assert zigzag_decode(zigzag_encode(value)) == value


# Two-frame deltas frozen against hand computation: +0x10 zigzags to
# 0x20, -0x10 zigzags to 0x1f, both single ULEB bytes.
@pytest.mark.parametrize(
    "trace,expected_deltas",
    [
        ([0x1000, 0x1010], b"\x20"),
        ([0x2000, 0x1FF0], b"\x1f"),
    ],
)
def test_delta_encoding_frozen_examples(trace, expected_deltas):
    compressed = compress_trace(trace)
    assert compressed.first_pc == trace[0]
    assert compressed.deltas == expected_deltas


@given(
    st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), min_size=0, max_size=80)
)
def test_trace_round_trip(trace):
    assert decompress_trace(compress_trace(trace)) == trace


@given(
    st.integers(min_value=0, max_value=1 << 30),
    st.integers(min_value=0, max_value=(1 << 64) - 1),
    st.binary(max_size=64),
)
def test_byte_size_counts_the_wire_bytes(frame_count, first_pc, deltas):
    # Frame counts past 127 need a multi-byte uleb128 head.
    trace = CompressedTrace(frame_count, first_pc, deltas)
    assert trace.byte_size() == len(reference_bytes(trace))


def test_empty_trace_wire_format_is_one_byte():
    empty = compress_trace([])
    assert reference_bytes(empty) == b"\x00"
    assert empty.byte_size() == 1


def test_clustered_traces_compress_well():
    # Frames within one module: deltas of a few hundred bytes encode in
    # 1-2 ULEB bytes against 8 raw bytes per frame.
    base = 0x7F0000400000
    trace = [base + i * 0x180 for i in range(20)]
    raw = 8 * len(trace)
    assert compress_trace(trace).byte_size() <= raw // 2


# -- capture ---------------------------------------------------------------


def test_capture_returns_innermost_first():
    def inner():
        return capture_trace(64)

    def outer():
        return inner()

    trace = outer()
    assert len(trace) >= 3
    assert all(isinstance(pc, int) and pc >= 0 for pc in trace)


def test_capture_respects_max_frames():
    def recurse(depth):
        if depth == 0:
            return capture_trace(max_frames=64)
        return recurse(depth - 1)

    trace = recurse(200)
    assert len(trace) == 64


def test_capture_zero_frames():
    assert capture_trace(max_frames=0) == []


def test_capture_skips_tool_frames():
    # capture_trace itself lives in a tool module; its own frame (and
    # any other tool frame between it and its caller) must not appear.
    import guardpool.metadata as metadata_module

    trace = capture_trace(64)
    own_code_ids = {
        id(func.__code__)
        for func in [capture_trace, metadata_module.compress_trace]
    }
    # pc = id(code) + offset; a captured tool frame would land within
    # a few hundred bytes of its code object id.
    for pc in trace:
        for code_id in own_code_ids:
            assert not code_id <= pc < code_id + 0x1000


def test_same_call_site_gives_stable_pcs():
    def site():
        return capture_trace(64)

    # One bytecode call site (the comprehension) so every frame,
    # including the callers', has identical pcs across iterations.
    first, second = [site() for _ in range(2)]
    assert first == second


def test_capture_distinguishes_call_sites():
    def site_a():
        return capture_trace(64)

    def site_b():
        return capture_trace(64)

    assert site_a() != site_b()


# -- the pool's slot records ----------------------------------------------------
#
# The pool publishes a slot's record in the transition's one call:
# acquire the ALLOCATED record, release the QUARANTINED one.


def record_pool(slot_count):
    """A pool that places every block flush right, so a 41 B block sits at 4055."""
    return GuardedPool(VirtualMemory(), slot_count=slot_count, seed=3,
                       force_alignment_side=AlignmentSide.RIGHT)


def test_every_slot_starts_with_a_free_record():
    pool = record_pool(3)
    assert [record.slot_index for record in pool.slots] == [0, 1, 2]
    for record in pool.slots:
        assert record.state is SlotState.FREE
        assert record.alloc_trace is record.dealloc_trace is None


def test_store_alloc_publishes_the_allocated_record():
    pool = record_pool(4)
    slot_index = acquire_slot(pool, 41, source=0xABC, thread_id=111, trace=[0x10, 0x20])[0]
    snap = pool.snapshot(slot_index)
    assert snap is pool.slots[slot_index]
    assert snap.state is SlotState.ALLOCATED
    assert (snap.slot_index, snap.user_offset, snap.user_size) == (slot_index, 4055, 41)
    assert snap.coverage_source == 0xABC
    assert snap.alloc_thread == 111
    assert decompress_trace(snap.alloc_trace) == [0x10, 0x20]
    assert snap.dealloc_thread is snap.dealloc_trace is None
    # Sequence numbers rise across slots, and a snapshot can ask for one.
    other = acquire_slot(pool, 8, thread_id=1, trace=[0x10])[0]
    assert pool.slots[other].metadata_seq > snap.metadata_seq
    assert pool.snapshot(slot_index, snap.metadata_seq) is snap
    assert pool.snapshot(slot_index, snap.metadata_seq + 1) is None


def test_store_dealloc_attaches_evidence():
    pool = record_pool(4)
    slot_index = acquire_slot(pool, 8, source=0xABC, thread_id=1, trace=[0x10])[0]
    live = pool.snapshot(slot_index)
    release_slot(pool, slot_index, thread_id=2, trace=[0x30, 0x40])
    snap = pool.snapshot(slot_index, live.metadata_seq)
    assert snap.state is SlotState.QUARANTINED
    assert snap.dealloc_thread == 2
    assert decompress_trace(snap.dealloc_trace) == [0x30, 0x40]
    # Everything else is the occupant's, carried over.
    for name in ("slot_index", "user_offset", "user_size", "coverage_source",
                 "metadata_seq", "alloc_thread", "alloc_trace"):
        assert getattr(snap, name) == getattr(live, name), name


def test_slot_reuse_recycles_record():
    pool = record_pool(2)
    first = acquire_slot(pool, 8, thread_id=1, trace=[0x10])[0]
    first_seq = pool.slots[first].metadata_seq
    # Other slots' allocations leave the first slot's record alone...
    for _ in range(10):
        other = acquire_slot(pool, 8, thread_id=1, trace=[0x20])[0]
        assert other != first
        release_slot(pool, other, thread_id=1, trace=[0x21])
    assert pool.snapshot(first, first_seq).user_size == 8
    # ...and only reusing the first slot recycles it: FIFO serves the
    # other slot once more before it.
    release_slot(pool, first, thread_id=1, trace=[0x11])
    assert acquire_slot(pool, 8, thread_id=1, trace=[0x20])[0] != first
    assert acquire_slot(pool, 16, thread_id=1, trace=[0x30])[0] == first
    assert pool.snapshot(first, first_seq) is None
    assert pool.snapshot(first).user_size == 16


def _fields(record):
    return {field.name: getattr(record, field.name) for field in dataclasses.fields(record)}


@settings(max_examples=40, deadline=None)
@given(slot_count=st.integers(1, 4), data=st.data())
def test_stored_records_are_never_changed(slot_count, data):
    # Every record the allocator publishes, FREE ones included, is kept
    # with a copy of its fields; none may differ at the end of the run.
    allocator = GuardianAllocator(GuardianConfig(
        slot_count=slot_count, sample_rate=1, sink=io.StringIO(),
        seed=data.draw(st.integers(0, 2**32), label="seed"),
    ))
    records = allocator.pool.slots
    published = {}  # id -> (record, its fields when first seen)

    def keep():
        for record in records:
            published.setdefault(id(record), (record, _fields(record)))

    keep()
    live = []
    for _ in range(data.draw(st.integers(1, 40), label="steps")):
        if live and data.draw(st.booleans(), label="free"):
            allocator.free(live.pop(data.draw(st.integers(0, len(live) - 1), label="which")))
        else:
            live.append(allocator.malloc(data.draw(st.integers(1, 256), label="size")))
        keep()
    for record, fields in published.values():
        assert _fields(record) == fields


def test_snapshot_out_of_range_index():
    pool = record_pool(1)
    seq = pool.slots[acquire_slot(pool, 8, thread_id=1, trace=[0x10])[0]].metadata_seq
    assert pool.snapshot(5, seq) is None
    assert pool.snapshot(-1, seq) is None
    assert pool.snapshot(5) is None


def test_snapshot_of_never_stored_slot_is_lost():
    # A never-used slot's FREE record carries no evidence, and matches
    # no allocation's sequence number.
    pool = record_pool(2)
    snap = pool.snapshot(1)
    assert snap.state is SlotState.FREE
    assert snap.alloc_trace is None and snap.dealloc_trace is None
    assert pool.snapshot(1, -1) is None
    assert pool.snapshot(1, 1) is None


def test_trace_byte_accounting_tracks_slot_records():
    pool = record_pool(2)
    assert pool.accounted_trace_bytes() == 0
    first = acquire_slot(pool, 8, thread_id=1, trace=[0x1000, 0x1010])[0]
    one = pool.accounted_trace_bytes()
    assert one == compress_trace([0x1000, 0x1010]).byte_size()
    release_slot(pool, first, thread_id=1, trace=[0x2000])
    two = pool.accounted_trace_bytes()
    assert two == one + compress_trace([0x2000]).byte_size()
    # Another slot adds its own contribution.
    assert acquire_slot(pool, 8, thread_id=1, trace=[0x3000])[0] != first
    three = two + compress_trace([0x3000]).byte_size()
    assert pool.accounted_trace_bytes() == three
    # Reusing the first slot replaces its contribution instead of leaking it.
    assert acquire_slot(pool, 8, thread_id=1, trace=[0x4000])[0] == first
    assert pool.accounted_trace_bytes() == three - two + compress_trace([0x4000]).byte_size()


# -- interning ---------------------------------------------------------------


def test_equal_traces_in_two_slots_share_one_compressed_trace():
    pool = record_pool(2)
    trace = [0x7F0000400000 + i * 0x180 for i in range(5)]
    first = acquire_slot(pool, 8, thread_id=1, trace=trace)[0]
    second = acquire_slot(pool, 16, thread_id=2, trace=list(trace))[0]
    shared = pool.snapshot(first).alloc_trace
    assert pool.snapshot(second).alloc_trace is shared
    release_slot(pool, second, thread_id=2, trace=tuple(trace))
    assert pool.snapshot(second).dealloc_trace is shared
    # Accounting still counts a trace per record.
    assert pool.accounted_trace_bytes() == 3 * shared.byte_size()


def test_interned_trace_does_not_follow_the_callers_list():
    trace = [0x1000, 0x1010, 0x1020]
    compressed = compress_trace(trace)
    trace[1] = 0x9999
    assert decompress_trace(compressed) == [0x1000, 0x1010, 0x1020]
    assert decompress_trace(compress_trace(trace)) == trace


def test_memo_matches_the_reference_after_eviction():
    bound = metadata._TRACE_MEMO_SIZE
    rng = random.Random(11)
    traces = [[rng.getrandbits(48) for _ in range(rng.randrange(0, 65))]
              for _ in range(3 * bound)]
    for pcs in traces:
        assert compress_trace(pcs) == _reference_compress(pcs)
    # The first traces were evicted long ago: encoding them again still
    # gives the reference, and the memo never holds more than its bound.
    for pcs in traces[:bound]:
        assert compress_trace(tuple(pcs)) == _reference_compress(pcs)
    assert metadata._compress.cache_info().currsize <= bound


# -- the one-loop coders and capture against the helper-built reference -------
#
# compress_trace, decompress_trace and capture_trace are single loops.
# The references below build the same results from the helpers at the
# top of this file: the encoded bytes are a contract, and capture must
# keep the same pcs in the same order.


def _reference_compress(pcs):
    if not pcs:
        return CompressedTrace(0, 0, b"")
    out = bytearray()
    prev = pcs[0]
    for pc in pcs[1:]:
        out += uleb128_encode(zigzag_encode(pc - prev))
        prev = pc
    return CompressedTrace(len(pcs), pcs[0] & ((1 << 64) - 1), bytes(out))


def _reference_decompress(trace):
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


def _pc_lists():
    """0-65 pcs of one width, in any order or sorted descending."""
    widths = st.sampled_from([8, 20, 48, 64])
    pcs = widths.flatmap(
        lambda bits: st.lists(st.integers(0, (1 << bits) - 1), max_size=65))
    return st.tuples(pcs, st.booleans()).map(
        lambda drawn: sorted(drawn[0], reverse=True) if drawn[1] else drawn[0])


@settings(max_examples=300)
@given(_pc_lists())
def test_compress_is_byte_equal_to_the_helper_encoding(pcs):
    got = compress_trace(pcs)
    want = _reference_compress(pcs)
    assert got == want
    assert got.byte_size() == len(reference_bytes(want))
    # Interned: the list, a tuple and a repeat give the same object.
    assert compress_trace(tuple(pcs)) is got
    assert compress_trace(list(pcs)) is got


@settings(max_examples=300)
@given(_pc_lists())
def test_decompress_matches_the_helper_decoding(pcs):
    trace = _reference_compress(pcs)
    assert decompress_trace(trace) == _reference_decompress(trace) == pcs


def _outcome(fn, trace):
    try:
        return fn(trace)
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(max_examples=300)
@given(_pc_lists(), st.data())
def test_decompress_raises_like_the_helpers_on_bad_deltas(pcs, data):
    trace = _reference_compress(pcs)
    cut = data.draw(st.integers(0, len(trace.deltas)))
    extra = data.draw(st.binary(max_size=4))
    truncated = CompressedTrace(trace.frame_count, trace.first_pc, trace.deltas[:cut])
    trailing = CompressedTrace(trace.frame_count, trace.first_pc, trace.deltas + extra)
    for bad in (truncated, trailing):
        assert _outcome(decompress_trace, bad) == _outcome(_reference_decompress, bad)
    if cut < len(trace.deltas):
        with pytest.raises(ValueError, match="truncated"):
            decompress_trace(truncated)
    if extra and pcs:
        with pytest.raises(ValueError, match="trailing"):
            decompress_trace(trailing)


def _is_tool_frame(frame):
    return frame.f_globals.get("__name__") in metadata._TOOL_MODULES


def _reference_capture(max_frames=64, depth=1):
    """The rule from its parts: the stack from depth frames up (1 is the
    caller), less its innermost run of tool frames, cut to max_frames."""
    if max_frames <= 0:
        return []
    try:
        frame = sys._getframe(depth)
    except ValueError:
        return []
    frames = []
    while frame is not None:
        frames.append(frame)
        frame = frame.f_back
    kept = list(itertools.dropwhile(_is_tool_frame, frames))[:max_frames]
    return [(id(f.f_code) + max(f.f_lasti, 0)) & ((1 << 64) - 1) for f in kept]


def _parent_capture(max_frames, depth=1):
    """The earlier rule, kept to check the change against: tool frames
    anywhere on the stack are skipped.  It started at the caller; depth
    picks the start frame as capture_trace's does."""
    if max_frames <= 0:
        return []
    getframe = getattr(sys, "_getframe", None)
    if getframe is None:
        return []
    try:
        frame = getframe(depth)
    except ValueError:
        return []
    pcs = []
    append = pcs.append
    tool_modules = metadata._TOOL_MODULES
    module = tool = None
    while frame is not None:
        if frame.f_globals is not module:
            module = frame.f_globals
            tool = module.get("__name__") in tool_modules
        if not tool:
            append(id(frame.f_code) + frame.f_lasti)
            if len(pcs) == max_frames:
                break
        frame = frame.f_back
    return pcs


# A frame whose module name is a tool module's: capture skips it only in
# the innermost run of such frames.
_tool_globals = {"__name__": "guardpool.shim"}
exec("def tool_hop(fn, *args):\n    return fn(*args)\n", _tool_globals)
_tool_hop = _tool_globals["tool_hop"]


def _in_code(pc, fn):
    """Whether pc is a pc of fn's code: its id plus an offset into it."""
    return 0 <= pc - id(fn.__code__) < len(fn.__code__.co_code)


@pytest.mark.parametrize("max_frames", [1, 5, 64])
def test_capture_matches_the_frame_pc_loop(max_frames):
    def both():
        # One call site for both, so the caller's pc is the same for each.
        return [capture(max_frames) for capture in (capture_trace, _reference_capture)]

    def recurse(n):
        if n == 0:
            return both()
        if n % 3 == 0:
            return _tool_hop(recurse, n - 1)
        return recurse(n - 1)

    for depth in range(71):
        got, want = recurse(depth)
        assert got == want, depth
        assert 0 < len(got) <= max_frames
    assert len(got) == max_frames  # depth 70 is deeper than every cap


def test_capture_keeps_a_tool_run_below_a_program_frame():
    def program():
        return _tool_hop(_tool_hop, capture_trace, 64)

    def outer():
        return _tool_hop(program)

    trace = outer()
    # The inner run of two hops is skipped; the hop under program is kept.
    assert _in_code(trace[0], program)
    assert _in_code(trace[1], _tool_hop)
    assert _in_code(trace[2], outer)


def test_capture_from_past_the_bottom_of_the_stack_is_empty():
    assert capture_trace(64, depth=10**6) == []
    assert capture_trace(64, depth=2) != []


def _until_guarded(alloc, make):
    # At rate 1 the countdown still draws a skip of 1 or 2: retry.
    for _ in range(64):
        addr = make()
        if alloc.is_guarded(addr):
            return addr
        alloc.free(addr)
    raise AssertionError("no guarded allocation")


def _record_of(alloc, addr):
    return alloc.pool.snapshot(alloc.pool.classify_address(addr).slot_index)


def test_guarded_traces_start_at_the_program_frame():
    alloc = GuardianAllocator(GuardianConfig(sample_rate=1, seed=5, recoverable=True,
                                             sink=io.StringIO()))

    def calloc_site():
        return alloc.calloc(3, 8)

    def realloc_site(addr):
        return alloc.realloc(addr, 40)

    def free_site(addr):
        alloc.free(addr)

    for _ in range(64):
        block = _until_guarded(alloc, calloc_site)
        assert _in_code(decompress_trace(_record_of(alloc, block).alloc_trace)[0], calloc_site)
        moved = realloc_site(block)
        if alloc.is_guarded(moved):
            break
        alloc.free(moved)
    # realloc's own malloc and free, each past the calloc/realloc frame.
    assert _in_code(decompress_trace(_record_of(alloc, moved).alloc_trace)[0], realloc_site)
    assert _in_code(decompress_trace(_record_of(alloc, block).dealloc_trace)[0], realloc_site)
    free_site(moved)
    assert _in_code(decompress_trace(_record_of(alloc, moved).dealloc_trace)[0], free_site)
    free_site(moved)  # a double free: reported, then recovered
    report = alloc.reporter.last_report
    assert report.kind.name == "DOUBLE_FREE"
    assert _in_code(report.access_trace[0], free_site)


def test_an_allocating_sink_keeps_the_reporter_frames_under_it():
    # The tool's frames below a program frame stay: a report sink that
    # allocates shows where in the reporter it was called from.
    class Sink:
        def __init__(self):
            self.blocks = []

        def write(self, text):
            self.blocks.append(_until_guarded(alloc, lambda: alloc.malloc(16)))

    sink = Sink()
    alloc = GuardianAllocator(GuardianConfig(sample_rate=1, seed=6, recoverable=True, sink=sink))
    block = _until_guarded(alloc, lambda: alloc.malloc(16))
    alloc.free(block)
    alloc.free(block)  # a double free: reported to the sink
    [inner] = sink.blocks
    trace = decompress_trace(_record_of(alloc, inner).alloc_trace)
    assert _in_code(trace[2], Sink.write)
    assert _in_code(trace[3], reporter_module.Reporter._emit)


# One hop per globals dict: two distinct dicts both named like the shim,
# one named like another tool module, and two that are not tool modules.
# The last hop of a chain captures, from one call site, for each cap.
_HOP_SOURCE = (
    "def hop(hops, i, caps, captures):\n"
    "    if i < len(hops):\n"
    "        return hops[i](hops, i + 1, caps, captures)\n"
    "    return [[capture(m) for capture in captures] for m in caps]\n"
)
_HOP_MODULES = ("guardpool.shim", "guardpool.shim", "guardpool.pool", "app.alpha", "app.beta")


def _hop_from(name):
    namespace = {"__name__": name}
    exec(_HOP_SOURCE, namespace)
    return namespace["hop"]


_HOPS = [_hop_from(name) for name in _HOP_MODULES]


@settings(max_examples=300)
@given(st.lists(st.sampled_from(range(len(_HOPS))), min_size=1, max_size=12),
       st.lists(st.integers(1, 40), max_size=4))
def test_capture_matches_the_reference_over_runs_of_frames(chain, caps):
    # Runs of hops from one dict, from distinct dicts of one name, and
    # tool hops anywhere in the chain: only the innermost run of tool
    # hops is skipped, and a tool hop below a program hop is kept.  The
    # last cap is past the number of frames on the stack.
    hops = [_HOPS[k] for k in chain]
    caps = caps + [10**6]
    results = hops[0](hops, 1, caps, (capture_trace, _reference_capture))
    full = results[-1][1]
    assert len(full) < 10**6
    for cap, (got, want) in zip(caps, results):
        assert got == want, (chain, cap)
        assert len(got) == min(cap, len(full))


# -- the change of rule against the earlier one -------------------------------
#
# capture_trace used to skip tool frames anywhere on the stack, starting
# at its caller.  Where the tool's frames are only the innermost run, as
# on every stack the allocator and the harness make, both rules must give
# the same trace.  The fixture makes each capture the shim or reporter
# asks for run both rules from the same frame.


@pytest.fixture
def against_the_earlier_rule(monkeypatch):
    pairs = []

    def both(max_frames, depth=1):
        # One frame more than the caller asked for: this one.
        got = capture_trace(max_frames, depth + 1)
        pairs.append((got, _parent_capture(max_frames, 2)))
        return got

    monkeypatch.setattr(shim_module, "capture_trace", both)
    monkeypatch.setattr(reporter_module, "capture_trace", both)
    return pairs


@pytest.mark.parametrize("max_frames", [4, 64])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_guarded_ops_capture_as_the_earlier_rule(against_the_earlier_rule, seed, max_frames):
    rng = random.Random(seed)
    alloc = GuardianAllocator(GuardianConfig(sample_rate=1, seed=seed, slot_count=16,
                                             max_frames=max_frames, sink=io.StringIO()))
    live = []
    for _ in range(400):
        depth = rng.randrange(12)
        op = rng.randrange(4)
        if op == 0 or not live:
            live.append(at_depth(depth, alloc.malloc, rng.randrange(1, 256)))
        elif op == 1:
            live.append(at_depth(depth, alloc.calloc, 2, rng.randrange(1, 128)))
        elif op == 2:
            live.append(at_depth(depth, alloc.realloc, live.pop(0), rng.randrange(1, 256)))
        else:
            at_depth(depth, alloc.free, live.pop(0))
        if len(live) > 12:
            at_depth(depth, alloc.free, live.pop(0))
    assert alloc.stats.guarded > 50
    assert len(against_the_earlier_rule) > 100
    for got, want in against_the_earlier_rule:
        assert got == want
        assert 0 < len(got) <= max_frames


@pytest.mark.parametrize("recoverable", [False, True])
@pytest.mark.parametrize("kind", sorted(cli._INJECTIONS))
def test_injected_bugs_capture_as_the_earlier_rule(against_the_earlier_rule, capsys,
                                                   kind, recoverable):
    argv = ["inject", kind, "--format", "records"] + ["--recoverable"] * recoverable
    assert cli.main(argv) == cli.EXIT_OK
    assert "detected=1" in capsys.readouterr().out
    # The victim's allocation and, but for the free bugs, its access.
    assert len(against_the_earlier_rule) >= 2
    for got, want in against_the_earlier_rule:
        assert got == want
        assert got


# -- the walk's cost, counted in bytecodes ------------------------------------


def _is_capture(code):
    return code is capture_trace.__code__


# Counted on CPython 3.11, at max_frames=4 under five at_depth frames, so
# pytest's own depth does not matter.  The earlier rule ran 206 for each:
# it walked the tool's own two frames and compared each frame's globals.
CAPTURE_OPCODES = {(3, 11): {"malloc": 121, "free": 121}}


def test_capture_runs_pinned_bytecode_counts():
    pinned = CAPTURE_OPCODES.get(sys.version_info[:2])
    if pinned is None:
        pytest.skip("bytecode counts are pinned for CPython 3.11 only")
    alloc = GuardianAllocator(GuardianConfig(sample_rate=1, seed=4, max_frames=4,
                                             sink=io.StringIO()))
    counts = {}
    for _ in range(64):
        sampled = alloc.stats.sampled
        addr, counts["malloc"] = traced_opcodes(_is_capture, at_depth, 4, alloc.malloc, 16)
        if alloc.is_guarded(addr):
            break
        assert alloc.stats.sampled == sampled and counts["malloc"] == 0
    _, counts["free"] = traced_opcodes(_is_capture, at_depth, 4, alloc.free, addr)
    assert counts == pinned
