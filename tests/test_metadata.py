"""Trace capture, varint compression, and the per-slot record store."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guardpool import metadata
from guardpool.metadata import (
    CompressedTrace,
    MetadataStore,
    capture_trace,
    compress_trace,
    decompress_trace,
)

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
        return capture_trace()

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
    # any other library-internal frame) must not appear.
    import guardpool.metadata as metadata_module

    trace = capture_trace()
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
        return capture_trace()

    # One bytecode call site (the comprehension) so every frame,
    # including the callers', has identical pcs across iterations.
    first, second = [site() for _ in range(2)]
    assert first == second


def test_capture_distinguishes_call_sites():
    def site_a():
        return capture_trace()

    def site_b():
        return capture_trace()

    assert site_a() != site_b()


# -- record store ---------------------------------------------------------


def test_store_alloc_returns_index_and_sequence():
    store = MetadataStore(capacity=4)
    seq = store.store_alloc(2, 41, 111, [0x10, 0x20])
    snap = store.snapshot(2, seq)
    assert snap is not None
    assert snap.slot_index == 2
    assert snap.user_size == 41
    assert snap.alloc_thread == 111
    assert decompress_trace(snap.alloc_trace) == [0x10, 0x20]
    assert snap.dealloc_thread is None
    assert store.store_alloc(0, 8, 1, [0x10]) > seq


def test_store_dealloc_attaches_evidence():
    store = MetadataStore(capacity=4)
    seq = store.store_alloc(0, 8, 1, [0x10])
    assert store.store_dealloc(0, seq, 2, [0x30, 0x40])
    snap = store.snapshot(0, seq)
    assert snap.dealloc_thread == 2
    assert decompress_trace(snap.dealloc_trace) == [0x30, 0x40]


def test_slot_reuse_recycles_record():
    store = MetadataStore(capacity=2)
    first_seq = store.store_alloc(0, 8, 1, [0x10])
    # Other slots' allocations leave slot 0's record alone...
    for _ in range(10):
        store.store_alloc(1, 8, 1, [0x20])
    assert store.snapshot(0, first_seq).user_size == 8
    # ...and only reusing slot 0 recycles it.
    store.store_alloc(0, 16, 1, [0x30])
    assert store.snapshot(0, first_seq) is None


def test_store_dealloc_is_noop_after_eviction():
    store = MetadataStore(capacity=1)
    seq = store.store_alloc(0, 8, 1, [0x10])
    newer_seq = store.store_alloc(0, 8, 1, [0x20])  # slot 0 reused
    assert not store.store_dealloc(0, seq, 2, [0x30])
    snap = store.snapshot(0, newer_seq)
    assert snap.dealloc_thread is None


def test_stored_records_are_never_changed():
    store = MetadataStore(capacity=1)
    seq = store.store_alloc(0, 8, 1, [0x10])
    before_free = store.snapshot(0, seq)
    assert store.store_dealloc(0, seq, 2, [0x30])
    after_free = store.snapshot(0, seq)
    assert before_free.dealloc_thread is None
    assert before_free.dealloc_trace is None
    assert after_free is not before_free
    assert store.snapshot(0, seq) is after_free
    assert after_free.dealloc_thread == 2
    # Reusing the slot leaves earlier snapshots as they were.
    store.store_alloc(0, 16, 3, [0x50])
    for snap in (before_free, after_free):
        assert snap.user_size == 8
        assert snap.alloc_thread == 1
        assert decompress_trace(snap.alloc_trace) == [0x10]
    assert decompress_trace(after_free.dealloc_trace) == [0x30]


def test_snapshot_out_of_range_index():
    store = MetadataStore(capacity=1)
    seq = store.store_alloc(0, 8, 1, [0x10])
    assert store.snapshot(5, seq) is None
    assert store.snapshot(-1, seq) is None


def test_snapshot_of_never_stored_slot_is_lost():
    # A slot's metadata_seq starts at -1; an untouched record must not match it.
    store = MetadataStore(capacity=2)
    assert store.snapshot(1, -1) is None


def test_trace_byte_accounting_tracks_slot_records():
    store = MetadataStore(capacity=2)
    assert store.accounted_trace_bytes() == 0
    seq = store.store_alloc(0, 8, 1, [0x1000, 0x1010])
    one = store.accounted_trace_bytes()
    assert one == compress_trace([0x1000, 0x1010]).byte_size()
    store.store_dealloc(0, seq, 1, [0x2000])
    two = store.accounted_trace_bytes()
    assert two == one + compress_trace([0x2000]).byte_size()
    # Another slot adds its own contribution.
    store.store_alloc(1, 8, 1, [0x3000])
    three = two + compress_trace([0x3000]).byte_size()
    assert store.accounted_trace_bytes() == three
    # Reusing slot 0 replaces its contribution instead of leaking it.
    store.store_alloc(0, 8, 1, [0x4000])
    assert store.accounted_trace_bytes() == three - two + compress_trace([0x4000]).byte_size()


def test_max_frames_truncates_stored_traces():
    store = MetadataStore(capacity=1, max_frames=4)
    seq = store.store_alloc(0, 8, 1, list(range(100, 120)))
    snap = store.snapshot(0, seq)
    assert decompress_trace(snap.alloc_trace) == [100, 101, 102, 103]


def test_capacity_validated():
    with pytest.raises(ValueError):
        MetadataStore(capacity=0)


# -- interning ---------------------------------------------------------------


def test_equal_traces_in_two_slots_share_one_compressed_trace():
    store = MetadataStore(capacity=2)
    trace = [0x7F0000400000 + i * 0x180 for i in range(5)]
    first = store.store_alloc(0, 8, 1, trace)
    second = store.store_alloc(1, 16, 2, list(trace))
    shared = store.snapshot(0, first).alloc_trace
    assert store.snapshot(1, second).alloc_trace is shared
    assert store.store_dealloc(1, second, 2, tuple(trace))
    assert store.snapshot(1, second).dealloc_trace is shared
    # Accounting still counts a trace per record.
    assert store.accounted_trace_bytes() == 3 * shared.byte_size()


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


def _reference_capture(max_frames=64):
    import guardpool.metadata as metadata_module

    if max_frames <= 0:
        return []
    frame = sys._getframe(1)
    pcs = []
    while frame is not None and len(pcs) < max_frames:
        if frame.f_globals.get("__name__") not in metadata_module._TOOL_MODULES:
            pcs.append((id(frame.f_code) + max(frame.f_lasti, 0)) & ((1 << 64) - 1))
        frame = frame.f_back
    return pcs


# A frame whose module name is a tool module's: capture must skip it.
_tool_globals = {"__name__": "guardpool.shim"}
exec("def tool_hop(fn, *args):\n    return fn(*args)\n", _tool_globals)
_tool_hop = _tool_globals["tool_hop"]


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
