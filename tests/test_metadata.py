"""Trace capture, varint compression, and the seqlock record store."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guardpool.metadata import (
    CompressedTrace,
    MetadataStore,
    capture_trace,
    compress_trace,
    decompress_trace,
    uleb128_decode,
    uleb128_encode,
    zigzag_decode,
    zigzag_encode,
)


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
    st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), min_size=0, max_size=40)
)
def test_trace_wire_format_round_trip(trace):
    compressed = compress_trace(trace)
    wire = compressed.to_bytes()
    assert CompressedTrace.from_bytes(wire) == compressed
    assert compressed.byte_size() == len(wire)


@given(
    st.integers(min_value=0, max_value=1 << 30),
    st.integers(min_value=0, max_value=(1 << 64) - 1),
    st.binary(max_size=64),
)
def test_byte_size_counts_the_wire_bytes(frame_count, first_pc, deltas):
    # Frame counts past 127 need a multi-byte uleb128 head.
    trace = CompressedTrace(frame_count, first_pc, deltas)
    assert trace.byte_size() == len(trace.to_bytes())


def test_empty_trace_wire_format_is_one_byte():
    assert compress_trace([]).to_bytes() == b"\x00"


def test_from_bytes_rejects_truncation():
    wire = compress_trace([1, 2, 3]).to_bytes()
    with pytest.raises(ValueError):
        decompress_trace(CompressedTrace.from_bytes(wire[:-1]))


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


def test_snapshot_rejects_torn_record():
    store = MetadataStore(capacity=1)
    seq = store.store_alloc(0, 8, 1, [0x10])
    record = store._records[0]
    record.version += 1  # simulate a writer caught mid-update
    assert store.snapshot(0, seq) is None
    record.version += 1
    assert store.snapshot(0, seq) is not None


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
