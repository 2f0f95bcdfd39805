"""Counting Bloom filter properties and the admission policy."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guardpool import coverage
from guardpool.coverage import EMPTY_TRACE_SOURCE, CoverageFilter, source_of

_M = (1 << 64) - 1


def _reference_source(trace):
    """The site hash computed afresh: FNV-1a words, then the finaliser."""
    if not trace:
        return 0xCBF29CE484222325
    h = 0xCBF29CE484222325
    for pc in trace:
        h = ((h ^ (pc & _M)) * 0x100000001B3) & _M
    h ^= h >> 32
    h = (h * 0xD6E8FEB86659FD93) & _M
    return h ^ (h >> 32)


def test_source_is_deterministic_and_trace_sensitive():
    trace = [0x1000, 0x2040, 0x3008]
    assert source_of(trace) == source_of(list(trace))
    assert source_of(trace) != source_of([0x1000, 0x2040])
    assert source_of(trace) != source_of([0x1000, 0x2041, 0x3008])


def test_source_order_sensitive():
    assert source_of([1, 2]) != source_of([2, 1])


def test_empty_trace_has_stable_sentinel_source():
    assert source_of([]) == EMPTY_TRACE_SOURCE
    # Also once the memo holds it, and from a tuple.
    assert source_of([]) == source_of(()) == EMPTY_TRACE_SOURCE


@settings(max_examples=200)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=65))
def test_source_matches_the_reference_for_lists_and_tuples(trace):
    want = _reference_source(trace)
    assert source_of(trace) == want
    assert source_of(tuple(trace)) == want
    assert source_of(list(trace)) == want


def test_memoized_source_matches_the_reference_after_eviction():
    bound = coverage._SOURCE_MEMO_SIZE
    rng = random.Random(23)
    traces = [[rng.getrandbits(48) for _ in range(rng.randrange(1, 65))]
              for _ in range(3 * bound)]
    for trace in traces:
        assert source_of(trace) == _reference_source(trace)
    # The first traces were evicted long ago; hashing them again still
    # gives the reference, and the memo never holds more than its bound.
    for trace in traces[:bound]:
        assert source_of(tuple(trace)) == _reference_source(trace)
    assert coverage._site_hash.cache_info().currsize <= bound


def test_source_fits_64_bits():
    assert 0 <= source_of([2**64 - 1, 0, 12345]) < 2**64


def test_single_bit_flips_spread_into_the_low_bits():
    # _indexes probes from the low bits of a source.  A plain word fold
    # leaves them a function of the pcs' low bits only, so two sites
    # whose pcs differ only above bit 10 would share every first probe.
    import random

    rng = random.Random(2024)
    xs = [rng.getrandbits(64) for _ in range(2000)]
    for k in range(10, 61):
        differ = sum(
            (source_of([x]) ^ source_of([x ^ (1 << k)])) & 0x3FF != 0 for x in xs)
        assert differ >= 0.9 * len(xs), (k, differ)


def test_insert_then_query():
    bloom = CoverageFilter()
    source = source_of([0x10, 0x20])
    assert not bloom.query(source)
    bloom.insert(source)
    assert bloom.query(source)
    bloom.remove(source)
    assert not bloom.query(source)


def test_counting_supports_multiplicity():
    bloom = CoverageFilter()
    source = source_of([0x10])
    bloom.insert(source)
    bloom.insert(source)
    bloom.remove(source)
    assert bloom.query(source)
    bloom.remove(source)
    assert not bloom.query(source)


def test_remove_never_underflows():
    bloom = CoverageFilter()
    source = source_of([0x99])
    for _ in range(5):
        bloom.remove(source)
    assert all(count == 0 for count in bloom._table)
    bloom.insert(source)
    assert bloom.query(source)


@settings(max_examples=50)
@given(
    st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                       st.integers(min_value=-20, max_value=20)), max_size=40),
)
def test_no_false_negatives_against_multiset(universe, steps):
    # A small universe of sources lets multiplicities pass 15; a step
    # inserts its source n times or removes up to -n of its live copies.
    bloom = CoverageFilter(counters=128)
    live = {}
    for index, n in steps:
        source = universe[index % len(universe)]
        if n > 0:
            for _ in range(n):
                bloom.insert(source)
            live[source] = live.get(source, 0) + n
        else:
            for _ in range(min(-n, live.get(source, 0))):
                bloom.remove(source)
                live[source] -= 1
        for held, count in live.items():
            assert not count or bloom.query(held), "live source must always be visible"
        assert sum(bloom._table) == bloom.hashes * sum(live.values()), "counts are exact"
    for source, count in live.items():
        for _ in range(count):
            bloom.remove(source)
    assert bloom._table == [0] * bloom.counters


def test_false_positive_rate_near_theory():
    # 64 live sources in 1024 counters with 2 hashes: classic Bloom
    # theory predicts (1 - e^(-kn/M))^k; the counting variant should
    # stay within 2x of that at this load.
    import math
    import random

    rng = random.Random(404)
    bloom = CoverageFilter(counters=1024, hashes=2)
    live = {rng.getrandbits(64) for _ in range(64)}
    for source in live:
        bloom.insert(source)
    trials = 10_000
    hits = 0
    for _ in range(trials):
        probe = rng.getrandbits(64)
        while probe in live:
            probe = rng.getrandbits(64)
        hits += bloom.query(probe)
    theoretical = (1.0 - math.exp(-2 * 64 / 1024)) ** 2
    assert hits / trials <= 2.0 * theoretical, (hits, theoretical)


def test_admission_below_threshold_is_unconditional():
    bloom = CoverageFilter(utilization_threshold=0.75)
    source = source_of([0xAA])
    bloom.insert(source)
    assert bloom.admit(0.5, source)
    assert bloom.admit(0.74, source)


def test_admission_at_threshold_requires_new_source():
    bloom = CoverageFilter(utilization_threshold=0.75)
    hot = source_of([0xAA])
    cold = source_of([0xBB])
    bloom.insert(hot)
    assert not bloom.admit(0.75, hot)
    assert bloom.admit(0.75, cold)
    assert not bloom.admit(1.0, hot)


def test_constructor_validation():
    with pytest.raises(ValueError):
        CoverageFilter(counters=100)  # not a power of two
    with pytest.raises(ValueError):
        CoverageFilter(hashes=0)
    with pytest.raises(ValueError):
        CoverageFilter(utilization_threshold=0.0)
    with pytest.raises(ValueError):
        CoverageFilter(utilization_threshold=1.5)
