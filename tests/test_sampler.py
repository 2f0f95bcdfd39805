"""Sampling policy behavior: distribution shape, determinism, atomicity."""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guardpool.sampler import (
    CounterSampler,
    TimerGate,
    Xorshift64Star,
    process_sampling_decision,
    splitmix64,
)

MASK64 = (1 << 64) - 1


# Reference implementations, written independently of the library code
# so distribution tests are anchored to something other than themselves.
def _ref_splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def _ref_xorshift_stream(seed, count):
    state = _ref_splitmix64(seed & MASK64) or 0x9E3779B97F4A7C15
    out = []
    for _ in range(count):
        state ^= state >> 12
        state = (state ^ (state << 25)) & MASK64
        state ^= state >> 27
        out.append((state * 0x2545F4914F6CDD1D) & MASK64)
    return out


@given(st.integers(min_value=0, max_value=MASK64))
def test_splitmix64_matches_reference(seed):
    assert splitmix64(seed) == _ref_splitmix64(seed)


@pytest.mark.parametrize("seed", [0, 1, 6, 0xDEADBEEF, MASK64])
def test_xorshift_stream_matches_reference(seed):
    rng = Xorshift64Star(seed)
    assert [rng.next_u64() for _ in range(100)] == _ref_xorshift_stream(seed, 100)


def test_xorshift_state_never_zero():
    rng = Xorshift64Star(0)
    assert rng.state != 0


@given(st.integers(min_value=1, max_value=10_000), st.integers(min_value=0, max_value=MASK64))
def test_below_stays_in_range(n, seed):
    rng = Xorshift64Star(seed)
    for _ in range(20):
        assert 0 <= rng.below(n) < n


def test_below_rejects_nonpositive():
    with pytest.raises(ValueError):
        Xorshift64Star(1).below(0)


# -- counter policy -----------------------------------------------------


def test_counter_sampler_rejects_zero_rate():
    with pytest.raises(ValueError):
        CounterSampler(0)


def test_rate_one_samples_every_allocation():
    sampler = CounterSampler(1, seed=42)
    # skip is always drawn from {1, 2}; every draw of 1 fires
    # immediately and a draw of 2 fires one call later.
    results = [sampler.want_to_sample() for _ in range(100)]
    assert sum(results) >= 33
    gaps = _gaps(results)
    assert all(gap in (1, 2) for gap in gaps)


def _gaps(results):
    gaps, prev = [], 0
    for i, sampled in enumerate(results, start=1):
        if sampled:
            gaps.append(i - prev)
            prev = i
    return gaps


def test_gap_lengths_cover_full_span_and_stay_in_bounds():
    rate = 50
    sampler = CounterSampler(rate, seed=7)
    results = [sampler.want_to_sample() for _ in range(200_000)]
    gaps = _gaps(results)
    assert min(gaps) >= 1
    assert max(gaps) <= 2 * rate
    # Uniform on [1, 2*rate]: the mean converges to rate + 0.5.
    mean = sum(gaps) / len(gaps)
    assert rate * 0.9 < mean < rate * 1.1


def _ref_below(draw, n):
    """below(n) over a stream of 64-bit draws: rejection, then modulo."""
    limit = (1 << 64) - ((1 << 64) % n)
    while True:
        x = draw()
        if x < limit:
            return x % n


# The last rate makes the span about 2/3 of 2**64, so about a third of
# the draws are rejected and the rejection loop really runs.
@pytest.mark.parametrize("rate", [1, 3, 7, 5000, 12345, (1 << 64) // 3])
@pytest.mark.parametrize("seed", [0, 1, 6, 0xDEADBEEF, MASK64])
def test_skip_sequence_is_the_below_based_stream(seed, rate):
    sampler = CounterSampler(rate, seed)
    rng = Xorshift64Star(seed)
    want = [1 + _ref_below(rng.next_u64, 2 * rate) for _ in range(2000)]
    # The constructor draws the first skip; each next_skip returns the
    # pending one and draws the next.
    assert [sampler.next_skip() for _ in range(2000)] == want


def test_same_seed_same_decision_sequence():
    a = CounterSampler(100, seed=123)
    b = CounterSampler(100, seed=123)
    seq_a = [a.want_to_sample() for _ in range(10_000)]
    seq_b = [b.want_to_sample() for _ in range(10_000)]
    assert seq_a == seq_b


def test_threads_sharing_a_sampler_each_sample_at_rate():
    sampler = CounterSampler(10, seed=9)
    per_thread = {}

    def worker(name):
        per_thread[name] = [sampler.want_to_sample() for _ in range(1000)]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # Both threads sample at the configured rate; they draw from one
    # shared stream, so they are not in lockstep.
    assert per_thread[0] != per_thread[1]
    for seq in per_thread.values():
        assert 0.05 < sum(seq) / len(seq) < 0.2


def test_shared_countdown_keeps_sampling_under_thread_switches():
    # Unlocked decrements may be lost or repeated across threads, but the
    # countdown never drops below 1, so no thread ever stops sampling.
    sampler = CounterSampler(10, seed=5)
    counts = []

    def worker():
        counts.append(sum(sampler.want_to_sample() for _ in range(20_000)))

    threads = [threading.Thread(target=worker) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(counts) == 4
    for count in counts:
        assert 1000 < count < 4000, counts
    assert sampler.next_skip() >= 1
    assert any(sampler.want_to_sample() for _ in range(21))


# -- timer policy ------------------------------------------------------------


def _mock_clock(step):
    now = [0.0]

    def clock():
        now[0] += step
        return now[0]

    return clock


def test_timer_gate_emits_once_per_interval():
    clock = _mock_clock(0.001)
    gate = TimerGate(interval=0.1, clock=clock)
    samples = sum(gate.want_to_sample() for _ in range(1000))
    # Clock spans ~1s at 0.1s interval.
    assert 9 <= samples <= 11


def test_timer_gate_consume_is_atomic_across_threads():
    # The clock reads 0 at construction and 2000 after, so every thread
    # queries past the first deadline (1000) and before the next (3000).
    readings = iter([0.0])
    gate = TimerGate(interval=1000.0, clock=lambda: next(readings, 2000.0))
    barrier = threading.Barrier(8)
    winners = []

    def worker():
        barrier.wait()
        if gate.want_to_sample():
            winners.append(threading.get_ident())

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(winners) == 1


def test_timer_gate_rejects_bad_interval():
    for interval in (0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            TimerGate(interval=interval)


# -- process sampling -------------------------------------------------------


def test_probability_extremes_short_circuit():
    rng = Xorshift64Star(1)
    assert not process_sampling_decision(0.0, rng)
    assert process_sampling_decision(1.0, rng)
    assert rng.state == Xorshift64Star(1).state, "the extremes draw nothing"


def test_launch_fraction_tracks_probability():
    # 1/128 of launches enabled: oracle recomputed inline from the
    # reference stream so the library's decision is pinned to it.
    probability = 1.0 / 128.0
    threshold = int(probability * (1 << 64))
    launches = 100_000
    expected = sum(
        1 for seed in range(launches)
        if _ref_xorshift_stream(seed, 1)[0] < threshold
    )
    got = sum(
        1 for seed in range(launches)
        if process_sampling_decision(probability, Xorshift64Star(seed))
    )
    assert got == expected
    assert abs(got - launches / 128) <= 0.15 * launches / 128


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=MASK64))
def test_decision_deterministic_under_seed(seed):
    assert process_sampling_decision(0.5, Xorshift64Star(seed)) == process_sampling_decision(
        0.5, Xorshift64Star(seed)
    )
