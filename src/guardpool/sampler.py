"""Sampling policies deciding which allocations get a guarded slot.

Three independent gates exist in a deployment:

* a per-process launch decision (a small fraction of processes enable
  the tool at all),
* the per-allocation policy: either a countdown whose skip lengths are
  drawn uniformly from [1, 2*sample_rate], so the long-run sampling
  rate is 1/(sample_rate + 1/2), or a timer gate that admits at most
  one sampled allocation per interval,
* the pool itself, which can still refuse (no free slot).

The countdown fast path is a single decrement and compare; the RNG only
runs when a sample fires.  GuardianAllocator keeps one countdown per
allocator, shared by all threads and stepped with no lock (its host
fast path takes none either), and calls next_skip() when it runs out.
Its step is one C operation, atomic under the GIL, so a thread race
loses no decrement and can only take one extra sample.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One splitmix64 step; mixes weak seeds into full-width state."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class Xorshift64Star:
    """xorshift64* PRNG: 64 bits of state, never zero.

    below(n) uses rejection sampling so results are exactly uniform,
    not merely close, which the skip-length distribution relies on.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        s = splitmix64(seed & _MASK64)
        self.state = s if s else 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        s = self.state
        s ^= s >> 12
        s = (s ^ (s << 25)) & _MASK64
        s ^= s >> 27
        self.state = s
        return (s * 0x2545F4914F6CDD1D) & _MASK64

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n


class CounterSampler:
    """Countdown sampler over one seeded stream of skip lengths.

    Skip lengths are drawn uniformly from [1, 2*sample_rate]; the mean
    and median gap between samples is then sample_rate + 1/2, and
    sample points stay unpredictable to the application.  All threads
    share the countdown and the stream, unlocked, like the allocator's
    own countdown, so runs on one thread are fully reproducible under a
    fixed seed.
    """

    def __init__(self, sample_rate: int, seed: Optional[int] = None):
        if sample_rate < 1:
            raise ValueError(f"sample_rate must be >= 1, got {sample_rate}")
        self.sample_rate = sample_rate
        self._span = 2 * sample_rate
        # below(span)'s rejection bound, computed once for next_skip.
        self._limit = (1 << 64) - ((1 << 64) % self._span)
        self._rng = Xorshift64Star(time.time_ns() if seed is None else seed)
        self._skip = 1 + self._rng.below(self._span)

    def want_to_sample(self) -> bool:
        """Fast path: decrement; redraw only when the countdown fires."""
        remaining = self._skip - 1
        if remaining > 0:
            self._skip = remaining
            return False
        self.next_skip()
        return True

    def next_skip(self) -> int:
        """Calls up to and including the next sample, then redraw.

        Counting down this many calls per next_skip() samples exactly
        the calls on which want_to_sample() would return True.
        """
        skip = self._skip
        # below(span) and its next_u64 steps inlined: the same draws, so
        # the same stream.
        rng = self._rng
        s = rng.state
        while True:
            s ^= s >> 12
            s = (s ^ (s << 25)) & _MASK64
            s ^= s >> 27
            x = (s * 0x2545F4914F6CDD1D) & _MASK64
            if x < self._limit:
                break
        rng.state = s
        self._skip = 1 + x % self._span
        return skip


class TimerGate:
    """At most one sample per interval, kfence-style.

    One deadline, one interval after construction: the first query on
    or after it claims the sample and sets the next deadline one
    interval after that query.  Consumption is atomic: with many threads
    racing past the deadline, exactly one observes True.
    """

    def __init__(self, interval: float = 0.1, clock: Callable[[], float] = time.monotonic):
        if not interval > 0:  # also rejects NaN
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = interval
        self._clock = clock
        self._lock = threading.Lock()
        self._deadline = clock() + interval

    def want_to_sample(self) -> bool:
        now = self._clock()
        if now < self._deadline:
            return False
        with self._lock:
            if now < self._deadline:
                return False
            # Schedule from the consumption point: one sample per
            # interval of wall time, not a fixed phase grid.
            self._deadline = now + self.interval
            return True


def process_sampling_decision(probability: float, rng: Xorshift64Star) -> bool:
    """Decide once per process whether the tool is enabled this launch.

    The tool is on with the given probability; 0 and 1 draw nothing.
    """
    if probability <= 0.0:
        return False
    if probability >= 1.0:
        return True
    return rng.next_u64() < int(probability * (1 << 64))
