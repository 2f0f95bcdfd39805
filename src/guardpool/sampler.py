"""Sampling policies deciding which allocations get a guarded slot.

Three independent gates exist in a deployment:

* a per-process launch decision (a small fraction of processes enable
  the tool at all),
* the per-allocation policy: either a countdown whose skip lengths are
  drawn uniformly so the long-run sampling rate is exactly
  1/sample_rate, or a timer gate that admits at most one sampled
  allocation per interval,
* the pool itself, which can still refuse (no free slot).

The countdown fast path is a single decrement and compare; the RNG only
runs when a sample fires.  GuardianAllocator keeps one countdown per
allocator, unlocked, and calls next_skip() when it expires: a thread
race can lose a decrement or take one extra sample, but never stores a
countdown below 1, so sampling never stops.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
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
    """Thread-local countdown sampler.

    Each thread draws skip lengths uniformly from [1, 2*sample_rate];
    the mean and median gap between samples is then sample_rate, and
    sample points stay unpredictable to the application.  Thread RNG
    streams are seeded from the base seed plus a per-thread index
    assigned in thread-arrival order, so single-threaded runs are fully
    reproducible under a fixed seed.
    """

    def __init__(self, sample_rate: int, seed: Optional[int] = None):
        if sample_rate < 1:
            raise ValueError(f"sample_rate must be >= 1, got {sample_rate}")
        self.sample_rate = sample_rate
        self._span = 2 * sample_rate
        if seed is None:
            seed = time.time_ns()
        self._seed = seed & _MASK64
        self._thread_ids = itertools.count()
        sampler = self

        class _State(threading.local):
            # threading.local subclass: __init__ reruns in each thread
            # on first attribute access, giving per-thread rng + skip.
            def __init__(self) -> None:
                index = next(sampler._thread_ids)
                self.rng = Xorshift64Star((sampler._seed + index) & _MASK64)
                self.skip = 1 + self.rng.below(sampler._span)

        self._tls = _State()

    def want_to_sample(self) -> bool:
        """Fast path: decrement; redraw only when the countdown fires."""
        state = self._tls
        remaining = state.skip - 1
        if remaining > 0:
            state.skip = remaining
            return False
        self.next_skip()
        return True

    def next_skip(self) -> int:
        """Calls up to and including the thread's next sample, then redraw.

        Counting down this many calls per next_skip() samples exactly
        the calls on which want_to_sample() would return True.
        """
        state = self._tls
        skip = state.skip
        state.skip = 1 + state.rng.below(self._span)
        return skip


class TimerGate:
    """At most one sample per interval, kfence-style.

    The gate arms itself lazily: the first query on or after the next
    interval boundary claims the sample.  arm() force-opens the gate
    regardless of the clock, which deployments use for the very first
    sample.  Consumption is atomic: with many threads racing on an
    armed gate, exactly one observes True.
    """

    def __init__(
        self,
        interval: float = 0.1,
        clock: Callable[[], float] = time.monotonic,
        armed: bool = False,
    ):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = interval
        self._clock = clock
        self._lock = threading.Lock()
        self._armed = armed
        self._next_arm_at = clock() + interval

    def arm(self) -> None:
        with self._lock:
            self._armed = True

    def want_to_sample(self) -> bool:
        now = self._clock()
        if not self._armed and now < self._next_arm_at:
            return False
        with self._lock:
            if not self._armed:
                if now < self._next_arm_at:
                    return False
                self._armed = True
            self._armed = False
            # Schedule from the consumption point: one sample per
            # interval of wall time, not a fixed phase grid.
            self._next_arm_at = now + self.interval
            return True


@dataclass
class ProcessSampleConfig:
    """Per-launch enablement: probability of turning the tool on at all."""

    probability: float = 1.0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")


def process_sampling_decision(
    config: ProcessSampleConfig, rng: Optional[Xorshift64Star] = None
) -> bool:
    """Decide once per process whether the tool is enabled this launch."""
    if config.probability <= 0.0:
        return False
    if config.probability >= 1.0:
        return True
    if rng is None:
        seed = config.seed if config.seed is not None else time.time_ns()
        rng = Xorshift64Star(seed)
    threshold = int(config.probability * (1 << 64))
    return rng.next_u64() < threshold
