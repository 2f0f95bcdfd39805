"""Allocation-site coverage policy for slot admission under pressure.

With a small pool, one hot allocation site can monopolize every slot
and starve rare call sites of coverage.  The policy: while pool
utilization is below a threshold, admit everything; at or above it,
admit only call sites that do not already hold a slot.  Site identity
is a 64-bit hash of the allocation stack trace, computed once per
distinct stack and kept in a bounded memo, and membership is
tracked in a counting Bloom filter whose counters count exactly: a
counter never exceeds the number of live guarded allocations, which
the pool's max_live bounds, so it never saturates, a freed site always
drops out, and the filter never needs a rebuild.

All mutation happens under the owning allocator's pool lock; query is
read-only and safe anywhere.
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1
_FINAL_MULTIPLIER = 0xD6E8FEB86659FD93

# Hash of the empty trace: capture failures still get a stable identity.
EMPTY_TRACE_SOURCE = _FNV_OFFSET


# Allocation stacks repeat, so each distinct one is hashed once.  One
# memo entry holds its key tuple and the pcs' int objects: at most about
# 3 KB for a 64-frame stack.
_SOURCE_MEMO_SIZE = 256


def source_of(trace: Sequence[int]) -> int:
    """The site id of a trace; equal traces hash once."""
    return _site_hash(tuple(trace))


@functools.lru_cache(maxsize=_SOURCE_MEMO_SIZE)
def _site_hash(trace: tuple[int, ...]) -> int:
    """FNV-1a over the trace pcs, one 64-bit word per pc, then a finaliser.

    A word fold leaves the low bits of the hash a function of the pcs'
    low bits alone, and _indexes probes from those bits; the
    xor-shift-multiply finaliser mixes the high bits back down.
    """
    if not trace:
        return EMPTY_TRACE_SOURCE
    mask = _MASK64
    prime = _FNV_PRIME
    h = _FNV_OFFSET
    for pc in trace:
        h = ((h ^ (pc & mask)) * prime) & mask
    h ^= h >> 32
    h = (h * _FINAL_MULTIPLIER) & mask
    return h ^ (h >> 32)


class CoverageFilter:
    """Counting Bloom filter keyed by allocation-site hash.

    Each counter holds the exact number of live insertions that hash to
    it, at most the pool's max_live, so remove() undoes insert() exactly: a live
    site is never missed, and a site whose slots are all freed reads
    absent unless another live site shares all its counters.
    """

    # Always 0: counts are exact.  perfbench/tracer.py is its only reader.
    saturated_count = 0

    def __init__(
        self,
        counters: int = 1024,
        hashes: int = 2,
        utilization_threshold: float = 0.75,
    ):
        if counters < 1 or counters & (counters - 1):
            raise ValueError(f"counters must be a power of two, got {counters}")
        if hashes < 1:
            raise ValueError("hashes must be >= 1")
        if not 0.0 < utilization_threshold <= 1.0:
            raise ValueError(
                f"utilization_threshold must be in (0, 1], got {utilization_threshold}"
            )
        self.counters = counters
        self.hashes = hashes
        self.utilization_threshold = utilization_threshold
        self._table = [0] * counters

    def _indexes(self, source: int) -> list[int]:
        # Double hashing from the two 32-bit halves; the odd step makes
        # every probe sequence cover the power-of-two table.
        h1 = source & 0xFFFFFFFF
        h2 = ((source >> 32) | 1) & 0xFFFFFFFF
        return [(h1 + i * h2) % self.counters for i in range(self.hashes)]

    def insert(self, source: int) -> None:
        for idx in self._indexes(source):
            self._table[idx] += 1

    def remove(self, source: int) -> None:
        """Decrement the source's counters, never below zero."""
        for idx in self._indexes(source):
            if self._table[idx]:
                self._table[idx] -= 1

    def query(self, source: int) -> bool:
        """True if the source may hold a slot (no false negatives)."""
        return all(self._table[idx] > 0 for idx in self._indexes(source))

    def admit(self, pool_utilization: float, source: int) -> bool:
        """Admission decision; on True the caller inserts after acquiring."""
        if pool_utilization < self.utilization_threshold:
            return True
        return not self.query(source)

    def rebuild(self, live_sources: Iterable[int]) -> None:
        """Reset and re-insert the given live sources.

        Nothing in guardpool calls it; it stays because
        perfbench/tracer.py, its only reader, wraps it.
        """
        self._table = [0] * self.counters
        for source in live_sources:
            self.insert(source)
