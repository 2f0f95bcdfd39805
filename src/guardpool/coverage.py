"""Allocation-site coverage policy for slot admission under pressure.

With a small pool, one hot allocation site can monopolize every slot
and starve rare call sites of coverage.  The policy: while pool
utilization is below a threshold, admit everything; at or above it,
admit only call sites that do not already hold a slot.  Site identity
is a 64-bit hash of the allocation stack trace, computed once per
distinct stack and kept in a bounded memo.  Membership is an exact
count of live guarded allocations per site, so the filter has no false
positives and no false negatives, and it holds at most the pool's
max_live keys.

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
    low bits alone; the xor-shift-multiply finaliser mixes the high bits
    back down.  The filter needs no well-mixed bits, since it keys on
    the whole id, but the values of source_of are a tested contract and
    are recorded with each slot, so the finaliser stays.
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
    """The live guarded allocations of each site, counted exactly."""

    # Always 0: counts are exact.  perfbench/tracer.py is its only reader.
    saturated_count = 0

    def __init__(self, utilization_threshold: float = 0.75):
        if not 0.0 < utilization_threshold <= 1.0:
            raise ValueError(
                f"utilization_threshold must be in (0, 1], got {utilization_threshold}"
            )
        self.utilization_threshold = utilization_threshold
        self._live: dict[int, int] = {}

    def insert(self, source: int) -> None:
        live = self._live
        live[source] = live.get(source, 0) + 1

    def remove(self, source: int) -> None:
        """Undo one insert; a site with no live insertion is left alone."""
        live = self._live
        count = live.get(source)
        if count is None:
            return
        if count > 1:
            live[source] = count - 1
        else:
            del live[source]

    def query(self, source: int) -> bool:
        """True exactly when the source holds a slot."""
        return source in self._live

    def admit(self, pool_utilization: float, source: int) -> bool:
        """Admission decision; on True the caller inserts after acquiring."""
        if pool_utilization < self.utilization_threshold:
            return True
        return source not in self._live

    def rebuild(self, live_sources: Iterable[int]) -> None:
        """Reset and re-insert the given live sources.

        Nothing in guardpool calls it; it stays because
        perfbench/tracer.py, its only reader, wraps it.
        """
        self._live = {}
        for source in live_sources:
            self.insert(source)
