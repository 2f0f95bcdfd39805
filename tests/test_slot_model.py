"""Slot metadata and the free list, checked against an oracle and under threads."""

import io
import random
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from guardpool.pool import SlotState
from guardpool.shim import GuardianAllocator, GuardianConfig


def check_slots(allocator, oracle, free_order=None):
    """Invariants of the pool and the store against oracle[slot] = (size, live).

    free_order, when given, is the free list the oracle expects.
    """
    pool, store = allocator.pool, allocator.store
    allocated = []
    for index, slot in enumerate(pool.slots):
        if slot.state is SlotState.FREE:
            assert index not in oracle
            continue
        size, live = oracle[index]
        assert slot.state is (SlotState.ALLOCATED if live else SlotState.QUARANTINED)
        if live:
            allocated.append(index)
        snap = store.snapshot(index, slot.metadata_seq)
        assert snap is not None
        assert snap.slot_index == index
        assert snap.user_size == size
        assert (snap.dealloc_trace is not None) == (not live)
    free_list = list(pool._free_list)
    assert sorted(free_list + allocated) == list(range(pool.slot_count))
    assert len(free_list) + pool.live_count == pool.slot_count
    if free_order is not None:
        assert free_list == free_order


@settings(max_examples=60, deadline=None)
@given(slot_count=st.integers(1, 8), data=st.data())
def test_guarded_malloc_free_matches_the_oracle(slot_count, data):
    max_live = data.draw(st.integers(1, slot_count), label="max_live")
    allocator = GuardianAllocator(GuardianConfig(
        slot_count=slot_count, max_live=max_live, sample_rate=1,
        seed=data.draw(st.integers(0, 2**32), label="seed"), sink=io.StringIO(),
    ))
    pool = allocator.pool
    oracle = {}  # slot -> (size, live)
    free_order = list(pool._free_list)
    live = []  # (ptr, slot or None)
    last_seq = 0
    for _ in range(data.draw(st.integers(1, 60), label="steps")):
        if live and data.draw(st.booleans(), label="free"):
            ptr, slot_index = live.pop(data.draw(st.integers(0, len(live) - 1), label="which"))
            allocator.free(ptr)
            if slot_index is not None:
                oracle[slot_index] = (oracle[slot_index][0], False)
                free_order.append(slot_index)
        else:
            size = data.draw(st.integers(1, pool.page_size + 64), label="size")
            ptr = allocator.malloc(size)
            slot_index = None
            if allocator.is_guarded(ptr):
                slot_index = pool.classify_address(ptr).slot_index
                assert slot_index == free_order.pop(0)
                assert size <= pool.page_size
                oracle[slot_index] = (size, True)
                seq = pool.slots[slot_index].metadata_seq
                assert seq > last_seq
                last_seq = seq
            live.append((ptr, slot_index))
        check_slots(allocator, oracle, free_order)


def test_snapshots_stay_consistent_under_threads():
    allocator = GuardianAllocator(GuardianConfig(
        slot_count=16, sample_rate=1, seed=5, sink=io.StringIO()))
    pool, store = allocator.pool, allocator.store
    logs = [{} for _ in range(4)]  # per thread: seq -> (slot, size), in order
    snapshots = []
    errors = []
    done = threading.Event()

    def worker(log, tag):
        rng = random.Random(tag)
        try:
            for _ in range(1500):
                size = rng.randint(1, 256)
                ptr = allocator.malloc(size)
                if allocator.is_guarded(ptr):
                    slot_index = pool.classify_address(ptr).slot_index
                    log[pool.slots[slot_index].metadata_seq] = (slot_index, size)
                payload = bytes([tag]) * size
                allocator.vm.write(ptr, payload)
                assert allocator.vm.read(ptr, size) == payload
                allocator.free(ptr)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    def reader():
        rng = random.Random(99)
        while not done.is_set():
            # Half the reads aim at the free list's front: the slot whose
            # record the next guarded malloc rewrites.
            index = pool._free_list[0] if rng.random() < 0.5 else rng.randrange(pool.slot_count)
            snap = store.snapshot(index, pool.slots[index].metadata_seq)
            if snap is not None:
                snapshots.append((index, snap))

    workers = [threading.Thread(target=worker, args=(log, tag))
               for tag, log in enumerate(logs, start=1)]
    snooper = threading.Thread(target=reader)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        snooper.start()
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=120)
    finally:
        done.set()
        snooper.join(timeout=120)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in workers + [snooper])
    assert errors == []

    allocations = {}
    for log in logs:
        seqs = list(log)
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        allocations.update(log)
    assert len(allocations) == sum(map(len, logs)) == pool.acquire_count
    assert snapshots
    for index, snap in snapshots:
        assert snap.slot_index == index
        assert allocations[snap.alloc_seq] == (index, snap.user_size)

    last = {}  # slot -> its latest allocation's seq
    for seq, (slot_index, _) in allocations.items():
        last[slot_index] = max(seq, last.get(slot_index, 0))
    check_slots(allocator, {slot: (allocations[seq][1], False) for slot, seq in last.items()})
