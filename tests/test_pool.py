"""Pool geometry, slot lifecycle, quarantine ordering, classification."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guardpool.metadata import SlotRecord
from guardpool.pool import (
    AddressClassification,
    AddressKind,
    AlignmentSide,
    GuardedPool,
    SlotState,
)
from guardpool.sampler import Xorshift64Star, splitmix64
from guardpool.vmem import SegmentationFault, VirtualMemory

from conftest import acquire_slot, guard_page_addr, release_slot, slot_page_addr

PAGE = 4096


def make_pool(**kwargs) -> GuardedPool:
    vm = kwargs.pop("vm", None) or VirtualMemory(page_size=PAGE)
    return GuardedPool(vm, **{"slot_count": 4, "seed": 0, **kwargs})


def test_region_spans_alternating_guard_and_slot_pages():
    pool = make_pool(slot_count=4, max_live=4)
    assert pool.region_length == 9 * PAGE
    assert sorted(acquire_slot(pool, 8)[0] for _ in range(4)) == [0, 1, 2, 3]
    for i in range(4):
        page = slot_page_addr(pool, i)
        assert page <= pool.user_address(i) < page + PAGE
        assert pool.classify_address(page).slot_index == i
    # With every slot allocated, guard 0 is slot 0's left guard and each
    # later guard is the right guard of the slot before it.
    for i in range(5):
        classification = pool.classify_address(guard_page_addr(pool, i))
        assert (classification.kind, classification.slot_index) == (
            (AddressKind.LEFT_GUARD, 0) if i == 0 else (AddressKind.RIGHT_GUARD, i - 1))


def test_the_pool_lock_is_a_plain_lock():
    # acquire and release run under their caller's one hold, so nothing
    # re-enters the lock; the tests' acquire_slot and release_slot hold
    # it as the allocator does.
    pool = make_pool()
    with pool.lock:
        assert not pool.lock.acquire(blocking=False)
        slot_index, _ = pool.acquire(8)
        pool.store.store_alloc(slot_index, 0, 8, None, 5, (0x100,))
        pool.release(slot_index)
    assert pool.lock.acquire(blocking=False)
    pool.lock.release()


def test_everything_starts_inaccessible():
    pool = make_pool()
    # No page can be read or written, at its first byte or its last.
    for page in range(9):
        for addr in (pool.base + page * PAGE, pool.base + (page + 1) * PAGE - 1):
            for access in (lambda: pool.vm.read(addr, 1), lambda: pool.vm.write(addr, b"x")):
                with pytest.raises(SegmentationFault) as excinfo:
                    access()
                assert excinfo.value.fault.address == addr


def test_acquire_makes_only_the_slot_page_accessible():
    pool = make_pool()
    slot_index, addr = pool.acquire(41)
    page = slot_page_addr(pool, slot_index)
    assert page <= addr < page + PAGE
    pool.vm.write(addr, b"x" * 41)
    # Both neighboring guards stay lethal.
    for guard in (page - PAGE, page + PAGE):
        with pytest.raises(SegmentationFault):
            pool.vm.read(guard, 1)


def test_acquired_slot_is_zeroed():
    pool = make_pool(slot_count=1)
    _, addr = acquire_slot(pool, 64)
    pool.vm.write(addr, b"\xff" * 64)
    release_slot(pool, 0)
    _, addr2 = acquire_slot(pool, 64, alignment=1)
    page = slot_page_addr(pool, 0)
    assert pool.vm.read(page, PAGE) == bytes(PAGE)


@pytest.mark.parametrize(
    "size,alignment,side,expected_offset",
    [
        (41, 1, AlignmentSide.RIGHT, 4055),
        (41, 16, AlignmentSide.RIGHT, 4048),
        (41, 1, AlignmentSide.LEFT, 0),
        (4096, 1, AlignmentSide.RIGHT, 0),
        (1, 4096, AlignmentSide.RIGHT, 0),
    ],
)
def test_alignment_side_geometry(size, alignment, side, expected_offset):
    pool = make_pool(force_alignment_side=side)
    slot_index, addr = pool.acquire(size, alignment)
    assert addr == slot_page_addr(pool, slot_index) + expected_offset
    assert addr % alignment == 0


def test_alignment_side_randomized_both_sides_occur():
    pool = make_pool(slot_count=4, max_live=4)
    offsets = set()
    for trial in range(32):
        slot_index, addr = acquire_slot(pool, 8)
        offsets.add(addr - slot_page_addr(pool, slot_index))
        release_slot(pool, slot_index)
    # Flush left is offset 0; flush right ends at the slot's last byte.
    assert offsets == {0, pool.page_size - 8}


def test_acquire_validates_arguments():
    pool = make_pool()
    with pytest.raises(ValueError):
        pool.acquire(0)
    with pytest.raises(ValueError):
        pool.acquire(-5)
    with pytest.raises(ValueError):
        pool.acquire(8, alignment=3)


def test_oversized_requests_are_unavailable_not_errors():
    pool = make_pool()
    assert pool.acquire(PAGE + 1) is None
    assert pool.acquire(8, alignment=2 * PAGE) is None


def test_max_live_bounds_concurrent_allocations():
    pool = make_pool(slot_count=4, max_live=2)
    first = acquire_slot(pool, 8)
    second = acquire_slot(pool, 8)
    assert first is not None and second is not None
    assert acquire_slot(pool, 8) is None
    assert pool.unavailable_count == 1
    release_slot(pool, first[0])
    assert acquire_slot(pool, 8) is not None


def test_exhausted_free_list_returns_unavailable():
    pool = make_pool(slot_count=2, max_live=2)
    pool.acquire(8)
    pool.acquire(8)
    assert pool.acquire(8) is None


def test_release_reprotects_and_quarantines():
    pool = make_pool()
    slot_index, addr = acquire_slot(pool, 41)
    release_slot(pool, slot_index)
    assert pool.slots[slot_index].state is SlotState.QUARANTINED
    with pytest.raises(SegmentationFault):
        pool.vm.read(addr, 1)


def test_release_requires_allocated_state():
    pool = make_pool()
    with pytest.raises(ValueError):
        release_slot(pool, 0)
    slot_index, _ = acquire_slot(pool, 8)
    release_slot(pool, slot_index)
    with pytest.raises(ValueError):
        release_slot(pool, slot_index)


def test_reuse_order_is_fifo_over_releases():
    pool = make_pool(slot_count=4, max_live=4)
    acquired = [acquire_slot(pool, 8)[0] for _ in range(4)]
    for slot_index in acquired:
        release_slot(pool, slot_index)
    reused = [acquire_slot(pool, 8)[0] for _ in range(4)]
    assert reused == acquired


def test_released_slot_waits_behind_free_list():
    # The slot released first waits until every never-used slot and
    # every slot released before it has been served again.
    pool = make_pool(slot_count=4, max_live=4)
    victim, _ = acquire_slot(pool, 8)
    release_slot(pool, victim)
    served = []
    for _ in range(3):
        slot_index, _ = acquire_slot(pool, 8)
        served.append(slot_index)
        release_slot(pool, slot_index)
    assert victim not in served
    assert sorted(served + [victim]) == [0, 1, 2, 3]
    assert acquire_slot(pool, 8)[0] == victim


def test_quarantine_falls_back_to_oldest_when_none_aged():
    # With every never-used slot taken, the oldest release is reused first.
    pool = make_pool(slot_count=2, max_live=2)
    a, _ = acquire_slot(pool, 8)
    b, _ = acquire_slot(pool, 8)
    release_slot(pool, b)
    release_slot(pool, a)
    assert acquire_slot(pool, 8)[0] == b
    assert acquire_slot(pool, 8)[0] == a


def test_protect_failure_returns_the_slot_to_the_front():
    pool = make_pool(slot_count=4, max_live=4)
    front = pool._free_list[0]
    protect = pool.vm.protect

    def failing(*args):
        raise OSError("injected")

    pool.vm.protect = failing
    assert acquire_slot(pool, 8) is None
    pool.vm.protect = protect
    assert pool.protect_failure_count == 1
    assert pool.live_count == 0
    assert acquire_slot(pool, 8)[0] == front


def test_initial_slot_order_is_seed_deterministic():
    order_a = [make_pool(seed=5, slot_count=4).acquire(8)[0] for _ in range(1)]
    order_b = [make_pool(seed=5, slot_count=4).acquire(8)[0] for _ in range(1)]
    assert order_a == order_b


def test_live_count_tracks_lifecycle():
    pool = make_pool()
    assert pool.live_count == 0
    slot_index, _ = acquire_slot(pool, 8)
    assert pool.live_count == 1
    release_slot(pool, slot_index)
    assert pool.live_count == 0


# -- classification -----------------------------------------------------


def test_classify_not_ours_outside_region():
    pool = make_pool()
    assert pool.classify_address(pool.base - 1).kind is AddressKind.NOT_OURS
    end = pool.base + pool.region_length
    assert pool.classify_address(end).kind is AddressKind.NOT_OURS
    assert pool.classify_address(0x10).kind is AddressKind.NOT_OURS


def test_classify_slot_states():
    pool = make_pool(slot_count=2, max_live=2)
    slot_index, addr = acquire_slot(pool, 8)
    classification = pool.classify_address(addr)
    assert classification.kind is AddressKind.ALLOCATED_SLOT
    assert classification.slot_index == slot_index
    release_slot(pool, slot_index)
    assert pool.classify_address(addr).kind is AddressKind.QUARANTINED_SLOT
    other = 1 - slot_index
    free_page = slot_page_addr(pool, other)
    classification = pool.classify_address(free_page)
    assert classification.kind is AddressKind.FREE_SLOT
    assert classification.slot_index == other


def test_classify_guard_attribution_prefers_allocated():
    pool = make_pool(slot_count=4, max_live=4)
    # Arrange: slot A allocated, slot A+1 quarantined, look at the guard
    # between them.
    a, _ = acquire_slot(pool, 8)
    b, _ = acquire_slot(pool, 8)
    left, right = sorted((a, b))
    if right - left != 1:
        pytest.skip("free-list shuffle did not give adjacent slots")
    release_slot(pool, right)
    guard_between = guard_page_addr(pool, right)
    classification = pool.classify_address(guard_between)
    assert classification.kind is AddressKind.RIGHT_GUARD
    assert classification.slot_index == left


def test_classify_guard_tie_prefers_overflow_of_left_slot():
    pool = make_pool(slot_count=4, max_live=4)
    indices = [acquire_slot(pool, 8)[0] for _ in range(4)]
    assert sorted(indices) == [0, 1, 2, 3]
    guard = guard_page_addr(pool, 2)  # between slots 1 and 2, both allocated
    classification = pool.classify_address(guard)
    assert classification.kind is AddressKind.RIGHT_GUARD
    assert classification.slot_index == 1


def test_classify_guard_with_free_neighbors_is_unattributed():
    pool = make_pool()
    for guard_index in range(5):
        classification = pool.classify_address(guard_page_addr(pool, guard_index))
        assert classification.kind is AddressKind.UNATTRIBUTED_GUARD
        assert classification.slot_index is None


def test_classify_edge_guards():
    pool = make_pool(slot_count=2, max_live=2)
    indices = [acquire_slot(pool, 8)[0] for _ in range(2)]
    assert sorted(indices) == [0, 1]
    leftmost = pool.classify_address(pool.base)
    assert leftmost.kind is AddressKind.LEFT_GUARD
    assert leftmost.slot_index == 0
    rightmost = pool.classify_address(pool.base + pool.region_length - 1)
    assert rightmost.kind is AddressKind.RIGHT_GUARD
    assert rightmost.slot_index == 1


def test_classification_matches_brute_force_page_map():
    pool = make_pool(slot_count=3, max_live=3)
    a, _ = acquire_slot(pool, 8)
    release_slot(pool, a)
    b, _ = acquire_slot(pool, 8)
    for page_index in range(2 * 3 + 1):
        addr = pool.base + page_index * PAGE + 17
        classification = pool.classify_address(addr)
        if page_index % 2 == 1:
            slot_index = (page_index - 1) // 2
            expected = {
                SlotState.ALLOCATED: AddressKind.ALLOCATED_SLOT,
                SlotState.QUARANTINED: AddressKind.QUARANTINED_SLOT,
                SlotState.FREE: AddressKind.FREE_SLOT,
            }[pool.slots[slot_index].state]
            assert classification.kind is expected
            assert classification.slot_index == slot_index
        else:
            assert classification.kind in (
                AddressKind.LEFT_GUARD,
                AddressKind.RIGHT_GUARD,
                AddressKind.UNATTRIBUTED_GUARD,
            )



# -- classification against the per-call reference ----------------------------


_REF_RANK = {SlotState.ALLOCATED: 2, SlotState.QUARANTINED: 1, SlotState.FREE: 0}


def _reference_classify(pool, addr):
    """classify_address as first written: divmod, ranks, a new object per call."""
    if not pool.base <= addr < pool.base + pool.region_length:
        return AddressClassification(AddressKind.NOT_OURS)
    page_index, _ = divmod(addr - pool.base, pool.page_size)
    if page_index % 2 == 1:
        slot_index = (page_index - 1) // 2
        state = pool.slots[slot_index].state
        if state is SlotState.ALLOCATED:
            return AddressClassification(AddressKind.ALLOCATED_SLOT, slot_index)
        if state is SlotState.QUARANTINED:
            return AddressClassification(AddressKind.QUARANTINED_SLOT, slot_index)
        return AddressClassification(AddressKind.FREE_SLOT, slot_index)
    guard_index = page_index // 2
    left_rank = _REF_RANK[pool.slots[guard_index - 1].state] if guard_index > 0 else 0
    right_rank = _REF_RANK[pool.slots[guard_index].state] if guard_index < pool.slot_count else 0
    if left_rank == 0 and right_rank == 0:
        return AddressClassification(AddressKind.UNATTRIBUTED_GUARD)
    if left_rank >= right_rank:
        return AddressClassification(AddressKind.RIGHT_GUARD, guard_index - 1)
    return AddressClassification(AddressKind.LEFT_GUARD, guard_index)


@settings(max_examples=150, deadline=None)
@given(
    page_size=st.sampled_from([256, 4096]),
    states=st.lists(st.sampled_from(list(SlotState)), min_size=1, max_size=6),
    offsets=st.lists(st.integers(min_value=0), min_size=1, max_size=3),
)
def test_classify_matches_the_reference_on_every_page(page_size, states, offsets):
    pool = make_pool(vm=VirtualMemory(page_size=page_size), slot_count=len(states))
    for index, state in enumerate(states):
        pool.slots[index] = SlotRecord(index, state)
    addrs = [pool.base - 1, pool.base + pool.region_length, 0]
    for page_index in range(2 * len(states) + 1):
        page = pool.base + page_index * page_size
        addrs += [page, page + page_size - 1] + [page + o % page_size for o in offsets]
    for addr in addrs:
        got = pool.classify_address(addr)
        assert got == _reference_classify(pool, addr), hex(addr - pool.base)
        assert pool.classify_address(addr) is got  # shared, not rebuilt


def test_shared_classifications_stay_frozen():
    pool = make_pool(slot_count=2, max_live=2)
    slot_index, addr = acquire_slot(pool, 8)
    live = pool.classify_address(addr)
    guard = pool.classify_address(pool.base)
    outside = pool.classify_address(pool.base - 1)
    for shared in (live, guard, outside):
        with pytest.raises(dataclasses.FrozenInstanceError):
            shared.kind = AddressKind.NOT_OURS
        with pytest.raises(dataclasses.FrozenInstanceError):
            shared.slot_index = 7
    # A state change picks another instance; the one handed out earlier
    # still says what it said.
    release_slot(pool, slot_index)
    assert live == AddressClassification(AddressKind.ALLOCATED_SLOT, slot_index)
    assert pool.classify_address(addr).kind is AddressKind.QUARANTINED_SLOT


# -- alignment side stream --------------------------------------------------------


@pytest.mark.parametrize("seed", [None, 0, 1, 77, 0xDEADBEEF])
@pytest.mark.parametrize("slot_count", [1, 5, 16])
def test_alignment_sides_are_the_below_based_stream(seed, slot_count):
    pool = make_pool(slot_count=slot_count, max_live=1, seed=seed)
    rng = Xorshift64Star(splitmix64((seed or 0) ^ 0x706F6F6C))
    for i in range(slot_count - 1, 0, -1):  # the free-list shuffle's draws
        rng.below(i + 1)
    for _ in range(300):
        slot_index, addr = acquire_slot(pool, 100)
        right = addr - slot_page_addr(pool, slot_index) == PAGE - 100
        assert right == (rng.below(2) == 1)
        release_slot(pool, slot_index)
