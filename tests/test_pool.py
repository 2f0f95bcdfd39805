"""Pool geometry, slot lifecycle, quarantine ordering, classification."""

import pytest

from guardpool.pool import (
    AddressKind,
    AlignmentSide,
    GuardedPool,
    PoolConfig,
    SlotState,
)
from guardpool.vmem import PROT_NONE, SegmentationFault, VirtualMemory

PAGE = 4096


def make_pool(**kwargs) -> GuardedPool:
    vm = kwargs.pop("vm", None) or VirtualMemory(page_size=PAGE)
    config = PoolConfig(**{"slot_count": 4, "seed": 0, **kwargs})
    return GuardedPool(config, vm)


def test_region_spans_alternating_guard_and_slot_pages():
    pool = make_pool(slot_count=4)
    assert pool.region_length == 9 * PAGE
    for i in range(4):
        assert pool.slot_page_addr(i) == pool.base + (2 * i + 1) * PAGE
        assert pool.guard_page_addr(i) == pool.base + 2 * i * PAGE
    assert pool.guard_page_addr(4) == pool.base + 8 * PAGE


def test_everything_starts_inaccessible():
    pool = make_pool()
    for page in range(9):
        assert pool.vm.page_protection(pool.base + page * PAGE) == PROT_NONE


def test_acquire_makes_only_the_slot_page_accessible():
    pool = make_pool()
    slot_index, addr = pool.acquire(41)
    page = pool.slot_page_addr(slot_index)
    assert page <= addr < page + PAGE
    pool.vm.write(addr, b"x" * 41)
    # Both neighboring guards stay lethal.
    for guard in (page - PAGE, page + PAGE):
        with pytest.raises(SegmentationFault):
            pool.vm.read(guard, 1)


def test_acquired_slot_is_zeroed():
    pool = make_pool(slot_count=1)
    _, addr = pool.acquire(64)
    pool.vm.write(addr, b"\xff" * 64)
    pool.release(0)
    _, addr2 = pool.acquire(64, alignment=1)
    page = pool.slot_page_addr(0)
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
    assert pool.slots[slot_index].user_offset == expected_offset
    assert addr == pool.slot_page_addr(slot_index) + expected_offset
    assert addr % alignment == 0


def test_alignment_side_randomized_both_sides_occur():
    pool = make_pool(slot_count=4, max_live=4)
    sides = set()
    for trial in range(32):
        slot_index, _ = pool.acquire(8)
        sides.add(pool.slots[slot_index].alignment_side)
        pool.release(slot_index)
    assert sides == {AlignmentSide.LEFT, AlignmentSide.RIGHT}


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
    first = pool.acquire(8)
    second = pool.acquire(8)
    assert first is not None and second is not None
    assert pool.acquire(8) is None
    assert pool.unavailable_count == 1
    pool.release(first[0])
    assert pool.acquire(8) is not None


def test_exhausted_free_list_returns_unavailable():
    pool = make_pool(slot_count=2, max_live=2)
    pool.acquire(8)
    pool.acquire(8)
    assert pool.acquire(8) is None


def test_release_reprotects_and_quarantines():
    pool = make_pool()
    slot_index, addr = pool.acquire(41)
    pool.release(slot_index)
    assert pool.slots[slot_index].state is SlotState.QUARANTINED
    with pytest.raises(SegmentationFault):
        pool.vm.read(addr, 1)


def test_release_requires_allocated_state():
    pool = make_pool()
    with pytest.raises(ValueError):
        pool.release(0)
    slot_index, _ = pool.acquire(8)
    pool.release(slot_index)
    with pytest.raises(ValueError):
        pool.release(slot_index)


def test_reuse_order_is_fifo_over_releases():
    pool = make_pool(slot_count=4, max_live=4)
    acquired = [pool.acquire(8)[0] for _ in range(4)]
    for slot_index in acquired:
        pool.release(slot_index)
    reused = [pool.acquire(8)[0] for _ in range(4)]
    assert reused == acquired


def test_released_slot_waits_behind_free_list():
    # The slot released first waits until every never-used slot and
    # every slot released before it has been served again.
    pool = make_pool(slot_count=4, max_live=4)
    victim, _ = pool.acquire(8)
    pool.release(victim)
    served = []
    for _ in range(3):
        slot_index, _ = pool.acquire(8)
        served.append(slot_index)
        pool.release(slot_index)
    assert victim not in served
    assert sorted(served + [victim]) == [0, 1, 2, 3]
    assert pool.acquire(8)[0] == victim


def test_quarantine_falls_back_to_oldest_when_none_aged():
    # With every never-used slot taken, the oldest release is reused first.
    pool = make_pool(slot_count=2, max_live=2)
    a, _ = pool.acquire(8)
    b, _ = pool.acquire(8)
    pool.release(b)
    pool.release(a)
    assert pool.acquire(8)[0] == b
    assert pool.acquire(8)[0] == a


def test_protect_failure_returns_the_slot_to_the_front():
    pool = make_pool(slot_count=4, max_live=4)
    front = pool._free_list[0]
    protect = pool.vm.protect

    def failing(*args):
        raise OSError("injected")

    pool.vm.protect = failing
    assert pool.acquire(8) is None
    pool.vm.protect = protect
    assert pool.protect_failure_count == 1
    assert pool.live_count == 0
    assert pool.acquire(8)[0] == front


def test_initial_slot_order_is_seed_deterministic():
    order_a = [make_pool(seed=5, slot_count=4).acquire(8)[0] for _ in range(1)]
    order_b = [make_pool(seed=5, slot_count=4).acquire(8)[0] for _ in range(1)]
    assert order_a == order_b


def test_live_count_tracks_lifecycle():
    pool = make_pool()
    assert pool.live_count == 0
    slot_index, _ = pool.acquire(8)
    assert pool.live_count == 1
    pool.release(slot_index)
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
    slot_index, addr = pool.acquire(8)
    classification = pool.classify_address(addr)
    assert classification.kind is AddressKind.ALLOCATED_SLOT
    assert classification.slot_index == slot_index
    pool.release(slot_index)
    assert pool.classify_address(addr).kind is AddressKind.QUARANTINED_SLOT
    other = 1 - slot_index
    free_page = pool.slot_page_addr(other)
    classification = pool.classify_address(free_page)
    assert classification.kind is AddressKind.FREE_SLOT
    assert classification.slot_index == other


def test_classify_guard_attribution_prefers_allocated():
    pool = make_pool(slot_count=4, max_live=4)
    # Arrange: slot A allocated, slot A+1 quarantined, look at the guard
    # between them.
    a, _ = pool.acquire(8)
    b, _ = pool.acquire(8)
    left, right = sorted((a, b))
    if right - left != 1:
        pytest.skip("free-list shuffle did not give adjacent slots")
    pool.release(right)
    guard_between = pool.guard_page_addr(right)
    classification = pool.classify_address(guard_between)
    assert classification.kind is AddressKind.RIGHT_GUARD
    assert classification.slot_index == left


def test_classify_guard_tie_prefers_overflow_of_left_slot():
    pool = make_pool(slot_count=4, max_live=4)
    indices = [pool.acquire(8)[0] for _ in range(4)]
    assert sorted(indices) == [0, 1, 2, 3]
    guard = pool.guard_page_addr(2)  # between slots 1 and 2, both allocated
    classification = pool.classify_address(guard)
    assert classification.kind is AddressKind.RIGHT_GUARD
    assert classification.slot_index == 1


def test_classify_guard_with_free_neighbors_is_unattributed():
    pool = make_pool()
    for guard_index in range(5):
        classification = pool.classify_address(pool.guard_page_addr(guard_index))
        assert classification.kind is AddressKind.UNATTRIBUTED_GUARD
        assert classification.slot_index is None


def test_classify_edge_guards():
    pool = make_pool(slot_count=2, max_live=2)
    indices = [pool.acquire(8)[0] for _ in range(2)]
    assert sorted(indices) == [0, 1]
    leftmost = pool.classify_address(pool.base)
    assert leftmost.kind is AddressKind.LEFT_GUARD
    assert leftmost.slot_index == 0
    rightmost = pool.classify_address(pool.base + pool.region_length - 1)
    assert rightmost.kind is AddressKind.RIGHT_GUARD
    assert rightmost.slot_index == 1


def test_classification_matches_brute_force_page_map():
    pool = make_pool(slot_count=3, max_live=3)
    a, _ = pool.acquire(8)
    pool.release(a)
    b, _ = pool.acquire(8)
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


def test_config_validation():
    vm = VirtualMemory(page_size=PAGE)
    with pytest.raises(ValueError):
        GuardedPool(PoolConfig(slot_count=0), vm)
    with pytest.raises(ValueError):
        GuardedPool(PoolConfig(slot_count=2, max_live=3), vm)
