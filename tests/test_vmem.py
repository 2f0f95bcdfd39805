"""Protection enforcement and fault-delivery semantics of the memory model."""

import io
import os
import random
import sys
import threading

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

import vmem_oracle
from guardpool import GuardianAllocator, GuardianConfig
from guardpool.vmem import (
    _MAX_FAULT_RETRIES,
    AccessType,
    FaultAction,
    PROT_NONE,
    PROT_READ,
    PROT_WRITE,
    SegmentationFault,
    VirtualMemory,
)

RW = PROT_READ | PROT_WRITE


@pytest.fixture
def vm():
    return VirtualMemory(page_size=4096)


def test_reserve_returns_zero_filled_accessible_pages(vm):
    base = vm.reserve(2, prot=RW)
    assert vm.read(base, 2 * 4096) == bytes(2 * 4096)


def test_reserve_base_is_aligned_to_region_size(vm):
    base = vm.reserve(3)
    span = 3 * 4096
    align = 1 << (span - 1).bit_length()
    assert base % align == 0


def test_reservations_do_not_touch(vm):
    a = vm.reserve(1, prot=RW)
    b = vm.reserve(1, prot=RW)
    vm.write(a, b"x" * 4096)
    assert vm.read(b, 4096) == bytes(4096)


@pytest.mark.parametrize("page_size", [0, 3, 100, -4096])
def test_invalid_page_size_rejected(page_size):
    with pytest.raises(ValueError):
        VirtualMemory(page_size=page_size)


@pytest.mark.parametrize(
    "name", ["fault_count", "_regions", "_bases", "_cursor", "_handler", "_lock"]
)
def test_internal_state_is_not_a_constructor_argument(name):
    # VirtualMemory(_cursor=0) once placed a reservation at the null pointer.
    with pytest.raises(TypeError):
        VirtualMemory(**{name: 0})


def test_read_of_protected_page_raises_by_default(vm):
    base = vm.reserve(1)  # PROT_NONE
    with pytest.raises(SegmentationFault) as excinfo:
        vm.read(base, 1)
    assert excinfo.value.fault.address == base
    assert excinfo.value.fault.access is AccessType.READ


def test_write_needs_write_protection(vm):
    base = vm.reserve(1, prot=PROT_READ)
    vm.read(base, 16)
    with pytest.raises(SegmentationFault) as excinfo:
        vm.write(base + 5, b"z")
    assert excinfo.value.fault.address == base + 5
    assert excinfo.value.fault.access is AccessType.WRITE


def test_unmapped_address_faults(vm):
    with pytest.raises(SegmentationFault):
        vm.read(0xDEAD0000, 1)


def test_protect_toggles_access(vm):
    base = vm.reserve(1)
    vm.protect(base, 4096, RW)
    vm.write(base, b"hello")
    vm.protect(base, 4096, PROT_NONE)
    with pytest.raises(SegmentationFault):
        vm.read(base, 5)
    # Contents survive protection changes.
    vm.protect(base, 4096, PROT_READ)
    assert vm.read(base, 5) == b"hello"


def test_protect_requires_page_alignment(vm):
    base = vm.reserve(1)
    with pytest.raises(ValueError):
        vm.protect(base + 1, 100, RW)


def test_protect_rejects_unmapped_range(vm):
    base = vm.reserve(1)
    with pytest.raises(ValueError):
        vm.protect(base, 2 * 4096, RW)


def test_multi_page_access_faults_on_the_exact_page(vm):
    base = vm.reserve(3, prot=RW)
    vm.protect(base + 4096, 4096, PROT_NONE)
    with pytest.raises(SegmentationFault) as excinfo:
        vm.read(base, 3 * 4096)
    # First page reads fine; the middle page faults at its first byte.
    assert excinfo.value.fault.address == base + 4096


def test_partial_write_prefix_persists_on_fault(vm):
    base = vm.reserve(2, prot=RW)
    vm.protect(base + 4096, 4096, PROT_NONE)
    with pytest.raises(SegmentationFault):
        vm.write(base + 4090, b"A" * 12)
    assert vm.read(base + 4090, 6) == b"A" * 6


def test_fill_ignores_protection(vm):
    base = vm.reserve(1)  # inaccessible
    vm.fill(base, 4096, 0xAB)
    vm.protect(base, 4096, PROT_READ)
    assert vm.read(base, 4096) == b"\xab" * 4096


def test_handler_resume_retries_the_access(vm):
    base = vm.reserve(1)
    seen = []

    def handler(fault):
        seen.append(fault.address)
        vm.protect(base, 4096, RW)
        return FaultAction.RESUME

    vm.install_fault_handler(handler)
    vm.write(base + 7, b"ok")
    assert seen == [base + 7]
    assert vm.read(base + 7, 2) == b"ok"


def test_handler_terminate_raises_segfault(vm):
    base = vm.reserve(1)
    vm.install_fault_handler(lambda fault: FaultAction.TERMINATE)
    with pytest.raises(SegmentationFault):
        vm.read(base, 1)


def test_install_returns_previous_handler_for_chaining(vm):
    base = vm.reserve(1)
    calls = []

    def first(fault):
        calls.append("first")
        return FaultAction.TERMINATE

    def second(fault):
        calls.append("second")
        return prev(fault)

    assert vm.install_fault_handler(first) is None
    prev = vm.install_fault_handler(second)
    assert prev is first
    with pytest.raises(SegmentationFault):
        vm.read(base, 1)
    assert calls == ["second", "first"]


def test_restore_fault_handler(vm):
    base = vm.reserve(1)
    handler = lambda fault: FaultAction.TERMINATE
    prev = vm.install_fault_handler(handler)
    vm.restore_fault_handler(prev)
    with pytest.raises(SegmentationFault):
        vm.read(base, 1)


def test_unresolvable_resume_loop_is_bounded(vm):
    base = vm.reserve(1)
    # Claims to resolve but never changes protections.
    vm.install_fault_handler(lambda fault: FaultAction.RESUME)
    with pytest.raises(RuntimeError, match="without making it accessible"):
        vm.read(base, 1)


def test_retry_bound_counts_faults_per_page(vm):
    base = vm.reserve(2)
    deliveries = []

    def handler(fault):
        # Resolve each page on its last permitted retry, not before.
        deliveries.append(fault.address)
        if deliveries.count(fault.address) == _MAX_FAULT_RETRIES - 1:
            vm.protect(fault.address & -4096, 4096, RW)
        return FaultAction.RESUME

    vm.install_fault_handler(handler)
    vm.write(base + 4000, b"x" * 200)
    assert vm.fault_count == 2 * (_MAX_FAULT_RETRIES - 1)
    assert vm.read(base + 4000, 200) == b"x" * 200


def test_access_kind_hidden_when_not_exposed():
    vm = VirtualMemory(page_size=4096, expose_access_kind=False)
    base = vm.reserve(1)
    with pytest.raises(SegmentationFault) as excinfo:
        vm.write(base, b"x")
    assert excinfo.value.fault.access is AccessType.UNKNOWN


def test_fault_count_increments_per_delivery(vm):
    base = vm.reserve(1)
    assert vm.fault_count == 0
    for _ in range(3):
        with pytest.raises(SegmentationFault):
            vm.read(base, 1)
    assert vm.fault_count == 3


def test_fault_reports_accessing_thread(vm):
    base = vm.reserve(1)
    fault_threads = []

    def handler(fault):
        fault_threads.append(fault.thread_id)
        return FaultAction.TERMINATE

    vm.install_fault_handler(handler)

    def worker():
        try:
            vm.read(base, 1)
        except SegmentationFault:
            pass

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join()
    assert fault_threads == [thread.ident]


# -- equivalence with the page-by-page reference ------------------------------
#
# The reference below is the access loop the model used before reads and
# writes became one lookup, one protection scan and one copy: every page
# chunk looks its region up again by linear scan and checks its own page.


def _reference_region(vm, addr):
    for region in vm._regions:
        if region.base <= addr < region.end:
            return region
    return None


def _reference_check_access(vm, addr, kind):
    needed = PROT_READ if kind is AccessType.READ else PROT_WRITE
    for _ in range(_MAX_FAULT_RETRIES):
        region = _reference_region(vm, addr)
        if region is not None:
            if region.prots[(addr - region.base) // vm.page_size] & needed:
                return region
        vm._deliver_fault(addr, kind)
    raise RuntimeError(
        f"fault handler resolved 0x{addr:x} {_MAX_FAULT_RETRIES} times "
        "without making it accessible"
    )


def _reference_read(vm, addr, length):
    if length < 0:
        raise ValueError("length must be non-negative")
    out = bytearray()
    pos = addr
    remaining = length
    while remaining > 0:
        chunk = min(remaining, vm.page_size - pos % vm.page_size)
        region = _reference_check_access(vm, pos, AccessType.READ)
        off = pos - region.base
        out += region.mem[off : off + chunk]
        pos += chunk
        remaining -= chunk
    return bytes(out)


def _reference_write(vm, addr, data):
    pos = addr
    view = memoryview(data)
    while view:
        chunk = min(len(view), vm.page_size - pos % vm.page_size)
        region = _reference_check_access(vm, pos, AccessType.WRITE)
        off = pos - region.base
        region.mem[off : off + chunk] = view[:chunk]
        pos += chunk
        view = view[chunk:]


def _protect(vm, shadow, page, npages, prot):
    """vm.protect npages from page, and note their protection in shadow,
    the test's own map from each mapped page's address to its bits."""
    vm.protect(page, npages * vm.page_size, prot)
    for i in range(npages):
        shadow[page + i * vm.page_size] = prot


def _make_handler(vm, mode, log, shadow):
    """A fault handler of one kind, recording (address, access) per fault.

    unprotect grants the missing bit on a mapped page and resumes (an
    unmapped address, one shadow does not hold, terminates); slow resumes
    twice without changing anything before it does the same; terminate
    and never always terminate or always resume.
    """
    attempts = {}

    def handler(fault):
        log.append((fault.address, fault.access))
        if mode == "terminate":
            return FaultAction.TERMINATE
        if mode == "never":
            return FaultAction.RESUME
        attempts[fault.address] = attempts.get(fault.address, 0) + 1
        if mode == "slow" and attempts[fault.address] % 3:
            return FaultAction.RESUME
        page = fault.address - fault.address % vm.page_size
        if page not in shadow:
            return FaultAction.TERMINATE
        grant = PROT_READ if fault.access is AccessType.READ else PROT_WRITE
        _protect(vm, shadow, page, 1, shadow[page] | grant)
        return FaultAction.RESUME

    return handler


def _outcome(fn):
    try:
        return ("ok", fn())
    except SegmentationFault as exc:
        return ("segv", exc.fault.address, exc.fault.access)
    except (RuntimeError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


def _memory(vm):
    return [(r.base, r.mem[:], bytes(r.prots)) for r in vm._regions]


@st.composite
def _scenarios(draw):
    page_size = draw(st.sampled_from([16, 64, 4096]))
    layout = draw(st.lists(
        st.lists(st.sampled_from([PROT_NONE, PROT_READ, PROT_WRITE, RW]),
                 min_size=1, max_size=4),
        min_size=1, max_size=3))
    mode = draw(st.sampled_from([None, "terminate", "unprotect", "slow", "never"]))
    ops = []
    for _ in range(draw(st.integers(1, 6))):
        region = draw(st.integers(0, len(layout) - 1))
        # Starts from a page before the region to a page past its end
        # (the hole), lengths from zero to a little over three pages.
        start = draw(st.integers(-page_size, (len(layout[region]) + 1) * page_size))
        length = draw(st.integers(0, 3 * page_size + 2))
        if draw(st.booleans()):
            ops.append(("read", region, start, length))
        else:
            ops.append(("write", region, start, draw(st.binary(min_size=length, max_size=length))))
    return page_size, layout, mode, ops


def _populate(vm, layout):
    """Reserve one region per entry of layout, fill it and set its pages'
    protections; returns the bases and a shadow of the protections."""
    page_size = vm.page_size
    bases = []
    shadow = {}
    for prots in layout:
        base = vm.reserve(len(prots), RW)
        # Distinct nonzero contents, so a copy from the wrong offset shows.
        vm.write(base, bytes((base // page_size + i) % 251 + 1
                             for i in range(len(prots) * page_size)))
        for page, prot in enumerate(prots):
            _protect(vm, shadow, base + page * page_size, 1, prot)
        bases.append(base)
    return bases, shadow


@settings(max_examples=300, deadline=None)
@given(_scenarios())
def test_access_matches_page_by_page_reference(scenario):
    page_size, layout, mode, ops = scenario
    sides = []
    for read, write in ((VirtualMemory.read, VirtualMemory.write),
                        (_reference_read, _reference_write)):
        vm = VirtualMemory(page_size=page_size)
        bases, shadow = _populate(vm, layout)
        log = []
        if mode is not None:
            vm.install_fault_handler(_make_handler(vm, mode, log, shadow))
        trail = []
        for kind, region, start, arg in ops:
            addr = bases[region] + start
            if kind == "read":
                result = _outcome(lambda: read(vm, addr, arg))
            else:
                result = _outcome(lambda: write(vm, addr, arg))
            trail.append((result, list(log), vm.fault_count, _memory(vm)))
        sides.append(trail)
    assert sides[0] == sides[1]


# -- equivalence with the run-by-run oracle ------------------------------------
#
# tests/vmem_oracle.py keeps the access path from before read and write did
# their lookup and protection scan inline; every span that is not one
# accessible run must still take the same faults and copies as there.
# Spans inside plain regions (read-write, never narrowed), which skip the
# scan, and inside regions narrowed and then made read-write again, which
# scan, are both drawn often.

_PROTS = st.sampled_from([PROT_NONE, PROT_READ, PROT_WRITE, RW])


@st.composite
def _access_sequences(draw):
    page_size = draw(st.sampled_from([16, 64, 4096]))
    layout = draw(st.lists(st.one_of(st.lists(_PROTS, min_size=1, max_size=5),
                                     st.lists(st.just(RW), min_size=1, max_size=5)),
                           min_size=2, max_size=4))
    mode = draw(st.sampled_from([None, "terminate", "unprotect", "slow", "never"]))
    ops = []
    for _ in range(draw(st.integers(1, 8))):
        region = draw(st.integers(0, len(layout) - 1))
        step = draw(st.integers(0, 5))
        if step == 0:
            page = draw(st.integers(0, len(layout[region]) - 1))
            ops.append(("protect", region, page, 1, draw(_PROTS)))
            continue
        if step == 1:  # every page of the region read-write again
            ops.append(("protect", region, 0, len(layout[region]), RW))
            continue
        # The span's start or end lies near a region's base or end, so
        # spans start below the first region and in the holes between
        # regions, and start or end on either side of every region edge.
        anchor = draw(st.sampled_from(["base", "end"]))
        delta = draw(st.one_of(st.integers(-2, 2), st.integers(-2 * page_size, 2 * page_size)))
        length = draw(st.integers(0, 3 * page_size + 2))
        if draw(st.booleans()):
            delta -= length  # the span ends at anchor + delta
        if draw(st.booleans()):
            ops.append(("read", region, anchor, delta, length))
        else:
            data = draw(st.binary(min_size=length, max_size=length))
            ops.append(("write", region, anchor, delta, data))
    return page_size, layout, mode, ops


@settings(max_examples=300, deadline=None)
@given(_access_sequences())
def test_access_matches_the_run_by_run_oracle(scenario):
    page_size, layout, mode, ops = scenario
    sides = []
    for read, write in ((VirtualMemory.read, VirtualMemory.write),
                        (vmem_oracle.read, vmem_oracle.write)):
        vm = VirtualMemory(page_size=page_size)
        bases, shadow = _populate(vm, layout)
        log = []
        if mode is not None:
            vm.install_fault_handler(_make_handler(vm, mode, log, shadow))
        trail = []
        for op in ops:
            if op[0] == "protect":
                _, region, page, npages, prot = op
                _protect(vm, shadow, bases[region] + page * page_size, npages, prot)
                continue
            kind, region, anchor, delta, arg = op
            edge = bases[region] + (len(layout[region]) * page_size if anchor == "end" else 0)
            addr = edge + delta
            if kind == "read":
                result = _outcome(lambda: read(vm, addr, arg))
            else:
                result = _outcome(lambda: write(vm, addr, arg))
            trail.append((result, list(log), vm.fault_count, _memory(vm)))
        sides.append(trail)
    assert sides[0] == sides[1]


def _kinds_of_region_accessed(scenario):
    """The kinds of region that the scenario's reads and writes lie wholly
    inside: "plain", or "widened" (not plain, every page read-write).
    Replays the layout and the protect ops, not the accesses."""
    page_size, layout, _, ops = scenario
    vm = VirtualMemory(page_size=page_size)
    bases, shadow = _populate(vm, layout)
    kinds = set()
    for op in ops:
        if op[0] == "protect":
            _, region, page, npages, prot = op
            _protect(vm, shadow, bases[region] + page * page_size, npages, prot)
            continue
        _, region, anchor, delta, arg = op
        length = arg if isinstance(arg, int) else len(arg)
        size = len(layout[region]) * page_size
        start = (size if anchor == "end" else 0) + delta
        if length and 0 <= start and start + length <= size:
            state = vm._regions[region]
            if state.plain:
                kinds.add("plain")
            elif all(prot == RW for prot in state.prots):
                kinds.add("widened")
    return kinds


@pytest.mark.parametrize("kind", ["plain", "widened"])
def test_the_oracle_scenarios_access_plain_and_widened_regions(kind):
    find(_access_sequences(), lambda scenario: kind in _kinds_of_region_accessed(scenario),
         settings=settings(max_examples=200, database=None, derandomize=True, deadline=None))


def test_negative_read_length_is_rejected(vm):
    base = vm.reserve(1, prot=RW)
    with pytest.raises(ValueError):
        vm.read(base, -1)


@pytest.mark.parametrize("length", [-1, -4096, -4097])
def test_negative_fill_length_is_rejected(vm, length):
    # Past the range check, a negative length is a slice end that counts
    # back from the end of the mapping.
    base = vm.reserve(2, prot=RW)
    vm.write(base, b"\x11" * 2 * 4096)
    with pytest.raises(ValueError, match="non-negative"):
        vm.fill(base + 100, length, 0xAB)
    assert vm.read(base, 2 * 4096) == b"\x11" * 2 * 4096


# -- plain regions ---------------------------------------------------------------
#
# A region reserved read-write is plain until a protect() narrows one of
# its pages: an access inside it skips the page scan.  Narrowing clears
# the flag for good, so these accesses must see every later protection.


def _region(vm, base):
    return vm._regions[vm._bases.index(base)]


def test_only_a_read_write_reservation_is_plain(vm):
    assert _region(vm, vm.reserve(2, RW)).plain
    for prot in (PROT_NONE, PROT_READ, PROT_WRITE):
        assert not _region(vm, vm.reserve(2, prot)).plain


def test_protecting_read_write_again_does_not_narrow(vm):
    base = vm.reserve(3, RW)
    vm.protect(base + 4096, 4096, RW)
    vm.protect(base, 3 * 4096, RW)
    assert _region(vm, base).plain


# A span from 100 bytes into the first page to 100 bytes before the end of
# the third, so it starts and ends inside pages.
_SPAN_START, _SPAN_LENGTH = 100, 3 * 4096 - 200


@pytest.mark.parametrize("page", [0, 1, 2], ids=["first", "middle", "last"])
def test_narrowing_a_page_of_a_plain_region_faults_the_next_access(vm, page):
    base = vm.reserve(3, RW)
    addr = base + _SPAN_START
    data = random.Random(page).randbytes(_SPAN_LENGTH)
    vm.write(addr, data)
    assert vm.read(addr, _SPAN_LENGTH) == data
    narrowed = base + page * 4096
    vm.protect(narrowed, 4096, PROT_NONE)
    assert not _region(vm, base).plain
    fault_at = max(addr, narrowed)
    for attempt, expected in (
            (lambda: vm.read(addr, _SPAN_LENGTH), (fault_at, AccessType.READ)),
            (lambda: vm.write(addr, b"\xee" * _SPAN_LENGTH), (fault_at, AccessType.WRITE)),
            (lambda: vm.read(narrowed + 200, 1), (narrowed + 200, AccessType.READ)),
            (lambda: vm.write(narrowed + 200, b"\xee"), (narrowed + 200, AccessType.WRITE))):
        with pytest.raises(SegmentationFault) as excinfo:
            attempt()
        assert (excinfo.value.fault.address, excinfo.value.fault.access) == expected
    # The span's write stored its prefix below the narrowed page, no more.
    vm.protect(narrowed, 4096, RW)
    prefix = fault_at - addr
    assert vm.read(addr, _SPAN_LENGTH) == b"\xee" * prefix + data[prefix:]


@pytest.mark.parametrize("page", [0, 1, 2], ids=["first", "middle", "last"])
def test_a_read_only_page_of_a_plain_region_blocks_writes_not_reads(vm, page):
    base = vm.reserve(3, RW)
    addr = base + _SPAN_START
    data = random.Random(page).randbytes(_SPAN_LENGTH)
    vm.write(addr, data)
    narrowed = base + page * 4096
    vm.protect(narrowed, 4096, PROT_READ)
    assert vm.read(addr, _SPAN_LENGTH) == data
    with pytest.raises(SegmentationFault) as excinfo:
        vm.write(addr, bytes(_SPAN_LENGTH))
    assert (excinfo.value.fault.address, excinfo.value.fault.access) == (
        max(addr, narrowed), AccessType.WRITE)


def test_a_widened_region_keeps_scanning_and_matches_the_oracle():
    sides = []
    for read, write in ((VirtualMemory.read, VirtualMemory.write),
                        (vmem_oracle.read, vmem_oracle.write)):
        vm = VirtualMemory(page_size=4096)
        base = vm.reserve(3, RW)
        vm.protect(base + 4096, 4096, PROT_WRITE)
        vm.protect(base + 4096, 4096, RW)
        assert not _region(vm, base).plain
        addr = base + _SPAN_START
        data = random.Random(3).randbytes(_SPAN_LENGTH)
        trail = [_outcome(lambda: write(vm, addr, data)),
                 _outcome(lambda: read(vm, addr, _SPAN_LENGTH))]
        # A protection byte changed behind protect's back shows whether the
        # scan runs: it does on a region that was ever narrowed.
        _region(vm, base).prots[2] = PROT_NONE
        trail += [_outcome(lambda: read(vm, addr, _SPAN_LENGTH)),
                  _outcome(lambda: write(vm, addr, bytes(_SPAN_LENGTH))),
                  _outcome(lambda: read(vm, addr, 2 * 4096 - _SPAN_START)),
                  vm.fault_count, _memory(vm)]
        assert trail[2] == ("segv", base + 2 * 4096, AccessType.READ)
        sides.append(trail)
    assert sides[0] == sides[1]


# -- lazy commit ------------------------------------------------------------


def _rss_bytes():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
def test_reservation_commits_memory_only_when_touched(vm):
    pages = 65536  # 256 MiB
    before = _rss_bytes()
    base = vm.reserve(pages, prot=RW)
    assert _rss_bytes() - before < 16 << 20
    chunk = 256 * 4096
    zeros = bytes(chunk)
    assert all(vm.read(base + off, chunk) == zeros
               for off in range(0, pages * 4096, chunk))
    vm.write(base + pages * 4096 - 3, b"end")
    assert vm.read(base + pages * 4096 - 4, 4) == b"\0end"


def _overcommits_without_limit():
    try:
        with open("/proc/sys/vm/overcommit_memory") as policy:
            return policy.read().strip() == "1"
    except OSError:
        return False


@pytest.mark.skipif(_overcommits_without_limit(),
                    reason="the host maps any size when it overcommits without limit")
def test_reservation_the_host_cannot_map_raises_memory_error(vm):
    with pytest.raises(MemoryError):
        vm.reserve(2**28)  # 1 TiB
    with pytest.raises(MemoryError):
        GuardianAllocator(GuardianConfig(sink=io.StringIO())).malloc(2**40)
    # A failed reservation leaves the address space usable.
    base = vm.reserve(1, prot=RW)
    vm.write(base, b"ok")
    assert vm.read(base, 2) == b"ok"


# -- threads -------------------------------------------------------------------


def test_lookups_stay_correct_while_another_thread_reserves(vm):
    faults = []

    def handler(fault):
        faults.append(fault)
        return FaultAction.TERMINATE

    vm.install_fault_handler(handler)
    errors = []
    done = threading.Event()
    beyond = 0x7000_0000_0000  # above any base the cursor reaches here

    def reserver():
        try:
            while not done.is_set() and len(vm._regions) < 3000:
                vm.reserve(1 + len(vm._regions) % 3, RW)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    def worker(seed):
        try:
            rng = random.Random(seed)
            base = vm.reserve(4, RW)
            for _ in range(3000):
                start = rng.randrange(4 * 4096)
                data = rng.randbytes(rng.randrange(1, 4 * 4096 - start + 1))
                vm.write(base + start, data)
                if vm.read(base + start, len(data)) != data:
                    errors.append(f"round trip at +{start} differs")
                try:
                    vm.read(beyond, 1)
                    errors.append("unmapped address found mapped")
                except SegmentationFault as exc:
                    if exc.fault.address != beyond:
                        errors.append(f"fault at 0x{exc.fault.address:x}, not at beyond")
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    workers = [threading.Thread(target=worker, args=(seed,)) for seed in range(3)]
    threads = [threading.Thread(target=reserver)] + workers
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in workers:
            thread.join(timeout=120)
        done.set()
        threads[0].join(timeout=120)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    # Only the reads of the unmapped address faulted, each once.
    assert [fault.address for fault in faults] == [beyond] * 3 * 3000
    assert vm.fault_count == 3 * 3000
    assert vm._bases == sorted(vm._bases) == [r.base for r in vm._regions]
