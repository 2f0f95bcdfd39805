"""Protection enforcement and fault-delivery semantics of the memory model."""

import io
import os
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guardpool import GuardianAllocator, GuardianConfig
from guardpool.vmem import (
    _MAX_FAULT_RETRIES,
    AccessKind,
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


def test_read_of_protected_page_raises_by_default(vm):
    base = vm.reserve(1)  # PROT_NONE
    with pytest.raises(SegmentationFault) as excinfo:
        vm.read(base, 1)
    assert excinfo.value.fault.address == base
    assert excinfo.value.fault.access is AccessKind.READ


def test_write_needs_write_protection(vm):
    base = vm.reserve(1, prot=PROT_READ)
    vm.read(base, 16)
    with pytest.raises(SegmentationFault) as excinfo:
        vm.write(base + 5, b"z")
    assert excinfo.value.fault.address == base + 5
    assert excinfo.value.fault.access is AccessKind.WRITE


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
    assert excinfo.value.fault.access is None


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
    needed = PROT_READ if kind is AccessKind.READ else PROT_WRITE
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
        region = _reference_check_access(vm, pos, AccessKind.READ)
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
        region = _reference_check_access(vm, pos, AccessKind.WRITE)
        off = pos - region.base
        region.mem[off : off + chunk] = view[:chunk]
        pos += chunk
        view = view[chunk:]


def _make_handler(vm, mode, log):
    """A fault handler of one kind, recording (address, access) per fault.

    unprotect grants the missing bit on a mapped page and resumes (an
    unmapped address terminates); slow resumes twice without changing
    anything before it does the same; terminate and never always
    terminate or always resume.
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
        prot = vm.page_protection(fault.address)
        if prot is None:
            return FaultAction.TERMINATE
        grant = PROT_READ if fault.access is AccessKind.READ else PROT_WRITE
        page = fault.address - fault.address % vm.page_size
        vm.protect(page, vm.page_size, prot | grant)
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


@settings(max_examples=300, deadline=None)
@given(_scenarios())
def test_access_matches_page_by_page_reference(scenario):
    page_size, layout, mode, ops = scenario
    sides = []
    for read, write in ((VirtualMemory.read, VirtualMemory.write),
                        (_reference_read, _reference_write)):
        vm = VirtualMemory(page_size=page_size)
        bases = []
        for prots in layout:
            base = vm.reserve(len(prots), RW)
            # Distinct nonzero contents, so a copy from the wrong offset shows.
            vm.write(base, bytes((base // page_size + i) % 251 + 1
                                 for i in range(len(prots) * page_size)))
            for page, prot in enumerate(prots):
                vm.protect(base + page * page_size, page_size, prot)
            bases.append(base)
        log = []
        if mode is not None:
            vm.install_fault_handler(_make_handler(vm, mode, log))
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


def test_negative_read_length_is_rejected(vm):
    base = vm.reserve(1, prot=RW)
    with pytest.raises(ValueError):
        vm.read(base, -1)


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
                if vm.page_protection(beyond) is not None:
                    errors.append("unmapped address found mapped")
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
    assert faults == [] and vm.fault_count == 0
    assert vm._bases == sorted(vm._bases) == [r.base for r in vm._regions]
