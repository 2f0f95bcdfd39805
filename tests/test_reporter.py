"""Report rendering, parsing, fault classification, and recovery."""

import io
import random
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guardpool.metadata import MetadataStore
from guardpool.pool import AlignmentSide, GuardedPool, PoolConfig
from guardpool.reporter import (
    REPORT_HEADER,
    REPORT_TRAILER,
    AccessType,
    ErrorReport,
    Reporter,
    ReporterConfig,
    ReportKind,
    ReportParseError,
    determine_access_kind,
    parse_report,
    render_report,
)
from guardpool.vmem import (
    AccessKind,
    FaultAction,
    FaultInfo,
    PROT_NONE,
    SegmentationFault,
    VirtualMemory,
)

UAF_EXAMPLE = """\
*** GWP-ASan detected a memory error ***
Use-after-free write at 0x7feccab26008 by thread 31027:
  #1 ./test(foo+0x45) [0x55585c0afa55]
  #2 ./test(main+0x9f) [0x55585c0af7cf]

The access is within 41B allocation at 0x7feccab26000

0x7feccab26000 was deallocated by thread 31027:
  #1 ./test(main+0x83) [0x55585c0af7b3]

0x7feccab26000 was allocated by thread 31027:
  #1 ./test(main+0x57) [0x55585c0af787]
*** End GWP-ASan report ***
"""

OOB_EXAMPLE = """\
*** GWP-ASan detected a memory error ***
Out-of-bounds read at 0x7feccab25ffe by thread 31027:
  #1 ./test(foo+0x45) [0x55585c0afa55]
  #2 ./test(main+0x9f) [0x55585c0af7cf]

The access is 2B left of 41B allocation at 0x7feccab26000

0x7feccab26000 was allocated by thread 31027:
  #1 ./test(main+0x57) [0x55585c0af787]
*** End GWP-ASan report ***
"""


# -- rendering -----------------------------------------------------------


def test_render_use_after_free_byte_exact():
    report = ErrorReport(
        kind=ReportKind.USE_AFTER_FREE,
        access_address=0x7FECCAB26008,
        access_kind=AccessType.WRITE,
        faulting_thread=31027,
        access_trace=[0x55585C0AFA55, 0x55585C0AF7CF],
        allocation_address=0x7FECCAB26000,
        allocation_size=41,
        alloc_thread=31027,
        alloc_trace=[0x55585C0AF787],
        dealloc_thread=31027,
        dealloc_trace=[0x55585C0AF7B3],
    )
    assert render_report(report) == (
        "*** GWP-ASan detected a memory error ***\n"
        "Use-after-free write at 0x7feccab26008 by thread 31027:\n"
        "  #1 [0x55585c0afa55]\n"
        "  #2 [0x55585c0af7cf]\n"
        "\n"
        "The access is within 41B allocation at 0x7feccab26000\n"
        "\n"
        "0x7feccab26000 was deallocated by thread 31027:\n"
        "  #1 [0x55585c0af7b3]\n"
        "\n"
        "0x7feccab26000 was allocated by thread 31027:\n"
        "  #1 [0x55585c0af787]\n"
        "*** End GWP-ASan report ***\n"
    )


def test_render_out_of_bounds_left_byte_exact():
    report = ErrorReport(
        kind=ReportKind.BUFFER_UNDERFLOW,
        access_address=0x7FECCAB25FFE,
        access_kind=AccessType.READ,
        faulting_thread=31027,
        access_trace=[0x55585C0AFA55, 0x55585C0AF7CF],
        allocation_address=0x7FECCAB26000,
        allocation_size=41,
        alloc_thread=31027,
        alloc_trace=[0x55585C0AF787],
    )
    assert render_report(report) == (
        "*** GWP-ASan detected a memory error ***\n"
        "Out-of-bounds read at 0x7feccab25ffe by thread 31027:\n"
        "  #1 [0x55585c0afa55]\n"
        "  #2 [0x55585c0af7cf]\n"
        "\n"
        "The access is 2B left of 41B allocation at 0x7feccab26000\n"
        "\n"
        "0x7feccab26000 was allocated by thread 31027:\n"
        "  #1 [0x55585c0af787]\n"
        "*** End GWP-ASan report ***\n"
    )


def test_right_distance_is_one_based():
    # First byte past the end reads as 1B right, not 0B.
    report = ErrorReport(
        kind=ReportKind.BUFFER_OVERFLOW,
        access_address=0x1000 + 41,
        access_kind=AccessType.READ,
        faulting_thread=1,
        access_trace=[0x10],
        allocation_address=0x1000,
        allocation_size=41,
        alloc_thread=1,
        alloc_trace=[0x20],
    )
    assert "The access is 1B right of 41B allocation" in render_report(report)


def test_unknown_access_kind_omits_the_word():
    report = ErrorReport(
        kind=ReportKind.USE_AFTER_FREE,
        access_address=0x2000,
        access_kind=AccessType.UNKNOWN,
        faulting_thread=7,
        access_trace=[0x10],
        allocation_address=0x2000,
        allocation_size=8,
        alloc_thread=7,
        alloc_trace=[0x20],
        dealloc_thread=7,
        dealloc_trace=[0x30],
    )
    text = render_report(report)
    assert "Use-after-free at 0x2000 by thread 7:" in text
    parsed = parse_report(text)
    assert parsed.access_kind is AccessType.UNKNOWN


def test_render_unattributed_guard_hit():
    report = ErrorReport(
        kind=ReportKind.INDETERMINATE_GUARD_HIT,
        access_address=0x5000,
        access_kind=AccessType.READ,
        faulting_thread=3,
        access_trace=[0x10],
        metadata_lost=True,
    )
    text = render_report(report)
    assert "Indeterminate-guard-hit read at 0x5000" in text
    assert "The access is to a guarded pool page with no associated allocation" in text
    assert "allocated by" not in text


def test_render_lost_metadata_sentinels():
    report = ErrorReport(
        kind=ReportKind.USE_AFTER_FREE,
        access_address=0x3000,
        access_kind=AccessType.WRITE,
        faulting_thread=9,
        access_trace=[0x10],
        allocation_address=0x3000,
        allocation_size=16,
        metadata_lost=True,
    )
    text = render_report(report)
    # Use-after-free implies a deallocation happened even when the record
    # is gone, so both blocks render with the lost sentinel.
    assert "was deallocated by thread <unknown>:\n  <metadata lost>" in text
    assert "was allocated by thread <unknown>:\n  <metadata lost>" in text


def test_lost_overflow_has_no_dealloc_block():
    report = ErrorReport(
        kind=ReportKind.BUFFER_OVERFLOW,
        access_address=0x3020,
        access_kind=AccessType.READ,
        faulting_thread=9,
        access_trace=[0x10],
        allocation_address=0x3000,
        allocation_size=16,
        metadata_lost=True,
    )
    text = render_report(report)
    assert "deallocated" not in text
    assert "was allocated by thread <unknown>:\n  <metadata lost>" in text


def test_empty_access_trace_renders_unavailable():
    report = ErrorReport(
        kind=ReportKind.INDETERMINATE_GUARD_HIT,
        access_address=0x5000,
        access_kind=AccessType.READ,
        faulting_thread=3,
        access_trace=[],
        metadata_lost=True,
    )
    assert "by thread 3:\n  <unavailable>\n" in render_report(report)


def test_offset_property():
    report = ErrorReport(
        kind=ReportKind.USE_AFTER_FREE,
        access_address=0x1008,
        access_kind=AccessType.READ,
        faulting_thread=1,
        access_trace=[],
        allocation_address=0x1000,
        allocation_size=41,
    )
    assert report.offset == 8
    no_alloc = ErrorReport(
        kind=ReportKind.INDETERMINATE_GUARD_HIT,
        access_address=0x1008,
        access_kind=AccessType.READ,
        faulting_thread=1,
        access_trace=[],
        metadata_lost=True,
    )
    assert no_alloc.offset is None


# -- parsing the published report shapes ---------------------------------


def test_parse_symbolized_use_after_free():
    report = parse_report(UAF_EXAMPLE)
    assert report.kind is ReportKind.USE_AFTER_FREE
    assert report.access_address == 0x7FECCAB26008
    assert report.access_kind is AccessType.WRITE
    assert report.faulting_thread == 31027
    assert report.access_trace == [0x55585C0AFA55, 0x55585C0AF7CF]
    assert report.allocation_address == 0x7FECCAB26000
    assert report.allocation_size == 41
    assert report.offset == 8
    assert report.dealloc_thread == 31027
    assert report.dealloc_trace == [0x55585C0AF7B3]
    assert report.alloc_thread == 31027
    assert report.alloc_trace == [0x55585C0AF787]
    assert not report.metadata_lost


def test_parse_symbolized_out_of_bounds():
    report = parse_report(OOB_EXAMPLE)
    assert report.kind is ReportKind.BUFFER_UNDERFLOW
    assert report.access_kind is AccessType.READ
    assert report.offset == -2
    assert report.allocation_size == 41
    assert report.dealloc_thread is None
    assert report.dealloc_trace is None
    assert report.alloc_trace == [0x55585C0AF787]


def test_parse_tolerates_leading_blank_lines():
    report = parse_report("\n\n" + UAF_EXAMPLE)
    assert report.kind is ReportKind.USE_AFTER_FREE


# -- round trips ----------------------------------------------------------


def random_report(rng: random.Random) -> ErrorReport:
    """A random report in one of the shapes the fault handler produces."""
    kind = rng.choice(list(ReportKind))
    access_kind = rng.choice(list(AccessType))
    tid = rng.randrange(1, 1 << 20)
    access_trace = [rng.randrange(1, 1 << 48) for _ in range(rng.randrange(0, 6))]
    base = dict(
        kind=kind,
        access_kind=access_kind,
        faulting_thread=tid,
        access_trace=access_trace,
    )
    if kind is ReportKind.INDETERMINATE_GUARD_HIT:
        return ErrorReport(
            access_address=rng.randrange(1 << 16, 1 << 40), metadata_lost=True, **base
        )
    size = rng.randrange(1, 4097)
    alloc = rng.randrange(1 << 16, 1 << 40)
    if kind is ReportKind.BUFFER_UNDERFLOW:
        access = alloc - rng.randrange(1, 4097)
    elif kind is ReportKind.BUFFER_OVERFLOW:
        access = alloc + size + rng.randrange(0, 4096)
    else:
        access = alloc + rng.randrange(0, size)
    base.update(access_address=access, allocation_address=alloc, allocation_size=size)
    if rng.random() < 0.2:
        return ErrorReport(metadata_lost=True, **base)
    alloc_trace = [rng.randrange(1, 1 << 48) for _ in range(rng.randrange(0, 5))]
    alloc_thread = rng.choice([None, rng.randrange(1, 1 << 20)])
    has_dealloc = kind in (ReportKind.USE_AFTER_FREE, ReportKind.DOUBLE_FREE) or (
        rng.random() < 0.3
    )
    dealloc_thread = dealloc_trace = None
    if has_dealloc:
        dealloc_thread = rng.randrange(1, 1 << 20)
        dealloc_trace = [rng.randrange(1, 1 << 48) for _ in range(rng.randrange(0, 5))]
    return ErrorReport(
        alloc_thread=alloc_thread,
        alloc_trace=alloc_trace,
        dealloc_thread=dealloc_thread,
        dealloc_trace=dealloc_trace,
        **base,
    )


@pytest.mark.parametrize("seed", range(8))
def test_round_trip_random_reports(seed):
    rng = random.Random(seed)
    for _ in range(200):
        report = random_report(rng)
        assert parse_report(render_report(report)) == report


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_round_trip_property(rng):
    report = random_report(rng)
    assert parse_report(render_report(report)) == report


def test_round_trip_published_example():
    report = parse_report(UAF_EXAMPLE)
    # Rendering drops symbolizer text; the re-parse must be stable.
    assert parse_report(render_report(report)) == report


# -- parse failures -------------------------------------------------------


def _sample_text():
    return render_report(
        ErrorReport(
            kind=ReportKind.USE_AFTER_FREE,
            access_address=0x1008,
            access_kind=AccessType.WRITE,
            faulting_thread=4,
            access_trace=[0xAA, 0xBB],
            allocation_address=0x1000,
            allocation_size=41,
            alloc_thread=4,
            alloc_trace=[0xCC],
            dealloc_thread=4,
            dealloc_trace=[0xDD],
        )
    )


def test_missing_trailer_names_the_line():
    lines = _sample_text().splitlines()
    assert lines[-1] == REPORT_TRAILER
    truncated = "\n".join(lines[:-1]) + "\n"
    with pytest.raises(ReportParseError) as excinfo:
        parse_report(truncated)
    assert excinfo.value.line_no == len(lines)
    assert "unexpected end of report" in str(excinfo.value)


def test_missing_header():
    with pytest.raises(ReportParseError) as excinfo:
        parse_report("not a report\n")
    assert excinfo.value.line_no == 1
    assert "header" in str(excinfo.value)


def test_malformed_headline_reports_line_two():
    text = _sample_text().replace("Use-after-free write at", "Exploded near", 1)
    with pytest.raises(ReportParseError) as excinfo:
        parse_report(text)
    assert excinfo.value.line_no == 2
    assert "headline" in str(excinfo.value)


def test_tampered_locator_distance_rejected():
    text = render_report(
        ErrorReport(
            kind=ReportKind.BUFFER_UNDERFLOW,
            access_address=0xFFE,
            access_kind=AccessType.READ,
            faulting_thread=1,
            access_trace=[0x1],
            allocation_address=0x1000,
            allocation_size=41,
            alloc_thread=1,
            alloc_trace=[0x2],
        )
    )
    bad = text.replace("2B left", "3B left")
    with pytest.raises(ReportParseError, match="disagrees"):
        parse_report(bad)


def test_inconsistent_within_locator_rejected():
    text = _sample_text().replace("within 41B", "within 8B")
    with pytest.raises(ReportParseError, match="disagrees"):
        parse_report(text)


def test_block_with_wrong_address_rejected():
    text = _sample_text().replace("0x1000 was allocated", "0x1010 was allocated")
    with pytest.raises(ReportParseError, match="not the allocation address"):
        parse_report(text)


def test_duplicate_block_rejected():
    lines = _sample_text().splitlines()
    alloc_at = lines.index("0x1000 was allocated by thread 4:")
    lines[alloc_at:alloc_at] = ["0x1000 was allocated by thread 4:", "  #1 [0xcc]", ""]
    with pytest.raises(ReportParseError, match="duplicate allocated block"):
        parse_report("\n".join(lines) + "\n")


def test_garbage_frame_line_rejected():
    text = _sample_text().replace("  #1 [0xaa]", "  frame during error")
    with pytest.raises(ReportParseError, match="stack frame"):
        parse_report(text)


def test_exception_message_carries_line_number():
    with pytest.raises(ReportParseError, match=r"^line 1: "):
        parse_report("bogus\n")


# -- access kind decoding -------------------------------------------------


@pytest.mark.parametrize(
    "raw, expected",
    [
        (AccessKind.READ, AccessType.READ),
        (AccessKind.WRITE, AccessType.WRITE),
        (None, AccessType.UNKNOWN),
    ],
)
def test_determine_access_kind(raw, expected):
    assert determine_access_kind(FaultInfo(0x1000, raw, 1)) is expected


# -- the fault handler against a live pool --------------------------------


def make_env(
    slot_count=4,
    recoverable=False,
    side=None,
    expose_access_kind=True,
    on_disable=None,
):
    vm = VirtualMemory(expose_access_kind=expose_access_kind)
    pool = GuardedPool(
        PoolConfig(slot_count=slot_count, seed=11, force_alignment_side=side), vm
    )
    store = MetadataStore(capacity=16)
    sink = io.StringIO()
    reporter = Reporter(
        pool, store, ReporterConfig(recoverable=recoverable, sink=sink), on_disable
    )
    reporter.install(vm)
    return vm, pool, store, sink, reporter


def tracked_alloc(pool, store, size=41, alignment=1, thread_id=5):
    slot_index, addr = pool.acquire(size, alignment)
    slot = pool.slots[slot_index]
    slot.metadata_seq = store.store_alloc(slot_index, size, thread_id, [0x100, 0x200])
    return slot_index, addr


def tracked_free(pool, store, slot_index, thread_id=5):
    slot = pool.slots[slot_index]
    store.store_dealloc(slot_index, slot.metadata_seq, thread_id, [0x300])
    pool.release(slot_index)


def test_read_of_quarantined_slot_reports_use_after_free():
    vm, pool, store, sink, reporter = make_env()
    slot_index, addr = tracked_alloc(pool, store)
    tracked_free(pool, store, slot_index)
    with pytest.raises(SegmentationFault):
        vm.read(addr + 8, 1)
    report = parse_report(sink.getvalue())
    assert report.kind is ReportKind.USE_AFTER_FREE
    assert report.access_address == addr + 8
    assert report.access_kind is AccessType.READ
    assert report.allocation_address == addr
    assert report.allocation_size == 41
    assert report.alloc_trace == [0x100, 0x200]
    assert report.dealloc_trace == [0x300]
    assert report.access_trace, "fault site stack must be captured"
    assert reporter.reports_emitted == 1
    assert reporter.last_report == report


def test_write_fault_carries_write_access_kind():
    vm, pool, store, sink, reporter = make_env()
    slot_index, addr = tracked_alloc(pool, store)
    tracked_free(pool, store, slot_index)
    with pytest.raises(SegmentationFault):
        vm.write(addr, b"x")
    assert parse_report(sink.getvalue()).access_kind is AccessType.WRITE


def test_unexposed_access_kind_renders_without_the_word():
    vm, pool, store, sink, reporter = make_env(expose_access_kind=False)
    slot_index, addr = tracked_alloc(pool, store)
    tracked_free(pool, store, slot_index)
    with pytest.raises(SegmentationFault):
        vm.read(addr, 1)
    assert f"Use-after-free at 0x{addr:x}" in sink.getvalue()
    assert parse_report(sink.getvalue()).access_kind is AccessType.UNKNOWN


def test_right_guard_hit_reports_overflow():
    vm, pool, store, sink, reporter = make_env(side=AlignmentSide.LEFT)
    slot_index, addr = tracked_alloc(pool, store, size=41)
    guard = pool.guard_page_addr(slot_index + 1)
    with pytest.raises(SegmentationFault):
        vm.read(guard, 1)
    report = parse_report(sink.getvalue())
    assert report.kind is ReportKind.BUFFER_OVERFLOW
    assert report.allocation_address == addr
    # Left-aligned 41B allocation: guard starts one page after the user
    # pointer, 4096 - 41 + 1 bytes right of the last in-bounds byte.
    assert f"{4096 - 41 + 1}B right of 41B allocation" in sink.getvalue()


def test_left_guard_hit_reports_underflow():
    vm, pool, store, sink, reporter = make_env(side=AlignmentSide.RIGHT)
    slot_index, addr = tracked_alloc(pool, store, size=41)
    with pytest.raises(SegmentationFault):
        vm.read(pool.slot_page_addr(slot_index) - 1, 1)
    report = parse_report(sink.getvalue())
    assert report.kind is ReportKind.BUFFER_UNDERFLOW
    assert report.offset == -(4096 - 41 + 1)


def test_guard_next_to_quarantined_victim_reports_use_after_free():
    vm, pool, store, sink, reporter = make_env()
    slot_index, addr = tracked_alloc(pool, store)
    tracked_free(pool, store, slot_index)
    with pytest.raises(SegmentationFault):
        vm.read(pool.guard_page_addr(slot_index + 1), 1)
    report = parse_report(sink.getvalue())
    # The access pattern is out-of-bounds but the victim evidence says
    # the allocation was already freed; the locator carries the rest.
    assert report.kind is ReportKind.USE_AFTER_FREE
    assert report.allocation_address == addr
    assert report.offset is not None and report.offset >= 41
    assert report.dealloc_trace == [0x300]


def test_unattributed_guard_hit_is_indeterminate():
    vm, pool, store, sink, reporter = make_env()
    with pytest.raises(SegmentationFault):
        vm.read(pool.guard_page_addr(1), 1)
    report = parse_report(sink.getvalue())
    assert report.kind is ReportKind.INDETERMINATE_GUARD_HIT
    assert report.allocation_address is None
    assert report.metadata_lost


def test_allocated_slot_classification_is_indeterminate():
    # An allocated page cannot fault through the vm (it is mapped RW);
    # the only way the handler sees one is a slot that changed hands
    # between fault and classification.  Drive the handler directly.
    vm, pool, store, sink, reporter = make_env()
    slot_index, addr = tracked_alloc(pool, store)
    action = reporter.handle_fault(FaultInfo(addr, AccessKind.READ, 1))
    assert action is FaultAction.TERMINATE
    assert parse_report(sink.getvalue()).kind is ReportKind.INDETERMINATE_GUARD_HIT


def test_recycled_metadata_degrades_to_lost():
    # The slot is reused (its record rewritten) between the victim's
    # release and the fault's snapshot: the old sequence no longer matches.
    vm, pool, store, sink, reporter = make_env()
    slot_index, addr = tracked_alloc(pool, store)
    pool.release(slot_index)  # no dealloc evidence recorded
    store.store_alloc(slot_index, 1, 1, [0x1])
    with pytest.raises(SegmentationFault):
        vm.read(addr, 1)
    report = parse_report(sink.getvalue())
    assert report.kind is ReportKind.USE_AFTER_FREE
    assert report.metadata_lost
    assert report.allocation_address == addr
    assert report.allocation_size == 41  # geometry survives on the slot
    assert report.alloc_trace is None

    # A slot acquired but never given a record reports lost evidence too.
    vm, pool, store, sink, reporter = make_env(side=AlignmentSide.RIGHT)
    slot_index, addr = pool.acquire(41, 1)
    with pytest.raises(SegmentationFault):
        vm.read(addr + 41, 1)
    report = parse_report(sink.getvalue())
    assert report.kind is ReportKind.BUFFER_OVERFLOW
    assert report.metadata_lost
    assert report.allocation_address == addr
    assert report.allocation_size == 41
    assert report.alloc_trace is None


def test_not_ours_chains_to_previous_handler():
    vm = VirtualMemory()
    seen = []

    def recorder(fault):
        seen.append(fault.address)
        return FaultAction.TERMINATE

    vm.install_fault_handler(recorder)
    pool = GuardedPool(PoolConfig(slot_count=2, seed=1), vm)
    store = MetadataStore(capacity=4)
    sink = io.StringIO()
    reporter = Reporter(pool, store, ReporterConfig(sink=sink))
    reporter.install(vm)

    outside = vm.reserve(1, PROT_NONE)
    with pytest.raises(SegmentationFault):
        vm.read(outside, 1)
    assert seen == [outside]
    assert sink.getvalue() == ""
    assert reporter.reports_emitted == 0


def test_uninstall_restores_previous_handler():
    vm = VirtualMemory()
    seen = []

    def recorder(fault):
        seen.append(fault.address)
        return FaultAction.TERMINATE

    vm.install_fault_handler(recorder)
    pool = GuardedPool(PoolConfig(slot_count=2, seed=1), vm)
    store = MetadataStore(capacity=4)
    sink = io.StringIO()
    reporter = Reporter(pool, store, ReporterConfig(sink=sink))
    reporter.install(vm)
    slot_index, addr = pool.acquire(16)
    pool.release(slot_index)
    reporter.uninstall()

    with pytest.raises(SegmentationFault):
        vm.read(addr, 1)  # inside the pool, but the reporter is gone
    assert seen == [addr]
    assert sink.getvalue() == ""


def test_fault_while_holding_pool_lock_does_not_deadlock():
    # Signal-handler discipline: the report path takes no pool lock, so
    # a fault raised by the thread that owns the lock must complete.
    vm, pool, store, sink, reporter = make_env()
    slot_index, addr = tracked_alloc(pool, store)
    tracked_free(pool, store, slot_index)
    with pool.lock:
        with pytest.raises(SegmentationFault):
            vm.read(addr, 1)
    assert parse_report(sink.getvalue()).kind is ReportKind.USE_AFTER_FREE


# -- recovery -------------------------------------------------------------


def test_recoverable_fault_scrubs_page_and_resumes():
    disabled = []
    vm, pool, store, sink, reporter = make_env(
        recoverable=True, on_disable=lambda: disabled.append(True)
    )
    slot_index, addr = tracked_alloc(pool, store, size=64)
    vm.write(addr, b"\xaa" * 64)
    tracked_free(pool, store, slot_index)

    data = vm.read(addr, 64)  # faults, recovers, resumes
    assert data == b"\x00" * 64, "recovered page must be scrubbed, not leaked"
    assert reporter.reports_emitted == 1
    assert parse_report(sink.getvalue()).kind is ReportKind.USE_AFTER_FREE
    assert disabled == [True]


def test_second_fault_after_recovery_is_silent():
    vm, pool, store, sink, reporter = make_env(recoverable=True)
    first_index, first_addr = tracked_alloc(pool, store)
    second_index, second_addr = tracked_alloc(pool, store)
    tracked_free(pool, store, first_index)
    tracked_free(pool, store, second_index)

    vm.read(first_addr, 8)
    assert reporter.reports_emitted == 1
    assert vm.read(second_addr, 8) == b"\x00" * 8  # scrubbed, no report
    assert reporter.reports_emitted == 1
    assert sink.getvalue().count(REPORT_HEADER) == 1


def test_emit_synthetic_fatal_by_default():
    vm, pool, store, sink, reporter = make_env()
    report = ErrorReport(
        kind=ReportKind.DOUBLE_FREE,
        access_address=0x1234,
        access_kind=AccessType.UNKNOWN,
        faulting_thread=8,
        access_trace=[0x1],
        allocation_address=0x1234,
        allocation_size=16,
        alloc_thread=8,
        alloc_trace=[0x2],
        dealloc_thread=8,
        dealloc_trace=[0x3],
    )
    with pytest.raises(SegmentationFault) as excinfo:
        reporter.emit_synthetic(report)
    assert excinfo.value.fault.address == 0x1234
    assert "Double-free at 0x1234" in sink.getvalue()


def test_emit_synthetic_recoverable_disables_reporting():
    disabled = []
    vm, pool, store, sink, reporter = make_env(
        recoverable=True, on_disable=lambda: disabled.append(True)
    )
    report = ErrorReport(
        kind=ReportKind.INVALID_FREE,
        access_address=0x1234,
        access_kind=AccessType.UNKNOWN,
        faulting_thread=8,
        access_trace=[0x1],
    )
    reporter.emit_synthetic(report)
    reporter.emit_synthetic(report)  # disabled: swallowed
    assert reporter.reports_emitted == 1
    assert disabled == [True]

    # Real faults after the synthetic disable resume without reporting.
    slot_index, addr = tracked_alloc(pool, store)
    tracked_free(pool, store, slot_index)
    assert vm.read(addr, 4) == b"\x00" * 4
    assert sink.getvalue().count(REPORT_HEADER) == 1


# -- emission concurrency --------------------------------------------------


class _OverlapSink:
    """Counts concurrent write() calls to prove whole-report serialization."""

    def __init__(self):
        self._lock = threading.Lock()
        self.active = 0
        self.max_active = 0
        self.writes = 0

    def write(self, text):
        with self._lock:
            self.active += 1
            self.max_active = max(self.max_active, self.active)
        time.sleep(0.002)
        with self._lock:
            self.active -= 1
            self.writes += 1

    def flush(self):
        pass


def test_concurrent_emission_is_serialized():
    vm = VirtualMemory()
    pool = GuardedPool(PoolConfig(slot_count=2, seed=3), vm)
    store = MetadataStore(capacity=4)
    sink = _OverlapSink()
    reporter = Reporter(pool, store, ReporterConfig(sink=sink))
    report = ErrorReport(
        kind=ReportKind.USE_AFTER_FREE,
        access_address=0x1000,
        access_kind=AccessType.READ,
        faulting_thread=1,
        access_trace=[0x1],
        allocation_address=0x1000,
        allocation_size=8,
        alloc_thread=1,
        alloc_trace=[0x2],
        dealloc_thread=1,
        dealloc_trace=[0x3],
    )
    barrier = threading.Barrier(8)

    def emit():
        barrier.wait()
        reporter._emit(report)

    threads = [threading.Thread(target=emit) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert sink.max_active == 1, "reports must never interleave"
    assert sink.writes == 8
    assert reporter.reports_emitted == 8
