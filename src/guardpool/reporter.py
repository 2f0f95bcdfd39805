"""Fault-time pipeline: classify the access, assemble and render a report.

A report names the error kind, the faulting access (address, read/write
when the platform exposes it, thread), the faulting stack, where the
access sits relative to the victim allocation, and the allocation and
deallocation stacks when the metadata record is still live.  The text
format is a stable contract: parse_report is the exact inverse of
render_report for reports this module produces, and also accepts frames
carrying symbolizer text before the bracketed address.

The handler itself follows signal-handler discipline in modeled form:
it takes no lock any interrupted thread could hold (pool state is read
via the lock-free classification and record snapshot paths) and
serializes whole reports to the sink with a spin permit whose holders
never fault and never block.
"""

from __future__ import annotations

import enum
import re
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Optional, TextIO

from .metadata import MetadataStore, capture_trace, decompress_trace
from .pool import AddressClassification, AddressKind, GuardedPool, SlotState
from .vmem import (
    AccessType,
    FaultAction,
    FaultInfo,
    PROT_READ,
    PROT_WRITE,
    SegmentationFault,
    VirtualMemory,
)

REPORT_HEADER = "*** GWP-ASan detected a memory error ***"
REPORT_TRAILER = "*** End GWP-ASan report ***"


class ReportKind(enum.Enum):
    USE_AFTER_FREE = "use-after-free"
    BUFFER_OVERFLOW = "buffer-overflow"
    BUFFER_UNDERFLOW = "buffer-underflow"
    DOUBLE_FREE = "double-free"
    INVALID_FREE = "invalid-free"
    INDETERMINATE_GUARD_HIT = "indeterminate-guard-hit"


# Both out-of-bounds kinds share a headline; the locator line carries
# which side of the allocation the access fell on.
_KIND_HEADLINES = {
    ReportKind.USE_AFTER_FREE: "Use-after-free",
    ReportKind.BUFFER_OVERFLOW: "Out-of-bounds",
    ReportKind.BUFFER_UNDERFLOW: "Out-of-bounds",
    ReportKind.DOUBLE_FREE: "Double-free",
    ReportKind.INVALID_FREE: "Invalid-free",
    ReportKind.INDETERMINATE_GUARD_HIT: "Indeterminate-guard-hit",
}


@dataclass(frozen=True)
class ErrorReport:
    """Everything a rendered report carries, in structured form.

    allocation fields are None when the fault could not be attributed
    to any allocation (wild hit on an unattributed guard or free slot).
    metadata_lost means the slot was attributed but its record had been
    recycled, so only geometry survives.
    """

    kind: ReportKind
    access_address: int
    access_kind: AccessType
    faulting_thread: int
    access_trace: list[int] = field(default_factory=list)
    allocation_address: Optional[int] = None
    allocation_size: Optional[int] = None
    alloc_thread: Optional[int] = None
    alloc_trace: Optional[list[int]] = None
    dealloc_thread: Optional[int] = None
    dealloc_trace: Optional[list[int]] = None
    metadata_lost: bool = False

    @property
    def offset(self) -> Optional[int]:
        """Signed offset of the access from the allocation start."""
        if self.allocation_address is None:
            return None
        return self.access_address - self.allocation_address


# -- rendering ---------------------------------------------------------


def _frame_lines(trace: Optional[list[int]], lost: bool) -> list[str]:
    if lost:
        return ["  <metadata lost>"]
    if not trace:
        return ["  <unavailable>"]
    return [f"  #{i} [0x{pc:x}]" for i, pc in enumerate(trace, start=1)]


def _locator_line(report: ErrorReport) -> str:
    if report.allocation_address is None:
        return "The access is to a guarded pool page with no associated allocation"
    size = report.allocation_size or 0
    alloc = report.allocation_address
    off = report.access_address - alloc
    if 0 <= off < size:
        return f"The access is within {size}B allocation at 0x{alloc:x}"
    if off < 0:
        return f"The access is {-off}B left of {size}B allocation at 0x{alloc:x}"
    # First byte past the end is 1B right: distances are 1-based on
    # both sides of the allocation.
    return f"The access is {off - size + 1}B right of {size}B allocation at 0x{alloc:x}"


def render_report(report: ErrorReport) -> str:
    """Render a report; pure function of its argument."""
    access_word = "" if report.access_kind is AccessType.UNKNOWN else f" {report.access_kind.value}"
    lines = [
        REPORT_HEADER,
        f"{_KIND_HEADLINES[report.kind]}{access_word} at 0x{report.access_address:x}"
        f" by thread {report.faulting_thread}:",
    ]
    lines += _frame_lines(report.access_trace, lost=False)
    lines.append("")
    lines.append(_locator_line(report))

    if report.allocation_address is not None:
        alloc = report.allocation_address
        has_dealloc = (
            report.dealloc_trace is not None
            or report.dealloc_thread is not None
            or (
                report.metadata_lost
                and report.kind in (ReportKind.USE_AFTER_FREE, ReportKind.DOUBLE_FREE)
            )
        )
        if has_dealloc:
            lines.append("")
            lines.append(
                f"0x{alloc:x} was deallocated by thread {_thread_word(report.dealloc_thread)}:"
            )
            lines += _frame_lines(report.dealloc_trace, lost=report.metadata_lost)
        lines.append("")
        lines.append(f"0x{alloc:x} was allocated by thread {_thread_word(report.alloc_thread)}:")
        lines += _frame_lines(report.alloc_trace, lost=report.metadata_lost)

    lines.append(REPORT_TRAILER)
    return "\n".join(lines) + "\n"


def _thread_word(thread_id: Optional[int]) -> str:
    return "<unknown>" if thread_id is None else str(thread_id)


# -- parsing -----------------------------------------------------------


class ReportParseError(ValueError):
    """Parse failure, annotated with the 1-based line it occurred on."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


_HEADLINE_RE = re.compile(
    r"^(Use-after-free|Out-of-bounds|Double-free|Invalid-free|Indeterminate-guard-hit)"
    r"(?: (read|write))? at 0x([0-9a-f]+) by thread (\d+):$"
)
# Frames may carry symbolizer text between the number and the bracketed
# address; only the address is semantic.
_FRAME_RE = re.compile(r"^  #\d+ (?:\S.* )?\[0x([0-9a-f]+)\]$")
_WITHIN_RE = re.compile(r"^The access is within (\d+)B allocation at 0x([0-9a-f]+)$")
_BESIDE_RE = re.compile(
    r"^The access is (\d+)B (left|right) of (\d+)B allocation at 0x([0-9a-f]+)$"
)
_NO_ALLOC_LOCATOR = "The access is to a guarded pool page with no associated allocation"
_BLOCK_RE = re.compile(r"^0x([0-9a-f]+) was (deallocated|allocated) by thread (\d+|<unknown>):$")


class _Cursor:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    @property
    def line_no(self) -> int:
        return self.pos + 1

    def peek(self) -> Optional[str]:
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def take(self) -> str:
        line = self.peek()
        if line is None:
            raise ReportParseError(self.line_no, "unexpected end of report")
        self.pos += 1
        return line

    def expect(self, literal: str, what: str) -> None:
        line = self.take()
        if line != literal:
            raise ReportParseError(self.pos, f"expected {what}, got {line!r}")


def _parse_frames(cur: _Cursor) -> tuple[Optional[list[int]], bool]:
    """Returns (trace, lost); trace None only for the lost sentinel."""
    line = cur.peek()
    if line == "  <metadata lost>":
        cur.take()
        return None, True
    if line == "  <unavailable>":
        cur.take()
        return [], False
    pcs: list[int] = []
    while True:
        line = cur.peek()
        if line is None:
            break
        match = _FRAME_RE.match(line)
        if not match:
            break
        cur.take()
        pcs.append(int(match.group(1), 16))
    if not pcs:
        raise ReportParseError(cur.line_no, "expected at least one stack frame line")
    return pcs, False


def parse_report(text: str) -> ErrorReport:
    """Parse rendered report text back into an ErrorReport.

    Inverse of render_report on this module's own output; also accepts
    symbolized frame lines.  Raises ReportParseError naming the first
    offending line.
    """
    cur = _Cursor(text)
    while cur.peek() == "":
        cur.take()
    cur.expect(REPORT_HEADER, "report header")

    line = cur.take()
    match = _HEADLINE_RE.match(line)
    if not match:
        raise ReportParseError(cur.pos, f"malformed headline: {line!r}")
    headline_kind, access_word, addr_hex, tid = match.groups()
    access_address = int(addr_hex, 16)
    access_kind = AccessType(access_word) if access_word else AccessType.UNKNOWN
    faulting_thread = int(tid)

    access_trace, access_lost = _parse_frames(cur)
    if access_lost or access_trace is None:
        raise ReportParseError(cur.pos, "access frames cannot be <metadata lost>")
    cur.expect("", "blank line before locator")

    locator = cur.take()
    locator_line_no = cur.pos
    allocation_address: Optional[int] = None
    allocation_size: Optional[int] = None
    if locator != _NO_ALLOC_LOCATOR:
        match = _WITHIN_RE.match(locator)
        if match:
            allocation_size = int(match.group(1))
            allocation_address = int(match.group(2), 16)
            off = access_address - allocation_address
            if not 0 <= off < allocation_size:
                raise ReportParseError(
                    locator_line_no, "in-bounds locator disagrees with access address"
                )
        else:
            match = _BESIDE_RE.match(locator)
            if not match:
                raise ReportParseError(locator_line_no, f"malformed locator: {locator!r}")
            distance = int(match.group(1))
            side = match.group(2)
            allocation_size = int(match.group(3))
            allocation_address = int(match.group(4), 16)
            if side == "left":
                expected = allocation_address - access_address
            else:
                expected = access_address - (allocation_address + allocation_size) + 1
            if distance != expected or distance < 1:
                raise ReportParseError(
                    locator_line_no, "locator distance disagrees with access address"
                )

    kind = _resolve_kind(headline_kind, allocation_address, access_address,
                         allocation_size, locator_line_no)

    alloc_thread = dealloc_thread = None
    alloc_trace = dealloc_trace = None
    metadata_lost = allocation_address is None and kind is ReportKind.INDETERMINATE_GUARD_HIT
    seen_blocks = set()
    while cur.peek() == "":
        cur.take()
        line = cur.take()
        match = _BLOCK_RE.match(line)
        if not match:
            raise ReportParseError(cur.pos, f"expected trace block or trailer, got {line!r}")
        block_addr = int(match.group(1), 16)
        verb = match.group(2)
        if block_addr != allocation_address:
            raise ReportParseError(
                cur.pos, f"trace block address 0x{block_addr:x} is not the allocation address"
            )
        if verb in seen_blocks:
            raise ReportParseError(cur.pos, f"duplicate {verb} block")
        seen_blocks.add(verb)
        thread_word = match.group(3)
        thread_id = None if thread_word == "<unknown>" else int(thread_word)
        trace, lost = _parse_frames(cur)
        metadata_lost = metadata_lost or lost
        if verb == "deallocated":
            dealloc_thread, dealloc_trace = thread_id, trace
        else:
            alloc_thread, alloc_trace = thread_id, trace

    cur.expect(REPORT_TRAILER, "report trailer")

    return ErrorReport(
        kind=kind,
        access_address=access_address,
        access_kind=access_kind,
        faulting_thread=faulting_thread,
        access_trace=access_trace,
        allocation_address=allocation_address,
        allocation_size=allocation_size,
        alloc_thread=alloc_thread,
        alloc_trace=alloc_trace,
        dealloc_thread=dealloc_thread,
        dealloc_trace=dealloc_trace,
        metadata_lost=metadata_lost,
    )


def _resolve_kind(
    headline: str,
    allocation_address: Optional[int],
    access_address: int,
    allocation_size: Optional[int],
    line_no: int,
) -> ReportKind:
    if headline == "Use-after-free":
        return ReportKind.USE_AFTER_FREE
    if headline == "Double-free":
        return ReportKind.DOUBLE_FREE
    if headline == "Invalid-free":
        return ReportKind.INVALID_FREE
    if headline == "Indeterminate-guard-hit":
        return ReportKind.INDETERMINATE_GUARD_HIT
    # Out-of-bounds: the locator side distinguishes under- from overflow.
    if allocation_address is None:
        raise ReportParseError(line_no, "out-of-bounds report without an allocation locator")
    off = access_address - allocation_address
    if off < 0:
        return ReportKind.BUFFER_UNDERFLOW
    if allocation_size is not None and off >= allocation_size:
        return ReportKind.BUFFER_OVERFLOW
    raise ReportParseError(line_no, "out-of-bounds report with an in-bounds locator")


# -- the fault handler ---------------------------------------------------


class Reporter:
    """Owns fault handling, report emission, and recovery for one pool."""

    def __init__(
        self,
        pool: GuardedPool,
        store: MetadataStore,
        max_frames: int,
        recoverable: bool = False,
        sink: Optional[TextIO] = None,
        on_disable=None,
    ):
        self._pool = pool
        self._store = store
        self._max_frames = max_frames  # access stacks' cap
        self.recoverable = recoverable
        self._sink = sink if sink is not None else sys.stderr
        self._on_disable = on_disable
        # Spin permit, not a blocking wait: a holder only formats and
        # writes, never faults, so spinning cannot deadlock with the
        # interrupted thread.
        self._permit = threading.Lock()
        self._prev = None
        self._vm: Optional[VirtualMemory] = None
        # Set by the first recoverable report; later ones are swallowed.
        self.disabled = False
        self.reports_emitted = 0
        self.last_report: Optional[ErrorReport] = None

    # -- installation ---------------------------------------------------

    def install(self, vm: VirtualMemory) -> None:
        self._vm = vm
        self._prev = vm.install_fault_handler(self.handle_fault)

    def uninstall(self) -> None:
        if self._vm is not None:
            self._vm.restore_fault_handler(self._prev)
            self._vm = None

    # -- fault path -------------------------------------------------------

    def handle_fault(self, fault: FaultInfo) -> FaultAction:
        """Access-violation hook: classify, report, terminate or recover."""
        classification = self._pool.classify_address(fault.address)
        if classification.kind is AddressKind.NOT_OURS:
            if self._prev is not None:
                return self._prev(fault)
            return FaultAction.TERMINATE
        if self.disabled:
            # Already recovered once: keep the process alive without
            # generating a report storm.
            self._make_page_accessible(fault.address)
            return FaultAction.RESUME
        report = self._build_report(fault, classification)
        self._emit(report)
        if self.recoverable:
            self._make_page_accessible(fault.address)
            self._disable()
            return FaultAction.RESUME
        return FaultAction.TERMINATE

    def emit_synthetic(self, report: ErrorReport) -> None:
        """Emit a shim-detected error (double/invalid free): no fault involved.

        Honors recoverable mode; in the default mode raises the same
        fatal signal a guarded fault would.  Once disabled, swallows it.
        """
        if self.disabled:
            return
        self._emit(report)
        if self.recoverable:
            self._disable()
            return
        raise SegmentationFault(
            FaultInfo(report.access_address, report.access_kind, report.faulting_thread),
            f"fatal {report.kind.value} report at 0x{report.access_address:x}",
        )

    # -- internals ----------------------------------------------------------

    def slot_report(self, kind: ReportKind, slot_index: Optional[int], **access) -> ErrorReport:
        """A report of kind against slot_index's allocation, with its stacks.

        access holds ErrorReport's access fields.  No slot, or a record
        recycled since, gives a metadata_lost report."""
        if slot_index is None:
            return ErrorReport(kind=kind, metadata_lost=True, **access)
        slot = self._pool.slots[slot_index]
        allocation_address = self._pool.slot_page_addr(slot_index) + slot.user_offset
        snapshot = self._store.snapshot(slot_index, slot.metadata_seq)
        if snapshot is None:
            return ErrorReport(
                kind=kind,
                allocation_address=allocation_address,
                allocation_size=slot.user_size,
                metadata_lost=True,
                **access,
            )
        return ErrorReport(
            kind=kind,
            allocation_address=allocation_address,
            allocation_size=snapshot.user_size,
            alloc_thread=snapshot.alloc_thread,
            alloc_trace=decompress_trace(snapshot.alloc_trace),
            dealloc_thread=snapshot.dealloc_thread,
            dealloc_trace=(
                decompress_trace(snapshot.dealloc_trace)
                if snapshot.dealloc_trace is not None
                else None
            ),
            **access,
        )

    def _build_report(self, fault: FaultInfo, cls: AddressClassification) -> ErrorReport:
        access = dict(
            access_address=fault.address,
            access_kind=fault.access,
            faulting_thread=fault.thread_id,
            access_trace=capture_trace(self._max_frames),
        )
        if cls.kind in (AddressKind.UNATTRIBUTED_GUARD, AddressKind.FREE_SLOT,
                        AddressKind.ALLOCATED_SLOT):
            # No allocation to pin the access to: free pages carry stale
            # geometry and an allocated page can only fault when the
            # slot changed hands mid-delivery.
            return self.slot_report(ReportKind.INDETERMINATE_GUARD_HIT, None, **access)

        if cls.kind is AddressKind.QUARANTINED_SLOT:
            kind = ReportKind.USE_AFTER_FREE
        elif self._pool.slots[cls.slot_index].state is SlotState.QUARANTINED:
            # Guard hit attributed to a freed neighbor: evidence says
            # use-after-free, the locator carries the out-of-bounds part.
            kind = ReportKind.USE_AFTER_FREE
        elif cls.kind is AddressKind.LEFT_GUARD:
            kind = ReportKind.BUFFER_UNDERFLOW
        else:
            kind = ReportKind.BUFFER_OVERFLOW
        return self.slot_report(kind, cls.slot_index, **access)

    def _emit(self, report: ErrorReport) -> None:
        text = render_report(report)
        while not self._permit.acquire(blocking=False):
            time.sleep(0)
        try:
            self.last_report = report
            self.reports_emitted += 1
            self._sink.write(text)
            flush = getattr(self._sink, "flush", None)
            if flush is not None:
                flush()
        finally:
            self._permit.release()

    def _make_page_accessible(self, addr: int) -> None:
        page = addr - addr % self._pool.page_size
        vm = self._pool.vm
        vm.fill(page, self._pool.page_size, 0)
        vm.protect(page, self._pool.page_size, PROT_READ | PROT_WRITE)

    def _disable(self) -> None:
        self.disabled = True
        if self._on_disable is not None:
            self._on_disable()
