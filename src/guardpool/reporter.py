"""Fault-time pipeline: classify the access, assemble and render a report.

A report names the error kind, the faulting access (address, read/write
when the platform exposes it, thread), the faulting stack, where the
access sits relative to the victim allocation, and the allocation and
deallocation stacks of the slot's occupant.  The text format is a
stable contract: parse_report is the exact inverse of render_report for
reports this module produces, and also accepts frames carrying
symbolizer text before the bracketed address.

Reports are rendered and parsed on every detection and every triage, so
neither does Python-level work per frame.  render_report applies one %
per report, to one format string joined from fixed pieces and a frame
template per stack picked by frame count: the templates up to the
default max_frames are built at import, a longer stack's per call.
parse_report first matches the whole text against one pattern built
from the line patterns below, which accepts every well-formed report
whose line breaks are all newlines, and takes each stack's pcs with one
findall over its run of frame lines.  Only when that match, or its
check of the locator and the block addresses, fails does it walk
text.splitlines() with an index, matching each line against its
pattern.  The walker is the only source of ReportParseError: it names
the first offending line, and running off the end of the lines is its
one "unexpected end of report" error.  Nothing is cached by report
content.  render_report and emit_synthetic read no enum property and
hash no enum member, both of which are Python-level calls.  Every
ErrorReport is built positionally, parsed or from a record, as vmem
builds its FaultInfo: a keyword call matches each name to its field.
A use-after-free read's report thus makes one call per step: read,
which delivers a fault at the access's first byte itself, then
_deliver_fault, FaultInfo, handle_fault (which picks the kind),
classify_address, snapshot, _record_report, capture_trace, a
decompress_trace per stored stack, ErrorReport, _emit, render_report
and SegmentationFault.

Reporter builds every report, for the fault handler and for the
allocator's checks of a free or usable_size alike.  It reads the
attributed slot's record once, and takes the report's kind (on the
fault path), geometry and stacks from that one object: a record is
never changed once stored, so a report cannot mix two occupants of a
slot that changes hands while the report is built.  Reporter also owns
recovery: disabled is the tool's one off switch.  The first recoverable
report sets it, and so does the allocator's destroy().  From then on the
allocator guards nothing more, its free-path errors are swallowed, and
a fault the handler still sees is scrubbed and resumed without a report.

The handler itself follows signal-handler discipline in modeled form:
it takes no lock any interrupted thread could hold (it reads the
slot states and the one record without the pool lock) and
serializes whole reports to the sink with a spin permit whose holders
never fault and never block.
"""

from __future__ import annotations

import enum
import itertools
import re
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Optional, TextIO

from .metadata import capture_trace, decompress_trace
from .pool import AddressKind, GuardedPool, SlotRecord, SlotState
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
# which side of the allocation the access fell on.  Keyed by the kind's
# value: reading a member's _value_ and hashing a str run in C, while
# Enum.__hash__ and the .value property are Python-level calls.
_KIND_HEADLINES = {
    ReportKind.USE_AFTER_FREE.value: "Use-after-free",
    ReportKind.BUFFER_OVERFLOW.value: "Out-of-bounds",
    ReportKind.BUFFER_UNDERFLOW.value: "Out-of-bounds",
    ReportKind.DOUBLE_FREE.value: "Double-free",
    ReportKind.INVALID_FREE.value: "Invalid-free",
    ReportKind.INDETERMINATE_GUARD_HIT.value: "Indeterminate-guard-hit",
}
# Kinds whose allocation was freed: a lost record still renders a
# deallocation block for them.
_FREED_KINDS = (ReportKind.USE_AFTER_FREE, ReportKind.DOUBLE_FREE)
_NO_ALLOC_LOCATOR = "The access is to a guarded pool page with no associated allocation"
_LOST = "  <metadata lost>"
_UNAVAILABLE = "  <unavailable>"


@dataclass
class ErrorReport:
    """Everything a rendered report carries, in structured form.

    allocation fields are None when the fault could not be attributed
    to any allocation (wild hit on an unattributed guard or free slot,
    or a free of a pointer into neither).  metadata_lost means no
    allocation or deallocation stack survives; Reporter sets it exactly
    when the report names no allocation.  The text format also allows
    it beside an allocation, and parse_report accepts that.

    Not frozen: the traces are lists, which freezing would not guard,
    and a frozen __init__ sets each field through object.__setattr__,
    once per report built or parsed.
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


def _frame_template(n: int) -> str:
    """The frame lines of an n-frame stack, each pc a %x field: %x is
    {pc:x} for the non-negative pcs a stack holds."""
    return "\n".join(["  #%d [0x%%x]" % k for k in range(1, n + 1)])


# Indexed by frame count, up to GuardianConfig's default max_frames; an
# empty stack renders as <unavailable>.
_FRAME_TEMPLATES = [_UNAVAILABLE] + [_frame_template(n) for n in range(1, 65)]
_TEMPLATED = len(_FRAME_TEMPLATES)
# render_report's other pieces.  Decimal fields are %s, as an f-string
# field would be.
_HEAD = f"{REPORT_HEADER}\n%s%s at 0x%x by thread %s:\n"
_ACCESS_WORD_TEXT = {"read": " read", "write": " write", "unknown": ""}
_NO_ALLOC = f"\n\n{_NO_ALLOC_LOCATOR}"
_WITHIN = "\n\nThe access is within %sB allocation at 0x%x"
_BESIDE = "\n\nThe access is %sB %s of %sB allocation at 0x%x"
_BLOCK_TITLE = "\n\n0x%x was %s by thread %s:\n"
_TAIL = f"\n{REPORT_TRAILER}\n"


def render_report(report: ErrorReport) -> str:
    """Render a report; pure function of its argument.  The text is one %
    on one format string, joined from the pieces above and the frame
    templates, over one flat list of fields."""
    access = report.access_address
    trace = report.access_trace or ()
    n = len(trace)
    fmt = [_HEAD, _FRAME_TEMPLATES[n] if n < _TEMPLATED else _frame_template(n)]
    args = [_KIND_HEADLINES[report.kind._value_], _ACCESS_WORD_TEXT[report.access_kind._value_],
            access, report.faulting_thread, *trace]
    alloc = report.allocation_address
    if alloc is None:
        fmt.append(_NO_ALLOC)
    else:
        size = report.allocation_size or 0
        off = access - alloc
        if 0 <= off < size:
            fmt.append(_WITHIN)
            args += (size, alloc)
        else:
            # First byte past the end is 1B right: distances are 1-based
            # on both sides of the allocation.
            fmt.append(_BESIDE)
            args += ((-off, "left", size, alloc) if off < 0
                     else (off - size + 1, "right", size, alloc))
        lost = report.metadata_lost
        thread = report.dealloc_thread
        trace = report.dealloc_trace
        if trace is not None or thread is not None or lost and report.kind in _FREED_KINDS:
            trace = () if lost else trace or ()
            n = len(trace)
            fmt += (_BLOCK_TITLE, _LOST if lost else _FRAME_TEMPLATES[n] if n < _TEMPLATED
                    else _frame_template(n))
            args += (alloc, "deallocated", "<unknown>" if thread is None else thread, *trace)
        thread = report.alloc_thread
        trace = () if lost else report.alloc_trace or ()
        n = len(trace)
        fmt += (_BLOCK_TITLE, _LOST if lost else _FRAME_TEMPLATES[n] if n < _TEMPLATED
                else _frame_template(n))
        args += (alloc, "allocated", "<unknown>" if thread is None else thread, *trace)
    fmt.append(_TAIL)
    return "".join(fmt) % tuple(args)


# -- parsing -----------------------------------------------------------


class ReportParseError(ValueError):
    """Parse failure, annotated with the 1-based line it occurred on."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


# Decimal fields take ASCII digits only: under re.ASCII, \d does not
# match the other Unicode digits that int() would also read.
_HEADLINE_RE = re.compile(
    r"(Use-after-free|Out-of-bounds|Double-free|Invalid-free|Indeterminate-guard-hit)"
    r"(?: (read|write))? at 0x([0-9a-f]+) by thread (\d+):",
    re.ASCII,
)
_HEADLINE_KINDS = {
    headline: ReportKind(value) for value, headline in _KIND_HEADLINES.items()
    if headline != "Out-of-bounds"
}
_ACCESS_WORDS = {"read": AccessType.READ, "write": AccessType.WRITE, None: AccessType.UNKNOWN}
# Frames may carry symbolizer text between the number and the bracketed
# address; only the address is semantic.  The lazy ?? tries the plain
# frame first, so this module's own frames match without backtracking.
# The symbolizer text is \S.* less the characters str.splitlines()
# breaks on (\n, \r, \x0b, \x0c, \x1c-\x1e, \x85, \u2028, \u2029), none
# of which a line holds, so that _REPORT_RE can match frames across the
# whole text.  Both classes list what they admit: re tests such a class
# in about half the time of the same class negated.  %s is the
# address's hex digits.
_FRAME = (r"  #\d+ (?:[\x21-\x84\x00-\x08\x0e-\x1b\x1f\x86-\u2027\u202a-\U0010ffff]"
          r"[\x1f-\x84\x00-\x09\x0e-\x1b\x86-\u2027\u202a-\U0010ffff]* )??\[0x%s\]")
_FRAME_RE = re.compile(_FRAME % "([0-9a-f]+)", re.ASCII)
# Groups: distance and side (both None for "within"), size, address.
_LOCATOR_RE = re.compile(
    r"The access is (?:within |(\d+)B (left|right) of )(\d+)B allocation at 0x([0-9a-f]+)",
    re.ASCII,
)
_BLOCK_RE = re.compile(
    r"0x([0-9a-f]+) was (deallocated|allocated) by thread (\d+|<unknown>):", re.ASCII)

# A well-formed report whose line breaks are all newlines, from its
# leading blank lines through its trailer line.  Groups: the headline's
# four; the access stack's frame run; the locator's four (all None for
# the no-allocation locator); then per optional trace block its three,
# its <metadata lost> line and its frame run.  A frame run takes every
# frame line it can, as the walker does.  It is possessive where re
# supports it (3.11), so a text that fails to match is scanned once; a
# greedy run matches the same texts, since what follows a run starts
# with a newline and a frame line does not.
_POSSESSIVE = "+" if sys.version_info >= (3, 11) else ""
_RUN = rf"((?:{_FRAME % '[0-9a-f]+'}\n)+{_POSSESSIVE})"
_BLOCK = rf"(?:\n{_BLOCK_RE.pattern}\n(?:{_UNAVAILABLE}\n|({_LOST}\n)|{_RUN}))?"
_REPORT_RE = re.compile(
    rf"\n*{re.escape(REPORT_HEADER)}\n{_HEADLINE_RE.pattern}\n(?:{_UNAVAILABLE}\n|{_RUN})"
    rf"\n(?:{_NO_ALLOC_LOCATOR}|{_LOCATOR_RE.pattern})\n{_BLOCK}{_BLOCK}"
    rf"{re.escape(REPORT_TRAILER)}(?:\n|\Z)",
    re.ASCII,
)
# Each frame line of a run ends in its pc.
_RUN_PC_RE = re.compile(r"\[0x([0-9a-f]+)\]\n")
# int(pc, 16) through map, with no Python-level call per pc; an endless
# repeat is never used up, so every caller shares it.
_BASE_16 = itertools.repeat(16)


def parse_report(text: str) -> ErrorReport:
    """Parse rendered report text back into an ErrorReport.

    Inverse of render_report on this module's own output; also accepts
    symbolized frame lines.  Raises ReportParseError naming the first
    offending line.
    """
    match = _REPORT_RE.match(text)
    if match is None:
        return _walk_report(text)
    (headline, access_word, access_hex, faulting_thread, access_run,
     distance, side, size, alloc_hex, *blocks) = match.groups()
    access_address = int(access_hex, 16)
    kind = _HEADLINE_KINDS.get(headline)
    allocation_address = allocation_size = None
    if alloc_hex is not None:
        # The walker's locator and kind checks, each failure sent to it.
        allocation_size = int(size)
        allocation_address = int(alloc_hex, 16)
        off = access_address - allocation_address
        if side is None:
            placed = kind is not None and 0 <= off < allocation_size
        else:
            gap = -off if side == "left" else off - allocation_size + 1
            placed = gap >= 1 and int(distance) == gap
            if kind is None:
                kind = (ReportKind.BUFFER_UNDERFLOW if side == "left"
                        else ReportKind.BUFFER_OVERFLOW)
        if not placed:
            return _walk_report(text)
    elif kind is None:
        return _walk_report(text)

    metadata_lost = alloc_hex is None
    stacks = {}  # verb -> (thread, trace)
    for block_hex, verb, thread_word, lost, run in (blocks[:5], blocks[5:]):
        if block_hex is None:
            break
        # A block address equal to the locator's as text is equal as a
        # number; the walker settles any other spelling.
        if block_hex != alloc_hex or verb in stacks:
            return _walk_report(text)
        if lost is not None:
            trace = None
            metadata_lost = True
        else:
            trace = list(map(int, _RUN_PC_RE.findall(run), _BASE_16)) if run else []
        stacks[verb] = (None if thread_word == "<unknown>" else int(thread_word), trace)

    alloc_thread, alloc_trace = stacks.get("allocated", (None, None))
    dealloc_thread, dealloc_trace = stacks.get("deallocated", (None, None))
    return ErrorReport(  # positional, in field order, as the module docstring says
        kind, access_address, _ACCESS_WORDS[access_word], int(faulting_thread),
        list(map(int, _RUN_PC_RE.findall(access_run), _BASE_16)) if access_run else [],
        allocation_address, allocation_size, alloc_thread, alloc_trace,
        dealloc_thread, dealloc_trace, metadata_lost)


def _walk_report(text: str) -> ErrorReport:
    """parse_report's line walker: any text that _REPORT_RE or the
    checks after it turn away, parsed line by line or rejected with the
    first offending line."""
    lines = text.splitlines()
    n = len(lines)
    i = 0
    try:
        while lines[i] == "":
            i += 1
        if lines[i] != REPORT_HEADER:
            raise ReportParseError(i + 1, f"expected report header, got {lines[i]!r}")
        i += 1
        match = _HEADLINE_RE.fullmatch(lines[i])
        if match is None:
            raise ReportParseError(i + 1, f"malformed headline: {lines[i]!r}")
        headline, access_word, access_hex, faulting_thread = match.groups()
        access_address = int(access_hex, 16)
        i += 1

        access_trace = []
        line = lines[i] if i < n else None
        if line == _LOST:
            raise ReportParseError(i + 1, "access frames cannot be <metadata lost>")
        if line == _UNAVAILABLE:
            i += 1
        else:
            while i < n and (match := _FRAME_RE.fullmatch(lines[i])):
                access_trace.append(int(match[1], 16))
                i += 1
            if not access_trace:
                raise ReportParseError(i + 1, "expected at least one stack frame line")
        if lines[i] != "":
            raise ReportParseError(i + 1, f"expected blank line before locator, got {lines[i]!r}")
        i += 1

        allocation_address = allocation_size = side = None
        if lines[i] != _NO_ALLOC_LOCATOR:
            match = _LOCATOR_RE.fullmatch(lines[i])
            if match is None:
                raise ReportParseError(i + 1, f"malformed locator: {lines[i]!r}")
            distance, side, size, alloc_hex = match.groups()
            allocation_size = int(size)
            allocation_address = int(alloc_hex, 16)
            off = access_address - allocation_address
            if side is None:
                if not 0 <= off < allocation_size:
                    raise ReportParseError(
                        i + 1, "in-bounds locator disagrees with access address")
            elif (int(distance) < 1 or int(distance)
                  != (-off if side == "left" else off - allocation_size + 1)):
                raise ReportParseError(i + 1, "locator distance disagrees with access address")
        kind = _HEADLINE_KINDS.get(headline)
        if kind is None:
            # Out-of-bounds: the locator side distinguishes under- from overflow.
            if allocation_address is None:
                raise ReportParseError(
                    i + 1, "out-of-bounds report without an allocation locator")
            if side is None:
                raise ReportParseError(i + 1, "out-of-bounds report with an in-bounds locator")
            kind = ReportKind.BUFFER_UNDERFLOW if side == "left" else ReportKind.BUFFER_OVERFLOW
        i += 1

        # A report with no allocation has no record whose stacks survive.
        metadata_lost = allocation_address is None
        stacks = {}  # verb -> (thread, trace)
        while lines[i] == "":
            i += 1
            match = _BLOCK_RE.fullmatch(lines[i])
            if match is None:
                raise ReportParseError(
                    i + 1, f"expected trace block or trailer, got {lines[i]!r}")
            block_hex, verb, thread_word = match.groups()
            if int(block_hex, 16) != allocation_address:
                raise ReportParseError(i + 1, f"trace block address 0x{int(block_hex, 16):x}"
                                              " is not the allocation address")
            if verb in stacks:
                raise ReportParseError(i + 1, f"duplicate {verb} block")
            i += 1
            trace = []
            line = lines[i] if i < n else None
            if line == _LOST:
                trace = None
                metadata_lost = True
                i += 1
            elif line == _UNAVAILABLE:
                i += 1
            else:
                while i < n and (match := _FRAME_RE.fullmatch(lines[i])):
                    trace.append(int(match[1], 16))
                    i += 1
                if not trace:
                    raise ReportParseError(i + 1, "expected at least one stack frame line")
            stacks[verb] = (None if thread_word == "<unknown>" else int(thread_word), trace)
        if lines[i] != REPORT_TRAILER:
            raise ReportParseError(i + 1, f"expected report trailer, got {lines[i]!r}")
    except IndexError:
        raise ReportParseError(i + 1, "unexpected end of report") from None

    alloc_thread, alloc_trace = stacks.get("allocated", (None, None))
    dealloc_thread, dealloc_trace = stacks.get("deallocated", (None, None))
    return ErrorReport(
        kind=kind,
        access_address=access_address,
        access_kind=_ACCESS_WORDS[access_word],
        faulting_thread=int(faulting_thread),
        access_trace=access_trace,
        allocation_address=allocation_address,
        allocation_size=allocation_size,
        alloc_thread=alloc_thread,
        alloc_trace=alloc_trace,
        dealloc_thread=dealloc_thread,
        dealloc_trace=dealloc_trace,
        metadata_lost=metadata_lost,
    )


# -- the fault handler ---------------------------------------------------


class Reporter:
    """Owns fault handling, report emission, and recovery for one pool."""

    def __init__(
        self,
        pool: GuardedPool,
        max_frames: int,
        recoverable: bool = False,
        sink: Optional[TextIO] = None,
    ):
        self._pool = pool
        self._max_frames = max_frames  # access stacks' cap
        self.recoverable = recoverable
        self._sink = sink if sink is not None else sys.stderr
        self._flush = getattr(self._sink, "flush", None)
        # Spin permit, not a blocking wait: a holder only formats and
        # writes, never faults, so spinning cannot deadlock with the
        # interrupted thread.
        self._permit = threading.Lock()
        self._prev = None
        self._vm: Optional[VirtualMemory] = None
        # The tool's one off switch, set by the first recoverable report
        # and by the allocator's destroy(): later errors are swallowed and
        # the allocator guards nothing more.
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
        """Access-violation hook: classify, report, terminate or recover.

        The kind comes from the attributed slot's record: use-after-free
        for a freed occupant (on a guard too, where the locator carries
        the out-of-bounds part), overflow or underflow for a live one's
        guard, and otherwise only that the slot changed hands."""
        cls = self._pool.classify_address(fault.address)
        if cls.kind is AddressKind.NOT_OURS:
            if self._prev is not None:
                return self._prev(fault)
            return FaultAction.TERMINATE
        if not self.disabled:
            slot_index = cls.slot_index
            record = None if slot_index is None else self._pool.snapshot(slot_index)
            state = None if record is None else record.state
            if state is SlotState.QUARANTINED:
                kind = ReportKind.USE_AFTER_FREE
            elif state is SlotState.ALLOCATED and cls.kind is AddressKind.LEFT_GUARD:
                kind = ReportKind.BUFFER_UNDERFLOW
            elif state is SlotState.ALLOCATED and cls.kind is AddressKind.RIGHT_GUARD:
                kind = ReportKind.BUFFER_OVERFLOW
            else:
                kind, record = ReportKind.INDETERMINATE_GUARD_HIT, None
            self._emit(self._record_report(kind, record, fault.address, fault.access,
                                           fault.thread_id))
            if not self.recoverable:
                return FaultAction.TERMINATE
            self.disabled = True
        # Scrub and resume.  Once the tool is off no fault is reported, so
        # a stale pointer cannot cause a report storm.
        page_size = self._pool.page_size
        page = fault.address - fault.address % page_size
        self._pool.vm.fill(page, page_size, 0)
        self._pool.vm.protect(page, page_size, PROT_READ | PROT_WRITE)
        return FaultAction.RESUME

    def emit_synthetic(self, report: ErrorReport) -> None:
        """Emit a shim-detected error (a bad free or usable_size): no fault involved.

        Honors recoverable mode; in the default mode raises the same
        fatal signal a guarded fault would.  Once disabled, swallows it.
        """
        if self.disabled:
            return
        self._emit(report)
        if self.recoverable:
            self.disabled = True
            return
        raise SegmentationFault(
            FaultInfo(report.access_address, report.access_kind, report.faulting_thread),
            f"fatal {report.kind._value_} report at 0x{report.access_address:x}",
        )

    # -- internals ----------------------------------------------------------

    def slot_report(self, kind: ReportKind, slot_index: Optional[int], address: int,
                    access_kind: AccessType, thread: int) -> ErrorReport:
        """A report of kind for an access at address, from slot_index's record.

        No slot_index gives a metadata_lost report."""
        record = None if slot_index is None else self._pool.snapshot(slot_index)
        return self._record_report(kind, record, address, access_kind, thread)

    def _record_report(self, kind: ReportKind, record: Optional[SlotRecord], address: int,
                       access_kind: AccessType, thread: int) -> ErrorReport:
        """Geometry and evidence all from the one record; the access stack
        is captured here, for fault and free path alike, from depth 3: past
        this frame and handle_fault or slot_report."""
        trace = capture_trace(self._max_frames, depth=3)
        if record is None:  # positional, as parse_report builds it
            return ErrorReport(kind, address, access_kind, thread, trace,
                               None, None, None, None, None, None, True)
        pool = self._pool
        page = pool.base + (2 * record.slot_index + 1) * pool.page_size
        dealloc_trace = record.dealloc_trace
        return ErrorReport(
            kind, address, access_kind, thread, trace,
            page + record.user_offset, record.user_size,
            record.alloc_thread, decompress_trace(record.alloc_trace), record.dealloc_thread,
            None if dealloc_trace is None else decompress_trace(dealloc_trace), False)

    def _emit(self, report: ErrorReport) -> None:
        """Write the report under the permit; it counts once the sink has it."""
        text = render_report(report)
        while not self._permit.acquire(False):
            time.sleep(0)
        try:
            self._sink.write(text)
            self.last_report = report
            self.reports_emitted += 1
            if self._flush is not None:
                self._flush()
        finally:
            self._permit.release()
