"""The line-cursor report parser and list-building renderer that
guardpool.reporter used before its one-pass rewrite, kept as oracles.

test_reporter's differential tests check that the library renders the
same bytes as render_report here, and that parse_report returns an
equal ErrorReport or fails on the same line with the same message.
"""

from __future__ import annotations

import re
from typing import Optional

from guardpool.reporter import (
    REPORT_HEADER,
    REPORT_TRAILER,
    AccessType,
    ErrorReport,
    ReportKind,
    ReportParseError,
)

_KIND_HEADLINES = {
    ReportKind.USE_AFTER_FREE: "Use-after-free",
    ReportKind.BUFFER_OVERFLOW: "Out-of-bounds",
    ReportKind.BUFFER_UNDERFLOW: "Out-of-bounds",
    ReportKind.DOUBLE_FREE: "Double-free",
    ReportKind.INVALID_FREE: "Invalid-free",
    ReportKind.INDETERMINATE_GUARD_HIT: "Indeterminate-guard-hit",
}


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
    return f"The access is {off - size + 1}B right of {size}B allocation at 0x{alloc:x}"


def render_report(report: ErrorReport) -> str:
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


# Decimal fields take ASCII digits only (re.ASCII), as in the product.
_HEADLINE_RE = re.compile(
    r"^(Use-after-free|Out-of-bounds|Double-free|Invalid-free|Indeterminate-guard-hit)"
    r"(?: (read|write))? at 0x([0-9a-f]+) by thread (\d+):$",
    re.ASCII,
)
_FRAME_RE = re.compile(r"^  #\d+ (?:\S.* )?\[0x([0-9a-f]+)\]$", re.ASCII)
_WITHIN_RE = re.compile(r"^The access is within (\d+)B allocation at 0x([0-9a-f]+)$", re.ASCII)
_BESIDE_RE = re.compile(
    r"^The access is (\d+)B (left|right) of (\d+)B allocation at 0x([0-9a-f]+)$",
    re.ASCII,
)
_NO_ALLOC_LOCATOR = "The access is to a guarded pool page with no associated allocation"
_BLOCK_RE = re.compile(
    r"^0x([0-9a-f]+) was (deallocated|allocated) by thread (\d+|<unknown>):$", re.ASCII)


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
    # A report with no allocation has no record to keep.
    metadata_lost = allocation_address is None
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
    if allocation_address is None:
        raise ReportParseError(line_no, "out-of-bounds report without an allocation locator")
    off = access_address - allocation_address
    if off < 0:
        return ReportKind.BUFFER_UNDERFLOW
    if allocation_size is not None and off >= allocation_size:
        return ReportKind.BUFFER_OVERFLOW
    raise ReportParseError(line_no, "out-of-bounds report with an in-bounds locator")
