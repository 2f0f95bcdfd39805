"""Report rendering, parsing, fault classification, and recovery."""

import io
import random
import threading
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from guardpool import cli
from guardpool import reporter as reporter_module
from guardpool.pool import AddressKind, AlignmentSide, GuardedPool
from guardpool.reporter import (
    REPORT_HEADER,
    REPORT_TRAILER,
    AccessType,
    ErrorReport,
    Reporter,
    ReportKind,
    ReportParseError,
    parse_report,
    render_report,
)
from guardpool.shim import GuardianAllocator, GuardianConfig
from guardpool.vmem import (
    FaultAction,
    FaultInfo,
    PROT_NONE,
    SegmentationFault,
    VirtualMemory,
)

import report_oracle as oracle
from conftest import acquire_slot, guard_page_addr, python_calls, release_slot, slot_page_addr

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
    if kind is ReportKind.INDETERMINATE_GUARD_HIT or (
        kind not in (ReportKind.BUFFER_OVERFLOW, ReportKind.BUFFER_UNDERFLOW)
        and rng.random() < 0.1
    ):
        # No allocation to attribute (a wild guard hit, or a free of a
        # pointer into no slot): what slot_report(kind, None) builds.
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
        dealloc_thread = rng.choice([None, rng.randrange(1, 1 << 20)])
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


def test_unattributed_invalid_free_round_trips():
    # A free of a pointer into a guard page names no allocation, so no
    # stacks survive: the parsed report must say so, as the built one does.
    alloc = GuardianAllocator(GuardianConfig(
        sample_rate=1, seed=1, recoverable=True, sink=io.StringIO()))
    ptr = alloc.malloc(16)
    while not alloc.is_guarded(ptr):
        ptr = alloc.malloc(16)
    alloc.free(guard_page_addr(alloc.pool, 0) + 8)
    report = alloc.reporter.last_report
    assert report.kind is ReportKind.INVALID_FREE
    assert report.allocation_address is None
    assert report.metadata_lost
    assert parse_report(render_report(report)) == report


# -- differential: the one-pass parser and renderer against the oracles ----

SYMBOLS = ["./test(foo+0x45)", "libc.so.6(+0x2a1ca)", "main x.c:12", "[0x1]", "a b"]
# Characters splitlines() breaks on, or digits beyond ASCII.
EDGE_CHARS = ["\r", "\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029",
              "\u0663", "\uff11", "\U0001d7d9", "\u00b2", " ", "#", "[", "]", "x", "B"]
UNICODE_DIGITS = "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669"


def outcome(parse, text):
    """The parsed report, or the failing line and message."""
    try:
        return parse(text)
    except ReportParseError as exc:
        return exc.line_no, str(exc)


@st.composite
def report_lines(draw):
    """A rendered random report's lines: some frames symbolized, maybe
    after leading blank lines."""
    lines = render_report(random_report(draw(st.randoms(use_true_random=False)))).splitlines()
    for k, line in enumerate(lines):
        if line.startswith("  #") and draw(st.booleans()):
            number, address = line[2:].split(" ")
            symbol = draw(st.sampled_from(SYMBOLS) | st.text(min_size=1, max_size=8))
            lines[k] = f"  {number} {symbol} {address}"
    return [""] * draw(st.integers(0, 2)) + lines


@st.composite
def mutated_texts(draw):
    """A report text with one line deleted, duplicated, replaced by
    another of its lines, or altered (by inserted text, a case swap or a
    non-ASCII digit); or cut short before a line."""
    lines = draw(report_lines())
    k = draw(st.integers(0, len(lines) - 1))
    edit = draw(st.sampled_from(
        ["delete", "duplicate", "copy", "alter", "case", "digit", "truncate"]))
    if edit == "delete":
        del lines[k]
    elif edit == "truncate":
        del lines[k:]
    elif edit == "duplicate":
        lines.insert(k, lines[k])
    elif edit == "copy":
        lines[k] = lines[draw(st.integers(0, len(lines) - 1))]
    elif edit == "alter":
        line = lines[k]
        start = draw(st.integers(0, len(line)))
        end = draw(st.integers(start, min(start + 3, len(line))))
        inserted = draw(st.text(st.characters() | st.sampled_from(EDGE_CHARS), max_size=4))
        lines[k] = line[:start] + inserted + line[end:]
    elif edit == "case":
        # Hex fields are lower-case only.
        line = lines[k]
        j = draw(st.integers(0, max(len(line) - 1, 0)))
        lines[k] = line[:j] + line[j:j + 1].swapcase() + line[j + 1:]
    else:
        # A same-valued non-ASCII digit: int() reads it, the parsers do not.
        spots = [j for j, ch in enumerate(lines[k]) if ch in "0123456789"]
        if spots:
            j = draw(st.sampled_from(spots))
            line = lines[k]
            lines[k] = line[:j] + UNICODE_DIGITS[int(line[j])] + line[j + 1:]
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n"]))


@settings(max_examples=300, deadline=None)
@given(report_lines())
def test_parse_matches_oracle_on_reports(lines):
    text = "\n".join(lines) + "\n"
    assert outcome(parse_report, text) == outcome(oracle.parse_report, text)


@settings(max_examples=1000, deadline=None)
@given(mutated_texts())
def test_parse_matches_oracle_on_mutated_reports(text):
    assert outcome(parse_report, text) == outcome(oracle.parse_report, text)


# Edits that give each parse error, applied to _sample_text() or, where
# the edit names Invalid-free, to an unattributed report:
# ((old, new) replacements, the message they must give).
UNATTRIBUTED = render_report(ErrorReport(
    kind=ReportKind.INVALID_FREE, access_address=0x5008, access_kind=AccessType.UNKNOWN,
    faulting_thread=4, access_trace=[0xAA], metadata_lost=True))
ERROR_EDITS = {
    "header": ([("*** GWP-ASan detected", "*** GWP-ASan found")], "expected report header"),
    "headline": ([("write at 0x1008", "write near 0x1008")], "malformed headline"),
    "no-frames": ([("  #1 [0xaa]\n  #2 [0xbb]\n", "")], "expected at least one stack frame"),
    "access-lost": ([("  #1 [0xaa]\n  #2 [0xbb]", "  <metadata lost>")],
                    "cannot be <metadata lost>"),
    "blank": ([("\n\nThe access", "\nThe access")], "expected blank line before locator"),
    "locator": ([("within 41B", "inside 41B")], "malformed locator"),
    "within": ([("within 41B", "within 8B")], "in-bounds locator disagrees"),
    "distance": ([("within 41B", "9B left of 41B")], "locator distance disagrees"),
    # 0B left agrees with an access at the allocation start, but
    # distances are 1-based.
    "zero-distance": ([("write at 0x1008", "write at 0x1000"), ("within 41B", "0B left of 41B")],
                      "locator distance disagrees"),
    "oob-in-bounds": ([("Use-after-free", "Out-of-bounds")], "with an in-bounds locator"),
    "oob-no-alloc": ([("Invalid-free", "Out-of-bounds")], "without an allocation locator"),
    "block": ([("0x1000 was allocated", "0x1000 was freed")], "expected trace block or trailer"),
    "block-address": ([("0x1000 was allocated", "0x1010 was allocated")], "not the allocation"),
    "duplicate": ([("was deallocated", "was allocated")], "duplicate allocated block"),
    "trailer": ([("*** End", "*** Finish")], "expected report trailer"),
    "end": ([("*** End GWP-ASan report ***\n", "")], "unexpected end of report"),
}


@pytest.mark.parametrize("edit", ERROR_EDITS)
def test_parse_errors_match_oracle(edit):
    replacements, message = ERROR_EDITS[edit]
    text = UNATTRIBUTED if replacements[0][0] == "Invalid-free" else _sample_text()
    for old, new in replacements:
        assert old in text
        text = text.replace(old, new, 1)
    expected = outcome(oracle.parse_report, text)
    assert message in expected[1]
    assert outcome(parse_report, text) == expected


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_render_matches_oracle(rng):
    report = random_report(rng)
    assert render_report(report) == oracle.render_report(report)


# -- which parse path runs -------------------------------------------------

WALKER = "reporter.py:_walk_report"


def walked(text):
    """parse_report(text)'s outcome, and whether it reached the line walker."""
    result, calls = python_calls(outcome, parse_report, text)
    return result, WALKER in calls


@settings(max_examples=300, deadline=None)
@given(report_lines(), st.sampled_from(["\n", "", "\nafter the trailer\r\n\x85",
                                        "\n  #1 [0xdead]\n"]))
def test_a_well_formed_report_never_reaches_the_walker(lines, tail):
    text = "\n".join(lines) + tail
    expected = outcome(oracle.parse_report, text)
    # Well formed: the oracle parses it, and up to the trailer every line
    # break is a newline (drawn symbolizer text may hold others).
    head = text[:text.find(REPORT_TRAILER)]
    assume(isinstance(expected, ErrorReport) and head.splitlines() == head.split("\n")[:-1])
    assert walked(text) == (expected, False)


def test_the_pc_findalls_stop_at_the_trailer(monkeypatch):
    # Frame lines after the trailer belong to no stack: the pcs come from
    # the report's own frame runs, and nothing past the trailer is scanned.
    expected = parse_report(UAF_EXAMPLE)
    found = []

    class CountingPattern:
        def findall(self, *args):
            pcs = pattern.findall(*args)
            found.extend(pcs)
            return pcs

    pattern = reporter_module._RUN_PC_RE
    monkeypatch.setattr(reporter_module, "_RUN_PC_RE", CountingPattern())
    text = UAF_EXAMPLE + "output after the report\n  #1 [0xdead]\n" * 100
    assert parse_report(text) == expected
    assert len(found) == UAF_EXAMPLE.count("\n  #") == 4


def test_a_report_cut_at_its_trailer_never_reaches_the_walker():
    # cli._first_report passes the text up to the trailer's last character.
    text = UAF_EXAMPLE + "output after the report\n"
    result, calls = python_calls(cli._first_report, text)
    assert result == parse_report(UAF_EXAMPLE)
    assert WALKER not in calls


@pytest.mark.parametrize("edit", ERROR_EDITS)
def test_every_parse_error_comes_from_the_walker(edit):
    replacements, _ = ERROR_EDITS[edit]
    text = UNATTRIBUTED if replacements[0][0] == "Invalid-free" else _sample_text()
    for old, new in replacements:
        text = text.replace(old, new, 1)
    assert walked(text) == (outcome(oracle.parse_report, text), True)


def test_a_report_with_crlf_line_breaks_is_walked():
    text = UAF_EXAMPLE.replace("\n", "\r\n")
    result, walker_ran = walked(text)
    assert walker_ran
    assert result == oracle.parse_report(text) == parse_report(UAF_EXAMPLE)


# -- stacks longer than the frame template table ----------------------------


@pytest.mark.parametrize("frames", [65, 200])
def test_a_stack_longer_than_the_template_table_round_trips(frames):
    rng = random.Random(frames)

    def trace():
        pcs = [rng.randrange(1 << 64) for _ in range(frames - 3)] + [0, 1, 2**64 - 1]
        rng.shuffle(pcs)
        return pcs

    report = ErrorReport(
        kind=ReportKind.USE_AFTER_FREE, access_address=0x1008, access_kind=AccessType.READ,
        faulting_thread=4, access_trace=trace(), allocation_address=0x1000,
        allocation_size=41, alloc_thread=4, alloc_trace=trace(), dealloc_thread=5,
        dealloc_trace=trace())
    text = render_report(report)
    assert text == oracle.render_report(report)
    assert text.count("\n  #") == 3 * frames
    assert parse_report(text) == report


# -- the report path's cost ------------------------------------------------

# A report reads no enum property and hashes no enum member, both of
# which are Python-level calls, and renders the whole text with one % on
# one format string, with no per-frame or per-block call.  A fault at an
# access's first byte is delivered from read or write itself, with no run
# walker.  The use-after-free read's Python-level calls: read,
# _deliver_fault, the FaultInfo's __init__, handle_fault,
# classify_address, snapshot, _record_report, capture_trace,
# decompress_trace twice, the report's __init__, _emit, render_report,
# the SegmentationFault's __init__.
UAF_READ_CALLS = 14
# The same list with write for read.
UAF_WRITE_CALLS = 14
# A write onto the right guard of a live block: its record has no
# deallocation stack, so decompress_trace runs once.
GUARD_WRITE_CALLS = 13
# The double free's: free, _guarded_free, classify_address,
# user_address, slot_report, snapshot, _record_report, capture_trace,
# decompress_trace twice, the report's __init__, emit_synthetic, _emit,
# render_report, the FaultInfo's and the SegmentationFault's __init__.
DOUBLE_FREE_CALLS = 16


# parse_report of a rendered three-stack report: parse_report and the
# report's __init__.  The one-match pattern, the findall per stack and
# the pcs' int() calls all run in C.
PARSE_CALLS = ["reporter.py:parse_report", "<string>:__init__"]


def test_a_parse_makes_a_fixed_number_of_python_calls():
    text = _sample_text()
    report, calls = python_calls(parse_report, text)
    assert report == oracle.parse_report(text)
    assert calls == PARSE_CALLS


@pytest.mark.parametrize("frames", [3, 64])
def test_a_render_makes_one_python_call(frames):
    # Up to the default max_frames every stack's template is prebuilt.
    pcs = [0x1000 + 16 * k for k in range(frames)]
    report = ErrorReport(
        kind=ReportKind.USE_AFTER_FREE, access_address=0x1008, access_kind=AccessType.READ,
        faulting_thread=4, access_trace=pcs, allocation_address=0x1000,
        allocation_size=41, alloc_thread=4, alloc_trace=pcs, dealloc_thread=5,
        dealloc_trace=pcs)
    text, calls = python_calls(render_report, report)
    assert text == oracle.render_report(report)
    assert calls == ["reporter.py:render_report"]


@pytest.mark.parametrize("kind,expected", [("use-after-free read", UAF_READ_CALLS),
                                           ("use-after-free write", UAF_WRITE_CALLS),
                                           ("right-guard write", GUARD_WRITE_CALLS),
                                           ("double-free", DOUBLE_FREE_CALLS)])
def test_a_report_makes_a_fixed_number_of_python_calls(kind, expected):
    alloc = GuardianAllocator(GuardianConfig(
        sample_rate=1, seed=9, slot_count=16, sink=io.StringIO()))
    for _ in range(128):
        ptr = alloc.malloc(64)
        if alloc.is_guarded(ptr):
            break
        alloc.free(ptr)
    pool = alloc.pool
    right_guard = guard_page_addr(pool, (ptr - pool.base) // pool.page_size // 2 + 1)
    reported, *call = {
        "use-after-free read": (ReportKind.USE_AFTER_FREE, alloc.vm.read, ptr, 1),
        "use-after-free write": (ReportKind.USE_AFTER_FREE, alloc.vm.write, ptr, b"x"),
        "right-guard write": (ReportKind.BUFFER_OVERFLOW, alloc.vm.write, right_guard, b"x"),
        "double-free": (ReportKind.DOUBLE_FREE, alloc.free, ptr),
    }[kind]
    if reported is not ReportKind.BUFFER_OVERFLOW:
        alloc.free(ptr)
    fault, calls = python_calls(*call, raises=SegmentationFault)
    assert isinstance(fault, SegmentationFault)
    assert alloc.reporter.last_report.kind is reported
    assert alloc.reporter.reports_emitted == 1
    assert len(calls) == expected, " ".join(calls)
    assert not any(name.startswith("enum.py:") for name in calls), " ".join(calls)


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


@pytest.mark.parametrize("old,new,line_no", [
    ("by thread 31027:\n  #1 ./test(foo", "by thread \u0663:\n  #1 ./test(foo", 2),
    ("  #2 ./test(main+0x9f)", "  #\u0662 ./test(main+0x9f)", 4),
    ("within 41B", "within \u0664\u0661B", 6),
    ("deallocated by thread 31027", "deallocated by thread \uff13", 8),
])
def test_a_non_ascii_decimal_digit_is_a_parse_error(old, new, line_no):
    # int() reads any Unicode decimal digit; the format's fields are ASCII.
    assert UAF_EXAMPLE.count(old) == 1
    with pytest.raises(ReportParseError) as excinfo:
        parse_report(UAF_EXAMPLE.replace(old, new))
    assert excinfo.value.line_no == line_no


def test_exception_message_carries_line_number():
    with pytest.raises(ReportParseError, match=r"^line 1: "):
        parse_report("bogus\n")


# -- the fault handler against a live pool --------------------------------


def make_env(
    slot_count=4,
    recoverable=False,
    side=None,
    expose_access_kind=True,
):
    vm = VirtualMemory(expose_access_kind=expose_access_kind)
    pool = GuardedPool(vm, slot_count=slot_count, seed=11, force_alignment_side=side)
    store = pool.store
    sink = io.StringIO()
    reporter = Reporter(pool, store, 64, recoverable=recoverable, sink=sink)
    reporter.install(vm)
    return vm, pool, store, sink, reporter


def test_read_of_quarantined_slot_reports_use_after_free():
    vm, pool, store, sink, reporter = make_env()
    slot_index, addr = acquire_slot(pool, 41)
    release_slot(pool, slot_index)
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
    slot_index, addr = acquire_slot(pool, 41)
    release_slot(pool, slot_index)
    with pytest.raises(SegmentationFault):
        vm.write(addr, b"x")
    assert parse_report(sink.getvalue()).access_kind is AccessType.WRITE


def test_unexposed_access_kind_renders_without_the_word():
    vm, pool, store, sink, reporter = make_env(expose_access_kind=False)
    slot_index, addr = acquire_slot(pool, 41)
    release_slot(pool, slot_index)
    with pytest.raises(SegmentationFault):
        vm.read(addr, 1)
    assert f"Use-after-free at 0x{addr:x}" in sink.getvalue()
    assert parse_report(sink.getvalue()).access_kind is AccessType.UNKNOWN


def test_right_guard_hit_reports_overflow():
    vm, pool, store, sink, reporter = make_env(side=AlignmentSide.LEFT)
    slot_index, addr = acquire_slot(pool, size=41)
    guard = guard_page_addr(pool, slot_index + 1)
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
    slot_index, addr = acquire_slot(pool, size=41)
    with pytest.raises(SegmentationFault):
        vm.read(slot_page_addr(pool, slot_index) - 1, 1)
    report = parse_report(sink.getvalue())
    assert report.kind is ReportKind.BUFFER_UNDERFLOW
    assert report.offset == -(4096 - 41 + 1)


def test_guard_next_to_quarantined_victim_reports_use_after_free():
    vm, pool, store, sink, reporter = make_env()
    slot_index, addr = acquire_slot(pool, 41)
    release_slot(pool, slot_index)
    with pytest.raises(SegmentationFault):
        vm.read(guard_page_addr(pool, slot_index + 1), 1)
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
        vm.read(guard_page_addr(pool, 1), 1)
    report = parse_report(sink.getvalue())
    assert report.kind is ReportKind.INDETERMINATE_GUARD_HIT
    assert report.allocation_address is None
    assert report.metadata_lost


def test_allocated_slot_classification_is_indeterminate():
    # An allocated page cannot fault through the vm (it is mapped RW);
    # the only way the handler sees one is a slot that changed hands
    # between fault and classification.  Drive the handler directly.
    vm, pool, store, sink, reporter = make_env()
    slot_index, addr = acquire_slot(pool, 41)
    action = reporter.handle_fault(FaultInfo(addr, AccessType.READ, 1))
    assert action is FaultAction.TERMINATE
    assert parse_report(sink.getvalue()).kind is ReportKind.INDETERMINATE_GUARD_HIT


def test_a_slot_that_changes_hands_is_reported_from_its_record():
    # The slot changes hands between the handler's classification and
    # its record read.  The record decides the kind, and gives geometry
    # and stacks, so the report never mixes two occupants.
    vm, pool, store, sink, reporter = make_env(slot_count=1, side=AlignmentSide.RIGHT)
    slot_index, addr = acquire_slot(pool, 41)
    release_slot(pool, slot_index)
    stale = pool.classify_address(addr)
    assert stale.kind is AddressKind.QUARANTINED_SLOT
    pool.classify_address = lambda address: stale

    # Reused: the record is the next occupant's, live, so the access is
    # pinned to no allocation.
    _, next_addr = acquire_slot(pool, 64, thread_id=6, trace=[0x600])
    assert reporter.handle_fault(FaultInfo(addr, AccessType.READ, 1)) is FaultAction.TERMINATE
    report = parse_report(sink.getvalue())
    assert report.kind is ReportKind.INDETERMINATE_GUARD_HIT
    assert report.allocation_address is None and report.metadata_lost

    # Freed again: a use-after-free of the next occupant, with its own stacks.
    release_slot(pool, slot_index, thread_id=7, trace=[0x700])
    sink.seek(0)
    sink.truncate()
    reporter.handle_fault(FaultInfo(addr, AccessType.READ, 1))
    report = parse_report(sink.getvalue())
    assert report.kind is ReportKind.USE_AFTER_FREE
    assert not report.metadata_lost
    assert (report.allocation_address, report.allocation_size) == (next_addr, 64)
    assert (report.alloc_thread, report.alloc_trace) == (6, [0x600])
    assert (report.dealloc_thread, report.dealloc_trace) == (7, [0x700])


def test_an_unpublished_slot_is_not_attributed():
    # Between acquire and store_alloc the slot's record is still FREE:
    # its guards belong to no allocation yet.
    vm, pool, store, sink, reporter = make_env(side=AlignmentSide.RIGHT)
    slot_index, addr = pool.acquire(41, 1)
    with pytest.raises(SegmentationFault):
        vm.read(addr + 41, 1)
    report = parse_report(sink.getvalue())
    assert report.kind is ReportKind.INDETERMINATE_GUARD_HIT
    assert report.allocation_address is None and report.metadata_lost


def test_not_ours_chains_to_previous_handler():
    vm = VirtualMemory()
    seen = []

    def recorder(fault):
        seen.append(fault.address)
        return FaultAction.TERMINATE

    vm.install_fault_handler(recorder)
    pool = GuardedPool(vm, slot_count=2, seed=1)
    store = pool.store
    sink = io.StringIO()
    reporter = Reporter(pool, store, 64, sink=sink)
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
    pool = GuardedPool(vm, slot_count=2, seed=1)
    store = pool.store
    sink = io.StringIO()
    reporter = Reporter(pool, store, 64, sink=sink)
    reporter.install(vm)
    slot_index, addr = acquire_slot(pool, 16)
    release_slot(pool, slot_index)
    reporter.uninstall()

    with pytest.raises(SegmentationFault):
        vm.read(addr, 1)  # inside the pool, but the reporter is gone
    assert seen == [addr]
    assert sink.getvalue() == ""


def test_fault_while_holding_pool_lock_does_not_deadlock():
    # Signal-handler discipline: the report path takes no pool lock, so
    # a fault raised by the thread that owns the lock must complete.
    vm, pool, store, sink, reporter = make_env()
    slot_index, addr = acquire_slot(pool, 41)
    release_slot(pool, slot_index)
    with pool.lock:
        with pytest.raises(SegmentationFault):
            vm.read(addr, 1)
    assert parse_report(sink.getvalue()).kind is ReportKind.USE_AFTER_FREE


def test_a_report_counts_only_once_its_sink_has_it():
    class FlakySink(io.StringIO):
        failures = 1

        def write(self, text):
            if self.failures:
                self.failures -= 1
                raise OSError("sink unavailable")
            return super().write(text)

    vm = VirtualMemory()
    pool = GuardedPool(vm, slot_count=4, seed=11)
    store = pool.store
    sink = FlakySink()
    reporter = Reporter(pool, store, 64, sink=sink)
    reporter.install(vm)
    slot_index, addr = acquire_slot(pool, 41)
    release_slot(pool, slot_index)
    with pytest.raises(OSError, match="sink unavailable"):
        vm.read(addr, 1)
    assert reporter.reports_emitted == 0
    assert reporter.last_report is None
    # The failed write released the permit: the next report gets through.
    with pytest.raises(SegmentationFault):
        vm.read(addr, 1)
    assert reporter.reports_emitted == 1
    assert parse_report(sink.getvalue()) == reporter.last_report


# -- recovery -------------------------------------------------------------


def test_recoverable_fault_scrubs_page_and_resumes():
    vm, pool, store, sink, reporter = make_env(recoverable=True)
    slot_index, addr = acquire_slot(pool, size=64)
    vm.write(addr, b"\xaa" * 64)
    release_slot(pool, slot_index)

    data = vm.read(addr, 64)  # faults, recovers, resumes
    assert data == b"\x00" * 64, "recovered page must be scrubbed, not leaked"
    assert reporter.reports_emitted == 1
    assert parse_report(sink.getvalue()).kind is ReportKind.USE_AFTER_FREE
    assert reporter.disabled


def test_second_fault_after_recovery_is_silent():
    vm, pool, store, sink, reporter = make_env(recoverable=True)
    first_index, first_addr = acquire_slot(pool, 41)
    second_index, second_addr = acquire_slot(pool, 41)
    release_slot(pool, first_index)
    release_slot(pool, second_index)

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
    vm, pool, store, sink, reporter = make_env(recoverable=True)
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
    assert reporter.disabled

    # Real faults after the synthetic disable resume without reporting.
    slot_index, addr = acquire_slot(pool, 41)
    release_slot(pool, slot_index)
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
    pool = GuardedPool(vm, slot_count=2, seed=3)
    store = pool.store
    sink = _OverlapSink()
    reporter = Reporter(pool, store, 64, sink=sink)
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
