"""Acceptance gate: every product guarantee at its stated tolerance.

Each test carries an acceptance marker so the run prints one PASS/FAIL
line per criterion.  These tests favor end-to-end paths (real allocator,
real fault delivery, the installed CLI) over unit seams, and several run
at full desk scale, so this module is the slow part of the suite.
"""

import contextlib
import io
import pathlib
import random
import re
import subprocess
import sys
import threading
import time
from collections import Counter

import pytest

from guardpool.coverage import CoverageFilter
from guardpool.metadata import compress_trace, decompress_trace
from guardpool.pool import AlignmentSide, SlotState
from guardpool.reporter import (
    REPORT_HEADER,
    REPORT_TRAILER,
    ReportKind,
    parse_report,
    render_report,
)
from guardpool import shim as shim_module
from guardpool.shim import GuardianAllocator, GuardianConfig
from guardpool.cli import EXIT_OK, EXIT_UNDETECTED, main
from guardpool.vmem import SegmentationFault

from conftest import traced_opcodes
from test_reporter import random_report

PAGE = 4096
GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"


def run_main(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def build_allocator(**kwargs):
    kwargs.setdefault("sample_rate", 1)
    kwargs.setdefault("seed", 5)
    kwargs.setdefault("min_alignment", 1)
    kwargs.setdefault("sink", io.StringIO())
    config = GuardianConfig(**kwargs)
    return GuardianAllocator(config), config.sink


def guarded_malloc(allocator, size):
    for _ in range(128):
        ptr = allocator.malloc(size)
        if allocator.is_guarded(ptr):
            return ptr
        allocator.free(ptr)
    raise AssertionError("sampler never produced a guarded allocation")


def drain(sink):
    text = sink.getvalue()
    sink.seek(0)
    sink.truncate(0)
    return text


# -- criterion 1: detection guarantees ---------------------------------------


@pytest.mark.acceptance("1a use-after-free detection is exhaustive")
def test_every_in_bounds_uaf_access_is_detected():
    started = time.monotonic()
    allocator, sink = build_allocator(slot_count=4)
    assert allocator.pool.page_size == PAGE
    size = 41
    victim = guarded_malloc(allocator, size)
    allocator.free(victim)

    for offset in range(size):
        for access in ("read", "write"):
            drain(sink)
            with pytest.raises(SegmentationFault):
                if access == "read":
                    allocator.vm.read(victim + offset, 1)
                else:
                    allocator.vm.write(victim + offset, b"\x41")
            report = allocator.reporter.last_report
            assert report.kind is ReportKind.USE_AFTER_FREE, (offset, access)
            assert report.offset == offset
            assert report.access_kind.value == access
            # The rendered text must carry the same story.
            text = sink.getvalue()
            assert f"Use-after-free {access} at 0x{victim + offset:x}" in text
            assert f"The access is within {size}B allocation" in text
            parsed = parse_report(text)
            assert parsed.kind is ReportKind.USE_AFTER_FREE
            assert parsed.offset == offset
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"exhaustive UAF sweep took {elapsed:.1f}s"


@pytest.mark.acceptance("1b overflow/underflow detection is exhaustive")
def test_every_page_adjacent_oob_access_is_detected():
    size = 41

    under_alloc, under_sink = build_allocator(
        slot_count=4, force_alignment_side=AlignmentSide.LEFT
    )
    victim = guarded_malloc(under_alloc, size)
    for offset in range(-PAGE, 0):
        drain(under_sink)
        with pytest.raises(SegmentationFault):
            under_alloc.vm.read(victim + offset, 1)
        report = under_alloc.reporter.last_report
        assert report.kind is ReportKind.BUFFER_UNDERFLOW, offset
        assert report.offset == offset
        if offset % 512 == 0:
            parsed = parse_report(under_sink.getvalue())
            assert parsed.kind is ReportKind.BUFFER_UNDERFLOW
            assert parsed.offset == offset

    over_alloc, over_sink = build_allocator(
        slot_count=4, force_alignment_side=AlignmentSide.RIGHT
    )
    victim = guarded_malloc(over_alloc, size)
    assert victim % PAGE == PAGE - size, "alignment-1 right placement"
    for offset in range(size, size + PAGE):
        drain(over_sink)
        with pytest.raises(SegmentationFault):
            over_alloc.vm.read(victim + offset, 1)
        report = over_alloc.reporter.last_report
        assert report.kind is ReportKind.BUFFER_OVERFLOW, offset
        assert report.offset == offset
        if offset % 512 == 0:
            parsed = parse_report(over_sink.getvalue())
            assert parsed.kind is ReportKind.BUFFER_OVERFLOW
            assert parsed.offset == offset


@pytest.mark.acceptance("1c left-aligned overflow slack is a documented false negative")
def test_left_aligned_overflow_goes_undetected_with_distinct_exit():
    code, out = run_main(
        "inject", "overflow", "--align-side", "left", "--format", "records",
    )
    assert code == EXIT_UNDETECTED
    assert "detected=0" in out
    assert REPORT_HEADER not in out


# -- criterion 2: report format ------------------------------------------------


def _normalize(text):
    end = text.index(REPORT_TRAILER) + len(REPORT_TRAILER)
    text = text[:end] + "\n"
    text = re.sub(r"0x[0-9a-f]+", "0xADDR", text)
    text = re.sub(r"thread \d+", "thread TID", text)
    return text


@pytest.mark.acceptance("2a canonical reports match the golden files")
@pytest.mark.parametrize("kind", ["uaf", "underflow"])
def test_injected_reports_match_goldens(kind):
    proc = subprocess.run(
        [sys.executable, "-m", "guardpool", "inject", kind, "--seed", "0"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    golden = (GOLDEN_DIR / f"{kind}_report.txt").read_text(encoding="utf-8")
    assert _normalize(proc.stdout) == golden


@pytest.mark.acceptance("2b render/parse round-trip holds for 1000 random reports")
def test_round_trip_thousand_reports():
    rng = random.Random(2026)
    failures = 0
    for _ in range(1000):
        report = random_report(rng)
        if parse_report(render_report(report)) != report:
            failures += 1
    assert failures == 0


# -- criterion 3: sampling statistics -------------------------------------------


@pytest.mark.acceptance("3a counter policy hits the configured rate and median gap")
def test_counter_sampling_statistics_at_one_million():
    code, out = run_main(
        "sample-stats", "--sample-rate", "1000", "--iterations", "1000000",
        "--seed", "6", "--format", "records",
    )
    assert code == EXIT_OK
    match = re.search(
        r"samples=(\d+) rate=([0-9.]+) median_gap=([0-9.]+) mean_gap=([0-9.]+)", out
    )
    assert match, out
    samples, rate, median = int(match.group(1)), float(match.group(2)), float(match.group(3))
    assert 0.0008 <= rate <= 0.0012, out
    assert abs(median - 1000) <= 1, out
    assert samples == 991, "seeded run must be bit-stable"


@pytest.mark.acceptance("3a-determinism sampling statistics repeat under --seed")
def test_sampling_statistics_are_deterministic():
    lines = []
    for _ in range(2):
        code, out = run_main(
            "sample-stats", "--sample-rate", "200", "--iterations", "100000",
            "--seed", "41", "--format", "records",
        )
        assert code == EXIT_OK
        lines.append(out)
    assert lines[0] == lines[1]


@pytest.mark.acceptance("3b timer policy emits floor(T/interval) samples within 1")
def test_timer_sampling_count():
    code, out = run_main(
        "sample-stats", "--policy", "timer", "--duration-ms", "1000",
        "--sample-interval-ms", "100", "--iterations", "10000",
        "--format", "records",
    )
    assert code == EXIT_OK
    match = re.search(r"samples=(\d+) expected=(\d+)", out)
    samples, expected = int(match.group(1)), int(match.group(2))
    assert expected == 10
    assert abs(samples - expected) <= 1, out


# -- criterion 4: fast-path overhead --------------------------------------------


@pytest.fixture(scope="module")
def bench_results():
    code, out = run_main(
        "bench", "--iterations", "10000000", "--repeats", "2",
        "--sample-rate", "5000", "--slots", "16", "--format", "records",
    )
    assert code == EXIT_OK
    match = re.search(
        r"disabled_overhead_pct=(-?[0-9.]+) enabled_overhead_pct=(-?[0-9.]+)", out
    )
    assert match, out
    return {
        "disabled": float(match.group(1)),
        "enabled": float(match.group(2)),
        "line": out.strip(),
    }


@pytest.mark.acceptance("4-disabled process-disabled overhead is at most 1%")
def test_disabled_overhead_within_one_percent(bench_results):
    assert bench_results["disabled"] <= 1.0, bench_results["line"]


@pytest.mark.acceptance("4-enabled enabled overhead is at most 5%")
def test_enabled_overhead_within_five_percent(bench_results):
    assert bench_results["enabled"] <= 5.0, bench_results["line"]


def _pair_opcodes(alloc) -> int:
    """Bytecodes that one recycled 16 B malloc/free pair runs in shim.py."""
    malloc, free = alloc.malloc, alloc.free
    free(malloc(16))  # carve once; the traced pair recycles
    _, count = traced_opcodes(lambda code: code.co_filename == shim_module.__file__,
                              lambda: free(malloc(16)))
    return count


# Counted on CPython 3.11.  The absent and disabled legs run the host's
# own malloc and free; the enabled leg adds the countdown's step and
# skips the power-of-two check on the default alignment.
GATE_4_PAIR_OPCODES = {(3, 11): {"absent": 64, "disabled": 64, "enabled": 64}}


def test_gate_4_legs_run_pinned_bytecode_counts():
    # Gate 4's legs, counted in bytecodes, which no VM noise moves.
    config = dict(sample_rate=5000, seed=1, sink=io.StringIO())
    legs = {
        "absent": GuardianAllocator(GuardianConfig(enabled=False, **config)),
        "disabled": GuardianAllocator(GuardianConfig(process_sample_probability=0.0, **config)),
        "enabled": GuardianAllocator(GuardianConfig(**config)),
    }
    counts = {leg: _pair_opcodes(alloc) for leg, alloc in legs.items()}
    assert legs["enabled"].stats.sampled == 0
    assert counts["disabled"] == counts["absent"], counts
    pinned = GATE_4_PAIR_OPCODES.get(sys.version_info[:2])
    if pinned is not None:
        assert counts == pinned


# -- criterion 5: metadata compression --------------------------------------------


@pytest.mark.acceptance("5a trace compression round-trips 10^4 random traces")
def test_compression_round_trip_ten_thousand():
    rng = random.Random(77)
    for trial in range(10_000):
        count = rng.randrange(0, 65)
        style = trial % 4
        if style == 0:
            trace = [rng.getrandbits(48) for _ in range(count)]
        elif style == 1:  # descending: every delta negative
            base = rng.getrandbits(48) + (1 << 20)
            trace = sorted((base - rng.getrandbits(20) for _ in range(count)), reverse=True)
        elif style == 2:  # clustered around one code page
            base = rng.getrandbits(48)
            trace = [base + rng.randrange(-2048, 2049) for _ in range(count)]
        else:
            trace = [rng.getrandbits(64) for _ in range(count)]
        assert decompress_trace(compress_trace(trace)) == trace


@pytest.mark.acceptance("5b clustered 20-frame traces compress to 25-50% of raw")
def test_clustered_traces_compress_to_quarter_to_half():
    rng = random.Random(88)
    for _ in range(200):
        pc = rng.getrandbits(47) + (1 << 47)
        trace = [pc]
        for _ in range(19):
            step = 0
            while step == 0:
                step = rng.randrange(-4096, 4097)
            pc += step
            trace.append(pc)
        raw = 8 * len(trace)
        compressed = compress_trace(trace).byte_size()
        assert 0.25 * raw <= compressed <= 0.50 * raw, (compressed, raw)


# -- criterion 6: coverage policy ---------------------------------------------


@pytest.mark.acceptance("6a hot site cannot starve cold sites below 4 slots")
def test_hot_site_leaves_four_slots_for_cold_sites():
    allocator, _ = build_allocator(
        slot_count=16, max_frames=1, coverage_threshold=0.75, min_alignment=16
    )
    namespace = {}
    for index in range(32):
        exec(
            f"def cold_{index}(alloc):\n    return alloc.malloc(16)",
            namespace,
        )
    cold_sites = [namespace[f"cold_{index}"] for index in range(32)]

    def hot():
        return allocator.malloc(16)

    pool = allocator.pool
    hot_sources = set()
    hot_live = []
    cold_live = []
    hot_high_water = 0
    cold_guarded_after_warmup = 0
    for step in range(4000):
        # The hot site allocates every step and holds forever.
        ptr = hot()
        if allocator.is_guarded(ptr):
            hot_live.append(ptr)
            index = pool.classify_address(ptr).slot_index
            hot_sources.add(pool.slots[index].coverage_source)
        cold_ptr = cold_sites[step % 32](allocator)
        cold_live.append(cold_ptr)
        if len(cold_live) > 8:
            allocator.free(cold_live.pop(0))
        if step >= 1000:
            hot_held = sum(
                1
                for slot in pool.slots
                if slot.state is SlotState.ALLOCATED
                and slot.coverage_source in hot_sources
            )
            hot_high_water = max(hot_high_water, hot_held)
            cold_guarded_after_warmup += sum(
                1 for ptr in cold_live if allocator.is_guarded(ptr)
            ) > 0
    assert len(hot_sources) == 1, "one call line must be one source"
    assert hot_high_water <= 12, (
        f"hot site held {hot_high_water} of 16 slots; 4 must stay cold-serving"
    )
    assert cold_guarded_after_warmup > 0, "cold sites must keep winning slots"
    assert allocator.stats.coverage_rejected > 0, "policy must actually throttle"


@pytest.mark.acceptance("6b counting filter has no false negatives over 10^5 steps")
def test_no_false_negatives_over_hundred_thousand_interleavings():
    rng = random.Random(1234)
    bloom = CoverageFilter()
    oracle = Counter()
    universe = [rng.getrandbits(64) for _ in range(128)]
    for _ in range(100_000):
        if oracle and rng.random() < 0.45:
            source = rng.choice(list(oracle))
            bloom.remove(source)
            oracle[source] -= 1
            if not oracle[source]:
                del oracle[source]
        else:
            source = rng.choice(universe)
            bloom.insert(source)
            oracle[source] += 1
        if oracle:
            live = rng.choice(list(oracle))
            assert bloom.query(live), "live source went invisible"


# -- criterion 7: free-path validation never faults ---------------------------


@pytest.mark.acceptance("7 double/invalid frees report synchronously, zero page faults")
def test_hundred_free_errors_without_page_faults():
    double_alloc, double_sink = build_allocator(slot_count=8)
    for _ in range(50):
        drain(double_sink)
        victim = guarded_malloc(double_alloc, 24)
        double_alloc.free(victim)
        with pytest.raises(SegmentationFault):
            double_alloc.free(victim)
        assert parse_report(double_sink.getvalue()).kind is ReportKind.DOUBLE_FREE
    assert double_alloc.vm.fault_count == 0
    assert double_alloc.stats.double_free == 50

    invalid_alloc, invalid_sink = build_allocator(slot_count=8)
    for _ in range(50):
        drain(invalid_sink)
        victim = guarded_malloc(invalid_alloc, 24)
        with pytest.raises(SegmentationFault):
            invalid_alloc.free(victim + 3)
        assert parse_report(invalid_sink.getvalue()).kind is ReportKind.INVALID_FREE
        invalid_alloc.free(victim)
    assert invalid_alloc.vm.fault_count == 0
    assert invalid_alloc.stats.invalid_free == 50


# -- criterion 8: recoverable mode ---------------------------------------------


@pytest.mark.acceptance("8 recoverable UAF reports once and the process continues")
def test_recoverable_uaf_write_continues_cleanly():
    allocator, sink = build_allocator(slot_count=4, recoverable=True)
    victim = guarded_malloc(allocator, 41)
    allocator.vm.write(victim, b"\x5a" * 41)
    allocator.free(victim)

    allocator.vm.write(victim + 8, b"\x41")  # the injected UAF write
    assert sink.getvalue().count(REPORT_HEADER) == 1
    report = allocator.reporter.last_report
    assert report.kind is ReportKind.USE_AFTER_FREE
    assert report.access_kind.value == "write"

    data = allocator.vm.read(victim, 41)
    expected = bytearray(41)
    expected[8] = 0x41  # the resumed write lands after the scrub
    assert data == bytes(expected), "freed memory must read back zeroed"
    for _ in range(16):
        allocator.vm.read(victim, 41)
    assert sink.getvalue().count(REPORT_HEADER) == 1, "no further reports"
    assert allocator.reporter.reports_emitted == 1

    # The CLI wraps the same flow and must agree end to end.
    code, out = run_main(
        "inject", "uaf", "--recoverable", "--format", "records"
    )
    assert code == EXIT_OK
    assert "recovered_ok=1" in out


# -- criterion 9: async-signal safety -------------------------------------------


@pytest.mark.acceptance("9 faults complete while the pool lock is held, 100 trials")
def test_fault_completes_under_lock_contention():
    allocator, sink = build_allocator(slot_count=4)
    victim = guarded_malloc(allocator, 32)
    allocator.free(victim)
    pool = allocator.pool

    # Half the trials: the faulting thread itself owns the pool lock.
    for _ in range(100):
        with pool.lock:
            with pytest.raises(SegmentationFault):
                allocator.vm.read(victim, 1)

    # Other half: a peer thread owns the lock for the fault's duration.
    for _ in range(100):
        done = threading.Event()

        def fault_while_peer_holds_lock():
            try:
                allocator.vm.read(victim, 1)
            except SegmentationFault:
                pass
            done.set()

        with pool.lock:
            worker = threading.Thread(target=fault_while_peer_holds_lock)
            worker.start()
            assert done.wait(5.0), "report path deadlocked against the pool lock"
        worker.join()
    assert allocator.reporter.reports_emitted == 200


# -- criterion 10: differential transparency -------------------------------------


@pytest.mark.acceptance("10 user-visible data is identical with the tool on and off")
def test_differential_transparency_hundred_thousand_ops():
    enabled, enabled_sink = build_allocator(
        slot_count=16, sample_rate=2, seed=905, min_alignment=16
    )
    disabled, _ = build_allocator(enabled=False, seed=905)
    assert enabled.enabled and not disabled.enabled

    rng = random.Random(905)
    live = []  # (enabled_ptr, disabled_ptr, payload)
    mismatches = 0

    def payload_for(step, size):
        return bytes((step + i) & 0xFF for i in range(size))

    for step in range(100_000):
        action = rng.random()
        if not live or action < 0.5:
            size = rng.randrange(1, 257)
            data = payload_for(step, size)
            pair = (enabled.malloc(size), disabled.malloc(size))
            enabled.vm.write(pair[0], data)
            disabled.vm.write(pair[1], data)
            live.append((pair[0], pair[1], data))
        elif action < 0.8:
            index = rng.randrange(len(live))
            a, b, data = live.pop(index)
            seen_a = enabled.vm.read(a, len(data))
            seen_b = disabled.vm.read(b, len(data))
            if seen_a != data or seen_b != data or seen_a != seen_b:
                mismatches += 1
            enabled.free(a)
            disabled.free(b)
        elif action < 0.9:
            index = rng.randrange(len(live))
            a, b, data = live.pop(index)
            new_size = rng.randrange(1, 257)
            a2 = enabled.realloc(a, new_size)
            b2 = disabled.realloc(b, new_size)
            keep = min(len(data), new_size)
            if enabled.vm.read(a2, keep) != disabled.vm.read(b2, keep):
                mismatches += 1
            tail = payload_for(step, new_size)
            enabled.vm.write(a2, tail)
            disabled.vm.write(b2, tail)
            live.append((a2, b2, tail))
        else:
            count, unit = rng.randrange(1, 9), rng.randrange(1, 33)
            a = enabled.calloc(count, unit)
            b = disabled.calloc(count, unit)
            if enabled.vm.read(a, count * unit) != disabled.vm.read(b, count * unit):
                mismatches += 1
            live.append((a, b, bytes(count * unit)))

    for a, b, data in live:
        if enabled.vm.read(a, len(data)) != disabled.vm.read(b, len(data)):
            mismatches += 1
        enabled.free(a)
        disabled.free(b)

    assert mismatches == 0
    assert enabled_sink.getvalue() == "", "a clean script must produce no reports"
    assert enabled.stats.guarded > 0, "the tool must actually have been in play"
