"""Command-line harness: fault injection, sampling statistics, overhead
benchmark, report parsing, and a multi-threaded stress loop.

Injection runs the requested bug against a real allocator instance with
sampling forced on, in this process: the harness catches the fault
itself and turns it into an exit status.

Exit statuses: 0 detected-as-expected / success, 2 bug went undetected,
3 configuration or input error.
"""

from __future__ import annotations

import argparse
import io
import math
import statistics
import sys
import threading
import time
from typing import Optional

from .pool import AlignmentSide
from .reporter import (
    REPORT_TRAILER,
    ErrorReport,
    ReportKind,
    ReportParseError,
    parse_report,
)
from .shim import GuardianAllocator, GuardianConfig
from .vmem import DEFAULT_PAGE_SIZE, SegmentationFault

EXIT_OK = 0
EXIT_UNDETECTED = 2
EXIT_CONFIG = 3

# Each injection's expected report and its scenario defaults, chosen to
# reproduce the canonical report wording: a write 8 bytes into a freed
# 41-byte allocation, a read 2 bytes left of a live one.  The free
# scenarios make no access.
_INJECTIONS = {
    # kind: (expected report, --access, --bytes, --align-side)
    "uaf": (ReportKind.USE_AFTER_FREE, "write", 8, "left"),
    "overflow": (ReportKind.BUFFER_OVERFLOW, "read", 1, "right"),
    "underflow": (ReportKind.BUFFER_UNDERFLOW, "read", 2, "left"),
    "double-free": (ReportKind.DOUBLE_FREE, None, 0, "left"),
    "invalid-free": (ReportKind.INVALID_FREE, None, 1, "left"),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the harness reserves 2 for
    undetected bugs, so config errors exit 3 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def positive_int(text: str) -> int:
    """A count flag: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def positive_float(text: str) -> float:
    """A span flag: a finite number above 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text}")
    return value


def victim_size(text: str) -> int:
    """inject's --size: a request the pool can guard, 1 byte to one page."""
    value = int(text)
    if not 1 <= value <= DEFAULT_PAGE_SIZE:
        raise argparse.ArgumentTypeError(
            f"must be in [1, {DEFAULT_PAGE_SIZE}] to be guarded, got {value}")
    return value


def _flag_groups() -> tuple[argparse.ArgumentParser, ...]:
    """The shared flags, in three groups: each subcommand takes only the
    groups its handler reads."""
    allocator = argparse.ArgumentParser(add_help=False)
    allocator.add_argument("--slots", type=int, default=16)
    allocator.add_argument("--max-live", type=int, default=None)
    allocator.add_argument("--recoverable", action="store_true")
    allocator.add_argument("--seed", type=int, default=0)
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--policy", choices=["counter", "timer"], default="counter")
    sampling.add_argument("--sample-rate", type=int, default=5000)
    sampling.add_argument("--sample-interval-ms", type=positive_float, default=100.0)
    sampling.add_argument("--iterations", type=positive_int, default=1_000_000)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=["human", "records"], default="human")
    return allocator, sampling, output


def build_parser() -> argparse.ArgumentParser:
    allocator, sampling, output = _flag_groups()
    parser = _Parser(prog="guardpool", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    # inject forces the counter policy at rate 1 and runs one scenario,
    # so it takes no sampling flags.
    inject = sub.add_parser("inject", parents=[allocator, output],
                            help="trigger one bug class")
    inject.add_argument("kind", choices=sorted(_INJECTIONS))
    inject.add_argument("--size", type=victim_size, default=41,
                        help="victim allocation size, 1 byte to one page")
    inject.add_argument(
        "--bytes", type=int, default=None, dest="distance",
        help="access offset: into the allocation for uaf, past the edge for "
             "overflow/underflow, from the base pointer for invalid-free",
    )
    inject.add_argument("--access", choices=["read", "write"], default=None)
    inject.add_argument("--align-side", choices=["left", "right"], default=None)

    stats = sub.add_parser("sample-stats", parents=[allocator, sampling, output],
                           help="empirical sampling rate and gap statistics")
    stats.add_argument("--duration-ms", type=positive_float, default=None,
                       help="mock-clock span for the timer policy (default 1000)")

    bench = sub.add_parser("bench", parents=[allocator, sampling, output],
                           help="fast-path overhead vs tool-absent baseline")
    bench.add_argument("--alloc-size", type=int, default=16)
    bench.add_argument("--repeats", type=positive_int, default=3)

    parse = sub.add_parser("parse-report", parents=[output],
                           help="parse rendered report text back to fields")
    parse.add_argument("file", nargs="?", default="-",
                       help="report file, or - for stdin")

    stress = sub.add_parser("stress", parents=[allocator, sampling, output],
                            help="multi-threaded malloc/free hammering")
    stress.add_argument("--threads", type=positive_int, default=4)

    return parser


def _allocator_config(args, **overrides) -> GuardianConfig:
    kwargs = dict(
        slot_count=args.slots,
        max_live=args.max_live,
        seed=args.seed,
        recoverable=args.recoverable,
    )
    if "policy" in args:  # the subcommands that take the sampling flags
        kwargs.update(
            policy=args.policy,
            sample_rate=args.sample_rate,
            sample_interval=args.sample_interval_ms / 1000.0,
        )
    kwargs.update(overrides)
    return GuardianConfig(**kwargs)


# -- inject ------------------------------------------------------------


def _allocate_victim(alloc: GuardianAllocator, size: int) -> int:
    # Even at rate 1 the sampler draws a fresh skip per window, so any
    # single call may pass; retry until the victim lands in the pool.
    for _ in range(64):
        ptr = alloc.malloc(size)
        if alloc.is_guarded(ptr):
            return ptr
        alloc.free(ptr)
    raise RuntimeError("sampler never produced a guarded allocation")


def _free_victim(alloc: GuardianAllocator, ptr: int) -> None:
    # A frame of its own, like _allocate_victim: the uaf golden pins stack depth.
    alloc.free(ptr)


def _touch(alloc: GuardianAllocator, addr: int, access: str, nbytes: int = 1) -> bytes:
    if access == "write":
        alloc.vm.write(addr, b"\x41" * nbytes)
        return b""
    return alloc.vm.read(addr, nbytes)


def _run_scenario(alloc: GuardianAllocator, kind: str, size: int,
                  distance: int, access: str) -> dict:
    context = {"written_at": None}
    victim = _allocate_victim(alloc, size)
    context["victim"] = victim
    if kind == "uaf":
        _free_victim(alloc, victim)
        if access == "write":
            context["written_at"] = distance
        _touch(alloc, victim + distance, access)
    elif kind == "overflow":
        _touch(alloc, victim + size + distance - 1, access)
    elif kind == "underflow":
        _touch(alloc, victim - distance, access)
    elif kind == "double-free":
        _free_victim(alloc, victim)
        _free_victim(alloc, victim)
    elif kind == "invalid-free":
        _free_victim(alloc, victim + distance)
    return context


def _first_report(text: str) -> Optional[ErrorReport]:
    end = text.find(REPORT_TRAILER)
    if end < 0:
        return None
    try:
        return parse_report(text[: end + len(REPORT_TRAILER)])
    except ReportParseError:
        return None


def cmd_inject(args) -> int:
    expected, access, distance, side = _INJECTIONS[args.kind]
    access = args.access or access
    distance = args.distance if args.distance is not None else distance

    sink = io.StringIO()
    config = _allocator_config(
        args,
        force_alignment_side=AlignmentSide(args.align_side or side),
        sample_rate=1,
        policy="counter",
        min_alignment=1,
        sink=sink,
    )
    alloc = GuardianAllocator(config)
    crashed = False
    context: dict = {}
    try:
        context = _run_scenario(alloc, args.kind, args.size, distance, access)
    except SegmentationFault:
        crashed = True

    text = sink.getvalue()
    sys.stdout.write(text)
    report = _first_report(text)
    detected = report is not None and report.kind is expected

    continuation = None
    if args.recoverable and detected and not crashed:
        continuation = _verify_recovery(alloc, context, args.size)

    if args.format == "records":
        print(
            f"inject kind={args.kind} detected={int(detected)}"
            f" report_kind={report.kind.name if report else 'none'}"
            f" crashed={int(crashed)}"
            + (f" recovered_ok={int(continuation)}" if continuation is not None else "")
        )
    else:
        if detected:
            print(f"detected: {report.kind.name} report emitted")
        else:
            print(f"undetected: no {expected.name} report was produced")
        if continuation is not None:
            print(
                "recovery: process continued, "
                + ("freed memory reads back zeroed, no further reports"
                   if continuation else "post-recovery checks FAILED")
            )
    if not detected:
        return EXIT_UNDETECTED
    if continuation is False:
        return EXIT_UNDETECTED
    return EXIT_OK


def _verify_recovery(alloc, context, size) -> bool:
    """After a recoverable report: reads are zero, and nothing reports again."""
    victim = context.get("victim")
    if victim is None:
        return False
    reports_before = alloc.reporter.reports_emitted
    data = alloc.vm.read(victim, size)
    # Zeroed on recovery except where the resumed faulting write landed.
    written_at = context.get("written_at")
    clean = all(
        byte == 0 or index == written_at
        for index, byte in enumerate(data)
    )
    again = alloc.vm.read(victim, size)
    no_new_reports = alloc.reporter.reports_emitted == reports_before
    return clean and no_new_reports and len(again) == size


# -- sample-stats --------------------------------------------------------


def cmd_sample_stats(args) -> int:
    # The timer policy reads a mock clock that spans --duration-ms over
    # the run; the counter policy never reads it (main rejects the flag).
    duration_ms = 1000.0 if args.duration_ms is None else args.duration_ms
    duration_s = duration_ms / 1000.0
    step = duration_s / args.iterations
    now = [0.0]

    def clock() -> float:
        now[0] += step
        return now[0]

    alloc = GuardianAllocator(_allocator_config(args, timer_clock=clock))
    expected = duration_s / alloc.config.sample_interval  # the timer policy's count
    if args.policy == "timer" and not math.isfinite(expected):
        raise ValueError(f"the expected count, {duration_ms:g} ms /"
                         f" {args.sample_interval_ms:g} ms, is not finite")
    gaps = []
    prev = 0
    for call_no in range(1, args.iterations + 1):
        ptr = alloc.malloc(16)
        if alloc.is_guarded(ptr):
            gaps.append(call_no - prev)
            prev = call_no
        alloc.free(ptr)
    samples = len(gaps)

    if args.policy == "timer":
        expected = int(expected)
        if args.format == "records":
            print(
                f"sample-stats policy=timer iterations={args.iterations}"
                f" duration_ms={duration_ms:g} interval_ms={args.sample_interval_ms:g}"
                f" samples={samples} expected={expected}"
            )
        else:
            print(f"policy: timer, interval {args.sample_interval_ms:g} ms,"
                  f" mock clock spanning {duration_ms:g} ms")
            print(f"samples: {samples} (expected about {expected})")
        return EXIT_OK

    rate = samples / args.iterations
    median_gap = statistics.median(gaps) if gaps else float("nan")
    mean_gap = statistics.fmean(gaps) if gaps else float("nan")
    if args.format == "records":
        print(
            f"sample-stats policy=counter iterations={args.iterations}"
            f" samples={samples} rate={rate:.6f} median_gap={median_gap:g}"
            f" mean_gap={mean_gap:.2f}"
            f" min_gap={min(gaps) if gaps else 0} max_gap={max(gaps) if gaps else 0}"
        )
    else:
        print(f"policy: counter, sample_rate={args.sample_rate}, seed={args.seed}")
        print(f"allocations: {args.iterations}")
        print(f"samples: {samples} (empirical rate {rate:.6f})")
        if gaps:
            print(f"gap: median {median_gap:g}, mean {mean_gap:.2f},"
                  f" min {min(gaps)}, max {max(gaps)}")
    return EXIT_OK


# -- bench ---------------------------------------------------------------


def _time_legs(allocs, size: int, iterations: int, repeats: int) -> list[list[float]]:
    """ns per malloc/free pair of each allocator, one entry per chunk.

    The legs take turns one chunk (up to 10^4 pairs) at a time, in an
    order that reverses every round, so drift in machine speed hits
    every leg alike.
    """
    legs = [(alloc.malloc, alloc.free) for alloc in allocs]
    for malloc, free in legs:
        for _ in range(max(iterations // 10, 1)):
            free(malloc(size))
    times: list[list[float]] = [[] for _ in legs]
    order = list(range(len(legs)))
    remaining = iterations * max(repeats, 1)
    while remaining > 0:
        n = min(10_000, remaining)
        remaining -= n
        for k in order:
            malloc, free = legs[k]
            start = time.perf_counter_ns()
            for _ in range(n):
                free(malloc(size))
            times[k].append((time.perf_counter_ns() - start) / n)
        order.reverse()
    return times


def cmd_bench(args) -> int:
    chunks = _time_legs([
        GuardianAllocator(_allocator_config(args, enabled=False)),
        GuardianAllocator(_allocator_config(args, process_sample_probability=0.0)),
        GuardianAllocator(_allocator_config(args)),
    ], args.alloc_size, args.iterations, args.repeats)
    baseline, disabled, enabled = (statistics.median(leg) for leg in chunks)
    # Median of per-chunk ratios: each chunk is compared with its neighbour.
    disabled_pct, enabled_pct = (
        (statistics.median(t / b for t, b in zip(leg, chunks[0])) - 1) * 100.0
        for leg in chunks[1:])
    if args.format == "records":
        print(
            f"bench iterations={args.iterations} alloc_size={args.alloc_size}"
            f" baseline_ns={baseline:.1f} disabled_ns={disabled:.1f}"
            f" enabled_ns={enabled:.1f} disabled_overhead_pct={disabled_pct:.2f}"
            f" enabled_overhead_pct={enabled_pct:.2f}"
        )
    else:
        print(f"malloc/free pair, {args.alloc_size}B, {args.iterations} iterations"
              f" x {args.repeats}, median of {len(chunks[0])} interleaved chunks:")
        print(f"  tool absent:      {baseline:8.1f} ns/pair")
        print(f"  process-disabled: {disabled:8.1f} ns/pair ({disabled_pct:+.2f}%)")
        print(f"  enabled (rate={args.sample_rate}): {enabled:8.1f} ns/pair"
              f" ({enabled_pct:+.2f}%)")
    return EXIT_OK


# -- parse-report ----------------------------------------------------------


def cmd_parse_report(args) -> int:
    if args.file == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            print(f"guardpool: cannot read {args.file}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    try:
        report = parse_report(text)
    except ReportParseError as exc:
        print(f"guardpool: parse error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    def hex_or_none(value):
        return f"0x{value:x}" if value is not None else "none"

    if args.format == "records":
        print(
            f"report kind={report.kind.name} access={report.access_kind.value}"
            f" access_address={hex_or_none(report.access_address)}"
            f" thread={report.faulting_thread}"
            f" allocation_address={hex_or_none(report.allocation_address)}"
            f" size={report.allocation_size if report.allocation_size is not None else 'none'}"
            f" offset={report.offset if report.offset is not None else 'none'}"
            f" access_frames={len(report.access_trace)}"
            f" alloc_frames={len(report.alloc_trace) if report.alloc_trace is not None else 'none'}"
            f" dealloc_frames={len(report.dealloc_trace) if report.dealloc_trace is not None else 'none'}"
            f" metadata_lost={int(report.metadata_lost)}"
        )
    else:
        print(f"kind: {report.kind.name}")
        print(f"access: {report.access_kind.value} at {hex_or_none(report.access_address)}"
              f" by thread {report.faulting_thread}")
        if report.allocation_address is not None:
            print(f"allocation: {report.allocation_size}B at"
                  f" {hex_or_none(report.allocation_address)} (offset {report.offset})")
        else:
            print("allocation: unattributed")
        print(f"access frames: {len(report.access_trace)}")
        if report.alloc_trace is not None:
            print(f"alloc frames: {len(report.alloc_trace)} (thread {report.alloc_thread})")
        if report.dealloc_trace is not None:
            print(f"dealloc frames: {len(report.dealloc_trace)}"
                  f" (thread {report.dealloc_thread})")
        if report.metadata_lost:
            print("metadata: lost")
    return EXIT_OK


# -- stress ------------------------------------------------------------------


def cmd_stress(args) -> int:
    config = _allocator_config(args)
    alloc = GuardianAllocator(config)
    iterations = max(args.iterations // args.threads, 1)
    errors: list[str] = []

    def worker(worker_id: int) -> None:
        payload = bytes([worker_id & 0xFF]) * 24
        live: list[int] = []
        try:
            for i in range(iterations):
                ptr = alloc.malloc(24)
                alloc.vm.write(ptr, payload)
                live.append(ptr)
                if len(live) >= 8:
                    victim = live.pop(0)
                    if alloc.vm.read(victim, 24) != payload:
                        errors.append(f"worker {worker_id}: payload mismatch at step {i}")
                    alloc.free(victim)
            for ptr in live:
                alloc.free(ptr)
        except Exception as exc:  # surfaced as a harness failure below
            errors.append(f"worker {worker_id}: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(args.threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    stats = alloc.stats
    if args.format == "records":
        print(
            f"stress threads={args.threads} iterations={iterations * args.threads}"
            f" sampled={stats.sampled} guarded={stats.guarded}"
            f" pool_unavailable={stats.pool_unavailable} errors={len(errors)}"
        )
    else:
        print(f"{args.threads} threads x {iterations} iterations:"
              f" {stats.guarded} guarded of {stats.sampled} sampled,"
              f" {stats.pool_unavailable} pool-unavailable, {len(errors)} errors")
    for message in errors:
        print(f"error: {message}", file=sys.stderr)
    return EXIT_OK if not errors else 1


_COMMANDS = {
    "inject": cmd_inject,
    "sample-stats": cmd_sample_stats,
    "bench": cmd_bench,
    "parse-report": cmd_parse_report,
    "stress": cmd_stress,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "duration_ms", None) is not None and args.policy != "timer":
        parser.error("argument --duration-ms: only --policy timer reads it")
    if getattr(args, "distance", None) is not None:
        # A distance that lands inside the block, or frees its own
        # start, injects no bug; a double free reads no distance.
        if args.kind == "double-free":
            parser.error("argument --bytes: double-free frees the block's own start;"
                         " it takes no distance")
        if args.kind in ("overflow", "underflow") and args.distance < 1:
            parser.error(f"argument --bytes: {args.kind} needs at least 1 byte past the edge")
        if args.kind == "invalid-free" and args.distance == 0:
            parser.error("argument --bytes: invalid-free needs a nonzero offset;"
                         " 0 frees the block's own start")
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"guardpool: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
