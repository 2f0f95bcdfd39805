"""Command-line harness: fault injection, sampling statistics, overhead
benchmark, report parsing, and a multi-threaded stress loop.

Injection runs the requested bug against a real allocator instance with
sampling forced on.  By default the parent spawns a child process per
injection (the child takes the intentional crash) and relays its
output; --in-process keeps everything in one process, which is also how
recoverable-mode injections run.

Exit statuses: 0 detected-as-expected / success, 2 bug went undetected,
3 configuration or input error.
"""

from __future__ import annotations

import argparse
import io
import statistics
import subprocess
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
from .vmem import SegmentationFault

EXIT_OK = 0
EXIT_UNDETECTED = 2
EXIT_CONFIG = 3

_INJECT_KINDS = {
    "uaf": ReportKind.USE_AFTER_FREE,
    "overflow": ReportKind.BUFFER_OVERFLOW,
    "underflow": ReportKind.BUFFER_UNDERFLOW,
    "double-free": ReportKind.DOUBLE_FREE,
    "invalid-free": ReportKind.INVALID_FREE,
}

# Scenario defaults chosen to reproduce the canonical report wording:
# a write 8 bytes into a freed 41-byte allocation, a read 2 bytes left
# of a live one.
_DEFAULT_ACCESS = {
    "uaf": "write",
    "overflow": "read",
    "underflow": "read",
    "double-free": None,
    "invalid-free": None,
}
_DEFAULT_BYTES = {
    "uaf": 8,
    "overflow": 1,
    "underflow": 2,
    "double-free": 0,
    "invalid-free": 1,
}
_DEFAULT_SIDE = {
    "uaf": "left",
    "overflow": "right",
    "underflow": "left",
    "double-free": "left",
    "invalid-free": "left",
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the harness reserves 2 for
    undetected bugs, so config errors exit 3 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--policy", choices=["counter", "timer"], default="counter")
    common.add_argument("--sample-rate", type=int, default=5000)
    common.add_argument("--sample-interval-ms", type=float, default=100.0)
    common.add_argument("--slots", type=int, default=16)
    common.add_argument("--max-live", type=int, default=None)
    common.add_argument("--recoverable", action="store_true")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--iterations", type=int, default=1_000_000)
    common.add_argument("--format", choices=["human", "records"], default="human")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = _Parser(prog="guardpool", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    inject = sub.add_parser("inject", parents=[common], help="trigger one bug class")
    inject.add_argument("kind", choices=sorted(_INJECT_KINDS))
    inject.add_argument("--size", type=int, default=41, help="victim allocation size")
    inject.add_argument(
        "--bytes", type=int, default=None, dest="distance",
        help="access offset: into the allocation for uaf, past the edge for "
             "overflow/underflow, from the base pointer for invalid-free",
    )
    inject.add_argument("--access", choices=["read", "write"], default=None)
    inject.add_argument("--align-side", choices=["left", "right"], default=None)
    inject.add_argument(
        "--in-process", action="store_true",
        help="run the scenario in this process instead of a child",
    )

    stats = sub.add_parser("sample-stats", parents=[common],
                           help="empirical sampling rate and gap statistics")
    stats.add_argument("--duration-ms", type=float, default=1000.0,
                       help="mock-clock span for the timer policy")

    bench = sub.add_parser("bench", parents=[common],
                           help="fast-path overhead vs tool-absent baseline")
    bench.add_argument("--alloc-size", type=int, default=16)
    bench.add_argument("--repeats", type=int, default=3)

    parse = sub.add_parser("parse-report", parents=[common],
                           help="parse rendered report text back to fields")
    parse.add_argument("file", nargs="?", default="-",
                       help="report file, or - for stdin")

    stress = sub.add_parser("stress", parents=[common],
                            help="multi-threaded malloc/free hammering")
    stress.add_argument("--threads", type=int, default=4)

    return parser


def _allocator_config(args, **overrides) -> GuardianConfig:
    kwargs = dict(
        slot_count=args.slots,
        max_live=args.max_live,
        policy=args.policy,
        sample_rate=args.sample_rate,
        sample_interval=args.sample_interval_ms / 1000.0,
        seed=args.seed,
        recoverable=args.recoverable,
    )
    kwargs.update(overrides)
    config = GuardianConfig(**kwargs)
    config.validate()
    return config


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
    if not args.in_process:
        return _spawn_child_injection(args)

    distance = args.distance if args.distance is not None else _DEFAULT_BYTES[args.kind]
    access = args.access or _DEFAULT_ACCESS[args.kind] or "write"
    side_word = args.align_side or _DEFAULT_SIDE[args.kind]
    side = AlignmentSide.LEFT if side_word == "left" else AlignmentSide.RIGHT

    sink = io.StringIO()
    config = _allocator_config(
        args,
        force_alignment_side=side,
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
    expected = _INJECT_KINDS[args.kind]
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


def _spawn_child_injection(args) -> int:
    # Rebuilt from parsed flags (not sys.argv) so programmatic callers
    # of main() spawn the right child too.
    argv = [
        sys.executable, "-m", "guardpool", "inject", args.kind, "--in-process",
        "--size", str(args.size),
        "--seed", str(args.seed),
        "--slots", str(args.slots),
        "--sample-rate", str(args.sample_rate),
        "--format", args.format,
    ]
    if args.distance is not None:
        argv += ["--bytes", str(args.distance)]
    if args.access is not None:
        argv += ["--access", args.access]
    if args.align_side is not None:
        argv += ["--align-side", args.align_side]
    if args.max_live is not None:
        argv += ["--max-live", str(args.max_live)]
    if args.recoverable:
        argv.append("--recoverable")
    child = subprocess.run(argv, capture_output=True, text=True)
    sys.stdout.write(child.stdout)
    sys.stderr.write(child.stderr)
    return child.returncode


# -- sample-stats --------------------------------------------------------


def cmd_sample_stats(args) -> int:
    if args.policy == "timer":
        return _timer_stats(args)

    config = _allocator_config(args)
    alloc = GuardianAllocator(config)
    gaps = []
    prev = 0
    for call_no in range(1, args.iterations + 1):
        ptr = alloc.malloc(16)
        if alloc.is_guarded(ptr):
            gaps.append(call_no - prev)
            prev = call_no
        alloc.free(ptr)

    samples = len(gaps)
    rate = samples / args.iterations if args.iterations else 0.0
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


def _timer_stats(args) -> int:
    interval_s = args.sample_interval_ms / 1000.0
    duration_s = args.duration_ms / 1000.0
    step = duration_s / max(args.iterations, 1)
    now = [0.0]

    def clock() -> float:
        now[0] += step
        return now[0]

    config = _allocator_config(args, timer_clock=clock)
    alloc = GuardianAllocator(config)
    samples = 0
    for _ in range(args.iterations):
        ptr = alloc.malloc(16)
        if alloc.is_guarded(ptr):
            samples += 1
        alloc.free(ptr)
    expected = int(duration_s / interval_s)
    if args.format == "records":
        print(
            f"sample-stats policy=timer iterations={args.iterations}"
            f" duration_ms={args.duration_ms:g} interval_ms={args.sample_interval_ms:g}"
            f" samples={samples} expected={expected}"
        )
    else:
        print(f"policy: timer, interval {args.sample_interval_ms:g} ms,"
              f" mock clock spanning {args.duration_ms:g} ms")
        print(f"samples: {samples} (expected about {expected})")
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
    iterations = max(args.iterations // max(args.threads, 1), 1)
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
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"guardpool: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
