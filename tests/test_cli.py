"""Harness behavior: flags, exit statuses, and machine-readable records."""

import argparse
import io
import re
import subprocess
import sys
import threading

import pytest

from guardpool import cli
from guardpool.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_UNDETECTED,
    build_parser,
    main,
)
from guardpool.reporter import REPORT_TRAILER, parse_report

from test_reporter import OOB_EXAMPLE, UAF_EXAMPLE


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- parser surface --------------------------------------------------------


def test_parser_defaults():
    args = build_parser().parse_args(["inject", "uaf"])
    assert args.command == "inject"
    assert args.kind == "uaf"
    assert args.size == 41
    assert args.seed == 0
    assert args.format == "human"
    args = build_parser().parse_args(["sample-stats"])
    assert args.sample_rate == 5000
    assert args.policy == "counter"


_ALLOCATOR_FLAGS = {"--slots", "--max-live", "--recoverable", "--seed"}
_SAMPLING_FLAGS = {"--policy", "--sample-rate", "--sample-interval-ms", "--iterations"}

# Exactly the options each subcommand's handler reads.
SUBCOMMAND_OPTIONS = {
    "inject": _ALLOCATOR_FLAGS | {"--format", "--size", "--bytes", "--access",
                                  "--align-side"},
    "sample-stats": _ALLOCATOR_FLAGS | _SAMPLING_FLAGS | {"--format", "--duration-ms"},
    "bench": _ALLOCATOR_FLAGS | _SAMPLING_FLAGS | {"--format", "--alloc-size", "--repeats"},
    "parse-report": {"--format"},
    "stress": _ALLOCATOR_FLAGS | _SAMPLING_FLAGS | {"--format", "--threads"},
}


def test_each_subcommand_accepts_exactly_its_options():
    parser = build_parser()
    (subparsers,) = (action for action in parser._actions
                     if isinstance(action, argparse._SubParsersAction))
    accepted = {
        name: {option for action in sub._actions for option in action.option_strings}
        - {"-h", "--help"}
        for name, sub in subparsers.choices.items()
    }
    assert accepted == SUBCOMMAND_OPTIONS


@pytest.mark.parametrize("argv", [
    ["parse-report", "report.txt", "--seed", "1"],
    ["parse-report", "report.txt", "--slots", "0", "--policy", "timer"],
    ["inject", "uaf", "--policy", "timer"],
    ["inject", "uaf", "--sample-rate", "999999"],
    ["inject", "uaf", "--sample-interval-ms", "-5"],
    ["inject", "uaf", "--iterations", "10"],
], ids=" ".join)
def test_flags_a_subcommand_does_not_read_exit_config_status(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err


def test_unknown_flags_exit_config_status():
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["inject", "uaf", "--bogus"])
    assert excinfo.value.code == EXIT_CONFIG


def test_unknown_kind_exits_config_status():
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["inject", "wild-pointer"])
    assert excinfo.value.code == EXIT_CONFIG


def test_missing_command_exits_config_status():
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args([])
    assert excinfo.value.code == EXIT_CONFIG


@pytest.mark.parametrize("argv, message", [
    (["sample-stats", "--iterations", "0"], "--iterations: must be at least 1"),
    (["sample-stats", "--iterations", "-5"], "--iterations: must be at least 1"),
    (["bench", "--iterations", "0"], "--iterations: must be at least 1"),
    (["bench", "--repeats", "0"], "--repeats: must be at least 1"),
    (["stress", "--threads", "0"], "--threads: must be at least 1"),
    (["stress", "--threads", "-1"], "--threads: must be at least 1"),
    (["stress", "--iterations", "-1"], "--iterations: must be at least 1"),
    (["sample-stats", "--policy", "timer", "--duration-ms", "-1000"],
     "--duration-ms: must be a positive finite number"),
    (["sample-stats", "--policy", "timer", "--duration-ms", "0"],
     "--duration-ms: must be a positive finite number"),
    (["sample-stats", "--policy", "timer", "--duration-ms", "nan"],
     "--duration-ms: must be a positive finite number"),
    (["sample-stats", "--policy", "timer", "--duration-ms", "inf"],
     "--duration-ms: must be a positive finite number"),
    (["sample-stats", "--policy", "timer", "--sample-interval-ms", "inf"],
     "--sample-interval-ms: must be a positive finite number"),
    (["sample-stats", "--policy", "timer", "--sample-interval-ms", "nan"],
     "--sample-interval-ms: must be a positive finite number"),
    (["stress", "--policy", "timer", "--sample-interval-ms", "0"],
     "--sample-interval-ms: must be a positive finite number"),
    (["sample-stats", "--duration-ms", "500"], "--duration-ms: only --policy timer reads it"),
    (["sample-stats", "--duration-ms", "500", "--policy", "counter"],
     "--duration-ms: only --policy timer reads it"),
    (["inject", "uaf", "--size", "0"], "--size: must be in [1, 4096] to be guarded, got 0"),
    (["inject", "uaf", "--size", "-8"], "--size: must be in [1, 4096] to be guarded, got -8"),
    (["inject", "overflow", "--size", "4097"], "--size: must be in [1, 4096]"),
    (["inject", "double-free", "--size", "100000"], "--size: must be in [1, 4096]"),
    (["inject", "invalid-free", "--bytes", "0"], "--bytes: invalid-free needs a nonzero offset"),
    (["inject", "overflow", "--bytes", "0"], "--bytes: overflow needs at least 1 byte"),
    (["inject", "underflow", "--bytes", "0"], "--bytes: underflow needs at least 1 byte"),
    (["inject", "overflow", "--bytes", "-3"], "--bytes: overflow needs at least 1 byte"),
    (["inject", "double-free", "--bytes", "123"], "--bytes: double-free frees the block's own"),
], ids=" ".join)
def test_bad_counts_and_spans_exit_config_status_at_parse_time(capsys, monkeypatch, argv,
                                                               message):
    # Each is rejected before any allocator is built or thread started.
    def no_allocator(*args, **kwargs):
        raise AssertionError("an allocator was built")

    monkeypatch.setattr(cli, "GuardianAllocator", no_allocator)
    threads = threading.active_count()
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert threading.active_count() == threads


@pytest.mark.parametrize("size", ["1", "4096"])
def test_inject_takes_victims_from_one_byte_to_one_page(capsys, size):
    code, out, err = run_cli(capsys, "inject", "uaf", "--size", size, "--bytes", "0",
                             "--format", "records")
    assert code == EXIT_OK, err
    assert "inject kind=uaf detected=1" in out


def test_invalid_free_below_the_block_is_still_injected(capsys):
    code, out, err = run_cli(capsys, "inject", "invalid-free", "--bytes", "-1",
                             "--format", "records")
    assert code == EXIT_OK, err
    assert "report_kind=INVALID_FREE" in out


def test_invalid_config_value_exits_config_status(capsys):
    for rate in ("0", str(2**62 + 1)):
        code, _, err = run_cli(capsys, "sample-stats", "--sample-rate", rate,
                               "--iterations", "10")
        assert code == EXIT_CONFIG, rate
        assert "sample_rate" in err


def test_a_non_finite_interval_in_the_config_exits_config_status(capsys, monkeypatch):
    # The flag's type rejects inf; a config that carries one anyway is
    # rejected by GuardianConfig.validate, not run with no samples.
    monkeypatch.setattr(cli, "_allocator_config", lambda args, **overrides: cli.GuardianConfig(
        policy="timer", sample_interval=float("inf"), **overrides))
    code, out, err = run_cli(capsys, "sample-stats", "--policy", "timer", "--iterations", "10")
    assert code == EXIT_CONFIG
    assert "sample_interval must be positive and finite" in err
    assert out == ""


def test_timer_stats_with_no_finite_expected_count_exits_config_status(capsys):
    # 1000 ms over 1e-323 s is inf: no count to print, and no traceback.
    code, out, err = run_cli(capsys, "sample-stats", "--policy", "timer",
                             "--sample-interval-ms", "1e-320", "--iterations", "10")
    assert code == EXIT_CONFIG
    assert "the expected count, 1000 ms / " in err and "is not finite" in err
    assert "Traceback" not in err and out == ""


# -- inject -----------------------------------------------------------------


@pytest.mark.parametrize(
    "kind, expected",
    [
        ("uaf", "USE_AFTER_FREE"),
        ("overflow", "BUFFER_OVERFLOW"),
        ("underflow", "BUFFER_UNDERFLOW"),
        ("double-free", "DOUBLE_FREE"),
        ("invalid-free", "INVALID_FREE"),
    ],
)
def test_inject_detects_every_kind_in_process(capsys, kind, expected):
    code, out, _ = run_cli(
        capsys, "inject", kind, "--format", "records"
    )
    assert code == EXIT_OK
    assert "*** GWP-ASan detected a memory error ***" in out
    assert f"inject kind={kind} detected=1 report_kind={expected} crashed=1" in out


def test_inject_human_output(capsys):
    code, out, _ = run_cli(capsys, "inject", "uaf")
    assert code == EXIT_OK
    assert "detected: USE_AFTER_FREE report emitted" in out


def test_inject_report_shape_matches_canonical_example(capsys):
    code, out, _ = run_cli(capsys, "inject", "uaf")
    assert code == EXIT_OK
    assert re.search(
        r"Use-after-free write at 0x[0-9a-f]+ by thread \d+:", out
    )
    assert re.search(
        r"The access is within 41B allocation at 0x[0-9a-f]+", out
    )
    assert re.search(r"0x[0-9a-f]+ was deallocated by thread \d+:", out)
    assert re.search(r"0x[0-9a-f]+ was allocated by thread \d+:", out)


def test_inject_underflow_report_says_left(capsys):
    code, out, _ = run_cli(capsys, "inject", "underflow")
    assert code == EXIT_OK
    assert re.search(r"Out-of-bounds read at 0x[0-9a-f]+", out)
    assert re.search(r"The access is 2B left of 41B allocation", out)


def test_inject_overflow_against_slack_goes_undetected(capsys):
    # Left-aligned victims leave page slack on the right: a small
    # overflow lands in writable padding and no report fires.
    code, out, _ = run_cli(
        capsys, "inject", "overflow", "--align-side", "left",
        "--format", "records",
    )
    assert code == EXIT_UNDETECTED
    assert "detected=0" in out
    assert "report_kind=none" in out


def test_inject_custom_distance_and_access(capsys):
    code, out, _ = run_cli(
        capsys, "inject", "uaf", "--bytes", "0",
        "--access", "read", "--format", "records",
    )
    assert code == EXIT_OK
    assert "detected=1" in out
    assert re.search(r"Use-after-free read at 0x[0-9a-f]+", out)


def test_inject_recoverable_verifies_continuation(capsys):
    code, out, _ = run_cli(
        capsys, "inject", "uaf", "--recoverable",
        "--format", "records",
    )
    assert code == EXIT_OK
    assert "crashed=0" in out
    assert "recovered_ok=1" in out


def test_inject_recoverable_human_mentions_continuation(capsys):
    code, out, _ = run_cli(capsys, "inject", "uaf", "--recoverable")
    assert code == EXIT_OK
    assert "recovery: process continued" in out


def test_inject_runs_as_a_module():
    proc = subprocess.run(
        [sys.executable, "-m", "guardpool", "inject", "uaf", "--format", "records"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "detected=1" in proc.stdout
    assert "*** End GWP-ASan report ***" in proc.stdout


def test_inject_honours_every_flag(capsys):
    code, out, err = run_cli(
        capsys, "inject", "uaf", "--size", "100", "--bytes", "30",
        "--align-side", "right", "--max-live", "1", "--format", "records",
    )
    assert code == EXIT_OK, err
    assert "inject kind=uaf detected=1" in out
    report = parse_report(out[: out.index(REPORT_TRAILER) + len(REPORT_TRAILER)])
    assert report.allocation_size == 100
    assert report.offset == 30
    # Right-aligned: the allocation ends flush against its slot's end.
    assert (report.allocation_address + 100) % 4096 == 0
    # An out-of-range --max-live must reach the config check.
    code, _, err = run_cli(capsys, "inject", "uaf", "--max-live", "17")
    assert code == EXIT_CONFIG
    assert "max_live" in err


# -- sample-stats -------------------------------------------------------------


def test_sample_stats_records_line(capsys):
    code, out, _ = run_cli(
        capsys, "sample-stats", "--sample-rate", "50", "--iterations", "5000",
        "--seed", "3", "--format", "records",
    )
    assert code == EXIT_OK
    match = re.search(
        r"sample-stats policy=counter iterations=5000 samples=(\d+)"
        r" rate=([0-9.]+) median_gap=([0-9.]+) mean_gap=([0-9.]+)"
        r" min_gap=(\d+) max_gap=(\d+)",
        out,
    )
    assert match, out
    samples = int(match.group(1))
    assert 50 < samples < 150, "rate 1/50 over 5000 calls"
    assert 1 <= int(match.group(5)) <= int(match.group(6)) <= 100


def test_sample_stats_human_output(capsys):
    code, out, _ = run_cli(
        capsys, "sample-stats", "--sample-rate", "50", "--iterations", "2000"
    )
    assert code == EXIT_OK
    assert "policy: counter" in out
    assert "empirical rate" in out


def test_sample_stats_deterministic_for_a_seed(capsys):
    runs = []
    for _ in range(2):
        _, out, _ = run_cli(
            capsys, "sample-stats", "--sample-rate", "100", "--iterations", "3000",
            "--seed", "17", "--format", "records",
        )
        runs.append(out)
    assert runs[0] == runs[1]


def test_timer_stats_counts_intervals(capsys):
    code, out, _ = run_cli(
        capsys, "sample-stats", "--policy", "timer", "--duration-ms", "1000",
        "--sample-interval-ms", "100", "--iterations", "1000",
        "--format", "records",
    )
    assert code == EXIT_OK
    match = re.search(r"samples=(\d+) expected=(\d+)", out)
    assert match, out
    samples, expected = int(match.group(1)), int(match.group(2))
    assert expected == 10
    assert abs(samples - expected) <= 1


def test_timer_stats_default_span_is_one_second(capsys):
    code, out, _ = run_cli(
        capsys, "sample-stats", "--policy", "timer", "--sample-interval-ms", "100",
        "--iterations", "1000", "--format", "records",
    )
    assert code == EXIT_OK
    assert "duration_ms=1000 " in out
    assert "expected=10" in out


# -- bench --------------------------------------------------------------------


def test_bench_records_all_three_legs(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--iterations", "2000", "--repeats", "1",
        "--format", "records",
    )
    assert code == EXIT_OK
    match = re.search(
        r"bench iterations=2000 alloc_size=16 baseline_ns=([0-9.]+)"
        r" disabled_ns=([0-9.]+) enabled_ns=([0-9.]+)"
        r" disabled_overhead_pct=(-?[0-9.]+) enabled_overhead_pct=(-?[0-9.]+)",
        out,
    )
    assert match, out
    assert float(match.group(1)) > 0


def test_bench_human_output(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--iterations", "1000", "--repeats", "1"
    )
    assert code == EXIT_OK
    assert "tool absent:" in out
    assert "process-disabled:" in out
    assert "enabled (rate=5000):" in out


# -- parse-report ---------------------------------------------------------------


def test_parse_report_from_file(capsys, tmp_path):
    path = tmp_path / "report.txt"
    path.write_text(UAF_EXAMPLE)
    code, out, _ = run_cli(capsys, "parse-report", str(path), "--format", "records")
    assert code == EXIT_OK
    assert (
        "report kind=USE_AFTER_FREE access=write"
        " access_address=0x7feccab26008 thread=31027"
        " allocation_address=0x7feccab26000 size=41 offset=8"
        " access_frames=2 alloc_frames=1 dealloc_frames=1 metadata_lost=0"
    ) in out


def test_parse_report_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(OOB_EXAMPLE))
    code, out, _ = run_cli(capsys, "parse-report", "--format", "records")
    assert code == EXIT_OK
    assert "kind=BUFFER_UNDERFLOW" in out
    assert "offset=-2" in out
    assert "dealloc_frames=none" in out


def test_parse_report_human_output(capsys, tmp_path):
    path = tmp_path / "report.txt"
    path.write_text(UAF_EXAMPLE)
    code, out, _ = run_cli(capsys, "parse-report", str(path))
    assert code == EXIT_OK
    assert "kind: USE_AFTER_FREE" in out
    assert "allocation: 41B at 0x7feccab26000 (offset 8)" in out


def test_parse_report_rejects_malformed_text(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("not a report\n"))
    code, _, err = run_cli(capsys, "parse-report")
    assert code == EXIT_CONFIG
    assert "parse error" in err
    assert "line 1" in err


def test_parse_report_missing_file(capsys):
    code, _, err = run_cli(capsys, "parse-report", "/definitely/not/here.txt")
    assert code == EXIT_CONFIG
    assert "cannot read" in err


def test_inject_output_round_trips_through_parse_report(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "inject", "uaf")
    assert code == EXIT_OK
    path = tmp_path / "report.txt"
    path.write_text(out[: out.index("*** End GWP-ASan report ***") + 27] + "\n")
    code, out, _ = run_cli(capsys, "parse-report", str(path), "--format", "records")
    assert code == EXIT_OK
    assert "kind=USE_AFTER_FREE" in out
    assert "size=41 offset=8" in out


# -- stress ---------------------------------------------------------------------


def test_stress_clean_run(capsys):
    code, out, _ = run_cli(
        capsys, "stress", "--threads", "4", "--iterations", "8000",
        "--sample-rate", "20", "--format", "records",
    )
    assert code == EXIT_OK
    match = re.search(
        r"stress threads=4 iterations=8000 sampled=(\d+) guarded=(\d+)"
        r" pool_unavailable=(\d+) errors=0",
        out,
    )
    assert match, out
    assert int(match.group(1)) > 0
    assert int(match.group(2)) > 0


def test_stress_human_output(capsys):
    code, out, _ = run_cli(
        capsys, "stress", "--threads", "2", "--iterations", "2000",
        "--sample-rate", "20",
    )
    assert code == EXIT_OK
    assert "0 errors" in out
