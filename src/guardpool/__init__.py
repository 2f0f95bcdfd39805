"""Sampled guard-page allocation: rare allocations land in page-sized
slots fenced by inaccessible guard pages, so heap buffer overflows,
underflows, and use-after-frees on those allocations fault immediately
and produce an actionable report, while every other allocation pays one
counter decrement.
"""

from .coverage import CoverageFilter, source_of
from .metadata import (
    CompressedTrace,
    MetadataStore,
    SlotState,
    capture_trace,
    compress_trace,
    decompress_trace,
)
from .pool import (
    AddressClassification,
    AddressKind,
    AlignmentSide,
    GuardedPool,
    PoolUnavailableError,
)
from .reporter import (
    ErrorReport,
    Reporter,
    ReportKind,
    ReportParseError,
    parse_report,
    render_report,
)
from .sampler import (
    CounterSampler,
    TimerGate,
    Xorshift64Star,
    process_sampling_decision,
)
from .shim import AllocatorStats, FallbackAllocator, GuardianAllocator, GuardianConfig
from .vmem import (
    AccessType,
    FaultAction,
    FaultInfo,
    PROT_NONE,
    PROT_READ,
    PROT_WRITE,
    SegmentationFault,
    VirtualMemory,
)

__version__ = "0.1.0"

__all__ = [
    "AccessType",
    "AddressClassification",
    "AddressKind",
    "AlignmentSide",
    "AllocatorStats",
    "CompressedTrace",
    "CounterSampler",
    "CoverageFilter",
    "ErrorReport",
    "FallbackAllocator",
    "FaultAction",
    "FaultInfo",
    "GuardedPool",
    "GuardianAllocator",
    "GuardianConfig",
    "MetadataStore",
    "PoolUnavailableError",
    "PROT_NONE",
    "PROT_READ",
    "PROT_WRITE",
    "Reporter",
    "ReportKind",
    "ReportParseError",
    "SegmentationFault",
    "SlotState",
    "TimerGate",
    "VirtualMemory",
    "Xorshift64Star",
    "capture_trace",
    "compress_trace",
    "decompress_trace",
    "parse_report",
    "process_sampling_decision",
    "render_report",
    "source_of",
]
