"""Trace infrastructure: records, containers, IO, statistics, transforms."""

from repro.trace.record import (
    ACCESS_SIZE,
    PAGE_SIZE,
    AccessKind,
    CPUAccess,
    MemoryAccess,
)
from repro.trace.trace import CPUTrace, PageIndex, Trace, interleave
from repro.trace.io import (
    save_trace,
    write_text_trace,
)
from repro.trace.mrc import MissRatioCurve, miss_ratio_curve, stack_distances
from repro.trace.source import (
    DEFAULT_CHUNK_REQUESTS,
    IterableTraceSource,
    NpzTraceSource,
    SourceSpec,
    TextTraceSource,
    TraceSource,
    TraceStore,
    as_source,
    materialize,
    open_trace_source,
    scan_source,
)
from repro.trace.stats import WorkloadStats, characterize, page_popularity
from repro.trace import transform

__all__ = [
    "ACCESS_SIZE",
    "DEFAULT_CHUNK_REQUESTS",
    "PAGE_SIZE",
    "AccessKind",
    "CPUAccess",
    "CPUTrace",
    "IterableTraceSource",
    "MemoryAccess",
    "MissRatioCurve",
    "NpzTraceSource",
    "PageIndex",
    "SourceSpec",
    "TextTraceSource",
    "Trace",
    "TraceSource",
    "TraceStore",
    "WorkloadStats",
    "as_source",
    "materialize",
    "open_trace_source",
    "scan_source",
    "characterize",
    "interleave",
    "miss_ratio_curve",
    "page_popularity",
    "save_trace",
    "stack_distances",
    "transform",
    "write_text_trace",
]
