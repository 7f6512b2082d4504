"""Filter CPU traces through the cache hierarchy into memory traces.

This is the COTSon role in the paper's pipeline: "since the multi-level
caches in CPU affect the distribution of accesses dispatched to the
main memory ... we used COTSon which is able to simulate a multi-core
system with many cache levels" (Section I).  The hierarchy absorbs hot
lines, delays writes into eviction-time write-backs and hands the
policies a post-LLC access stream.

:func:`filter_trace` replays the trace through
:meth:`repro.cpu.hierarchy.CacheHierarchy.access` one CPU request at a
time, so :class:`repro.cpu.cache.SetAssociativeCache` is both the
specification and the implementation of the cache behaviour.  Like
COTSon in the paper, the filter runs once, offline, before any
simulation; it is not on the simulator's run path.  Golden digests in
``tests/test_cpu.py`` pin its output and every cache statistic.
"""

from __future__ import annotations

from repro.cpu.hierarchy import CacheHierarchy, cotson_hierarchy
from repro.trace.record import PAGE_SIZE
from repro.trace.trace import CPUTrace, Trace


def filter_trace(
    cpu_trace: CPUTrace,
    hierarchy: CacheHierarchy | None = None,
    page_size: int = PAGE_SIZE,
    flush_at_end: bool = False,
    name: str | None = None,
) -> Trace:
    """Run a CPU trace through the hierarchy; return the memory trace.

    Out-of-range core ids are rejected for the whole trace before any
    cache state changes.

    Parameters
    ----------
    cpu_trace:
        Byte-addressed per-core accesses.
    hierarchy:
        The cache configuration; Table II's quad-core setup by default.
    page_size:
        Page granularity of the produced memory trace.
    flush_at_end:
        Also emit the final dirty-line drain (off by default: the paper
        measures the region of interest, not teardown).
    name:
        Name for the filtered trace; defaults to ``<cpu name>-filtered``.
    """
    hierarchy = hierarchy or cotson_hierarchy()
    cores = cpu_trace.cores
    if cores.size:
        low, high = int(cores.min()), int(cores.max())
        if low < 0 or high >= hierarchy.cores:
            raise ValueError(f"core {low if low < 0 else high} out of range")
    lines_per_page = page_size // hierarchy.line_size
    pages: list[int] = []
    writes: list[bool] = []
    access = hierarchy.access
    for address, is_write, core in cpu_trace.iter_tuples():
        for line, line_is_write in access(address, is_write, core):
            pages.append(line // lines_per_page)
            writes.append(line_is_write)
    if flush_at_end:
        for line, line_is_write in hierarchy.flush():
            pages.append(line // lines_per_page)
            writes.append(line_is_write)
    return Trace(
        pages,
        writes,
        name=name or f"{cpu_trace.name}-filtered",
        page_size=page_size,
    )


def filter_chunks(
    cpu_chunks,
    hierarchy: CacheHierarchy | None = None,
    page_size: int = PAGE_SIZE,
    flush_at_end: bool = False,
    name: str | None = None,
):
    """Stream CPU-trace chunks through one shared cache hierarchy.

    The chunked counterpart of :func:`filter_trace`: each incoming
    :class:`CPUTrace` chunk is filtered against the *same* hierarchy,
    so feeding N chunks is bit-identical to filtering their
    concatenation (pinned in ``tests/test_cpu.py``), and the filtered
    :class:`Trace` chunks are yielded as they are produced.  Peak
    memory is one chunk plus the cache state, so a CPU trace of any
    length can feed the memory-side drive loop end to end at constant
    memory.

    ``flush_at_end`` emits the final dirty-line drain as one extra
    trailing chunk after the input is exhausted.
    """
    hierarchy = hierarchy or cotson_hierarchy()
    chunk_name = name
    for chunk in cpu_chunks:
        if chunk_name is None:
            chunk_name = f"{chunk.name}-filtered"
        yield filter_trace(chunk, hierarchy, page_size, name=chunk_name)
    if flush_at_end:
        yield filter_trace(
            CPUTrace([], []), hierarchy, page_size, flush_at_end=True,
            name=chunk_name or "filtered",
        )
