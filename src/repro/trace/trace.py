"""Trace containers.

A :class:`Trace` is an immutable, named sequence of page-granularity
memory requests.  Internally it stores parallel numpy arrays (page
numbers and write flags) so that multi-hundred-thousand-request traces
stay compact and fast to iterate; externally it behaves like a sequence
of :class:`~repro.trace.record.MemoryAccess`.  Every consumer that needs
the trace's pages in sorted order (the analytic profile, the sampled
engine's page population, the miss-ratio curves, the summary
statistics) reads one lazily built :class:`PageIndex`: each trace is
sorted at most once.

A :class:`CPUTrace` is the byte-addressed, per-core equivalent consumed
by the cache-hierarchy filter in :mod:`repro.cpu`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.trace.record import (
    PAGE_SIZE,
    AccessKind,
    CPUAccess,
    MemoryAccess,
)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class PageIndex:
    """A page array sorted once: everything a stable sort by page gives.

    ``order`` is the stable argsort of the pages (requests of one page
    stay in request order), ``pages`` the sorted distinct page ids,
    ``inverse`` each request's position in ``pages`` and ``counts`` the
    requests per distinct page — the arrays of ``np.unique(...,
    return_inverse=True, return_counts=True)`` plus the order they
    come from.  All four are read-only, as is ``distances``, the LRU
    stack distances built from them on first use.
    """

    order: np.ndarray
    pages: np.ndarray
    inverse: np.ndarray
    counts: np.ndarray

    @classmethod
    def of(cls, pages: np.ndarray) -> "PageIndex":
        """Index a one-dimensional page array (one argsort)."""
        order = np.argsort(pages, kind="stable")
        ordered = pages[order]
        firsts, inverse, counts = _runs(order, ordered)
        return cls(_frozen(order), _frozen(ordered[firsts]), inverse, counts)

    @property
    def size(self) -> int:
        """Number of requests indexed."""
        return int(self.order.shape[0])

    @property
    def starts(self) -> np.ndarray:
        """Mask over ``order`` positions where a page's run begins."""
        starts = np.zeros(self.size, dtype=bool)
        starts[np.cumsum(self.counts) - self.counts] = True
        return starts

    @cached_property
    def distances(self) -> np.ndarray:
        """Mattson LRU stack distance of every request (-1 on a page's
        first touch), computed on first use and cached: the analytic
        profile and the miss-ratio curves share one pass, and the
        sampled engine reads it off each draw's subset."""
        from repro.trace.mrc import index_distances

        return _frozen(index_distances(self))

    def head(self, stop: int) -> "PageIndex":
        """The index of the first ``stop`` requests, derived without
        sorting again: dropping later requests from a stable order
        leaves the stable order of the prefix."""
        if stop >= self.size:
            return self
        order = self.order[self.order < stop]
        runs = self.inverse[order]
        firsts, inverse, counts = _runs(order, runs)
        return PageIndex(_frozen(order), _frozen(self.pages[runs[firsts]]),
                         inverse, counts)


def _runs(
    order: np.ndarray, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run starts, read-only inverse and counts of ``keys`` (sorted,
    ``keys[k]`` belonging to request ``order[k]``)."""
    size = order.shape[0]
    starts = np.empty(size, dtype=bool)
    starts[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    firsts = np.flatnonzero(starts)
    inverse = np.empty(size, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return firsts, _frozen(inverse), _frozen(np.diff(firsts, append=size))


class Trace:
    """An immutable sequence of main-memory page requests.

    Parameters
    ----------
    pages:
        Page number per request.
    is_write:
        Write flag per request (same length as ``pages``).
    name:
        Human-readable workload name (shows up in reports).
    page_size:
        Page size in bytes the page numbers refer to.
    """

    __slots__ = ("_pages", "_is_write", "name", "page_size", "_index")

    def __init__(
        self,
        pages: Sequence[int] | np.ndarray,
        is_write: Sequence[bool] | np.ndarray,
        name: str = "trace",
        page_size: int = PAGE_SIZE,
    ) -> None:
        pages_arr = np.asarray(pages, dtype=np.int64)
        write_arr = np.asarray(is_write, dtype=bool)
        if pages_arr.ndim != 1 or write_arr.ndim != 1:
            raise ValueError("trace arrays must be one-dimensional")
        if pages_arr.shape != write_arr.shape:
            raise ValueError(
                f"pages ({pages_arr.shape[0]}) and is_write "
                f"({write_arr.shape[0]}) lengths differ"
            )
        if pages_arr.size and pages_arr.min() < 0:
            raise ValueError("page numbers must be non-negative")
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        self._pages = pages_arr
        self._is_write = write_arr
        self.name = name
        self.page_size = page_size
        self._index: PageIndex | None = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_accesses(
        cls,
        accesses: Iterable[MemoryAccess | tuple[int, AccessKind]],
        name: str = "trace",
        page_size: int = PAGE_SIZE,
    ) -> "Trace":
        pages: list[int] = []
        writes: list[bool] = []
        for access in accesses:
            page, kind = access
            pages.append(page)
            writes.append(AccessKind(kind) is AccessKind.WRITE)
        return cls(pages, writes, name=name, page_size=page_size)

    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[tuple[int, bool]],
        name: str = "trace",
        page_size: int = PAGE_SIZE,
    ) -> "Trace":
        """Build from ``(page, is_write)`` pairs."""
        pages: list[int] = []
        writes: list[bool] = []
        for page, is_write in pairs:
            pages.append(page)
            writes.append(bool(is_write))
        return cls(pages, writes, name=name, page_size=page_size)

    @classmethod
    def from_chunks(
        cls,
        chunks: Iterable["Trace"],
        name: str | None = None,
        page_size: int | None = None,
    ) -> "Trace":
        """Join trace chunks (in order) into one materialised trace.

        The inverse of :meth:`chunks`; the constructor counterpart of
        the streaming :class:`~repro.trace.source.TraceSource` path.
        ``name``/``page_size`` default to the first chunk's values;
        chunks with a conflicting page size are rejected.
        """
        pages: list[np.ndarray] = []
        writes: list[np.ndarray] = []
        for chunk in chunks:
            if name is None:
                name = chunk.name
            if page_size is None:
                page_size = chunk.page_size
            elif chunk.page_size != page_size:
                raise ValueError(
                    f"chunk page_size {chunk.page_size} != {page_size}")
            pages.append(chunk._pages)
            writes.append(chunk._is_write)
        if not pages:
            return cls.empty(name=name or "trace",
                             page_size=page_size or PAGE_SIZE)
        return cls(
            np.concatenate(pages),
            np.concatenate(writes),
            name=name or "trace",
            page_size=page_size or PAGE_SIZE,
        )

    @classmethod
    def empty(cls, name: str = "trace", page_size: int = PAGE_SIZE) -> "Trace":
        return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=bool),
                   name=name, page_size=page_size)

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self._pages.shape[0])

    def __getitem__(self, index: int | slice) -> "MemoryAccess | Trace":
        if isinstance(index, slice):
            return Trace(
                self._pages[index],
                self._is_write[index],
                name=self.name,
                page_size=self.page_size,
            )
        return MemoryAccess(
            int(self._pages[index]),
            AccessKind.from_is_write(bool(self._is_write[index])),
        )

    def __iter__(self) -> Iterator[MemoryAccess]:
        for page, is_write in zip(self._pages.tolist(), self._is_write.tolist()):
            yield MemoryAccess(page, AccessKind.from_is_write(is_write))

    def iter_pairs(self) -> Iterator[tuple[int, bool]]:
        """Fast iteration as plain ``(page, is_write)`` python pairs.

        This is the hot path of every simulation loop; it avoids
        constructing a ``MemoryAccess`` object per request.
        """
        return zip(self._pages.tolist(), self._is_write.tolist())

    # ------------------------------------------------------------------
    # TraceSource protocol: a materialised trace is its own source
    # ------------------------------------------------------------------
    @property
    def request_count(self) -> int:
        """Total requests (the :class:`TraceSource` protocol's name for
        a known length; streaming sources may return ``None``)."""
        return len(self)

    def chunks(self, chunk_size: int | None = None) -> Iterator["Trace"]:
        """Yield the trace as fixed-size chunks (zero-copy views).

        ``None`` yields the whole trace as a single chunk — the
        natural unit for an already-materialised trace, which keeps
        the unified chunked drive loop exactly as fast as the old
        whole-trace replay.
        """
        if chunk_size is None:
            if len(self):
                yield self
            return
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        for start in range(0, len(self), chunk_size):
            yield self[start:start + chunk_size]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.page_size == other.page_size
            and np.array_equal(self._pages, other._pages)
            and np.array_equal(self._is_write, other._is_write)
        )

    def __repr__(self) -> str:
        return (
            f"Trace(name={self.name!r}, requests={len(self)}, "
            f"pages={self.unique_pages}, writes={self.write_count})"
        )

    # ------------------------------------------------------------------
    # Raw views and summary statistics
    # ------------------------------------------------------------------
    @property
    def pages(self) -> np.ndarray:
        """Read-only page-number array."""
        view = self._pages.view()
        view.flags.writeable = False
        return view

    @property
    def is_write(self) -> np.ndarray:
        """Read-only write-flag array."""
        view = self._is_write.view()
        view.flags.writeable = False
        return view

    @property
    def read_count(self) -> int:
        return len(self) - self.write_count

    @property
    def write_count(self) -> int:
        return int(self._is_write.sum())

    def page_index(self) -> PageIndex:
        """The trace's :class:`PageIndex`, built on first use and
        cached (the trace is immutable, so it cannot go stale)."""
        if self._index is None:
            self._index = PageIndex.of(self._pages)
        return self._index

    @property
    def unique_pages(self) -> int:
        return int(self.page_index().pages.shape[0])

    @property
    def footprint_bytes(self) -> int:
        """Working-set size in bytes (distinct pages x page size)."""
        return self.unique_pages * self.page_size

    @property
    def write_ratio(self) -> float:
        return self.write_count / len(self) if len(self) else 0.0

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def renamed(self, name: str) -> "Trace":
        trace = Trace(self._pages, self._is_write, name=name,
                      page_size=self.page_size)
        trace._index = self._index  # same arrays, same index
        return trace

    def concat(self, other: "Trace") -> "Trace":
        if other.page_size != self.page_size:
            raise ValueError("cannot concatenate traces with different page sizes")
        return Trace(
            np.concatenate([self._pages, other._pages]),
            np.concatenate([self._is_write, other._is_write]),
            name=self.name,
            page_size=self.page_size,
        )


class CPUTrace:
    """An immutable sequence of byte-addressed CPU requests."""

    __slots__ = ("_addresses", "_is_write", "_cores", "name")

    def __init__(
        self,
        addresses: Sequence[int] | np.ndarray,
        is_write: Sequence[bool] | np.ndarray,
        cores: Sequence[int] | np.ndarray | None = None,
        name: str = "cpu-trace",
    ) -> None:
        addr_arr = np.asarray(addresses, dtype=np.int64)
        write_arr = np.asarray(is_write, dtype=bool)
        if cores is None:
            core_arr = np.zeros(addr_arr.shape[0], dtype=np.int16)
        else:
            core_arr = np.asarray(cores, dtype=np.int16)
        if not (addr_arr.shape == write_arr.shape == core_arr.shape):
            raise ValueError("cpu trace arrays must share one length")
        if addr_arr.size and addr_arr.min() < 0:
            raise ValueError("addresses must be non-negative")
        self._addresses = addr_arr
        self._is_write = write_arr
        self._cores = core_arr
        self.name = name

    @classmethod
    def from_accesses(
        cls, accesses: Iterable[CPUAccess], name: str = "cpu-trace"
    ) -> "CPUTrace":
        addresses: list[int] = []
        writes: list[bool] = []
        cores: list[int] = []
        for access in accesses:
            addresses.append(access.address)
            writes.append(access.is_write)
            cores.append(access.core)
        return cls(addresses, writes, cores, name=name)

    def __len__(self) -> int:
        return int(self._addresses.shape[0])

    def __getitem__(self, index: int) -> CPUAccess:
        return CPUAccess(
            int(self._addresses[index]),
            AccessKind.from_is_write(bool(self._is_write[index])),
            int(self._cores[index]),
        )

    def __iter__(self) -> Iterator[CPUAccess]:
        for address, is_write, core in zip(
            self._addresses.tolist(), self._is_write.tolist(), self._cores.tolist()
        ):
            yield CPUAccess(address, AccessKind.from_is_write(is_write), core)

    def iter_tuples(self) -> Iterator[tuple[int, bool, int]]:
        """Fast iteration as ``(address, is_write, core)`` python tuples."""
        return zip(
            self._addresses.tolist(),
            self._is_write.tolist(),
            self._cores.tolist(),
        )

    def chunks(self, chunk_size: int | None = None) -> Iterator["CPUTrace"]:
        """Yield the CPU trace as fixed-size chunks (zero-copy views).

        ``None`` yields the whole trace as one chunk; an empty trace
        yields no chunks.  :func:`repro.cpu.filter.filter_chunks`
        consumes these through one shared cache hierarchy and produces
        the same pages, write flags and statistics as filtering the
        whole trace (``tests/test_cpu.py``).
        """
        if chunk_size is None:
            if len(self):
                yield self
            return
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        for start in range(0, len(self), chunk_size):
            stop = start + chunk_size
            yield CPUTrace(
                self._addresses[start:stop],
                self._is_write[start:stop],
                self._cores[start:stop],
                name=self.name,
            )

    def __repr__(self) -> str:
        return f"CPUTrace(name={self.name!r}, requests={len(self)})"

    @property
    def addresses(self) -> np.ndarray:
        view = self._addresses.view()
        view.flags.writeable = False
        return view

    @property
    def is_write(self) -> np.ndarray:
        view = self._is_write.view()
        view.flags.writeable = False
        return view

    @property
    def cores(self) -> np.ndarray:
        view = self._cores.view()
        view.flags.writeable = False
        return view

    @property
    def core_count(self) -> int:
        if not len(self):
            return 0
        return int(self._cores.max()) + 1

    def to_memory_trace(
        self,
        page_size: int = PAGE_SIZE,
        name: str | None = None,
    ) -> Trace:
        """Collapse to page granularity *without* cache filtering.

        Useful as an unfiltered baseline when studying what the cache
        hierarchy removes (see :mod:`repro.cpu.filter` for the filtered
        path).
        """
        return Trace(
            self._addresses // page_size,
            self._is_write,
            name=name or self.name,
            page_size=page_size,
        )


def interleave(traces: Sequence[Trace], name: str = "interleaved") -> Trace:
    """Round-robin interleave several page traces into one.

    Mimics how requests from concurrent processes mix at the memory
    controller.  Traces of different lengths are exhausted in round-robin
    order; page numbers are offset per source trace so address spaces do
    not collide.
    """
    if not traces:
        return Trace.empty(name=name)
    page_size = traces[0].page_size
    for trace in traces:
        if trace.page_size != page_size:
            raise ValueError("all traces must share a page size")
    offsets = []
    offset = 0
    for trace in traces:
        offsets.append(offset)
        offset += (int(trace.pages.max()) + 1) if len(trace) else 0
    iterators = [
        zip(trace.pages.tolist(), trace.is_write.tolist()) for trace in traces
    ]
    pages: list[int] = []
    writes: list[bool] = []
    live = list(range(len(traces)))
    while live:
        still_live = []
        for index in live:
            try:
                page, is_write = next(iterators[index])
            except StopIteration:
                continue
            pages.append(page + offsets[index])
            writes.append(is_write)
            still_live.append(index)
        live = still_live
    return Trace(pages, writes, name=name, page_size=page_size)
