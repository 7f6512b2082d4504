"""Chunk-first trace sources: the streaming input side of the pipeline.

A :class:`TraceSource` is anything that can hand the drive path a
sequence of fixed-size :class:`~repro.trace.trace.Trace` chunks.  The
whole-trace :class:`Trace` is itself a source (one chunk, or sliced
views on demand), so every existing call site keeps working, while
generators and trace files stream through the very same batched
kernels at constant memory — no source ever has to materialise more
than one chunk at a time.

The module also defines the *identity* side of streaming: a
chunk-size-invariant content digest (:func:`scan_source`), the frozen
:class:`SourceSpec` descriptor a :class:`~repro.experiments.runspec.RunSpec`
carries for externally-supplied traces, and the content-addressed
:class:`TraceStore` that spills non-file streams to disk so executor
workers (and a resident ``repro serve`` process) can replay them by
digest.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Protocol,
    runtime_checkable,
)

import numpy as np

from repro.trace.record import PAGE_SIZE, AccessKind
from repro.trace.trace import Trace

#: Default chunk length (requests) when a streaming source is asked for
#: its "natural" chunking.  64 Ki requests keeps the per-chunk numpy
#: arrays under ~600 KB while amortising kernel-entry overhead to noise.
DEFAULT_CHUNK_REQUESTS = 1 << 16


@runtime_checkable
class TraceSource(Protocol):
    """Anything the drive path can consume chunk by chunk.

    ``chunks(chunk_size)`` yields :class:`Trace` chunks in request
    order; ``chunk_size=None`` lets the source pick its natural size
    (a materialised :class:`Trace` yields itself whole, streaming
    sources use :data:`DEFAULT_CHUNK_REQUESTS`).  ``request_count`` is
    ``None`` when the length is unknown up front (e.g. a generator) —
    warm-up *fractions* and bucket-derived event intervals need a
    length, explicit ``warmup_requests``/``interval`` values do not.
    """

    name: str
    page_size: int

    @property
    def request_count(self) -> int | None: ...

    def chunks(self, chunk_size: int | None = None) -> Iterator[Trace]: ...


def as_source(obj: "TraceSource | Trace | str | os.PathLike[str] | Iterable") -> TraceSource:
    """Coerce ``obj`` into a :class:`TraceSource`.

    Accepts a :class:`Trace` (already a source), any object with the
    source protocol, a ``.trc``/``.npz`` path, or an iterable of
    ``(page, is_write)`` pairs.
    """
    if isinstance(obj, Trace):
        return obj
    if isinstance(obj, (str, os.PathLike)):
        return open_trace_source(obj)
    if isinstance(obj, TraceSource):
        return obj
    if isinstance(obj, Iterable):
        return IterableTraceSource(obj)
    raise TypeError(f"cannot build a trace source from {type(obj).__name__}")


def open_trace_source(path: str | os.PathLike[str]) -> TraceSource:
    """Open a trace file as a source, dispatching on the extension.

    ``.npz`` opens the compact binary format (loaded lazily, chunked
    as array views); anything else is read as the streaming ``.trc``
    text format (constant memory regardless of file length).
    """
    path = Path(path)
    if path.suffix == ".npz":
        return NpzTraceSource(path)
    return TextTraceSource(path)


def materialize(source: "TraceSource | Trace", name: str | None = None) -> Trace:
    """Render a source fully in memory as one :class:`Trace`."""
    if isinstance(source, Trace):
        return source if name is None else source.renamed(name)
    return Trace.from_chunks(
        source.chunks(),
        name=name if name is not None else source.name,
        page_size=source.page_size,
    )


# ----------------------------------------------------------------------
# Streaming sources
# ----------------------------------------------------------------------
class IterableTraceSource:
    """Source over ``(page, is_write)`` pairs, buffered into chunks.

    ``pairs`` may be a plain iterable (single replay: generators are
    exhausted by one pass) or a zero-argument callable returning a
    fresh iterator each time — the replayable form the executor and
    the equivalence tests use.  At most one chunk of pairs is ever
    buffered, so memory stays bounded by ``chunk_size`` regardless of
    stream length.
    """

    def __init__(
        self,
        pairs: Iterable[tuple[int, bool]] | Callable[[], Iterable[tuple[int, bool]]],
        name: str = "stream",
        page_size: int = PAGE_SIZE,
        request_count: int | None = None,
    ) -> None:
        self._pairs = pairs
        self._consumed = False
        self.name = name
        self.page_size = page_size
        self._request_count = request_count

    @property
    def request_count(self) -> int | None:
        return self._request_count

    def _open(self) -> Iterator[tuple[int, bool]]:
        if callable(self._pairs):
            return iter(self._pairs())
        if self._consumed:
            raise RuntimeError(
                "this iterable trace source was already consumed; pass a "
                "callable returning a fresh iterator for replayable streams")
        self._consumed = True
        return iter(self._pairs)

    def chunks(self, chunk_size: int | None = None) -> Iterator[Trace]:
        size = chunk_size if chunk_size else DEFAULT_CHUNK_REQUESTS
        if size < 1:
            raise ValueError("chunk_size must be >= 1")
        pages: list[int] = []
        writes: list[bool] = []
        for page, is_write in self._open():
            pages.append(page)
            writes.append(bool(is_write))
            if len(pages) >= size:
                yield Trace(pages, writes, name=self.name,
                            page_size=self.page_size)
                pages = []
                writes = []
        if pages:
            yield Trace(pages, writes, name=self.name,
                        page_size=self.page_size)


class TextTraceSource:
    """Streaming reader for the ``.trc`` text format.

    The header comments (``# name:``, ``# page_size:``) are scanned at
    construction; ``chunks`` re-opens the file per pass, parsing one
    chunk of lines at a time — peak memory is one chunk, independent
    of file length, which is the whole point of the format for
    multi-gigabyte traces.
    """

    def __init__(self, path: str | os.PathLike[str],
                 request_count: int | None = None) -> None:
        self.path = Path(path)
        self.name = self.path.stem
        self.page_size = PAGE_SIZE
        self._request_count = request_count
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                if not line.startswith("#"):
                    break
                body = line[1:].strip()
                if body.startswith("name:"):
                    self.name = body[len("name:"):].strip() or self.name
                elif body.startswith("page_size:"):
                    self.page_size = _parse_int(body[len("page_size:"):])

    @property
    def request_count(self) -> int | None:
        # Counting would cost a full pass, so the length is unknown
        # unless the caller already scanned the file and passed the
        # count in (SourceSpec.open does).
        return self._request_count

    def chunks(self, chunk_size: int | None = None) -> Iterator[Trace]:
        size = chunk_size if chunk_size else DEFAULT_CHUNK_REQUESTS
        if size < 1:
            raise ValueError("chunk_size must be >= 1")
        pages: list[int] = []
        writes: list[bool] = []
        with self.path.open("r", encoding="utf-8") as handle:
            for line_number, raw_line in enumerate(handle, start=1):
                parsed = parse_trace_line(raw_line, line_number)
                if parsed is None:
                    continue
                page, is_write = parsed
                pages.append(page)
                writes.append(is_write)
                if len(pages) >= size:
                    yield Trace(pages, writes, name=self.name,
                                page_size=self.page_size)
                    pages = []
                    writes = []
        if pages:
            yield Trace(pages, writes, name=self.name,
                        page_size=self.page_size)


class NpzTraceSource:
    """Source over the compact binary ``.npz`` format.

    The format is a compressed whole-array container, so it cannot be
    decoded incrementally — the arrays load on first use and chunking
    yields zero-copy slice views.  Use the text format when constant
    ingest memory matters more than file size.
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = Path(path)
        self._trace: Trace | None = None

    def _load(self) -> Trace:
        if self._trace is None:
            from repro.trace.io import _load_trace_arrays
            self._trace = _load_trace_arrays(self.path)
        return self._trace

    @property
    def name(self) -> str:  # type: ignore[override]
        return self._load().name

    @property
    def page_size(self) -> int:  # type: ignore[override]
        return self._load().page_size

    @property
    def request_count(self) -> int | None:
        return len(self._load())

    def chunks(self, chunk_size: int | None = None) -> Iterator[Trace]:
        return self._load().chunks(chunk_size)


def _parse_int(token: str) -> int:
    """Parse a decimal or ``0x``-prefixed hexadecimal integer."""
    token = token.strip()
    if token.lower().startswith("0x"):
        return int(token, 16)
    return int(token)


def parse_trace_line(
    raw_line: str, line_number: int = 0,
) -> tuple[int, bool] | None:
    """Parse one ``.trc`` line into ``(page, is_write)``.

    Returns ``None`` for blank and comment lines.  Shared by the
    streaming reader and the server's trace-upload ingest, so both
    accept the same format.
    """
    line = raw_line.strip()
    if not line or line.startswith("#"):
        return None
    fields = line.split()
    if len(fields) < 2:
        raise ValueError(
            f"line {line_number}: expected '<R|W> <page>', got {line!r}")
    kind = AccessKind.parse(fields[0])
    return _parse_int(fields[1]), kind is AccessKind.WRITE


# ----------------------------------------------------------------------
# Identity: chunk-invariant digests and the frozen source descriptor
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SourceSpec:
    """Frozen descriptor of an externally-supplied trace.

    Rides on :class:`~repro.experiments.runspec.RunSpec` the way
    :class:`~repro.sampling.SamplingConfig` does: frozen, hashable,
    picklable, with a constant-key ``to_dict``.  ``digest`` is the
    chunk-size-invariant content address (:func:`scan_source`) — it,
    not ``path``, is the cache identity, so the same trace uploaded
    twice (or reached via different paths) shares one cache entry.
    """

    digest: str
    name: str
    page_size: int
    requests: int
    unique_pages: int
    write_requests: int
    path: str | None = None

    def open(self) -> TraceSource:
        """Open the referenced trace file as a streaming source.

        The scan statistics ride along: the opened source knows its
        request count even for the text format (whose reader cannot
        know it without a counting pass), so warm-up fractions and
        bucket-derived event intervals work on streamed replays.
        """
        if self.path is None:
            raise ValueError(
                f"source {self.name!r} ({self.digest[:12]}) has no backing "
                "file; re-create it through TraceStore.add")
        path = Path(self.path)
        if path.suffix == ".npz":
            return NpzTraceSource(path)
        return TextTraceSource(path, request_count=self.requests)

    def to_dict(self) -> dict[str, Any]:
        return {
            "digest": self.digest,
            "name": self.name,
            "page_size": self.page_size,
            "requests": self.requests,
            "unique_pages": self.unique_pages,
            "write_requests": self.write_requests,
            "path": self.path,
        }

    def identity_dict(self) -> dict[str, Any]:
        """The digest-relevant subset: everything except the path."""
        data = self.to_dict()
        del data["path"]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SourceSpec":
        return cls(
            digest=data["digest"],
            name=data["name"],
            page_size=data["page_size"],
            requests=data["requests"],
            unique_pages=data["unique_pages"],
            write_requests=data["write_requests"],
            path=data.get("path"),
        )


@dataclass(frozen=True)
class SourceScan:
    """Everything one streaming pass over a source establishes."""

    digest: str
    requests: int
    unique_pages: int
    write_requests: int


class _StreamDigest:
    """Chunk-size-invariant running digest over trace content.

    Pages and write flags hash into *separate* sha256 streams (chunked
    interleaving would otherwise make the byte order — and hence the
    digest — depend on the chunk size); the final digest combines both
    stream digests with the page size.
    """

    def __init__(self, page_size: int) -> None:
        self._pages = hashlib.sha256()
        self._writes = hashlib.sha256()
        self._page_size = page_size

    def update(self, chunk: Trace) -> None:
        self._pages.update(np.ascontiguousarray(
            chunk.pages, dtype=np.int64).tobytes())
        self._writes.update(np.ascontiguousarray(
            chunk.is_write, dtype=np.uint8).tobytes())

    def hexdigest(self) -> str:
        outer = hashlib.sha256()
        outer.update(f"page_size={self._page_size};".encode())
        outer.update(self._pages.digest())
        outer.update(self._writes.digest())
        return outer.hexdigest()[:24]


def scan_source(
    source: TraceSource | Trace,
    chunk_size: int | None = None,
    sink: Callable[[Trace], None] | None = None,
) -> SourceScan:
    """One streaming pass: content digest plus the summary statistics.

    ``sink`` (when given) receives every chunk after it is digested —
    the trace store uses this to spill the stream to disk in the same
    single pass, so ingest never needs a second replay of a
    non-replayable stream.
    """
    source = as_source(source)
    digest = _StreamDigest(source.page_size)
    requests = 0
    writes = 0
    seen: set[int] = set()
    unique = np.unique
    for chunk in source.chunks(chunk_size):
        digest.update(chunk)
        requests += len(chunk)
        writes += chunk.write_count
        if len(chunk):
            seen.update(unique(chunk.pages).tolist())
        if sink is not None:
            sink(chunk)
    return SourceScan(
        digest=digest.hexdigest(),
        requests=requests,
        unique_pages=len(seen),
        write_requests=writes,
    )


# ----------------------------------------------------------------------
# Content-addressed trace store
# ----------------------------------------------------------------------
class TraceStore:
    """Content-addressed spill directory for streamed traces.

    ``add`` turns any source into a :class:`SourceSpec` whose ``path``
    points at a file every process can replay: file-backed sources are
    referenced in place (single scan, no copy); in-memory and
    generator sources are spilled to ``<root>/<digest>.trc`` in the
    same single streaming pass that computes the digest, so peak
    memory stays one chunk.  Writes go through a unique temp file plus
    an atomic rename, so concurrent ingests of the same content are
    safe and converge on one file.
    """

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)

    def add(self, source: "TraceSource | Trace | str | os.PathLike[str] | Iterable",
            name: str | None = None,
            chunk_size: int | None = None) -> SourceSpec:
        source = as_source(source)
        spec_name = name if name is not None else source.name
        backing = getattr(source, "path", None)
        if backing is not None:
            scan = scan_source(source, chunk_size)
            return SourceSpec(
                digest=scan.digest, name=spec_name,
                page_size=source.page_size, requests=scan.requests,
                unique_pages=scan.unique_pages,
                write_requests=scan.write_requests, path=str(backing),
            )
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.root, prefix="ingest-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(f"# name: {spec_name}\n")
                handle.write(f"# page_size: {source.page_size}\n")

                def spill(chunk: Trace) -> None:
                    for page, is_write in chunk.iter_pairs():
                        handle.write(f"{'W' if is_write else 'R'} {page}\n")

                scan = scan_source(source, chunk_size, sink=spill)
            path = self.root / f"{scan.digest}.trc"
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return SourceSpec(
            digest=scan.digest, name=spec_name, page_size=source.page_size,
            requests=scan.requests, unique_pages=scan.unique_pages,
            write_requests=scan.write_requests, path=str(path),
        )

    def path_for(self, digest: str) -> Path:
        return self.root / f"{digest}.trc"
