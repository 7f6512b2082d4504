"""Trace file input/output.

Two formats:

* **Text** (``.trc``) — one request per line, ``R 0x2a`` / ``W 42``.
  Human-readable; convenient for tiny fixtures and interoperability with
  other trace tools.  ``#`` starts a comment.
* **Binary** (``.npz``) — compressed numpy arrays.  Compact and fast;
  the format used by the benchmark harness trace cache.

Both formats round-trip :class:`~repro.trace.trace.Trace` and
:class:`~repro.trace.trace.CPUTrace` losslessly (including workload name
and page size).  Page traces are read back through
:func:`repro.trace.source.open_trace_source`, which streams either
format in chunks (``materialize`` joins them into one ``Trace``).
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.trace.record import AccessKind
from repro.trace.source import _parse_int
from repro.trace.trace import CPUTrace, Trace


# ----------------------------------------------------------------------
# Text format
# ----------------------------------------------------------------------
def write_text_trace(trace: Trace, path: str | os.PathLike[str]) -> None:
    """Write a page trace in the text format."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(f"# name: {trace.name}\n")
        handle.write(f"# page_size: {trace.page_size}\n")
        for page, is_write in trace.iter_pairs():
            handle.write(f"{'W' if is_write else 'R'} {page}\n")


def write_text_cpu_trace(trace: CPUTrace, path: str | os.PathLike[str]) -> None:
    """Write a CPU trace in the text format (``<R|W> <addr> <core>``)."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(f"# name: {trace.name}\n")
        for address, is_write, core in trace.iter_tuples():
            handle.write(f"{'W' if is_write else 'R'} 0x{address:x} {core}\n")


def read_text_cpu_trace(path: str | os.PathLike[str]) -> CPUTrace:
    """Read a CPU trace from the text format."""
    path = Path(path)
    name = path.stem
    addresses: list[int] = []
    writes: list[bool] = []
    cores: list[int] = []
    with path.open("r", encoding="utf-8") as handle:
        for line_number, raw_line in enumerate(handle, start=1):
            line = raw_line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("name:"):
                    name = body[len("name:"):].strip() or name
                continue
            fields = line.split()
            if len(fields) < 2:
                raise ValueError(
                    f"line {line_number}: expected '<R|W> <addr> [core]', "
                    f"got {line!r}"
                )
            kind = AccessKind.parse(fields[0])
            addresses.append(_parse_int(fields[1]))
            writes.append(kind is AccessKind.WRITE)
            cores.append(_parse_int(fields[2]) if len(fields) > 2 else 0)
    return CPUTrace(addresses, writes, cores, name=name)


# ----------------------------------------------------------------------
# Binary format
# ----------------------------------------------------------------------
def save_trace(trace: Trace, path: str | os.PathLike[str]) -> None:
    """Save a page trace as a compressed ``.npz`` file."""
    np.savez_compressed(
        Path(path),
        pages=np.asarray(trace.pages),
        is_write=np.asarray(trace.is_write),
        name=np.array(trace.name),
        page_size=np.array(trace.page_size),
    )


def _load_trace_arrays(path: str | os.PathLike[str]) -> Trace:
    """Decode a page trace from a ``.npz`` file (read it through
    :func:`repro.trace.source.open_trace_source`)."""
    with np.load(Path(path), allow_pickle=False) as data:
        return Trace(
            data["pages"],
            data["is_write"],
            name=str(data["name"]),
            page_size=int(data["page_size"]),
        )


def save_cpu_trace(trace: CPUTrace, path: str | os.PathLike[str]) -> None:
    """Save a CPU trace as a compressed ``.npz`` file."""
    np.savez_compressed(
        Path(path),
        addresses=np.asarray(trace.addresses),
        is_write=np.asarray(trace.is_write),
        cores=np.asarray(trace.cores),
        name=np.array(trace.name),
    )


def load_cpu_trace(path: str | os.PathLike[str]) -> CPUTrace:
    """Load a CPU trace from a ``.npz`` file."""
    with np.load(Path(path), allow_pickle=False) as data:
        return CPUTrace(
            data["addresses"],
            data["is_write"],
            data["cores"],
            name=str(data["name"]),
        )
