"""Trace file input/output.

Two formats:

* **Text** (``.trc``) — one request per line, ``R 0x2a`` / ``W 42``.
  Human-readable; convenient for tiny fixtures and interoperability with
  other trace tools.  ``#`` starts a comment.
* **Binary** (``.npz``) — compressed numpy arrays.  Compact and fast;
  the format used by the benchmark harness trace cache.

Both formats round-trip a :class:`~repro.trace.trace.Trace` losslessly
(including workload name and page size).  Traces are read back through
:func:`repro.trace.source.open_trace_source`, which streams either
format in chunks (``materialize`` joins them into one ``Trace``).
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.trace.trace import Trace


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
