"""Workload characterisation (paper Table III and Section III analysis).

:func:`characterize` reduces a trace to the statistics the paper reports
per workload — working-set size, read/write counts and ratios — plus the
locality measures (reuse distance, page popularity skew, burstiness)
that Section III uses to explain why some workloads do not suit hybrid
memories.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.mrc import stack_distances
from repro.trace.trace import Trace


@dataclass(frozen=True)
class WorkloadStats:
    """Summary statistics for one memory trace.

    The first block mirrors the columns of paper Table III; the second
    block adds the locality measures discussed in Sections III and V.
    """

    name: str
    working_set_kb: int
    read_requests: int
    write_requests: int

    unique_pages: int
    accesses_per_page: float
    write_ratio: float
    top_decile_share: float
    median_reuse_distance: float
    cold_page_fraction: float
    max_burst_length: int

    @property
    def total_requests(self) -> int:
        return self.read_requests + self.write_requests

    @property
    def read_ratio(self) -> float:
        return 1.0 - self.write_ratio

    def table_row(self) -> tuple[str, str, str, str]:
        """Render as a Table III row: workload, WSS, reads (%), writes (%)."""
        total = self.total_requests
        read_pct = 100.0 * self.read_requests / total if total else 0.0
        write_pct = 100.0 * self.write_requests / total if total else 0.0
        return (
            self.name,
            f"{self.working_set_kb:,}",
            f"{self.read_requests:,} ({read_pct:.0f}%)",
            f"{self.write_requests:,} ({write_pct:.0f}%)",
        )


def _max_burst_length(pages: np.ndarray) -> int:
    """Longest run of consecutive accesses to a single page."""
    if pages.size == 0:
        return 0
    change = np.flatnonzero(np.diff(pages) != 0)
    if change.size == 0:
        return int(pages.size)
    run_lengths = np.diff(np.concatenate(([-1], change, [pages.size - 1])))
    return int(run_lengths.max())


def characterize(
    trace: Trace,
    reuse_sample_cap: int = 200_000,
) -> WorkloadStats:
    """Compute :class:`WorkloadStats` for a trace.

    Parameters
    ----------
    trace:
        The memory trace to summarise.
    reuse_sample_cap:
        Maximum number of accesses whose LRU reuse distance
        (:func:`~repro.trace.mrc.stack_distances`) feeds the median.
    """
    pages = np.asarray(trace.pages)
    total = len(trace)
    if total == 0:
        return WorkloadStats(
            name=trace.name,
            working_set_kb=0,
            read_requests=0,
            write_requests=0,
            unique_pages=0,
            accesses_per_page=0.0,
            write_ratio=0.0,
            top_decile_share=0.0,
            median_reuse_distance=0.0,
            cold_page_fraction=0.0,
            max_burst_length=0,
        )

    counts = trace.page_index().counts
    unique_pages = int(counts.shape[0])
    counts_sorted = np.sort(counts)[::-1]
    top_count = max(1, unique_pages // 10)
    top_decile_share = float(counts_sorted[:top_count].sum() / total)
    cold_page_fraction = float((counts == 1).sum() / unique_pages)

    distances = stack_distances(trace, sample_cap=reuse_sample_cap)
    reuses = distances[distances >= 0]
    median_reuse = float(np.median(reuses)) if reuses.size else float("inf")

    write_count = trace.write_count
    return WorkloadStats(
        name=trace.name,
        working_set_kb=unique_pages * trace.page_size // 1024,
        read_requests=total - write_count,
        write_requests=write_count,
        unique_pages=unique_pages,
        accesses_per_page=total / unique_pages,
        write_ratio=write_count / total,
        top_decile_share=top_decile_share,
        median_reuse_distance=median_reuse,
        cold_page_fraction=cold_page_fraction,
        max_burst_length=_max_burst_length(pages),
    )


def page_popularity(trace: Trace) -> np.ndarray:
    """Access count per distinct page, descending (popularity curve)."""
    return np.sort(trace.page_index().counts)[::-1]


def write_popularity(trace: Trace) -> np.ndarray:
    """Write count per distinct written page, descending."""
    pages = np.asarray(trace.pages)[np.asarray(trace.is_write)]
    if pages.size == 0:
        return np.empty(0, dtype=np.int64)
    _, counts = np.unique(pages, return_counts=True)
    return np.sort(counts)[::-1]
