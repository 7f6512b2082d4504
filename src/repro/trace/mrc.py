"""Miss-ratio curves via Mattson's stack algorithm.

The paper sizes memory as 75 % of the workload's footprint (Section
V-A); a miss-ratio curve (MRC) shows what that rule buys: for an LRU
(stack) policy, one pass over the trace yields the miss ratio at
*every* capacity simultaneously, because LRU possesses the inclusion
property — the content of a size-C cache is a subset of a size-C+1
cache, so an access hits at capacity C iff its stack distance is
below C.

Used by the capacity ablation and available as library tooling for
sizing studies on user traces.  The distance kernel underneath,
:func:`index_distances`, also builds the analytic engine's workload
profiles (:mod:`repro.model.profile`); it reads the trace's cached
:class:`~repro.trace.trace.PageIndex`, so neither consumer sorts the
trace again.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.trace.trace import PageIndex, Trace


@dataclass(frozen=True)
class MissRatioCurve:
    """Miss ratio as a function of LRU capacity (in pages)."""

    capacities: tuple[int, ...]
    miss_ratios: tuple[float, ...]
    total_accesses: int
    cold_misses: int

    def miss_ratio_at(self, capacity: int) -> float:
        """Miss ratio at a capacity (steps between computed points).

        The curve is exact at every integer capacity because the
        distance histogram is kept at full resolution; this accessor
        interpolates by step (LRU miss ratio is right-continuous and
        non-increasing in capacity).
        """
        if capacity <= 0:
            return 1.0
        index = bisect.bisect_right(self.capacities, capacity) - 1
        if index < 0:
            return 1.0
        return self.miss_ratios[index]

    def hit_ratio_at(self, capacity: int) -> float:
        return 1.0 - self.miss_ratio_at(capacity)

    def capacity_for(self, target_miss_ratio: float) -> int:
        """Smallest computed capacity whose miss ratio <= target."""
        for capacity, miss in zip(self.capacities, self.miss_ratios):
            if miss <= target_miss_ratio:
                return capacity
        return self.capacities[-1] if self.capacities else 0

    @property
    def compulsory_miss_ratio(self) -> float:
        """Cold misses / accesses: the floor no capacity removes."""
        if self.total_accesses == 0:
            return 0.0
        return self.cold_misses / self.total_accesses


def _count_below(
    values: np.ndarray, limits: np.ndarray, thresholds: np.ndarray
) -> np.ndarray:
    """Offline dominance count: ``#{j < limits[k] : values[j] <
    thresholds[k]}`` for every query ``k`` (all inputs non-negative).

    A wavelet matrix over ``values``, walked by all queries at once: at
    each bit level, most significant first, the elements are stably
    partitioned zeros-first and every query's index range ``[lo, hi)``
    follows its threshold's bit to one side; stepping to the 1-side
    counts the range's zeros, which are all below the threshold.
    ``O((n + q) log max)`` work in ``O(log max)`` vectorised passes.
    The buffers are preallocated and updated in place: fresh
    temporaries of this size cost a page-fault burst each, and peak
    memory stays at a few words per element.
    """
    size, queries = values.shape[0], limits.shape[0]
    narrow = np.int32 if size < np.iinfo(np.int32).max else np.int64
    top = int(max(values.max(initial=0), thresholds.max(initial=0)))
    zeros_before = np.zeros(size + 1, dtype=narrow)
    zeros = zeros_before[:-1]
    step = np.arange(size, dtype=np.intp)
    current, spare = values.astype(narrow), np.empty(size, dtype=narrow)
    bits, slot = np.empty(size, dtype=narrow), np.empty(size, dtype=np.intp)
    thresholds = thresholds.astype(narrow)
    counts = np.zeros(queries, dtype=narrow)
    right, zeros_lo, zeros_hi = (np.empty_like(counts) for _ in range(3))
    lo, hi = np.zeros(queries, dtype=np.intp), limits.astype(np.intp)
    for level in reversed(range(top.bit_length())):
        np.right_shift(current, level, out=bits)
        bits &= 1
        np.subtract(1, bits, out=spare)
        np.cumsum(spare, out=zeros_before[1:])
        total = int(zeros_before[-1])
        # Element k moves to zeros[k] on a 0-bit and to
        # total + (k - zeros[k]) on a 1-bit.
        np.subtract(step, zeros, out=slot)
        slot += total
        slot -= zeros
        slot *= bits
        slot += zeros
        spare[slot] = current
        current, spare = spare, current

        np.right_shift(thresholds, level, out=right)
        right &= 1
        np.take(zeros_before, lo, out=zeros_lo, mode="clip")
        np.take(zeros_before, hi, out=zeros_hi, mode="clip")
        # Each range end moves the same way its element would.
        for end, below in ((lo, zeros_lo), (hi, zeros_hi)):
            end -= below
            end += total
            end -= below
            end *= right
            end += below
        zeros_hi -= zeros_lo
        zeros_hi *= right
        counts += zeros_hi
    return counts


def recency_distances(
    pages: np.ndarray, marked: np.ndarray | None = None
) -> np.ndarray:
    """Distinct pages marked since each access's page was last marked.

    For access ``i`` whose page was last *marked* at ``w < i``, the
    result is the number of distinct pages with a marked access in
    ``(w, i)``; -1 if the page has no earlier marked access.  With
    every access marked (``marked=None``) that is the Mattson LRU
    stack distance; with ``marked`` = the write mask it is the page's
    position in the most-recently-written ordering.

    Sorts ``pages`` once (:meth:`PageIndex.of`); a caller that already
    holds the index calls :func:`index_distances` and skips the sort.
    """
    return index_distances(PageIndex.of(np.asarray(pages)), marked)


def index_distances(
    index: PageIndex, marked: np.ndarray | None = None
) -> np.ndarray:
    """:func:`recency_distances` of the pages ``index`` was built from.

    No per-access Python: the index's stable order gives each
    access's previous mark ``w``.  Every page marked in ``(w, i)`` is
    counted once, at its first marked access ``j`` there, which is
    exactly a marked ``j < i`` whose own previous mark is before
    ``w``; the marked ``j <= w`` meet that condition too and are
    subtracted.  The count is one offline dominance query
    (:func:`_count_below`).
    """
    size = index.size
    if size == 0:
        return np.empty(0, dtype=np.int64)
    marked = (np.ones(size, dtype=bool) if marked is None
              else np.asarray(marked, dtype=bool))
    order = index.order
    # Stamp each marked access with its position + 1 on top of a
    # per-page base, so a running maximum over the page-sorted order
    # yields the latest mark so far and never leaks across pages.
    # Intermediates are dropped as soon as they are used: this build's
    # peak memory sets a profiled sweep's peak.
    base = np.cumsum(index.starts, dtype=np.int64)
    base -= 1
    base *= size + 1
    latest = order + 1
    latest *= marked[order]
    latest += base
    np.maximum.accumulate(latest, out=latest)
    np.subtract(latest[:-1], base[1:], out=base[1:])
    np.maximum(base, 0, out=base)
    base[0] = 0
    del latest
    # since[i] = previous mark of i's page + 1, 0 if there is none.
    since = np.empty(size, dtype=np.int64)
    since[order] = base
    del base
    marks_before = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(marked, out=marks_before[1:])
    counts = _count_below(since[marked], marks_before[:-1], since)
    distances = marks_before[since]
    np.subtract(counts, distances, out=distances)
    distances[since == 0] = -1
    return distances


def stack_distances(trace: Trace, sample_cap: int | None = None) -> np.ndarray:
    """LRU stack distance per access; -1 marks first touches.

    ``sample_cap`` restricts the result to the trace's first
    ``sample_cap`` accesses; the prefix's index is derived from the
    trace's cached one without sorting again.  Read-only: uncapped,
    it is the trace index's cached
    :attr:`~repro.trace.trace.PageIndex.distances`.
    """
    stop = trace.pages[:sample_cap].shape[0]
    return trace.page_index().head(stop).distances


def miss_ratio_curve(
    trace: Trace,
    capacities: Sequence[int] | None = None,
    sample_cap: int | None = None,
) -> MissRatioCurve:
    """Compute the LRU miss-ratio curve of a trace in one stack pass.

    Parameters
    ----------
    trace:
        The memory trace.
    capacities:
        Capacities (pages) to report; defaults to a footprint-relative
        ladder (5 %, 10 %, ... 100 % of distinct pages).
    sample_cap:
        Bound on the number of accesses analysed.
    """
    distances = stack_distances(trace, sample_cap=sample_cap)
    total = int(distances.shape[0])
    if total == 0:
        return MissRatioCurve((), (), 0, 0)
    cold = int((distances == -1).sum())
    footprint = trace.unique_pages
    if capacities is None:
        ladder = sorted({
            max(1, round(footprint * fraction))
            for fraction in (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.75,
                             0.9, 1.0)
        })
        capacities = ladder
    reuse = distances[distances >= 0]
    # histogram of stack distances; hits at capacity C = distances < C
    histogram = np.bincount(reuse, minlength=1) if reuse.size else \
        np.zeros(1, dtype=np.int64)
    cumulative = np.cumsum(histogram)

    def hits_at(capacity: int) -> int:
        if capacity <= 0:
            return 0
        index = min(capacity - 1, cumulative.shape[0] - 1)
        return int(cumulative[index])

    miss_ratios = tuple(
        1.0 - hits_at(capacity) / total for capacity in capacities
    )
    return MissRatioCurve(
        capacities=tuple(int(c) for c in capacities),
        miss_ratios=miss_ratios,
        total_accesses=total,
        cold_misses=cold,
    )
