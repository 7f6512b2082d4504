"""Workload statistics consumed by the analytic engine.

A :class:`WorkloadProfile` is the one-pass reduction of a rendered
trace that the policy estimators (:mod:`repro.model.estimator`) work
from.  It captures per-access:

* **LRU stack distances** — the classic Mattson reuse distance, so an
  access hits a ``C``-frame LRU memory iff its distance is below
  ``C``.  This makes the single-tier estimates exact and anchors every
  hybrid estimate's total hit/miss split.
* **Write-recency distances** — the page's position in the
  most-recently-*written* ordering, which decides DRAM membership
  under CLOCK-DWF (DRAM holds roughly the ``C_d`` most recently
  written pages).  Only the CLOCK-DWF estimator reads them, so they
  are computed on first access and cached.
* **Page identity** (``index``, a :class:`~repro.trace.trace.PageIndex`)
  — so the estimators can walk each page's access chain
  (tier-membership propagation for the proposed policy) in its stable
  page order and accumulate per-page reference rates for the
  Che/Markov occupancy model.

Arrays cover the warm-up prefix *and* the measured region — the
estimators need warm-up history because tier membership at the
measurement boundary is set by warm-up fill pressure — while the
request totals and per-page counts describe the measured region only,
exactly the region the simulator scores.

A build sorts the trace's pages once: everything page-ordered —
both distance arrays, the page ids and per-access page positions, the
footprint — reads the trace's cached
:class:`~repro.trace.trace.PageIndex` (a prefix's index is derived
from it without sorting).  Both distance arrays come from
:func:`repro.trace.mrc.index_distances`, the vectorised
dominance-count kernel shared with the miss-ratio curves: ``O(n log
n)`` work in ``O(log n)`` numpy passes, no per-access Python.  The
LRU distances are the index's cached
:attr:`~repro.trace.trace.PageIndex.distances`; untruncated, that is
the trace's own index, so :func:`repro.trace.mrc.stack_distances` on
the same trace reuses this pass.  Long
measured regions are truncated at ``sample_cap`` accesses; counts over
the per-access arrays then carry a scale-up ``weight``, while the
totals stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.trace.mrc import index_distances
from repro.trace.trace import PageIndex, Trace
from repro.workloads.parsec import WorkloadInstance

__all__ = ["WorkloadProfile", "profile_trace", "profile_workload"]

#: Default bound on the measured span of the per-access arrays;
#: longer measured regions are profiled on a prefix and scaled up by
#: ``weight``.
DEFAULT_SAMPLE_CAP = 400_000


@dataclass(frozen=True)
class WorkloadProfile:
    """Per-access and per-page statistics of one rendered workload.

    The per-access arrays (``distances`` / ``write_distances`` /
    ``is_write`` / ``page_index``) and ``index`` span ``[0, boundary +
    sampled)`` of the trace: the warm-up prefix followed by the
    (possibly truncated) measured region.  Counts taken over the
    measured span scale to the full measured region by ``weight``; the
    request totals and the per-page count arrays are exact over the
    measured span as stored.
    """

    name: str
    requests: int
    read_requests: int
    write_requests: int
    boundary: int
    sampled: int
    weight: float
    distances: np.ndarray = field(repr=False)
    is_write: np.ndarray = field(repr=False)
    index: PageIndex = field(repr=False)
    page_counts: np.ndarray = field(repr=False)
    page_write_counts: np.ndarray = field(repr=False)
    warmup_distinct: int
    footprint: int

    @cached_property
    def write_distances(self) -> np.ndarray:
        """Write-recency distance per access, computed on first use."""
        return index_distances(self.index, self.is_write)

    @property
    def page_index(self) -> np.ndarray:
        """Position of each access's page in ``page_ids``."""
        return self.index.inverse

    @property
    def page_ids(self) -> np.ndarray:
        """Sorted distinct pages of the profiled span."""
        return self.index.pages

    @property
    def measured(self) -> slice:
        """Slice selecting the measured span of the per-access arrays."""
        return slice(self.boundary, self.boundary + self.sampled)

    @property
    def write_ratio(self) -> float:
        return self.write_requests / self.requests if self.requests else 0.0

    def weighted(self, mask: np.ndarray) -> float:
        """Scale a measured-span mask up to measured-region counts."""
        return float(np.count_nonzero(mask)) * self.weight


def profile_trace(
    trace: Trace,
    warmup_fraction: float = 0.0,
    sample_cap: int | None = DEFAULT_SAMPLE_CAP,
    name: str | None = None,
) -> WorkloadProfile:
    """Profile a trace around the simulator's warm-up boundary."""
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError("warmup_fraction must be in [0, 1)")
    writes = np.asarray(trace.is_write)
    total = len(trace)
    boundary = int(total * warmup_fraction) if warmup_fraction > 0.0 else 0
    measured = total - boundary
    sampled = measured if sample_cap is None else min(measured, sample_cap)
    limit = boundary + sampled

    index = trace.page_index().head(limit)
    distances = index.distances
    measured_writes = writes[boundary:]
    span_index = index.inverse[boundary:limit]
    npages = index.pages.shape[0]
    page_counts = np.bincount(span_index, minlength=npages)
    page_write_counts = np.bincount(
        span_index,
        weights=writes[boundary:limit].astype(np.float64),
        minlength=npages,
    ).astype(np.int64)
    return WorkloadProfile(
        name=name or trace.name,
        requests=measured,
        read_requests=int(measured) - int(measured_writes.sum()),
        write_requests=int(measured_writes.sum()),
        boundary=boundary,
        sampled=sampled,
        weight=(measured / sampled) if sampled else 1.0,
        distances=distances,
        is_write=writes[:limit],
        index=index,
        page_counts=page_counts.astype(np.int64),
        page_write_counts=page_write_counts,
        # A warm-up page's first touch is its one cold access there.
        warmup_distinct=int(np.count_nonzero(distances[:boundary] < 0)),
        footprint=trace.unique_pages,
    )


def profile_workload(
    instance: WorkloadInstance,
    warmup_fraction: float | None = None,
    sample_cap: int | None = DEFAULT_SAMPLE_CAP,
) -> WorkloadProfile:
    """Profile a rendered workload at its own (or an overridden)
    warm-up boundary."""
    warmup = (instance.warmup_fraction if warmup_fraction is None
              else warmup_fraction)
    return profile_trace(
        instance.trace,
        warmup_fraction=warmup,
        sample_cap=sample_cap,
    )
