"""Spatial trace sampling: stratified page membership.

The sampled simulation engine (:mod:`repro.sampling`) simulates only a
deterministic subset of a trace's pages and scales the measured counts
back up.  This module decides the subset, in vectorized numpy over the
trace's unique-page arrays.

Membership is frequency-stratified systematic selection: pages are
ranked by request count (hottest first) and every ``rate``-th rank is
kept, starting at a salt-derived offset.  Every access of a sampled
page is kept, so per-page reuse behaviour survives sampling exactly;
only the page population shrinks.  The sample's request mass is
balanced across the frequency spectrum *by construction*, where a
hash draw's mass rides on which few hot pages it happens to catch —
the dominant variance term on zipf-like traces.  It needs the full
trace up front (an offline refinement of SHARDS), which this engine
always has.
"""

from __future__ import annotations

import numpy as np

from repro.trace.trace import Trace

#: splitmix64 constants (Steele, Lea & Flood; public domain reference).
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def hash_u64(values: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 of ``values`` (uint64).

    Deterministic and platform-independent: equal inputs hash equally
    in every process, which keeps sampled RunSpecs reproducible and
    cacheable.
    """
    with np.errstate(over="ignore"):
        x = values.astype(np.uint64, copy=True)
        x += np.uint64(_GAMMA)
        x ^= x >> np.uint64(30)
        x *= np.uint64(_MIX1)
        x ^= x >> np.uint64(27)
        x *= np.uint64(_MIX2)
        x ^= x >> np.uint64(31)
    return x


def frequency_ranks(counts: np.ndarray) -> np.ndarray:
    """Frequency rank per unique page, hottest first.

    ``counts`` is the per-unique-page request count aligned with a
    *sorted* unique-page array (``np.unique`` order).  Rank 0 is the
    most-requested page; ties break by page number, so the ranking —
    and the membership derived from it — is deterministic.
    """
    order = np.argsort(-counts, kind="stable")
    ranks = np.empty(counts.size, dtype=np.int64)
    ranks[order] = np.arange(counts.size, dtype=np.int64)
    return ranks


def _stratified_offset(rate: int, salt: int) -> int:
    """Salt-derived starting rank for systematic selection."""
    seed = hash_u64(np.asarray([salt], dtype=np.uint64))
    return int(seed[0] % np.uint64(rate))


def page_membership(pages: np.ndarray, counts: np.ndarray, rate: int,
                    scheme: str = "stratified",
                    salt: int = 0) -> np.ndarray:
    """Membership decision per *unique page* for a 1-in-``rate`` sample.

    ``pages``/``counts`` are the trace's sorted unique pages and their
    request counts (:meth:`Trace.page_index`); index the result with
    the index's ``inverse`` for the per-request mask.  ``rate == 1``
    keeps everything (the identity sample), which is what pins the
    sampled engine's K=1 equivalence to the exact simulator.
    ``scheme`` must be ``"stratified"``, the only membership rule.
    """
    if scheme != "stratified":
        raise ValueError(
            f"unknown sampling scheme {scheme!r}; only 'stratified' exists")
    if rate < 1:
        raise ValueError(f"sampling rate must be >= 1, got {rate}")
    if rate == 1:
        return np.ones(pages.size, dtype=bool)
    return frequency_ranks(counts) % rate == _stratified_offset(rate, salt)


def page_groups(counts: np.ndarray, groups: int,
                rate: int = 1) -> np.ndarray:
    """Replicate-group index (``0..groups-1``) per *unique page*.

    Consecutive *selected* ranks rotate through the groups (``rank //
    rate`` enumerates them), so within the 1-in-``rate`` sample each
    group is itself a systematic sample at stride ``rate * groups``.
    """
    if groups < 1:
        raise ValueError(f"group count must be >= 1, got {groups}")
    if rate < 1:
        raise ValueError(f"sampling rate must be >= 1, got {rate}")
    return frequency_ranks(counts) // rate % groups


def subset_trace(trace: Trace, mask: np.ndarray) -> Trace:
    """The requests selected by ``mask``, as a new trace.

    Keeps the source's name and page size, so downstream results label
    themselves like the full run's.
    """
    return Trace(
        trace.pages[mask],
        trace.is_write[mask],
        name=trace.name,
        page_size=trace.page_size,
    )
