"""Spatial trace sampling: hash membership masks and scale-up math.

The sampled simulation engine (:mod:`repro.sampling`) simulates only a
deterministic subset of a trace's pages and scales the measured counts
back up.  This module holds the trace-level primitives that decide the
subset — all vectorized numpy over the trace's page array, so selecting
the sample costs a single pass even on multi-million-request traces:

* :func:`hash_u64` — a seed-stable splitmix64 finalizer over page
  numbers.  The hash is a pure function of ``(value, salt)``: the same
  page lands on the same side of the threshold in every run, on every
  platform, which is what makes spatial sampling *consistent* (every
  access of a sampled page is kept, so per-page reuse behaviour —
  inter-access patterns, counter dynamics, stack distances — survives
  sampling exactly; only the page population shrinks).
* :func:`sample_mask` — the request-membership mask for a trace under a
  named scheme (:data:`SAMPLING_SCHEMES`).
* :func:`assign_groups` — an independent secondary hash that splits the
  sampled pages into disjoint replicate groups; each group is itself a
  spatial sample at a proportionally smaller rate, which is what the
  engine's confidence intervals are built from.

Schemes
-------
``spatial``
    SHARDS-style hash-threshold membership: a page is sampled iff
    ``hash(page, salt) < 2**64 / rate``.  Robust to any page-number
    layout (strides, segments, renumbering), and the only scheme that
    works *online* (membership is a pure function of the page number).
``stratified`` (default)
    Frequency-stratified systematic membership: pages are ranked by
    request count (hottest first) and every ``rate``-th rank is kept,
    starting at a salt-derived offset.  Like ``spatial`` it keeps every
    access of a sampled page, but the sample's request mass is balanced
    across the frequency spectrum *by construction*, where a Bernoulli
    hash draw's mass rides on which few hot pages it happens to catch —
    the dominant variance term on zipf-like traces.  Requires the full
    trace up front (an offline refinement of SHARDS), which this engine
    always has.
``modulo``
    Naive residue-class membership: ``(page + salt) % rate == 0``.
    Cheap, but aliases with regular allocation strides; kept as the
    strawman the scheme-vs-accuracy study compares against.
``temporal``
    Hash-threshold membership over *request indexes* instead of pages:
    keeps ``1/rate`` of the requests regardless of which page they
    touch.  This breaks per-page access chains (a page's surviving
    accesses are a random subsequence), so migration-policy dynamics
    distort — included precisely to demonstrate why the spatial family
    is the right default for this simulator.
"""

from __future__ import annotations

import numpy as np

from repro.trace.trace import Trace

#: Recognised sampling schemes, in documentation order.
SAMPLING_SCHEMES = ("spatial", "stratified", "modulo", "temporal")

#: splitmix64 constants (Steele, Lea & Flood; public domain reference).
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U64 = 0xFFFFFFFFFFFFFFFF

#: Salt perturbation for the replicate-group hash, so group assignment
#: is independent of the membership decision made with the same salt.
_GROUP_SALT = 0x5DEECE66D


def hash_u64(values: np.ndarray, salt: int = 0) -> np.ndarray:
    """Vectorized splitmix64 of ``values`` (uint64), salted.

    Deterministic and platform-independent: equal inputs hash equally
    in every process, which keeps sampled RunSpecs reproducible and
    cacheable.  ``salt`` selects an independent hash function per value
    (hash-salt resampling).
    """
    with np.errstate(over="ignore"):
        x = values.astype(np.uint64, copy=True)
        x += np.uint64((salt * _GAMMA + _GAMMA) & _U64)
        x ^= x >> np.uint64(30)
        x *= np.uint64(_MIX1)
        x ^= x >> np.uint64(27)
        x *= np.uint64(_MIX2)
        x ^= x >> np.uint64(31)
    return x


def _threshold(rate: int) -> np.uint64:
    """Hash threshold selecting an expected ``1/rate`` of the keys."""
    return np.uint64((1 << 64) // rate)


def frequency_ranks(counts: np.ndarray) -> np.ndarray:
    """Frequency rank per unique page, hottest first.

    ``counts`` is the per-unique-page request count aligned with a
    *sorted* unique-page array (``np.unique`` order).  Rank 0 is the
    most-requested page; ties break by page number, so the ranking —
    and everything the ``stratified`` scheme derives from it — is
    deterministic.
    """
    order = np.argsort(-counts, kind="stable")
    ranks = np.empty(counts.size, dtype=np.int64)
    ranks[order] = np.arange(counts.size, dtype=np.int64)
    return ranks


def _request_ranks(trace: Trace) -> np.ndarray:
    """Per-request frequency rank of the page each request touches."""
    index = trace.page_index()
    return frequency_ranks(index.counts)[index.inverse]


def _stratified_offset(rate: int, salt: int) -> int:
    """Salt-derived starting rank for systematic selection."""
    seed = hash_u64(np.asarray([salt], dtype=np.uint64))
    return int(seed[0] % np.uint64(rate))


def sample_keys(trace: Trace, scheme: str) -> np.ndarray:
    """The per-request key array the scheme hashes (pages or indexes)."""
    if scheme not in SAMPLING_SCHEMES:
        known = ", ".join(SAMPLING_SCHEMES)
        raise ValueError(f"unknown sampling scheme {scheme!r}; known: {known}")
    if scheme == "temporal":
        return np.arange(len(trace), dtype=np.int64)
    return trace.pages


def sample_mask(trace: Trace, rate: int, scheme: str = "spatial",
                salt: int = 0) -> np.ndarray:
    """Boolean request-membership mask for a 1-in-``rate`` sample.

    ``rate == 1`` keeps everything (the identity sample) for every
    scheme, which is what pins the sampled engine's K=1 equivalence to
    the exact simulator.
    """
    if rate < 1:
        raise ValueError(f"sampling rate must be >= 1, got {rate}")
    keys = sample_keys(trace, scheme)
    if rate == 1:
        return np.ones(len(trace), dtype=bool)
    if scheme == "stratified":
        ranks = _request_ranks(trace)
        return ranks % rate == _stratified_offset(rate, salt)
    if scheme == "modulo":
        return (keys + salt) % rate == 0
    return hash_u64(keys, salt) < _threshold(rate)


def page_membership(pages: np.ndarray, counts: np.ndarray, rate: int,
                    scheme: str = "spatial", salt: int = 0) -> np.ndarray:
    """Membership decision per *unique page* (the fast path).

    Equivalent to :func:`sample_mask` evaluated at the unique-page
    level: for the page-keyed schemes, ``page_membership(...)[inverse]``
    (with ``inverse`` from :meth:`Trace.page_index`)
    reproduces the request mask exactly while hashing each page once
    instead of once per request.  The ``temporal`` scheme has no
    per-page decision and is rejected.
    """
    if rate < 1:
        raise ValueError(f"sampling rate must be >= 1, got {rate}")
    if scheme not in SAMPLING_SCHEMES:
        known = ", ".join(SAMPLING_SCHEMES)
        raise ValueError(f"unknown sampling scheme {scheme!r}; known: {known}")
    if scheme == "temporal":
        raise ValueError("temporal sampling has no per-page membership")
    if rate == 1:
        return np.ones(pages.size, dtype=bool)
    if scheme == "stratified":
        ranks = frequency_ranks(counts)
        return ranks % rate == _stratified_offset(rate, salt)
    if scheme == "modulo":
        return (pages + salt) % rate == 0
    return hash_u64(pages, salt) < _threshold(rate)


def page_groups(pages: np.ndarray, counts: np.ndarray, groups: int,
                scheme: str = "spatial", salt: int = 0,
                rate: int = 1) -> np.ndarray:
    """Replicate-group index per *unique page* (see :func:`assign_groups`)."""
    if groups < 1:
        raise ValueError(f"group count must be >= 1, got {groups}")
    if scheme == "temporal":
        raise ValueError("temporal sampling has no per-page grouping")
    if scheme == "stratified":
        if rate < 1:
            raise ValueError(f"sampling rate must be >= 1, got {rate}")
        return frequency_ranks(counts) // rate % groups
    if scheme == "modulo":
        return np.asarray((pages + salt) // max(groups, 1) % groups,
                          dtype=np.int64)
    hashed = hash_u64(pages, salt ^ _GROUP_SALT)
    return (hashed % np.uint64(groups)).astype(np.int64)


def assign_groups(trace: Trace, groups: int, scheme: str = "spatial",
                  salt: int = 0, rate: int = 1) -> np.ndarray:
    """Replicate-group index (``0..groups-1``) per request.

    For the hash schemes, a salt-perturbed secondary hash of the same
    keys the membership mask hashed, so within the sampled subset the
    groups partition the pages into ``groups`` disjoint spatial
    samples.  For ``stratified``, consecutive *selected* ranks rotate
    through the groups (``rank // rate`` enumerates them), so each
    group is itself a systematic sample at stride ``rate * groups`` —
    which is why that scheme needs the membership ``rate`` here.
    """
    if groups < 1:
        raise ValueError(f"group count must be >= 1, got {groups}")
    if scheme == "stratified":
        if rate < 1:
            raise ValueError(f"sampling rate must be >= 1, got {rate}")
        return _request_ranks(trace) // rate % groups
    keys = sample_keys(trace, scheme)
    if scheme == "modulo":
        return np.asarray((keys + salt) // max(groups, 1) % groups,
                          dtype=np.int64)
    hashed = hash_u64(keys, salt ^ _GROUP_SALT)
    return (hashed % np.uint64(groups)).astype(np.int64)


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
