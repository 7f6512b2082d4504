"""Trace transformations: remapping and perturbation."""

from __future__ import annotations

import numpy as np

from repro.trace.rng import SeedLike, ensure_rng
from repro.trace.trace import Trace


def densify(trace: Trace) -> Trace:
    """Remap page numbers onto ``0..unique_pages-1`` (first-touch order).

    Policies only care about page identity, so densifying loses nothing
    while letting frame-indexed bookkeeping use plain lists.
    """
    pages = np.asarray(trace.pages)
    _, first_touch_order = np.unique(pages, return_index=True)
    ordered = pages[np.sort(first_touch_order)]
    mapping = {int(page): index for index, page in enumerate(ordered)}
    remapped = np.fromiter(
        (mapping[int(page)] for page in pages), dtype=np.int64, count=pages.size
    )
    return Trace(remapped, trace.is_write, name=trace.name,
                 page_size=trace.page_size)


def flip_writes(trace: Trace, write_ratio: float,
                seed: SeedLike = 0) -> Trace:
    """Re-draw the read/write flags with a new write ratio.

    Page sequence (and therefore locality) is preserved; only request
    directions change.  Used by ablations that study read/write-mix
    sensitivity independent of locality.  ``seed`` may be a live
    ``Generator`` so chained transforms share one stream.
    """
    if not 0.0 <= write_ratio <= 1.0:
        raise ValueError("write_ratio must be in [0, 1]")
    rng = ensure_rng(seed)
    writes = rng.random(len(trace)) < write_ratio
    return Trace(trace.pages, writes, name=trace.name,
                 page_size=trace.page_size)


def remap_random(trace: Trace, seed: SeedLike = 0) -> Trace:
    """Apply a random bijection to page numbers.

    Destroys any spatial meaning of page ids while preserving temporal
    locality — a sanity transform for policies, which must be invariant
    under it.
    """
    rng = ensure_rng(seed)
    pages = np.asarray(trace.pages)
    unique = np.unique(pages)
    shuffled = unique.copy()
    rng.shuffle(shuffled)
    mapping = {int(old): int(new) for old, new in zip(unique, shuffled)}
    remapped = np.fromiter(
        (mapping[int(page)] for page in pages), dtype=np.int64, count=pages.size
    )
    return Trace(remapped, trace.is_write, name=trace.name,
                 page_size=trace.page_size)

