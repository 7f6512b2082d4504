"""Tests for trace transformations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.trace import transform
from repro.trace.stats import characterize
from repro.trace.trace import Trace


class TestDensify:
    def test_first_touch_numbering(self):
        trace = Trace([100, 7, 100, 50], [False] * 4)
        dense = transform.densify(trace)
        assert list(dense.pages) == [0, 1, 0, 2]

    def test_preserves_statistics(self, zipf_trace):
        dense = transform.densify(zipf_trace)
        assert dense.unique_pages == zipf_trace.unique_pages
        assert dense.write_count == zipf_trace.write_count
        assert int(dense.pages.max()) == dense.unique_pages - 1


class TestPerturbations:
    def test_flip_writes_changes_only_direction(self, zipf_trace):
        flipped = transform.flip_writes(zipf_trace, 0.9, seed=1)
        assert np.array_equal(flipped.pages, zipf_trace.pages)
        assert flipped.write_ratio == pytest.approx(0.9, abs=0.05)

    def test_flip_writes_validates_ratio(self, zipf_trace):
        with pytest.raises(ValueError):
            transform.flip_writes(zipf_trace, 1.5)

    def test_remap_random_is_bijective(self, zipf_trace):
        remapped = transform.remap_random(zipf_trace, seed=5)
        assert remapped.unique_pages == zipf_trace.unique_pages
        assert np.array_equal(remapped.is_write, zipf_trace.is_write)
        # temporal structure (reuse) is untouched
        original = characterize(zipf_trace)
        renamed = characterize(remapped)
        assert renamed.median_reuse_distance == pytest.approx(
            original.median_reuse_distance
        )
        assert renamed.max_burst_length == original.max_burst_length

    def test_remap_deterministic_per_seed(self, zipf_trace):
        a = transform.remap_random(zipf_trace, seed=5)
        b = transform.remap_random(zipf_trace, seed=5)
        c = transform.remap_random(zipf_trace, seed=6)
        assert a == b
        assert a != c
