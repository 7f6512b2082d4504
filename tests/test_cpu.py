"""Tests for the COTSon-substitute cache hierarchy."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.cpu.cache import CacheGeometry, SetAssociativeCache
from repro.cpu.filter import filter_chunks, filter_trace
from repro.cpu.hierarchy import (
    COTSON_CORES,
    L1_GEOMETRY,
    LLC_GEOMETRY,
    CacheHierarchy,
    cotson_hierarchy,
)
from repro.cpu.multicore import synthesize_cpu_trace
from repro.trace.trace import CPUTrace


class TestCacheGeometry:
    def test_table_ii_l1(self):
        assert L1_GEOMETRY.size_bytes == 32 * 1024
        assert L1_GEOMETRY.associativity == 4
        assert L1_GEOMETRY.line_size == 64
        assert L1_GEOMETRY.sets == 128

    def test_table_ii_llc(self):
        assert LLC_GEOMETRY.size_bytes == 2 * 1024 * 1024
        assert LLC_GEOMETRY.associativity == 16
        assert LLC_GEOMETRY.sets == 2048

    def test_validation(self):
        with pytest.raises(ValueError):
            CacheGeometry(100, 4)  # not a line multiple
        with pytest.raises(ValueError):
            CacheGeometry(128, 3, line_size=64)  # lines % assoc != 0


class TestSetAssociativeCache:
    def _tiny(self) -> SetAssociativeCache:
        # 2 sets x 2 ways of 64B lines
        return SetAssociativeCache(CacheGeometry(256, 2))

    def test_hit_after_fill(self):
        cache = self._tiny()
        hit, _ = cache.access(0, False)
        assert not hit
        hit, _ = cache.access(0, False)
        assert hit
        assert cache.stats.hit_ratio == 0.5

    def test_lru_within_set(self):
        cache = self._tiny()
        # lines 0, 2, 4 all map to set 0 (2 sets)
        cache.access(0, False)
        cache.access(2, False)
        cache.access(0, False)          # refresh 0
        cache.access(4, False)          # evicts 2
        assert cache.contains(0)
        assert not cache.contains(2)

    def test_dirty_eviction_reported(self):
        cache = self._tiny()
        cache.access(0, True)           # dirty
        cache.access(2, False)
        _, writeback = cache.access(4, False)  # evicts 0 (LRU, dirty)
        assert writeback == 0
        assert cache.stats.writebacks == 1

    def test_clean_eviction_silent(self):
        cache = self._tiny()
        cache.access(0, False)
        cache.access(2, False)
        _, writeback = cache.access(4, False)
        assert writeback is None

    def test_invalidate(self):
        cache = self._tiny()
        cache.access(0, True)
        assert cache.invalidate(0) is True   # was dirty
        assert not cache.contains(0)
        assert cache.invalidate(0) is False  # already gone

    def test_flush_returns_dirty_lines(self):
        cache = self._tiny()
        cache.access(0, True)
        cache.access(1, False)
        dirty = cache.flush()
        assert dirty == [0]
        assert cache.resident_lines == 0


class TestCacheHierarchy:
    def test_hot_line_is_fully_absorbed(self):
        hierarchy = cotson_hierarchy()
        events = hierarchy.access(0x1000, False)
        assert len(events) == 1  # compulsory miss fetch
        for _ in range(100):
            assert hierarchy.access(0x1000, False) == []
        assert hierarchy.stats.memory_reads == 1

    def test_writes_surface_as_evictions_not_stores(self):
        hierarchy = CacheHierarchy(
            cores=1,
            l1_geometry=CacheGeometry(256, 2),
            llc_geometry=CacheGeometry(1024, 2),
        )
        hierarchy.access(0, True)
        assert hierarchy.stats.memory_writes == 0  # write-back: not yet
        # stream enough lines to force the dirty line out of the LLC
        for index in range(1, 64):
            hierarchy.access(index * 64, False)
        assert hierarchy.stats.memory_writes >= 1

    def test_coherence_invalidation_on_remote_write(self):
        hierarchy = cotson_hierarchy()
        hierarchy.access(0x4000, False, core=0)
        hierarchy.access(0x4000, False, core=1)
        invalidations_before = hierarchy.stats.coherence_invalidations
        hierarchy.access(0x4000, True, core=2)
        assert hierarchy.stats.coherence_invalidations > \
            invalidations_before

    def test_dirty_remote_invalidation_writes_back(self):
        hierarchy = cotson_hierarchy()
        hierarchy.access(0x4000, True, core=0)   # core 0 holds dirty
        hierarchy.access(0x4000, True, core=1)   # forces writeback path
        # the line survives in the LLC; no memory write needed yet
        assert hierarchy.stats.memory_writes == 0
        assert hierarchy.stats.coherence_invalidations >= 1

    def test_core_range_checked(self):
        hierarchy = cotson_hierarchy()
        with pytest.raises(ValueError):
            hierarchy.access(0, False, core=COTSON_CORES)

    def test_instruction_stream_uses_l1i(self):
        hierarchy = cotson_hierarchy()
        hierarchy.access(0x8000, False, core=0, is_instruction=True)
        hierarchy.access(0x8000, False, core=0, is_instruction=True)
        assert hierarchy.l1i[0].stats.hits == 1
        assert hierarchy.l1d[0].stats.accesses == 0

    def test_flush_drains_dirty_lines(self):
        hierarchy = cotson_hierarchy()
        hierarchy.access(0x1000, True)
        events = hierarchy.flush()
        assert (0x1000 // 64, True) in events


class TestFilterTrace:
    def test_filtering_reduces_traffic(self):
        cpu = synthesize_cpu_trace(shared_pages=256, requests=50_000,
                                   seed=2)
        hierarchy = cotson_hierarchy()
        memory = filter_trace(cpu, hierarchy)
        assert len(memory) < len(cpu)
        assert hierarchy.stats.llc_filter_ratio > 0.2
        assert memory.name.endswith("-filtered")

    def test_filtered_trace_page_bounds(self):
        cpu = synthesize_cpu_trace(shared_pages=64, private_pages=16,
                                   requests=20_000, cores=4, seed=3)
        memory = filter_trace(cpu)
        max_page = 64 + 4 * 16
        assert int(np.asarray(memory.pages).max()) < max_page

    def test_write_back_changes_write_ratio(self):
        # post-LLC write ratio differs from the CPU-level ratio because
        # stores coalesce into eviction-time writebacks
        cpu = synthesize_cpu_trace(shared_pages=512, requests=50_000,
                                   write_ratio=0.5, seed=4)
        memory = filter_trace(cpu)
        assert memory.write_ratio < 0.5

    def test_flush_at_end_appends_writebacks(self):
        cpu = synthesize_cpu_trace(shared_pages=64, requests=5_000,
                                   write_ratio=0.5, seed=5)
        without = filter_trace(cpu, cotson_hierarchy())
        with_flush = filter_trace(cpu, cotson_hierarchy(),
                                  flush_at_end=True)
        assert len(with_flush) > len(without)

    def test_deterministic(self):
        cpu = synthesize_cpu_trace(requests=10_000, seed=6)
        first = filter_trace(cpu, cotson_hierarchy())
        second = filter_trace(cpu, cotson_hierarchy())
        assert first == second

    def test_out_of_range_core_rejected_before_any_access(self):
        cpu = CPUTrace([0, 64, 128], [False, True, False],
                       cores=[0, 1, COTSON_CORES])
        hierarchy = cotson_hierarchy()
        with pytest.raises(ValueError, match="out of range"):
            filter_trace(cpu, hierarchy)
        assert hierarchy.stats.cpu_accesses == 0

    @pytest.mark.parametrize("flush", [False, True])
    @pytest.mark.parametrize("chunk_size", [1, 7, 4096, None])
    def test_chunked_equals_whole(self, chunk_size, flush):
        cpu = synthesize_cpu_trace(shared_pages=64, private_pages=16,
                                   requests=2_000, write_ratio=0.4,
                                   seed=12)
        whole_hierarchy = cotson_hierarchy()
        whole = filter_trace(cpu, whole_hierarchy, flush_at_end=flush)
        chunked_hierarchy = cotson_hierarchy()
        chunks = list(filter_chunks(cpu.chunks(chunk_size),
                                    chunked_hierarchy, flush_at_end=flush))
        assert np.array_equal(
            np.concatenate([chunk.pages for chunk in chunks]), whole.pages)
        assert np.array_equal(
            np.concatenate([chunk.is_write for chunk in chunks]),
            whole.is_write)
        assert _counters(chunked_hierarchy) == _counters(whole_hierarchy)


#: Cache geometries the golden filter digests cover.
GEOMETRIES = {
    "cotson": cotson_hierarchy,
    "direct-mapped": lambda: CacheHierarchy(
        cores=4,
        l1_geometry=CacheGeometry(8192, 1),
        llc_geometry=CacheGeometry(65536, 1),
    ),
    "8-way": lambda: CacheHierarchy(
        cores=2,
        l1_geometry=CacheGeometry(16384, 8),
        llc_geometry=CacheGeometry(262144, 8),
    ),
    "single-set": lambda: CacheHierarchy(
        cores=3,
        l1_geometry=CacheGeometry(512, 8),
        llc_geometry=CacheGeometry(2048, 32),
    ),
}

#: sha256 of the filtered pages and write flags plus every hierarchy
#: and per-cache counter, per (geometry, flush_at_end).
FILTER_DIGESTS = {
    ("cotson", False): "33321671f86f7910ab45a0aeb8d7122849b111f20e223cac766d1b6a2b9f277a",
    ("cotson", True): "e487a2b169d38475f6cbbf99bcb0f5085b9f089c2b50492b209077207015141c",
    ("direct-mapped", False): "62c17e7c1a881f92341edde79a5bfcf57705cb43c052b238e6d6945f7e73074a",
    ("direct-mapped", True): "c1d8a5dc0573ac9713b87b1aa072655998e1153e76566d45ce7817f6f63c6027",
    ("8-way", False): "8bea2f707bf19dfe7aabdf1cbdeb05e56d3a5672e54f19c60b7d14bef30d073b",
    ("8-way", True): "8e1f5abfed0b45cbd15cb429f7699a3afb5f74d81bcaa24f1a505195f0e0d932",
    ("single-set", False): "72ccfce10f932cf549c5f2b0d44c349d946d81ccef3bf9e7b3284a0adfb02005",
    ("single-set", True): "eb33bcb0a98db92bb49a49a4f3b3179ad6b5d7927c202217634e783884c3924a",
}


def _counters(hierarchy: CacheHierarchy) -> list[dict[str, int]]:
    """Every hierarchy counter, then every per-cache counter."""
    caches = [*hierarchy.l1d, *hierarchy.l1i, hierarchy.llc]
    return [vars(hierarchy.stats)] + [vars(cache.stats) for cache in caches]


@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("flush", [False, True])
def test_filter_golden(geometry, flush):
    hierarchy = GEOMETRIES[geometry]()
    cpu = synthesize_cpu_trace(
        shared_pages=256, private_pages=64, requests=30_000,
        cores=hierarchy.cores, seed=11,
    )
    memory = filter_trace(cpu, hierarchy, flush_at_end=flush)
    digest = hashlib.sha256(memory.pages.astype("<i8").tobytes())
    digest.update(memory.is_write.tobytes())
    digest.update(json.dumps(_counters(hierarchy), sort_keys=True).encode())
    assert digest.hexdigest() == FILTER_DIGESTS[geometry, flush]


class TestSynthesizeCPUTrace:
    def test_basic_shape(self):
        cpu = synthesize_cpu_trace(requests=1000, cores=4, seed=7)
        assert len(cpu) == 1000
        assert cpu.core_count == 4
        assert isinstance(cpu, CPUTrace)

    def test_write_ratio(self):
        cpu = synthesize_cpu_trace(requests=50_000, write_ratio=0.25,
                                   seed=8)
        assert np.asarray(cpu.is_write).mean() == pytest.approx(0.25,
                                                                abs=0.02)

    def test_private_regions_disjoint_per_core(self):
        cpu = synthesize_cpu_trace(shared_pages=100, private_pages=10,
                                   requests=20_000, cores=2,
                                   shared_fraction=0.0, seed=9)
        pages = np.asarray(cpu.addresses) // 4096
        cores = np.asarray(cpu.cores)
        pages0 = set(pages[cores == 0].tolist())
        pages1 = set(pages[cores == 1].tolist())
        assert pages0.isdisjoint(pages1)

    def test_validation(self):
        with pytest.raises(ValueError):
            synthesize_cpu_trace(cores=0)
        with pytest.raises(ValueError):
            synthesize_cpu_trace(shared_fraction=1.5)
