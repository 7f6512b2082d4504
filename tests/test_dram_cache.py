"""Tests for DRAM-copy support in the manager and the DRAM-cache policy."""

from __future__ import annotations

import pytest

from repro.analysis.sanitizer import SanitizedPolicy
from repro.memory.devices import dram_spec, hdd_spec, pcm_spec
from repro.memory.specs import HybridMemorySpec
from repro.mmu.manager import MemoryManager
from repro.mmu.page import PageLocation
from repro.mmu.simulator import simulate
from repro.policies.dram_cache import DramCachePolicy
from repro.policies.registry import policy_factory
from repro.workloads.synthetic import scan_loop_workload, zipf_workload


def _mm(dram=2, nvm=6) -> MemoryManager:
    return MemoryManager(HybridMemorySpec(
        dram=dram_spec(), nvm=pcm_spec(), disk=hdd_spec(),
        dram_pages=dram, nvm_pages=nvm,
    ))


class TestManagerCopies:
    def _resident_nvm_page(self, mm, page=1, is_write=False):
        mm.record_request(is_write)
        mm.fault_fill(page, PageLocation.NVM, is_write)
        return page

    def test_create_copy_charges_a_fill(self):
        mm = _mm()
        page = self._resident_nvm_page(mm)
        mm.create_copy(page)
        entry = mm.page_table.lookup(page)
        assert entry.has_copy
        assert mm.dram.used == 1
        assert mm.accounting.migrations_to_dram == 1
        mm.validate()

    def test_copied_page_hits_count_as_dram(self):
        mm = _mm()
        page = self._resident_nvm_page(mm)
        mm.create_copy(page)
        mm.record_request(False)
        mm.serve_hit(page, False)
        mm.record_request(True)
        mm.serve_hit(page, True)
        assert mm.accounting.dram_read_hits == 1
        assert mm.accounting.dram_write_hits == 1
        assert mm.accounting.nvm_hits == 0
        # the write dirtied the copy, not NVM
        assert mm.page_table.lookup(page).copy_dirty
        assert mm.wear.request_writes == 0

    def test_drop_clean_copy_is_free(self):
        mm = _mm()
        page = self._resident_nvm_page(mm)
        mm.create_copy(page)
        assert mm.drop_copy(page) is False
        assert mm.accounting.migrations_to_nvm == 0
        assert mm.dram.used == 0
        mm.validate()

    def test_drop_dirty_copy_writes_back(self):
        mm = _mm()
        page = self._resident_nvm_page(mm)
        mm.create_copy(page)
        mm.record_request(True)
        mm.serve_hit(page, True)
        assert mm.drop_copy(page) is True
        assert mm.accounting.migrations_to_nvm == 1
        assert mm.wear.migration_writes == mm.spec.page_factor
        mm.validate()

    def test_guards(self):
        mm = _mm()
        page = self._resident_nvm_page(mm)
        with pytest.raises(KeyError):
            mm.drop_copy(page)  # no copy yet
        mm.create_copy(page)
        with pytest.raises(ValueError):
            mm.create_copy(page)  # double copy
        with pytest.raises(ValueError):
            mm.migrate(page, PageLocation.DRAM)  # copied pages pinned
        with pytest.raises(ValueError):
            mm.evict_to_disk(page)  # must drop the copy first
        mm.record_request(True)
        mm.fault_fill(2, PageLocation.DRAM, True)
        with pytest.raises(ValueError):
            mm.create_copy(2)  # only NVM pages can be cached

    def test_copy_of_missing_page_rejected(self):
        mm = _mm()
        with pytest.raises(KeyError):
            mm.create_copy(42)


class TestDramCachePolicy:
    def test_fault_fills_nvm_and_caches(self):
        mm = _mm(dram=2, nvm=4)
        policy = DramCachePolicy(mm)
        policy.access(1, False)
        entry = mm.page_table.lookup(1)
        assert entry.location is PageLocation.NVM
        assert entry.has_copy
        policy.validate()

    def test_repeated_hits_served_from_dram(self):
        mm = _mm(dram=2, nvm=4)
        policy = DramCachePolicy(mm)
        policy.access(1, False)
        for _ in range(5):
            policy.access(1, False)
        assert mm.accounting.dram_read_hits == 5
        assert mm.accounting.nvm_hits == 0

    def test_cache_eviction_is_lru(self):
        mm = _mm(dram=2, nvm=6)
        policy = DramCachePolicy(mm)
        for page in (1, 2, 3):
            policy.access(page, False)
        cached = {
            entry.page for entry in mm.page_table.entries()
            if entry.has_copy
        }
        assert cached == {2, 3}
        policy.validate()

    def test_dirty_copy_eviction_writes_nvm(self):
        mm = _mm(dram=1, nvm=6)
        policy = DramCachePolicy(mm)
        policy.access(1, True)   # fault; cached; copy dirty? fault fill
        policy.access(1, True)   # write hit in cache -> dirty copy
        migrations_before = mm.accounting.migrations_to_nvm
        policy.access(2, False)  # evicts page 1's dirty copy
        assert mm.accounting.migrations_to_nvm == migrations_before + 1
        policy.validate()

    def test_capacity_is_nvm_only(self, zipf_trace):
        """Inclusion halves nothing but does cost capacity: resident
        pages are bounded by NVM frames, unlike migration policies that
        use DRAM + NVM."""
        spec = HybridMemorySpec.for_footprint(zipf_trace.unique_pages)
        cache_run = simulate(zipf_trace, spec, policy_factory("dram-cache"))
        migration_run = simulate(zipf_trace, spec,
                                 policy_factory("proposed"))
        assert cache_run.hit_ratio <= migration_run.hit_ratio + 1e-9

    def test_low_locality_loop_hurts_cache(self):
        """Section III: "if the locality of the requests drops below a
        threshold, the performance of the cache will be decreased" —
        on a loop larger than the DRAM cache, every access misses the
        cache and pays fill traffic."""
        trace = scan_loop_workload(pages=100, window=100,
                                   requests=20_000, seed=4)
        # the loop fits entirely in NVM, but not in the DRAM cache
        spec = HybridMemorySpec(
            dram=dram_spec(), nvm=pcm_spec(), disk=hdd_spec(),
            dram_pages=12, nvm_pages=120,
        )
        cache_run = simulate(trace, spec, policy_factory("dram-cache"))
        proposed_run = simulate(trace, spec, policy_factory("proposed"))
        # the cache constantly refills (one migration-equivalent per
        # access), the proposed scheme's thresholds stay quiet
        assert cache_run.accounting.migrations_to_dram > \
            10 * max(proposed_run.accounting.migrations_to_dram, 1)
        assert cache_run.performance.memory_time > \
            proposed_run.performance.memory_time

    def test_requires_both_modules(self):
        spec = HybridMemorySpec(
            dram=dram_spec(), nvm=pcm_spec(), disk=hdd_spec(),
            dram_pages=0, nvm_pages=4,
        )
        with pytest.raises(ValueError):
            DramCachePolicy(MemoryManager(spec))

    def test_full_run_validates(self):
        trace = zipf_workload(pages=128, requests=10_000, seed=6)
        spec = HybridMemorySpec.for_footprint(trace.unique_pages)
        factory = policy_factory("dram-cache")
        result = simulate(
            trace, spec,
            lambda mm: SanitizedPolicy(factory(mm), deep_every=333),
            sanitize=False)
        result.accounting.validate()
