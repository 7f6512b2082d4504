"""Tests for the PDRAM baseline (write-count migration, DAC 2009)."""

from __future__ import annotations

import pytest

from repro.analysis.sanitizer import SanitizedPolicy
from repro.memory.devices import dram_spec, hdd_spec, pcm_spec
from repro.memory.specs import HybridMemorySpec
from repro.mmu.manager import MemoryManager
from repro.mmu.page import PageLocation
from repro.mmu.simulator import simulate
from repro.policies.pdram import PDRAMPolicy
from repro.policies.registry import policy_factory
from repro.workloads.synthetic import zipf_workload


def _policy(dram=2, nvm=6, threshold=2):
    spec = HybridMemorySpec(
        dram=dram_spec(), nvm=pcm_spec(), disk=hdd_spec(),
        dram_pages=dram, nvm_pages=nvm,
    )
    mm = MemoryManager(spec)
    return PDRAMPolicy(mm, write_threshold=threshold), mm


class TestPDRAMMechanics:
    def test_fault_prefers_dram_then_nvm(self):
        policy, mm = _policy(dram=2)
        policy.access(1, False)
        policy.access(2, False)
        policy.access(3, False)  # DRAM full -> NVM
        assert mm.location_of(1) is PageLocation.DRAM
        assert mm.location_of(2) is PageLocation.DRAM
        assert mm.location_of(3) is PageLocation.NVM
        # unlike the proposed scheme, no demotion happens on a fault
        assert mm.accounting.migrations_to_nvm == 0
        policy.validate()

    def test_write_threshold_triggers_swap(self):
        policy, mm = _policy(dram=2, threshold=2)
        for page in (1, 2, 3):
            policy.access(page, False)
        policy.access(3, True)
        assert mm.location_of(3) is PageLocation.NVM  # 1 write < 2
        policy.access(3, True)
        assert mm.location_of(3) is PageLocation.DRAM  # threshold hit
        assert mm.accounting.migrations_to_dram == 1
        # a DRAM victim was pushed the other way (swap)
        assert mm.accounting.migrations_to_nvm == 1
        policy.validate()

    def test_reads_never_migrate(self):
        policy, mm = _policy(dram=2, threshold=1)
        for page in (1, 2, 3):
            policy.access(page, False)
        for _ in range(20):
            policy.access(3, False)
        assert mm.location_of(3) is PageLocation.NVM
        assert mm.accounting.migrations == 0

    def test_no_window_means_slow_writers_migrate(self):
        """The design difference vs the paper's scheme: PDRAM's counter
        never resets, so a page written rarely-but-steadily eventually
        migrates, even if the proposed scheme's window would have
        filtered it."""
        policy, mm = _policy(dram=2, nvm=8, threshold=4)
        for page in (1, 2, 3, 4, 5):
            policy.access(page, False)
        # page 3 (in NVM) takes one write between long runs of other
        # traffic that would expel it from any position window
        for _ in range(4):
            policy.access(3, True)
            for page in (4, 5):
                for _ in range(5):
                    policy.access(page, False)
        assert mm.location_of(3) is PageLocation.DRAM
        policy.validate()

    def test_validation_errors(self):
        spec = HybridMemorySpec(
            dram=dram_spec(), nvm=pcm_spec(), disk=hdd_spec(),
            dram_pages=0, nvm_pages=4,
        )
        with pytest.raises(ValueError):
            PDRAMPolicy(MemoryManager(spec))
        with pytest.raises(ValueError):
            _policy(threshold=0)


class TestPDRAMBehaviour:
    def test_registered_and_runs_end_to_end(self, zipf_trace):
        spec = HybridMemorySpec.for_footprint(zipf_trace.unique_pages)
        factory = policy_factory("pdram")
        result = simulate(
            zipf_trace, spec,
            lambda mm: SanitizedPolicy(factory(mm), deep_every=1000),
            sanitize=False)
        assert result.policy == "pdram"
        assert result.accounting.total_requests == len(zipf_trace)

    def test_more_promotions_than_proposed_on_scattered_writes(self):
        """Without the counter window, scattered writes accumulate and
        PDRAM migrates pages the proposed scheme leaves in place."""
        trace = zipf_workload(pages=400, requests=40_000, alpha=0.9,
                              write_ratio=0.3, seed=5)
        spec = HybridMemorySpec.for_footprint(trace.unique_pages)
        pdram = simulate(trace, spec, policy_factory("pdram"))
        proposed = simulate(trace, spec, policy_factory("proposed"))
        assert pdram.accounting.migrations_to_dram > \
            proposed.accounting.migrations_to_dram
