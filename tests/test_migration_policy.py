"""Behavioural tests for the proposed scheme (Algorithm 1)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptive import AdaptiveMigrationPolicy
from repro.core.config import MigrationConfig
from repro.core.migration import MigrationLRUPolicy
from repro.memory.devices import dram_spec, hdd_spec, pcm_spec
from repro.memory.specs import HybridMemorySpec
from repro.mmu.manager import MemoryManager
from repro.mmu.page import PageLocation
from repro.mmu.simulator import HybridMemorySimulator
from repro.policies.variants import EagerMigrationPolicy
from repro.trace.trace import Trace


def _policy(dram=2, nvm=6, **config_kwargs):
    spec = HybridMemorySpec(
        dram=dram_spec(), nvm=pcm_spec(), disk=hdd_spec(),
        dram_pages=dram, nvm_pages=nvm,
    )
    defaults = dict(
        read_window_fraction=1.0,
        write_window_fraction=1.0,
        read_threshold=2,
        write_threshold=1,
    )
    defaults.update(config_kwargs)
    mm = MemoryManager(spec)
    policy = MigrationLRUPolicy(mm, MigrationConfig(**defaults))
    return policy, mm


class TestFaultPath:
    def test_faults_fill_dram(self):
        policy, mm = _policy()
        policy.access(1, False)
        assert mm.location_of(1) is PageLocation.DRAM
        assert mm.accounting.faults_filled_dram == 1
        assert mm.accounting.faults_filled_nvm == 0
        policy.validate()

    def test_read_fault_also_fills_dram(self):
        # contrast with CLOCK-DWF, which sends read faults to NVM
        policy, mm = _policy()
        policy.access(1, False)
        policy.access(2, True)
        assert mm.location_of(1) is PageLocation.DRAM
        assert mm.location_of(2) is PageLocation.DRAM

    def test_dram_overflow_demotes_lru_to_nvm(self):
        policy, mm = _policy(dram=2)
        for page in (1, 2, 3):
            policy.access(page, False)
        assert mm.location_of(1) is PageLocation.NVM  # LRU demoted
        assert mm.location_of(2) is PageLocation.DRAM
        assert mm.location_of(3) is PageLocation.DRAM
        assert mm.accounting.migrations_to_nvm == 1
        policy.validate()

    def test_nvm_overflow_evicts_to_disk(self):
        policy, mm = _policy(dram=1, nvm=1)
        for page in (1, 2, 3):
            policy.access(page, False)
        # page 1 was demoted to NVM, then evicted to disk by page 2's
        # demotion when page 3 faulted in
        assert mm.location_of(1) is PageLocation.DISK
        assert mm.accounting.evictions_to_disk == 1
        policy.validate()

    def test_demoted_page_enters_nvm_queue_head(self):
        policy, mm = _policy(dram=1, nvm=3)
        for page in (1, 2, 3):
            policy.access(page, False)
        # demotion order: 1 then 2; NVM queue MRU-first must be [2, 1]
        assert policy.nvm_lru.pages() == [2, 1]


class TestNVMHitPath:
    def test_nvm_hit_served_in_place(self):
        policy, mm = _policy(read_threshold=100, write_threshold=100)
        policy.access(1, False)
        policy.access(2, False)
        policy.access(3, False)  # dram=2 -> page 1 now in NVM
        policy.access(1, True)   # write hit in NVM, no promotion
        assert mm.location_of(1) is PageLocation.NVM
        assert mm.accounting.nvm_write_hits == 1
        assert mm.accounting.migrations_to_dram == 0

    def test_promotion_after_threshold_reads(self):
        policy, mm = _policy(read_threshold=2)
        policy.access(1, False)
        policy.access(2, False)
        policy.access(3, False)  # 1 demoted to NVM
        for _ in range(2):
            policy.access(1, False)
        assert mm.location_of(1) is PageLocation.NVM  # counter == threshold
        policy.access(1, False)  # counter exceeds threshold
        assert mm.location_of(1) is PageLocation.DRAM
        assert mm.accounting.migrations_to_dram == 1
        policy.validate()

    def test_promotion_after_threshold_writes(self):
        policy, mm = _policy(write_threshold=1)
        policy.access(1, False)
        policy.access(2, False)
        policy.access(3, False)
        policy.access(1, True)
        assert mm.location_of(1) is PageLocation.NVM
        policy.access(1, True)
        assert mm.location_of(1) is PageLocation.DRAM

    def test_write_priority_promotes_sooner(self):
        # write threshold below read threshold: the same number of
        # writes promotes while reads do not
        policy, mm = _policy(read_threshold=5, write_threshold=1)
        policy.access(1, False)
        policy.access(2, False)
        policy.access(3, False)
        policy.access(1, False)
        policy.access(1, False)
        assert mm.location_of(1) is PageLocation.NVM
        policy.access(1, True)
        policy.access(1, True)
        assert mm.location_of(1) is PageLocation.DRAM

    def test_promotion_with_full_dram_swaps(self):
        policy, mm = _policy(dram=2, read_threshold=1)
        for page in (1, 2, 3):
            policy.access(page, False)  # DRAM {2,3}, NVM {1}
        policy.access(1, False)
        policy.access(1, False)  # promote 1; DRAM full -> swap with LRU 2
        assert mm.location_of(1) is PageLocation.DRAM
        assert mm.location_of(2) is PageLocation.NVM
        assert mm.accounting.migrations_to_dram == 1
        assert mm.accounting.migrations_to_nvm == 2  # demote on fault + swap
        policy.validate()

    def test_counter_resets_on_window_exit(self):
        # window covers only the top position; deeper pages lose their
        # counters, so alternating pages never accumulate to threshold
        policy, mm = _policy(
            dram=1, nvm=4,
            read_window_fraction=0.25,  # 1 page of 4
            read_threshold=2,
        )
        for page in (1, 2, 3, 4):
            policy.access(page, False)
        # NVM holds 3 pages; alternate accesses between two of them
        nvm_pages = policy.nvm_lru.pages()
        a, b = nvm_pages[0], nvm_pages[1]
        for _ in range(6):
            policy.access(a, False)
            policy.access(b, False)
        # neither should ever pass a threshold of 2 because each access
        # to one page pushes the other out of the 1-page window
        assert mm.location_of(a) is PageLocation.NVM
        assert mm.location_of(b) is PageLocation.NVM
        assert mm.accounting.migrations_to_dram == 0
        policy.validate()

    def test_burst_within_window_promotes(self):
        policy, mm = _policy(
            dram=1, nvm=4, read_window_fraction=0.25, read_threshold=2
        )
        for page in (1, 2, 3, 4):
            policy.access(page, False)
        victim = policy.nvm_lru.pages()[0]
        for _ in range(3):
            policy.access(victim, False)
        assert mm.location_of(victim) is PageLocation.DRAM


class TestDramHitPath:
    def test_dram_hit_is_plain_lru(self):
        policy, mm = _policy()
        policy.access(1, False)
        policy.access(2, False)
        policy.access(1, False)
        assert policy.dram_lru.pages() == [1, 2]
        assert mm.accounting.dram_read_hits == 1

    def test_zero_threshold_promotes_on_first_hit(self):
        policy, mm = _policy(read_threshold=0)
        policy.access(1, False)
        policy.access(2, False)
        policy.access(3, False)
        policy.access(1, False)  # counter 1 > 0 -> immediate promote
        assert mm.location_of(1) is PageLocation.DRAM


class TestHitRatioPreservation:
    def test_almost_same_hit_ratio_as_global_lru(self, zipf_trace):
        """Section IV: "the proposed scheme will have almost the same
        hit ratio as an unmodified LRU".  It is not *exactly* LRU — an
        NVM hit refreshes the page within the NVM queue but does not
        lift it above the DRAM residents — so we assert the hit counts
        agree within 1%."""
        from repro.policies.replacement import LRUReplacement

        spec = HybridMemorySpec.for_footprint(zipf_trace.unique_pages)
        mm = MemoryManager(spec)
        policy = MigrationLRUPolicy(mm, MigrationConfig(
            read_window_fraction=0.0, write_window_fraction=0.0,
            read_threshold=1 << 40, write_threshold=1 << 40,
        ))
        global_lru = LRUReplacement(spec.total_pages)
        lru_hits = 0
        for page, is_write in zipf_trace.iter_pairs():
            policy.access(page, is_write)
            if page in global_lru:
                global_lru.hit(page)
                lru_hits += 1
            else:
                if global_lru.full:
                    global_lru.evict()
                global_lru.insert(page)
        assert mm.accounting.hits == pytest.approx(lru_hits, rel=0.01)


# ----------------------------------------------------------------------
# Threshold boxes: every pair inside one replays the run bit for bit
# ----------------------------------------------------------------------
def _box_run(trace, machine, config, warmup):
    """A run's result dict and threshold box, the same through the
    batched kernel and the per-request path (unsanitized: the
    sanitizer's wrapper hides the policy's own record)."""
    runs = []
    for batch in (True, False):
        simulator = HybridMemorySimulator(
            machine, lambda mm: MigrationLRUPolicy(mm, config),
            sanitize=False, batch=batch)
        result = simulator.run(trace, warmup_fraction=warmup)
        runs.append((result.to_dict(), simulator.policy.threshold_box()))
    assert runs[0] == runs[1]
    return runs[0]


_WINDOWS = st.sampled_from((0.0, 0.2, 0.5, 1.0))


@settings(max_examples=200, deadline=None)
@given(
    requests=st.lists(st.tuples(st.integers(0, 11), st.booleans()),
                      min_size=1, max_size=300),
    dram=st.integers(1, 4),
    nvm=st.integers(1, 10),
    windows=st.tuples(_WINDOWS, _WINDOWS),
    warmup=st.sampled_from((0.0, 0.3, 0.7)),
    thresholds=st.tuples(st.integers(0, 6), st.integers(0, 6)),
    data=st.data(),
)
def test_a_pair_inside_the_box_replays_identically(
        requests, dram, nvm, windows, warmup, thresholds, data):
    trace = Trace.from_pairs(requests, name="box")
    machine = HybridMemorySpec(
        dram=dram_spec(), nvm=pcm_spec(), disk=hdd_spec(),
        dram_pages=dram, nvm_pages=nvm,
    )
    config = MigrationConfig(*windows, *thresholds)
    payload, box = _box_run(trace, machine, config, warmup)
    for (lo, hi), own in zip(box, thresholds):
        assert lo <= own <= hi
    # An open upper end is drawn up to a few steps past the peak.
    read, write = (
        data.draw(st.integers(int(lo), int(min(hi, lo + 8))))
        for lo, hi in box
    )
    other = MigrationConfig(*windows, read, write)
    assert _box_run(trace, machine, other, warmup) == (payload, box)


class TestThresholdBox:
    def test_a_run_without_nvm_hits_has_an_open_box(self):
        policy, _ = _policy(dram=4)
        for page in (1, 2, 1, 2):
            policy.access(page, False)
        assert policy.threshold_box() == ((0, math.inf), (0, math.inf))

    def test_a_promotion_closes_its_direction(self):
        # Read threshold 2: page 1's read counter is compared at 1 and
        # 2 without promoting, then promotes at 3.
        policy, _ = _policy(dram=1, nvm=6)
        policy.access(1, False)          # fault into DRAM
        policy.access(2, False)          # demotes 1 to NVM
        for _ in range(3):
            policy.access(1, False)
        assert policy.threshold_box() == ((2, 2), (0, math.inf))

    def test_only_the_stock_machinery_qualifies(self):
        assert MigrationLRUPolicy.decides_by_threshold_box()
        assert EagerMigrationPolicy.decides_by_threshold_box()
        # Its hooks retune the thresholds mid-run.
        assert not AdaptiveMigrationPolicy.decides_by_threshold_box()
