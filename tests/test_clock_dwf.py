"""Behavioural tests for CLOCK-DWF."""

from __future__ import annotations

import pytest

from repro.memory.devices import dram_spec, hdd_spec, pcm_spec
from repro.memory.specs import HybridMemorySpec
from repro.mmu.manager import MemoryManager
from repro.mmu.page import PageLocation
from repro.policies.clock_dwf import ClockDWFPolicy, WriteHistoryClock
from repro.policies.replacement import ClockReplacement


def _policy(dram=2, nvm=4):
    spec = HybridMemorySpec(
        dram=dram_spec(), nvm=pcm_spec(), disk=hdd_spec(),
        dram_pages=dram, nvm_pages=nvm,
    )
    mm = MemoryManager(spec)
    return ClockDWFPolicy(mm), mm


class TestWriteHistoryClock:
    def test_write_history_protects_pages(self):
        clock = WriteHistoryClock(3)
        clock.insert(1, written=False)
        clock.insert(2, written=True)
        clock.insert(3, written=False)
        # page 2 arrived written (freq 1); 1 and 3 are read-dominant
        assert clock.evict() in (1, 3)
        assert 2 in clock

    def test_write_hits_deepen_history(self):
        clock = WriteHistoryClock(2, max_write_freq=4)
        clock.insert(1, written=True)
        clock.insert(2, written=True)
        for _ in range(10):
            clock.hit(1, is_write=True)  # saturates at 4
        # evict decays freq; page 2 (freq 1) runs out first
        assert clock.evict() == 2
        assert 1 in clock

    def test_read_hits_do_not_protect(self):
        clock = WriteHistoryClock(2)
        clock.insert(1, written=False)
        clock.insert(2, written=False)
        clock.hit(1, is_write=False)
        assert clock.evict() == 1  # reads grant no extra chances

    def test_capacity_and_errors(self):
        clock = WriteHistoryClock(1)
        clock.insert(1, written=False)
        with pytest.raises(MemoryError):
            clock.insert(2, written=False)
        assert clock.full
        roomy = WriteHistoryClock(2)
        roomy.insert(1, written=False)
        with pytest.raises(KeyError):
            roomy.insert(1, written=True)


class TestClockDWFPlacement:
    def test_write_fault_fills_dram(self):
        policy, mm = _policy()
        policy.access(1, True)
        assert mm.location_of(1) is PageLocation.DRAM
        policy.validate()

    def test_read_fault_fills_dram_while_free(self):
        # the free-DRAM exception (paper's blackscholes observation)
        policy, mm = _policy(dram=2)
        policy.access(1, False)
        assert mm.location_of(1) is PageLocation.DRAM

    def test_read_fault_fills_nvm_when_dram_full(self):
        policy, mm = _policy(dram=1)
        policy.access(1, False)  # fills the single DRAM frame
        policy.access(2, False)
        assert mm.location_of(2) is PageLocation.NVM
        assert mm.accounting.faults_filled_nvm == 1
        policy.validate()

    def test_write_fault_demotes_dram_victim(self):
        policy, mm = _policy(dram=1)
        policy.access(1, False)
        policy.access(2, True)  # write fault -> DRAM; 1 demoted to NVM
        assert mm.location_of(2) is PageLocation.DRAM
        assert mm.location_of(1) is PageLocation.NVM
        assert mm.accounting.migrations_to_nvm == 1


class TestClockDWFWriteHandling:
    def test_nvm_never_serves_writes(self):
        policy, mm = _policy(dram=1)
        policy.access(1, False)
        policy.access(2, False)  # 2 in NVM
        policy.access(2, True)   # write -> must migrate to DRAM
        assert mm.location_of(2) is PageLocation.DRAM
        assert mm.accounting.nvm_write_hits == 0
        assert mm.accounting.migrations_to_dram == 1
        # the displaced DRAM page went the other way
        assert mm.location_of(1) is PageLocation.NVM
        assert mm.accounting.migrations_to_nvm == 1
        policy.validate()

    def test_nvm_read_served_in_place(self):
        policy, mm = _policy(dram=1)
        policy.access(1, False)
        policy.access(2, False)
        policy.access(2, False)
        assert mm.location_of(2) is PageLocation.NVM
        assert mm.accounting.nvm_read_hits == 1

    def test_write_pingpong_generates_migrations(self):
        """The paper's central criticism: alternating writes to
        NVM-resident pages trigger one migration pair per write."""
        policy, mm = _policy(dram=1, nvm=4)
        for page in (1, 2, 3):
            policy.access(page, False)
        migrations_before = mm.accounting.migrations
        # pages 2 and 3 are in NVM; write them alternately
        for _ in range(3):
            policy.access(2, True)
            policy.access(3, True)
        migrations = mm.accounting.migrations - migrations_before
        assert migrations >= 10  # ~2 migrations per write
        policy.validate()

    def test_dram_write_hit_is_free(self):
        policy, mm = _policy()
        policy.access(1, True)
        policy.access(1, True)
        assert mm.accounting.dram_write_hits == 1
        assert mm.accounting.migrations == 0


class TestClockDWFRequiresHybrid:
    def test_rejects_single_module_specs(self):
        spec = HybridMemorySpec(
            dram=dram_spec(), nvm=pcm_spec(), disk=hdd_spec(),
            dram_pages=0, nvm_pages=4,
        )
        with pytest.raises(ValueError):
            ClockDWFPolicy(MemoryManager(spec))


def _clock_state(clock) -> list:
    node, state = clock._hand, []
    for _ in range(len(clock)):
        state.append((node.page, getattr(node, "write_freq", None),
                      getattr(node, "referenced", None)))
        node = node.next
    return state


@pytest.mark.parametrize("make, insert", [
    (lambda: WriteHistoryClock(5), lambda c, page: c.insert(page, page % 2)),
    (lambda: ClockReplacement(5), lambda c, page: c.insert(page)),
])
@pytest.mark.parametrize("size", [1, 3, 5])
def test_replace_is_evict_then_insert(make, insert, size):
    """The incoming page takes the victim's slot, behind the hand."""
    fused, stepwise = make(), make()
    for clock in (fused, stepwise):
        for page in range(size):
            insert(clock, page)
        clock.hit(size - 1, True)
        if size > 1:
            clock.evict()
            insert(clock, 100)
    for page in range(200, 206):
        victim = stepwise.evict()
        insert(stepwise, page)
        if isinstance(fused, WriteHistoryClock):
            assert fused.replace(page, bool(page % 2)) == victim
        else:
            assert fused.replace(page) == victim
        assert _clock_state(fused) == _clock_state(stepwise)
