"""Tests for the memory-management layer: frames, page table, DMA,
and the MemoryManager's operation/accounting contract."""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.mmu.dma import Channel, DMAEngine, channel
from repro.mmu.frames import FrameAllocator
from repro.mmu.manager import MemoryManager
from repro.mmu.page import PageLocation, PageTableEntry
from repro.mmu.page_table import PageTable


class TestFrameAllocator:
    def test_allocate_until_full(self):
        alloc = FrameAllocator(2)
        first, second = alloc.allocate(), alloc.allocate()
        assert first != second
        assert alloc.full
        with pytest.raises(MemoryError):
            alloc.allocate()

    def test_release_recycles(self):
        alloc = FrameAllocator(1)
        frame = alloc.allocate()
        alloc.release(frame)
        assert alloc.allocate() == frame

    def test_release_unallocated_rejected(self):
        alloc = FrameAllocator(4)
        with pytest.raises(ValueError):
            alloc.release(0)

    def test_counters(self):
        alloc = FrameAllocator(3)
        assert alloc.empty
        alloc.allocate()
        assert alloc.used == 1
        assert alloc.free_count == 2
        assert not alloc.full

    def test_zero_capacity(self):
        alloc = FrameAllocator(0)
        assert alloc.full
        with pytest.raises(MemoryError):
            alloc.allocate()


class TestPageTable:
    def test_insert_lookup_remove(self):
        table = PageTable()
        entry = PageTableEntry(page=5, location=PageLocation.DRAM, frame=0)
        table.insert(entry)
        assert table.lookup(5) is entry
        assert 5 in table
        assert len(table) == 1
        removed = table.remove(5)
        assert removed is entry
        assert table.lookup(5) is None

    def test_double_insert_rejected(self):
        table = PageTable()
        table.insert(PageTableEntry(1, PageLocation.NVM, 0))
        with pytest.raises(KeyError):
            table.insert(PageTableEntry(1, PageLocation.DRAM, 1))

    def test_disk_entries_rejected(self):
        with pytest.raises(ValueError):
            PageTable().insert(PageTableEntry(1, PageLocation.DISK, 0))

    def test_remove_missing_rejected(self):
        with pytest.raises(KeyError):
            PageTable().remove(3)

    def test_pages_in_location(self):
        table = PageTable()
        table.insert(PageTableEntry(1, PageLocation.DRAM, 0))
        table.insert(PageTableEntry(2, PageLocation.NVM, 0))
        table.insert(PageTableEntry(3, PageLocation.NVM, 1))
        assert table.pages_in(PageLocation.DRAM) == [1]
        assert sorted(table.pages_in(PageLocation.NVM)) == [2, 3]

    def test_mark_access_sets_dirty_on_write(self):
        entry = PageTableEntry(1, PageLocation.DRAM, 0)
        entry.mark_access(is_write=False)
        assert not entry.dirty
        entry.mark_access(is_write=True)
        assert entry.dirty
        assert entry.access_count == 2
        assert entry.write_count == 1


class TestDMAEngine:
    def test_transfer_counting(self):
        dma = DMAEngine(page_size=4096)
        dma.transfer_page(PageLocation.DISK, PageLocation.DRAM)
        dma.transfer_page(PageLocation.DRAM, PageLocation.NVM)
        dma.transfer_page(PageLocation.DRAM, PageLocation.NVM)
        assert dma.total_pages_moved == 3
        assert dma.pages_moved(source=PageLocation.DRAM) == 2
        assert dma.pages_moved(destination=PageLocation.DRAM) == 1
        assert dma.bytes_moved(PageLocation.DRAM, PageLocation.NVM) == 8192

    def test_self_transfer_rejected(self):
        dma = DMAEngine(page_size=4096)
        with pytest.raises(ValueError):
            dma.transfer_page(PageLocation.DRAM, PageLocation.DRAM)

    def test_summary_keys(self):
        dma = DMAEngine(page_size=4096)
        dma.transfer_page(PageLocation.NVM, PageLocation.DISK)
        assert dma.summary() == {"NVM->DISK": 1}

    def test_channel_str(self):
        channel = Channel(PageLocation.DISK, PageLocation.NVM)
        assert str(channel) == "DISK->NVM"

    def test_channels_are_interned(self):
        disk_nvm = Channel(PageLocation.DISK, PageLocation.NVM)
        assert Channel(PageLocation.DISK, PageLocation.NVM) is disk_nvm
        assert channel(PageLocation.DISK, PageLocation.NVM) is disk_nvm
        assert copy.deepcopy(disk_nvm) is disk_nvm
        assert pickle.loads(pickle.dumps(disk_nvm)) is disk_nvm
        with pytest.raises(AttributeError):
            disk_nvm.source = PageLocation.DRAM
        with pytest.raises(ValueError):
            Channel(PageLocation.DRAM, PageLocation.DRAM)

    def test_a_constructed_channel_reads_the_transfer_log(self):
        dma = DMAEngine(page_size=4096)
        dma.transfer_page(PageLocation.DRAM, PageLocation.NVM)
        assert dma.transfers[Channel(PageLocation.DRAM, PageLocation.NVM)] == 1


class TestMemoryManager:
    def test_fault_fill_accounting(self, small_spec):
        mm = MemoryManager(small_spec)
        mm.record_request(False)
        mm.fault_fill(7, PageLocation.DRAM, is_write=False)
        assert mm.location_of(7) is PageLocation.DRAM
        assert mm.accounting.read_faults == 1
        assert mm.accounting.faults_filled_dram == 1
        assert mm.dram.used == 1
        mm.validate()

    def test_fault_fill_nvm_records_wear(self, small_spec):
        mm = MemoryManager(small_spec)
        mm.record_request(True)
        mm.fault_fill(3, PageLocation.NVM, is_write=True)
        assert mm.wear.fault_fill_writes == small_spec.page_factor
        assert mm.page_table.lookup(3).dirty

    def test_double_fill_rejected(self, small_spec):
        mm = MemoryManager(small_spec)
        mm.record_request(False)
        mm.fault_fill(1, PageLocation.DRAM, False)
        with pytest.raises(KeyError):
            mm.fault_fill(1, PageLocation.NVM, False)

    def test_serve_hit_directions(self, small_spec):
        mm = MemoryManager(small_spec)
        for page, loc in ((1, PageLocation.DRAM), (2, PageLocation.NVM)):
            mm.record_request(False)
            mm.fault_fill(page, loc, False)
        mm.record_request(False)
        mm.serve_hit(1, False)
        mm.record_request(True)
        mm.serve_hit(1, True)
        mm.record_request(True)
        mm.serve_hit(2, True)
        acct = mm.accounting
        assert acct.dram_read_hits == 1
        assert acct.dram_write_hits == 1
        assert acct.nvm_write_hits == 1
        # the NVM write hit is one line write of wear
        assert mm.wear.request_writes == 1
        mm.validate()

    def test_serve_hit_missing_page_rejected(self, small_spec):
        mm = MemoryManager(small_spec)
        with pytest.raises(KeyError):
            mm.serve_hit(99, False)

    def test_migrate_moves_and_counts(self, small_spec):
        mm = MemoryManager(small_spec)
        mm.record_request(True)
        mm.fault_fill(1, PageLocation.DRAM, True)
        mm.migrate(1, PageLocation.NVM)
        assert mm.location_of(1) is PageLocation.NVM
        assert mm.accounting.migrations_to_nvm == 1
        assert mm.wear.migration_writes == small_spec.page_factor
        assert mm.dram.used == 0 and mm.nvm.used == 1
        # dirty state survives migration
        assert mm.page_table.lookup(1).dirty
        mm.validate()

    def test_migrate_to_same_location_rejected(self, small_spec):
        mm = MemoryManager(small_spec)
        mm.record_request(False)
        mm.fault_fill(1, PageLocation.DRAM, False)
        with pytest.raises(ValueError):
            mm.migrate(1, PageLocation.DRAM)

    def test_swap_exchanges_modules(self, small_spec):
        mm = MemoryManager(small_spec)
        mm.record_request(False)
        mm.fault_fill(1, PageLocation.DRAM, False)
        mm.record_request(False)
        mm.fault_fill(2, PageLocation.NVM, False)
        mm.swap(2, 1)
        assert mm.location_of(2) is PageLocation.DRAM
        assert mm.location_of(1) is PageLocation.NVM
        assert mm.accounting.migrations_to_dram == 1
        assert mm.accounting.migrations_to_nvm == 1
        mm.validate()

    def test_swap_same_module_rejected(self, small_spec):
        mm = MemoryManager(small_spec)
        for page in (1, 2):
            mm.record_request(False)
            mm.fault_fill(page, PageLocation.NVM, False)
        with pytest.raises(ValueError):
            mm.swap(1, 2)

    def test_evict_dirty_writes_back(self, small_spec):
        mm = MemoryManager(small_spec)
        mm.record_request(True)
        mm.fault_fill(1, PageLocation.DRAM, True)
        mm.evict_to_disk(1)
        assert mm.accounting.dirty_evictions == 1
        assert mm.location_of(1) is PageLocation.DISK
        assert mm.dram.used == 0
        mm.validate()

    def test_evict_clean(self, small_spec):
        mm = MemoryManager(small_spec)
        mm.record_request(False)
        mm.fault_fill(1, PageLocation.NVM, False)
        mm.evict_to_disk(1)
        assert mm.accounting.clean_evictions == 1

    def test_reset_accounting_keeps_contents(self, small_spec):
        mm = MemoryManager(small_spec)
        mm.record_request(False)
        mm.fault_fill(1, PageLocation.DRAM, False)
        mm.reset_accounting()
        assert mm.accounting.total_requests == 0
        assert mm.location_of(1) is PageLocation.DRAM
        mm.validate()  # fill-credit keeps the invariant satisfied
        # post-reset activity still validates
        mm.record_request(False)
        mm.serve_hit(1, False)
        mm.validate()

    def test_capacity_exhaustion_raises(self, small_spec):
        mm = MemoryManager(small_spec)
        for page in range(small_spec.dram_pages):
            mm.record_request(False)
            mm.fault_fill(page, PageLocation.DRAM, False)
        mm.record_request(False)
        with pytest.raises(MemoryError):
            mm.fault_fill(99, PageLocation.DRAM, False)


def _misuse_manager(spec) -> MemoryManager:
    """DRAM full (pages 1-3 plus page 11's copy), NVM holding 10-12,
    and a recycled frame on each free list."""
    mm = MemoryManager(spec)
    for page, location, is_write in (
        (1, PageLocation.DRAM, True), (2, PageLocation.DRAM, False),
        (9, PageLocation.DRAM, False), (3, PageLocation.DRAM, False),
        (10, PageLocation.NVM, True), (13, PageLocation.NVM, False),
        (11, PageLocation.NVM, False), (12, PageLocation.NVM, True),
    ):
        mm.record_request(is_write)
        mm.fault_fill(page, location, is_write)
    mm.evict_to_disk(9)
    mm.evict_to_disk(13)
    mm.create_copy(11)
    mm.validate()
    return mm


def _manager_state(mm: MemoryManager) -> tuple:
    entries = sorted(
        (entry.page, entry.location.name, entry.frame, entry.dirty,
         entry.access_count, entry.write_count, entry.copy_frame,
         entry.copy_dirty)
        for entry in mm.page_table.entries()
    )
    allocators = tuple(
        (alloc.capacity, alloc._next_fresh, list(alloc._free),
         sorted(alloc._allocated))
        for alloc in (mm.dram, mm.nvm)
    )
    return (entries, allocators, mm.accounting.snapshot(),
            mm.wear.to_dict(), mm.dma.summary())


_D, _N, _DISK = PageLocation.DRAM, PageLocation.NVM, PageLocation.DISK

_MISUSES = [
    # (operation, arguments, exception)
    ("fault_fill", (1, _N, False), KeyError),        # already resident
    ("fault_fill", (11, _N, True), KeyError),        # resident, with a copy
    ("fault_fill", (50, _DISK, False), ValueError),  # DISK destination
    ("fault_fill", (1, _DISK, False), ValueError),   # DISK wins over resident
    ("fault_fill", (50, _D, True), MemoryError),     # full module
    ("evict_to_disk", (50,), KeyError),              # unknown page
    ("evict_to_disk", (11,), ValueError),            # live DRAM copy
    ("migrate", (50, _N), KeyError),                 # unknown page
    ("migrate", (1, _DISK), ValueError),             # DISK destination
    ("migrate", (11, _D), ValueError),               # live DRAM copy
    ("migrate", (1, _D), ValueError),                # already there
    ("migrate", (10, _D), MemoryError),              # full module
    ("swap", (1, 50), KeyError),                     # unknown page
    ("swap", (50, 10), KeyError),                    # unknown page
    ("swap", (1, 2), ValueError),                    # same module (DRAM)
    ("swap", (10, 12), ValueError),                  # same module (NVM)
    ("swap", (11, 1), ValueError),                   # live DRAM copy
    ("swap", (1, 11), ValueError),                   # live DRAM copy
    ("has_free", (_DISK,), ValueError),              # no DISK allocator
]


@pytest.mark.parametrize(
    "operation, arguments, error", _MISUSES,
    ids=[f"{op}{args}" for op, args, _ in _MISUSES],
)
def test_misuse_raises_and_changes_nothing(small_spec, operation,
                                           arguments, error):
    mm = _misuse_manager(small_spec)
    before = _manager_state(mm)
    with pytest.raises(error):
        getattr(mm, operation)(*arguments)
    assert _manager_state(mm) == before
    mm.validate()


@pytest.mark.parametrize("tamper, message", [
    # A DRAM copy of a DRAM-resident page: two DRAM frames, one page.
    (lambda mm, entry: setattr(entry, "copy_frame", mm.dram.allocate()),
     "two tiers"),
    (lambda mm, entry: setattr(entry, "location", PageLocation.DISK),
     "exactly one memory tier"),
], ids=["copy-of-a-dram-page", "disk-location"])
def test_validate_refuses_a_page_outside_one_tier(small_spec, tamper,
                                                  message):
    mm = MemoryManager(small_spec)
    mm.record_request(False)
    tamper(mm, mm.fault_fill(0, PageLocation.DRAM, False))
    with pytest.raises(AssertionError, match=message):
        mm.validate()


@pytest.mark.parametrize("arguments, error", [
    ((50, 60, False), KeyError),    # unknown victim
    ((11, 60, False), ValueError),  # victim with a live DRAM copy
    ((10, 12, True), KeyError),     # page already resident
])
def test_refill_misuse_raises_and_changes_nothing(small_spec, arguments,
                                                  error):
    mm = _misuse_manager(small_spec)
    before = _manager_state(mm)
    with pytest.raises(error):
        mm.refill(*arguments)
    assert _manager_state(mm) == before


@pytest.mark.parametrize("victim, page, is_write", [
    (1, 60, False), (2, 60, True), (10, 60, True), (12, 60, False),
    (12, 12, True),
])
def test_refill_is_evict_then_fill(small_spec, victim, page, is_write):
    """One step, same end state: the frame the eviction frees is the
    one the fill takes."""
    fused, stepwise = _misuse_manager(small_spec), _misuse_manager(small_spec)
    location = stepwise.location_of(victim)
    for mm in (fused, stepwise):
        mm.record_request(is_write)
    stepwise.evict_to_disk(victim)
    stepwise.fault_fill(page, location, is_write)
    fused.refill(victim, page, is_write)
    assert _manager_state(fused) == _manager_state(stepwise)
    fused.validate()
