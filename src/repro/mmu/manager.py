"""The memory manager: mechanics shared by every placement policy.

Policies decide *what* to do (which page to promote, demote or evict);
:class:`MemoryManager` performs the operation — updating the page
table, the frame allocators, the DMA counters, the model-level event
accounting and the NVM wear histogram — so that every policy is
measured by exactly the same bookkeeping.  This mirrors the paper's
setup, where the proposed scheme and CLOCK-DWF run inside the same
Linux-memory-management-like framework and are scored by the same
models.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.memory.accounting import AccessAccounting, WearAccounting
from repro.memory.specs import HybridMemorySpec
from repro.mmu.dma import DMAEngine
from repro.mmu.frames import FrameAllocator
from repro.mmu.page import PageLocation, PageTableEntry
from repro.mmu.page_table import PageTable

if TYPE_CHECKING:  # repro.obs imports mmu.page; keep this edge typing-only
    from repro.obs.bus import EventBus


class MemoryManager:
    """Mechanical layer of the hybrid memory: placement and accounting."""

    def __init__(self, spec: HybridMemorySpec) -> None:
        self.spec = spec
        self.page_table = PageTable()
        self.dram = FrameAllocator(spec.dram_pages)
        self.nvm = FrameAllocator(spec.nvm_pages)
        self.dma = DMAEngine(page_size=spec.page_size)
        self.accounting = AccessAccounting()
        self.wear = WearAccounting(page_factor=spec.page_factor)
        self._post_reset_fill_credit = 0
        #: Optional observability bus; the simulator attaches one when
        #: event collection is requested.  ``None`` keeps every path
        #: below a single predictable branch away from the status quo.
        self.events: "EventBus | None" = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def location_of(self, page: int) -> PageLocation:
        entry = self.page_table.lookup(page)
        return entry.location if entry else PageLocation.DISK

    def is_resident(self, page: int) -> bool:
        return page in self.page_table

    def _allocator(self, location: PageLocation) -> FrameAllocator:
        if location is PageLocation.DRAM:
            return self.dram
        if location is PageLocation.NVM:
            return self.nvm
        raise ValueError(f"{location} has no frame allocator")

    def has_free(self, location: PageLocation) -> bool:
        return not self._allocator(location).full

    # ------------------------------------------------------------------
    # Request servicing
    # ------------------------------------------------------------------
    def record_request(self, is_write: bool) -> None:
        """Count an arriving request (exactly once per trace record).

        Also advances the event clock when a bus is attached: event
        indexes are exactly "requests recorded so far".
        """
        if is_write:
            self.accounting.write_requests += 1
        else:
            self.accounting.read_requests += 1
        events = self.events
        if events is not None:
            events.clock += 1

    def serve_hit(self, page: int, is_write: bool) -> PageTableEntry:
        """Service a request for a resident page in place.

        Requests to a page with a live DRAM copy are served by the
        copy (DRAM hit); writes dirty the copy instead of wearing NVM.
        """
        entry = self.page_table.lookup(page)
        if entry is None:
            raise KeyError(f"page {page} is not resident")
        if entry.location is PageLocation.DRAM or entry.has_copy:
            if is_write:
                self.accounting.dram_write_hits += 1
                if entry.has_copy:
                    entry.copy_dirty = True
            else:
                self.accounting.dram_read_hits += 1
        else:
            if is_write:
                self.accounting.nvm_write_hits += 1
                self.wear.record_request_write(page)
            else:
                self.accounting.nvm_read_hits += 1
        entry.mark_access(is_write)
        return entry

    # ------------------------------------------------------------------
    # Page movement
    # ------------------------------------------------------------------
    def fault_fill(
        self, page: int, destination: PageLocation, is_write: bool
    ) -> PageTableEntry:
        """Handle a page fault: load ``page`` from disk into ``destination``.

        The faulting request itself is consumed by the fault (Eq. 1
        charges only the disk latency for it); the request's direction
        decides the page's initial dirty state.
        """
        if not destination.in_memory:
            raise ValueError("fault destination must be a memory module")
        if self.is_resident(page):
            raise KeyError(f"page {page} is already resident")
        frame = self._allocator(destination).allocate()
        entry = PageTableEntry(
            page=page,
            location=destination,
            frame=frame,
            dirty=is_write,
            access_count=1,
            write_count=1 if is_write else 0,
        )
        self.page_table.insert(entry)
        self.dma.transfer_page(PageLocation.DISK, destination)
        if is_write:
            self.accounting.write_faults += 1
        else:
            self.accounting.read_faults += 1
        if destination is PageLocation.DRAM:
            self.accounting.faults_filled_dram += 1
        else:
            self.accounting.faults_filled_nvm += 1
            self.wear.record_fault_fill(page)
        events = self.events
        if events is not None:
            events.page_fault(
                page, destination is PageLocation.DRAM, is_write
            )
        return entry

    def migrate(self, page: int, destination: PageLocation) -> PageTableEntry:
        """Move a resident page between the two memory modules."""
        if not destination.in_memory:
            raise ValueError("migration destination must be a memory module")
        entry = self.page_table.lookup(page)
        if entry is None:
            raise KeyError(f"page {page} is not resident")
        if entry.has_copy:
            raise ValueError(
                f"page {page} has a DRAM copy; drop it before migrating"
            )
        source = entry.location
        if source is destination:
            raise ValueError(f"page {page} already lives in {destination}")
        frame = self._allocator(destination).allocate()
        self._allocator(source).release(entry.frame)
        entry.location = destination
        entry.frame = frame
        self.dma.transfer_page(source, destination)
        if destination is PageLocation.DRAM:
            self.accounting.migrations_to_dram += 1
        else:
            self.accounting.migrations_to_nvm += 1
            self.wear.record_migration_in(page)
        events = self.events
        if events is not None:
            events.migration(
                page,
                destination is PageLocation.DRAM,
                entry.access_count,
                entry.write_count,
            )
        return entry

    def swap(self, page_a: int, page_b: int) -> None:
        """Exchange two resident pages living in different modules.

        Models the promote-one/demote-one exchange that happens when a
        page earns a migration to a full DRAM: the DMA engine stages
        one page through a buffer and both cross the interconnect.
        Counts one migration in each direction.
        """
        entry_a = self.page_table.lookup(page_a)
        entry_b = self.page_table.lookup(page_b)
        if entry_a is None or entry_b is None:
            missing = page_a if entry_a is None else page_b
            raise KeyError(f"page {missing} is not resident")
        if entry_a.location is entry_b.location:
            raise ValueError(
                "swap requires pages in different modules, both are in "
                f"{entry_a.location}"
            )
        entry_a.location, entry_b.location = entry_b.location, entry_a.location
        entry_a.frame, entry_b.frame = entry_b.frame, entry_a.frame
        events = self.events
        transfer_page = self.dma.transfer_page
        record_migration_in = self.wear.record_migration_in
        dram, nvm = PageLocation.DRAM, PageLocation.NVM
        for entry in (entry_a, entry_b):
            transfer_page(nvm if entry.location is dram else dram,
                          entry.location)
            if entry.location is dram:
                self.accounting.migrations_to_dram += 1
            else:
                self.accounting.migrations_to_nvm += 1
                record_migration_in(entry.page)
            if events is not None:
                events.migration(
                    entry.page,
                    entry.location is dram,
                    entry.access_count,
                    entry.write_count,
                )

    # ------------------------------------------------------------------
    # DRAM-as-cache support (the caching school of paper Section III)
    # ------------------------------------------------------------------
    def create_copy(self, page: int) -> PageTableEntry:
        """Fill a DRAM copy of an NVM-resident page (inclusive cache).

        Cost model: the fill reads the page from NVM and writes it into
        DRAM — exactly a NVM->DRAM migration's traffic — so it is
        charged as one migration-to-DRAM in Eq. 1/2.
        """
        entry = self.page_table.lookup(page)
        if entry is None:
            raise KeyError(f"page {page} is not resident")
        if entry.location is not PageLocation.NVM:
            raise ValueError("only NVM-resident pages can be cached")
        if entry.has_copy:
            raise ValueError(f"page {page} already has a DRAM copy")
        entry.copy_frame = self.dram.allocate()
        entry.copy_dirty = False
        self.dma.transfer_page(PageLocation.NVM, PageLocation.DRAM)
        self.accounting.migrations_to_dram += 1
        events = self.events
        if events is not None:
            events.migration(
                page, True, entry.access_count, entry.write_count,
                trigger="copy",
            )
        return entry

    def drop_copy(self, page: int) -> bool:
        """Drop a page's DRAM copy; dirty copies write back into NVM.

        Returns True when a write-back happened.  The write-back's
        traffic equals a DRAM->NVM migration and is charged as one.
        """
        entry = self.page_table.lookup(page)
        if entry is None or not entry.has_copy:
            raise KeyError(f"page {page} has no DRAM copy")
        assert entry.copy_frame is not None
        self.dram.release(entry.copy_frame)
        wrote_back = entry.copy_dirty
        if wrote_back:
            self.dma.transfer_page(PageLocation.DRAM, PageLocation.NVM)
            self.accounting.migrations_to_nvm += 1
            self.wear.record_migration_in(page)
        entry.copy_frame = None
        entry.copy_dirty = False
        events = self.events
        if events is not None:
            events.migration(
                page, False, entry.access_count, entry.write_count,
                trigger="writeback" if wrote_back else "copy-drop",
            )
        return wrote_back

    def evict_to_disk(self, page: int) -> PageTableEntry:
        """Evict a resident page to disk (write-back when dirty)."""
        cached = self.page_table.lookup(page)
        if cached is not None and cached.has_copy:
            raise ValueError(
                f"page {page} still has a DRAM copy; drop it first"
            )
        entry = self.page_table.remove(page)
        self._allocator(entry.location).release(entry.frame)
        self.dma.transfer_page(entry.location, PageLocation.DISK)
        if entry.dirty:
            self.accounting.dirty_evictions += 1
        else:
            self.accounting.clean_evictions += 1
        events = self.events
        if events is not None:
            events.eviction(
                page,
                entry.location is PageLocation.DRAM,
                entry.dirty,
                entry.access_count,
                entry.write_count,
            )
        return entry

    # ------------------------------------------------------------------
    # Warm-up handling
    # ------------------------------------------------------------------
    def reset_accounting(self) -> None:
        """Zero the event counters and wear, keeping memory contents.

        The paper measures only the region of interest after warming the
        memory ("the input of all benchmarks was set to the largest
        dataset available in order to minimize the effect of starting
        from cold memory"); the runner replays a warm-up prefix, calls
        this, then measures the rest.
        """
        self.accounting = AccessAccounting()
        self.wear = WearAccounting(page_factor=self.spec.page_factor)
        self._post_reset_fill_credit = len(self.page_table)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def validate(self) -> None:  # repro: cold
        """Cross-check page table, frame pools and accounting."""
        dram_resident = self.page_table.count_in(PageLocation.DRAM)
        nvm_resident = self.page_table.count_in(PageLocation.NVM)
        copies = sum(
            1 for entry in self.page_table.entries() if entry.has_copy
        )
        if dram_resident + copies != self.dram.used:
            raise AssertionError(
                f"DRAM pages ({dram_resident}) + copies ({copies}) != "
                f"frames in use ({self.dram.used})"
            )
        if nvm_resident != self.nvm.used:
            raise AssertionError(
                f"NVM pages ({nvm_resident}) != frames in use "
                f"({self.nvm.used})"
            )
        # Frame identity: every entry references an allocated frame in
        # its own module and no two entries share one (a count match
        # alone cannot see aliasing or cross-tier leaks).
        owners: dict[tuple[PageLocation, int], int] = {}
        for entry in self.page_table.entries():
            claims = [(entry.location, entry.frame)]
            if entry.has_copy:
                assert entry.copy_frame is not None
                claims.append((PageLocation.DRAM, entry.copy_frame))
            for location, frame in claims:
                if not self._allocator(location).is_allocated(frame):
                    raise AssertionError(
                        f"page {entry.page} references unallocated "
                        f"{location} frame {frame}"
                    )
                owner = owners.setdefault((location, frame), entry.page)
                if owner != entry.page:
                    raise AssertionError(
                        f"{location} frame {frame} is double-booked by "
                        f"pages {owner} and {entry.page}"
                    )
        self.accounting.validate()
        # Every page currently resident arrived via exactly one fault
        # fill and never left, or was re-faulted after an eviction (or
        # was already resident when the accounting was last reset).
        fills = self.accounting.page_faults + self._post_reset_fill_credit
        evictions = self.accounting.evictions_to_disk
        if fills - evictions != len(self.page_table):
            raise AssertionError(
                f"fills ({fills}) - evictions ({evictions}) != resident pages "
                f"({len(self.page_table)})"
            )
