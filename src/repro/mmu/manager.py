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
from repro.mmu.dma import DMAEngine, channel
from repro.mmu.frames import FrameAllocator
from repro.mmu.page import PageLocation, PageTableEntry
from repro.mmu.page_table import PageTable

if TYPE_CHECKING:  # repro.obs imports mmu.page; keep this edge typing-only
    from repro.obs.bus import EventBus

_DRAM, _NVM, _DISK = PageLocation.DRAM, PageLocation.NVM, PageLocation.DISK
#: The DMA channel each movement charges, keyed by the page's module.
_FILL_CHANNELS = {_DRAM: channel(_DISK, _DRAM), _NVM: channel(_DISK, _NVM)}
_EVICTION_CHANNELS = {_DRAM: channel(_DRAM, _DISK),
                      _NVM: channel(_NVM, _DISK)}
_MIGRATION_CHANNELS = {_DRAM: channel(_NVM, _DRAM),
                       _NVM: channel(_DRAM, _NVM)}
_SWAP_CHANNELS = tuple(_MIGRATION_CHANNELS.values())


class MemoryManager:
    """Mechanical layer of the hybrid memory: placement and accounting."""

    def __init__(self, spec: HybridMemorySpec) -> None:
        self.spec = spec
        self.page_table = PageTable()
        self.dram = FrameAllocator(spec.dram_pages)
        self.nvm = FrameAllocator(spec.nvm_pages)
        self._allocators = {PageLocation.DRAM: self.dram,
                            PageLocation.NVM: self.nvm}
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

    def has_free(self, location: PageLocation) -> bool:
        allocator = self._allocators.get(location)
        if allocator is None:
            raise ValueError(f"{location} has no frame allocator")
        return len(allocator._allocated) < allocator.capacity

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
    # The four movement methods below are every policy's miss path, so
    # they touch the page-table dict, the accounting and the transfer
    # log directly instead of layering through the helper methods.
    # Every misuse check runs before the first mutation: a misuse
    # raises and leaves the manager exactly as it was.
    def fault_fill(
        self, page: int, destination: PageLocation, is_write: bool
    ) -> PageTableEntry:
        """Handle a page fault: load ``page`` from disk into ``destination``.

        The faulting request itself is consumed by the fault (Eq. 1
        charges only the disk latency for it); the request's direction
        decides the page's initial dirty state.
        """
        allocator = self._allocators.get(destination)
        if allocator is None:
            raise ValueError("fault destination must be a memory module")
        entries = self.page_table._entries
        if page in entries:
            raise KeyError(f"page {page} is already resident")
        entries[page] = entry = PageTableEntry(
            page, destination, allocator.allocate(), is_write, 1,
            1 if is_write else 0,
        )
        transfers = self.dma.transfers
        channel = _FILL_CHANNELS[destination]
        transfers[channel] = transfers.get(channel, 0) + 1
        accounting = self.accounting
        if is_write:
            accounting.write_faults += 1
        else:
            accounting.read_faults += 1
        if destination is _DRAM:
            accounting.faults_filled_dram += 1
        else:
            accounting.faults_filled_nvm += 1
            self.wear.record_fault_fill(page)
        events = self.events
        if events is not None:
            events.page_fault(page, destination is _DRAM, is_write)
        return entry

    def migrate(self, page: int, destination: PageLocation) -> PageTableEntry:
        """Move a resident page between the two memory modules."""
        allocator = self._allocators.get(destination)
        if allocator is None:
            raise ValueError("migration destination must be a memory module")
        entry = self.page_table._entries.get(page)
        if entry is None:
            raise KeyError(f"page {page} is not resident")
        if entry.copy_frame is not None:
            raise ValueError(
                f"page {page} has a DRAM copy; drop it before migrating"
            )
        source = entry.location
        if source is destination:
            raise ValueError(f"page {page} already lives in {destination}")
        frame = allocator.allocate()
        self._allocators[source].release(entry.frame)
        entry.location = destination
        entry.frame = frame
        transfers = self.dma.transfers
        channel = _MIGRATION_CHANNELS[destination]
        transfers[channel] = transfers.get(channel, 0) + 1
        if destination is _DRAM:
            self.accounting.migrations_to_dram += 1
        else:
            self.accounting.migrations_to_nvm += 1
            self.wear.record_migration_in(page)
        events = self.events
        if events is not None:
            events.migration(
                page, destination is _DRAM, entry.access_count,
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
        entries = self.page_table._entries
        entry_a = entries.get(page_a)
        entry_b = entries.get(page_b)
        if entry_a is None or entry_b is None:
            missing = page_a if entry_a is None else page_b
            raise KeyError(f"page {missing} is not resident")
        if entry_a.copy_frame is not None or entry_b.copy_frame is not None:
            cached = page_a if entry_a.copy_frame is not None else page_b
            raise ValueError(
                f"page {cached} has a DRAM copy; drop it before swapping"
            )
        location_a = entry_a.location
        location_b = entry_b.location
        if location_a is location_b:
            raise ValueError(
                "swap requires pages in different modules, both are in "
                f"{location_a}"
            )
        entry_a.location = location_b
        entry_b.location = location_a
        entry_a.frame, entry_b.frame = entry_b.frame, entry_a.frame
        transfers = self.dma.transfers
        for channel in _SWAP_CHANNELS:
            transfers[channel] = transfers.get(channel, 0) + 1
        accounting = self.accounting
        accounting.migrations_to_dram += 1
        accounting.migrations_to_nvm += 1
        self.wear.record_migration_in(
            page_a if location_b is _NVM else page_b
        )
        events = self.events
        if events is not None:
            for entry in (entry_a, entry_b):
                events.migration(
                    entry.page, entry.location is _DRAM,
                    entry.access_count, entry.write_count,
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
        entries = self.page_table._entries
        entry = entries.get(page)
        if entry is None:
            raise KeyError(f"page {page} is not resident")
        if entry.copy_frame is not None:
            raise ValueError(
                f"page {page} still has a DRAM copy; drop it first"
            )
        del entries[page]
        location = entry.location
        self._allocators[location].release(entry.frame)
        transfers = self.dma.transfers
        channel = _EVICTION_CHANNELS[location]
        transfers[channel] = transfers.get(channel, 0) + 1
        if entry.dirty:
            self.accounting.dirty_evictions += 1
        else:
            self.accounting.clean_evictions += 1
        events = self.events
        if events is not None:
            events.eviction(
                page, location is _DRAM, entry.dirty, entry.access_count,
                entry.write_count,
            )
        return entry

    def refill(self, victim: int, page: int, is_write: bool) -> PageTableEntry:
        """Evict ``victim`` to disk and fault ``page`` into its frame.

        Exactly :meth:`evict_to_disk` then :meth:`fault_fill` into the
        victim's module (the frame released is the frame allocated
        next, so the allocator ends where it started), in one step for
        a full module's miss: the victim's entry becomes the new
        page's.  Misuse raises before anything changes.
        """
        entries = self.page_table._entries
        entry = entries.get(victim)
        if entry is None:
            raise KeyError(f"page {victim} is not resident")
        if entry.copy_frame is not None:
            raise ValueError(
                f"page {victim} still has a DRAM copy; drop it first"
            )
        if page != victim and page in entries:
            raise KeyError(f"page {page} is already resident")
        location = entry.location
        transfers = self.dma.transfers
        for channel in (_EVICTION_CHANNELS[location],
                        _FILL_CHANNELS[location]):
            transfers[channel] = transfers.get(channel, 0) + 1
        accounting = self.accounting
        if entry.dirty:
            accounting.dirty_evictions += 1
        else:
            accounting.clean_evictions += 1
        if is_write:
            accounting.write_faults += 1
        else:
            accounting.read_faults += 1
        if location is _DRAM:
            accounting.faults_filled_dram += 1
        else:
            accounting.faults_filled_nvm += 1
            self.wear.record_fault_fill(page)
        events = self.events
        if events is not None:
            events.eviction(
                victim, location is _DRAM, entry.dirty, entry.access_count,
                entry.write_count,
            )
            events.page_fault(page, location is _DRAM, is_write)
        del entries[victim]
        entries[page] = entry
        entry.page = page
        entry.dirty = is_write
        entry.access_count = 1
        entry.write_count = 1 if is_write else 0
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
        """Cross-check page table, frame pools and accounting: each
        resident page holds one allocated frame in exactly one tier,
        plus a DRAM copy's frame only if NVM-resident, no frame is
        double-booked, and no allocated frame is left unclaimed."""
        owners: dict[tuple[PageLocation, int], int] = {}
        for entry in self.page_table.entries():
            page, location = entry.page, entry.location
            if location not in self._allocators:
                raise AssertionError(
                    f"page {page} resident with location {location} "
                    "(must be exactly one memory tier)"
                )
            claims = [(location, entry.frame)]
            if entry.copy_frame is not None:
                if location is not _NVM:
                    raise AssertionError(
                        f"page {page} holds a DRAM copy while resident in "
                        f"{location}; it would live in two tiers at once"
                    )
                claims.append((_DRAM, entry.copy_frame))
            for claim in claims:
                tier, frame = claim
                if not self._allocators[tier].is_allocated(frame):
                    raise AssertionError(
                        f"page {page} references unallocated {tier} "
                        f"frame {frame}"
                    )
                owner = owners.setdefault(claim, page)
                if owner != page:
                    raise AssertionError(
                        f"{tier} frame {frame} is double-booked by pages "
                        f"{owner} and {page}"
                    )
        for tier, allocator in self._allocators.items():
            claimed = sum(1 for claim_tier, _ in owners if claim_tier is tier)
            if claimed != allocator.used:
                raise AssertionError(
                    f"{tier} pages and copies ({claimed}) != frames in use "
                    f"({allocator.used})"
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
