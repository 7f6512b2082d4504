"""A flat page table mapping virtual pages to their resident frames."""

from __future__ import annotations

from typing import Iterator

from repro.mmu.page import PageLocation, PageTableEntry


class PageTable:
    """Maps page numbers to :class:`PageTableEntry` for resident pages.

    Pages on disk have no entry (a lookup miss *is* the page fault).
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: dict[int, PageTableEntry] = {}

    def lookup(self, page: int) -> PageTableEntry | None:
        """Resident entry for ``page``, or ``None`` (page fault)."""
        return self._entries.get(page)

    def __contains__(self, page: int) -> bool:
        return page in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def insert(self, entry: PageTableEntry) -> None:
        if entry.page in self._entries:
            raise KeyError(f"page {entry.page} already resident")
        if not entry.location.in_memory:
            raise ValueError("page table entries must reference memory")
        self._entries[entry.page] = entry

    def remove(self, page: int) -> PageTableEntry:
        try:
            return self._entries.pop(page)
        except KeyError:
            raise KeyError(f"page {page} is not resident") from None

    def entries(self) -> Iterator[PageTableEntry]:
        return iter(self._entries.values())

    def pages_in(self, location: PageLocation) -> list[int]:
        return [
            entry.page
            for entry in self._entries.values()
            if entry.location is location
        ]
