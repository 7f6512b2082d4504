"""Page-level abstractions of the Linux-like memory-management layer."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class PageLocation(enum.Enum):
    """Where a virtual page currently lives."""

    DRAM = "dram"
    NVM = "nvm"
    DISK = "disk"

    # Members are singletons, so identity hashing is equivalent to the
    # default ``hash(self._name_)`` — but runs in C.  Locations key the
    # DMA transfer log and frame-validation dicts on the fault path.
    __hash__ = object.__hash__

    @property
    def in_memory(self) -> bool:
        return self is not PageLocation.DISK

    def __str__(self) -> str:
        return self.value.upper()


@dataclass(slots=True)
class PageTableEntry:
    """Per-page state tracked by the OS.

    Mirrors the relevant bits of a real PTE: presence (implied by
    ``location``), the backing frame, the dirty bit (drives write-back
    on eviction) and the access and write counters.  Clock-style
    policies keep their reference bits on their own clock nodes.

    For DRAM-as-cache architectures (the caching school of paper
    Section III) an NVM-resident page may additionally hold a DRAM
    *copy*: ``copy_frame`` points at it and ``copy_dirty`` tracks
    whether it must be written back into NVM when dropped.
    """

    page: int
    location: PageLocation
    frame: int
    dirty: bool = False
    access_count: int = 0
    write_count: int = 0
    copy_frame: int | None = None
    copy_dirty: bool = False

    @property
    def has_copy(self) -> bool:
        return self.copy_frame is not None

    def mark_access(self, is_write: bool) -> None:
        self.access_count += 1
        if is_write:
            self.write_count += 1
            self.dirty = True
