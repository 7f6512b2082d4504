"""A set-associative cache with LRU replacement and write-back policy.

The building block of the COTSon-substitute hierarchy (paper Table II):
32 KB 4-way L1s and a 2 MB 16-way LLC, all with 64 B lines and
write-back.  Only behaviour that affects the *main-memory access
stream* is modelled — hit/miss, dirty eviction, invalidation — since
the sole purpose of the hierarchy here is to filter CPU accesses down
to the memory trace the policies consume.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


@dataclass(frozen=True)
class CacheGeometry:
    """Size/shape of one cache level."""

    size_bytes: int
    associativity: int
    line_size: int = 64

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.associativity <= 0:
            raise ValueError("size and associativity must be positive")
        if self.line_size <= 0 or self.size_bytes % self.line_size:
            raise ValueError("size must be a multiple of the line size")
        lines = self.size_bytes // self.line_size
        if lines % self.associativity:
            raise ValueError("line count must be a multiple of associativity")

    @property
    def lines(self) -> int:
        return self.size_bytes // self.line_size

    @property
    def sets(self) -> int:
        return self.lines // self.associativity


@dataclass
class CacheStats:
    """Hit/miss/writeback counts for one cache."""

    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class SetAssociativeCache:
    """One cache level: LRU sets of cache lines with dirty bits."""

    def __init__(self, geometry: CacheGeometry, name: str = "cache") -> None:
        self.geometry = geometry
        self.name = name
        self.stats = CacheStats()
        # One OrderedDict per set: line tag -> dirty flag, LRU first.
        self._sets: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(geometry.sets)
        ]

    # ------------------------------------------------------------------
    def _locate(self, line: int) -> tuple[OrderedDict[int, bool], int]:
        return self._sets[line % self.geometry.sets], line

    def contains(self, line: int) -> bool:
        cache_set, tag = self._locate(line)
        return tag in cache_set

    def access(self, line: int, is_write: bool) -> tuple[bool, int | None]:
        """Access one line; returns ``(hit, evicted_dirty_line)``.

        On a miss the line is filled (allocate-on-miss for both reads
        and writes, matching write-back/write-allocate caches); if the
        set overflows, the LRU line is evicted and returned when dirty
        (the caller forwards the writeback down the hierarchy).
        """
        cache_set, tag = self._locate(line)
        victim_writeback: int | None = None
        if tag in cache_set:
            self.stats.hits += 1
            dirty = cache_set.pop(tag)
            cache_set[tag] = dirty or is_write
            return True, None
        self.stats.misses += 1
        if len(cache_set) >= self.geometry.associativity:
            victim, dirty = cache_set.popitem(last=False)
            if dirty:
                self.stats.writebacks += 1
                victim_writeback = victim
        cache_set[tag] = is_write
        return False, victim_writeback

    def invalidate(self, line: int) -> bool:
        """Drop a line (coherence); returns True if it was dirty."""
        cache_set, tag = self._locate(line)
        if tag not in cache_set:
            return False
        dirty = cache_set.pop(tag)
        self.stats.invalidations += 1
        return dirty

    def flush(self) -> list[int]:
        """Empty the cache, returning the dirty lines (to write back)."""
        dirty_lines: list[int] = []
        for cache_set in self._sets:
            for tag, dirty in cache_set.items():
                if dirty:
                    dirty_lines.append(tag)
            cache_set.clear()
        self.stats.writebacks += len(dirty_lines)
        return dirty_lines

    @property
    def resident_lines(self) -> int:
        return sum(len(cache_set) for cache_set in self._sets)
