"""Single-tier page replacement algorithms.

These manage *one* memory module (they are what the paper means by
"conventional algorithms"): plain LRU and CLOCK (second chance).

The interface is deliberately minimal so the same implementations serve
the DRAM-only and NVM-only baselines, the NVM side of ad-hoc hybrids,
and the ablation harness.
"""

from __future__ import annotations

import abc

from repro.core.lru import LRUQueue


class ReplacementAlgorithm(abc.ABC):
    """Replacement state for a fixed-capacity set of resident pages."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity

    @abc.abstractmethod
    def __contains__(self, page: int) -> bool:
        """Is the page resident?"""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of resident pages."""

    @abc.abstractmethod
    def hit(self, page: int, is_write: bool = False) -> None:
        """Record a hit on a resident page."""

    @abc.abstractmethod
    def insert(self, page: int, is_write: bool = False) -> None:
        """Make a page resident; capacity must allow it."""

    @abc.abstractmethod
    def evict(self) -> int:
        """Remove and return the victim page (resident set non-empty)."""

    @abc.abstractmethod
    def remove(self, page: int) -> None:
        """Forcibly remove a specific resident page (e.g. migrated away)."""

    @property
    def full(self) -> bool:
        return len(self) >= self.capacity

    def validate(self) -> None:  # repro: cold
        """Structural self-check; subclasses may extend."""
        if len(self) > self.capacity:
            raise AssertionError(
                f"{type(self).__name__} over capacity: "
                f"{len(self)} > {self.capacity}"
            )


class LRUReplacement(ReplacementAlgorithm):
    """Plain least-recently-used replacement."""

    name = "lru"

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._queue = LRUQueue()

    def __contains__(self, page: int) -> bool:
        return page in self._queue

    def __len__(self) -> int:
        return len(self._queue)

    def hit(self, page: int, is_write: bool = False) -> None:
        self._queue.touch(page)

    def insert(self, page: int, is_write: bool = False) -> None:
        if self.full:
            raise MemoryError("insert into full LRU; evict first")
        self._queue.push_front(page)

    def evict(self) -> int:
        return self._queue.pop_lru().page

    def remove(self, page: int) -> None:
        self._queue.remove(page)

    def pages(self) -> list[int]:
        """MRU-to-LRU page order (diagnostics/tests)."""
        return self._queue.pages()

    def dispose(self) -> None:
        """End of run: empty the queue and break its links."""
        self._queue.dispose()

    def validate(self) -> None:  # repro: cold
        super().validate()
        self._queue.check()


class _ClockNode:
    __slots__ = ("page", "prev", "next", "referenced")

    def __init__(self, page: int) -> None:
        self.page = page
        self.prev: "_ClockNode | None" = None
        self.next: "_ClockNode | None" = None
        # Inserted pages start referenced (one full sweep of grace).
        self.referenced = True


class ClockReplacement(ReplacementAlgorithm):
    """CLOCK (second chance): a circular buffer with reference bits.

    The hand sweeps the ring; referenced pages get their bit cleared
    and one more round, unreferenced pages are evicted.  New pages are
    inserted behind the hand with the reference bit set.
    """

    name = "clock"

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._nodes: dict[int, _ClockNode] = {}
        self._hand: _ClockNode | None = None

    def __contains__(self, page: int) -> bool:
        return page in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def hit(self, page: int, is_write: bool = False) -> None:
        self._nodes[page].referenced = True

    def insert(self, page: int, is_write: bool = False) -> None:
        nodes = self._nodes
        if len(nodes) >= self.capacity:
            raise MemoryError("insert into full clock; evict first")
        if page in nodes:
            raise KeyError(f"page {page} already resident")
        nodes[page] = node = _ClockNode(page)
        if self._hand is None:
            node.prev = node
            node.next = node
            self._hand = node
        else:
            # Insert just behind the hand (the position the hand will
            # reach last), matching the textbook formulation.
            tail = self._hand.prev
            assert tail is not None
            tail.next = node
            node.prev = tail
            node.next = self._hand
            self._hand.prev = node

    def _victim(self) -> _ClockNode:
        """Sweep the hand past referenced pages, clearing their bits."""
        node = self._hand
        if node is None:
            raise IndexError("evict from empty clock")
        while node.referenced:
            node.referenced = False
            node = node.next
        return node

    def evict(self) -> int:
        node = self._victim()
        self._hand = node.next
        self._unlink(node)
        del self._nodes[node.page]
        return node.page

    def replace(self, page: int) -> int:
        """:meth:`evict` then :meth:`insert` of ``page`` in one step.

        The new page lands where the victim was (just behind the hand),
        so the victim's node is reused in place.  Returns the victim.
        """
        nodes = self._nodes
        if page in nodes:
            raise KeyError(f"page {page} already resident")
        node = self._victim()
        victim = node.page
        del nodes[victim]
        nodes[page] = node
        node.page = page
        node.referenced = True
        self._hand = node.next
        return victim

    def remove(self, page: int) -> None:
        node = self._nodes.pop(page)
        self._unlink(node)

    def _unlink(self, node: _ClockNode) -> None:
        if node.next is node:
            self._hand = None
        else:
            assert node.prev is not None and node.next is not None
            node.prev.next = node.next
            node.next.prev = node.prev
            if self._hand is node:
                self._hand = node.next
        node.prev = None
        node.next = None

    def dispose(self) -> None:
        """End of run: empty the ring and break its links."""
        for node in self._nodes.values():
            node.prev = node.next = None
        self._nodes.clear()
        self._hand = None

    def pages(self) -> list[int]:
        """Pages in hand order (diagnostics/tests)."""
        result: list[int] = []
        node = self._hand
        if node is None:
            return result
        while True:
            result.append(node.page)
            node = node.next
            assert node is not None
            if node is self._hand:
                break
        return result

    def validate(self) -> None:  # repro: cold
        super().validate()
        if len(self.pages()) != len(self._nodes):
            raise AssertionError("clock ring out of sync with index")
