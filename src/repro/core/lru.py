"""An O(1) LRU queue with positional window tracking.

The proposed scheme (paper Section IV) keeps read/write counters only
for pages in the top ``readperc``/``writeperc`` positions of the NVM
LRU queue, and resets a page's counter the moment it slips below that
boundary.  A naive implementation needs the *position* of a page, which
is O(n) in a linked list.  :class:`PositionWindow` tracks a top-K window
in O(1) per queue operation instead: it maintains a pointer to the
boundary node (the K-th most recent page) plus a per-node membership
bit, and updates both incrementally — every LRU operation moves at most
one page across the boundary.

The queue supports several independent windows (the scheme uses two:
one sized ``readperc`` and one ``writeperc``), each with an exit
callback that implements the paper's counter reset.
"""

from __future__ import annotations

from typing import Callable, Iterator


class LRUNode:
    """One page's node in the queue, carrying the scheme's counters."""

    __slots__ = ("page", "prev", "next", "read_counter", "write_counter",
                 "_window_mask", "payload")

    def __init__(self, page: int) -> None:
        self.page = page
        self.prev: LRUNode | None = None  # toward MRU
        self.next: LRUNode | None = None  # toward LRU
        self.read_counter = 0
        self.write_counter = 0
        self._window_mask = 0
        # Opaque per-node cache slot for batched kernels (the migration
        # kernel parks the page's table entry here so a hit costs one
        # dict lookup, not two).  A node hands over to another page
        # only through ``replace_lru``, which clears it, so a cached
        # reference cannot go stale.
        self.payload = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LRUNode(page={self.page}, r={self.read_counter}, "
            f"w={self.write_counter})"
        )


class PositionWindow:
    """Tracks membership in the top-``size`` positions of an LRU queue.

    Created through :meth:`LRUQueue.add_window`.  ``on_exit`` fires when
    a page *remaining in the queue* slips below the boundary (the
    paper's "moves to the end of the selected percentage" event); pages
    leaving the queue entirely (eviction, migration) do not fire it —
    their node is discarded along with its counters.
    """

    __slots__ = ("size", "on_exit", "_bit", "_boundary", "_queue")

    def __init__(
        self,
        queue: "LRUQueue",
        size: int,
        on_exit: Callable[[LRUNode], None] | None,
        bit: int,
    ) -> None:
        if size < 0:
            raise ValueError("window size must be non-negative")
        self.size = size
        self.on_exit = on_exit
        self._bit = bit
        self._boundary: LRUNode | None = None
        self._queue = queue

    # ------------------------------------------------------------------
    def contains(self, node: LRUNode) -> bool:
        """O(1): is ``node`` within the top-``size`` positions?"""
        return bool(node._window_mask & self._bit)

    @property
    def boundary(self) -> LRUNode | None:
        """The deepest in-window node (position ``min(size, len) - 1``)."""
        return self._boundary

    # ------------------------------------------------------------------
    # Incremental maintenance, called by the queue
    # ------------------------------------------------------------------
    def _enter(self, node: LRUNode) -> None:
        node._window_mask |= self._bit

    def _exit(self, node: LRUNode, notify: bool) -> None:
        node._window_mask &= ~self._bit
        if notify and self.on_exit is not None:
            self.on_exit(node)

    def _after_push_front(self, node: LRUNode, new_length: int) -> None:
        if self.size == 0:
            return
        self._enter(node)
        if new_length <= self.size:
            # Window still covers the whole queue; boundary is the tail.
            self._boundary = self._queue.peek_lru()
        else:
            # The old boundary page is pushed one position deeper.  The
            # freshly inserted node can never be the boundary itself.
            old_boundary = self._boundary
            assert old_boundary is not None and old_boundary is not node
            self._boundary = old_boundary.prev
            self._exit(old_boundary, notify=True)

    def _before_unlink_for_touch(self, node: LRUNode, length: int) -> None:
        """Bookkeeping for a move-to-front, *before* the node unlinks."""
        if self.size == 0:
            return
        if length <= self.size:
            # Everything stays inside the window; only the boundary
            # (== tail) can change, handled after relinking.
            return
        if self.contains(node):
            if node is self._boundary:
                # The boundary page itself becomes MRU; the page above
                # it becomes the new deepest in-window page.
                self._boundary = node.prev
        else:
            # An outside page jumps to the front: it enters the window
            # and the current boundary page is pushed out.  The new
            # boundary is the page formerly one above the old boundary —
            # except for a single-slot window, where it is the moved
            # page itself.
            old_boundary = self._boundary
            assert old_boundary is not None
            self._enter(node)
            self._boundary = old_boundary.prev if self.size > 1 else node
            self._exit(old_boundary, notify=True)

    def _after_touch(self, length: int) -> None:
        if self.size == 0:
            return
        if length <= self.size:
            self._boundary = self._queue.peek_lru()

    def _before_remove(self, node: LRUNode, length: int) -> None:
        """Bookkeeping for a permanent removal, before the node unlinks."""
        if self.size == 0:
            return
        if length <= self.size:
            # Window covers the queue; boundary fixed up after unlink.
            node._window_mask &= ~self._bit
            return
        if self.contains(node):
            node._window_mask &= ~self._bit
            old_boundary = self._boundary
            assert old_boundary is not None
            # The first page below the window rises into it; this holds
            # whether or not the removed page *is* the boundary, because
            # removing any in-window page shifts everything below it up
            # by one position.
            new_boundary = old_boundary.next
            assert new_boundary is not None  # length > size guarantees it
            self._enter(new_boundary)
            self._boundary = new_boundary
        # Outside removals leave the window untouched.

    def _after_remove(self, length: int) -> None:
        if self.size == 0:
            return
        if length <= self.size:
            self._boundary = self._queue.peek_lru()

    # ------------------------------------------------------------------
    def check(self) -> None:
        """O(n) invariant check used by tests: flags match true positions."""
        expected_in = set()
        for position, node in enumerate(self._queue):
            if position < self.size:
                expected_in.add(node.page)
        actual_in = {
            node.page for node in self._queue if self.contains(node)
        }
        if expected_in != actual_in:
            raise AssertionError(
                f"window(size={self.size}) membership drifted: "
                f"expected {sorted(expected_in)}, got {sorted(actual_in)}"
            )
        length = len(self._queue)
        if length == 0 or self.size == 0:
            return
        expected_boundary_pos = min(self.size, length) - 1
        for position, node in enumerate(self._queue):
            if position == expected_boundary_pos:
                if node is not self._boundary:
                    raise AssertionError(
                        f"window boundary drifted: expected page "
                        f"{node.page} at position {expected_boundary_pos}, "
                        f"tracker points at "
                        f"{self._boundary.page if self._boundary else None}"
                    )
                break


class LRUQueue:
    """Doubly-linked LRU queue with O(1) operations and position windows.

    Most-recently-used pages sit at the *front*; the eviction victim is
    the *tail*.  Nodes are reachable by page number through an internal
    index, so ``touch``/``remove`` are O(1).
    """

    __slots__ = ("_head", "_tail", "_nodes", "_windows", "_next_bit")

    def __init__(self) -> None:
        self._head: LRUNode | None = None
        self._tail: LRUNode | None = None
        self._nodes: dict[int, LRUNode] = {}
        self._windows: list[PositionWindow] = []
        self._next_bit = 1

    # ------------------------------------------------------------------
    # Window management
    # ------------------------------------------------------------------
    def add_window(
        self,
        size: int,
        on_exit: Callable[[LRUNode], None] | None = None,
    ) -> PositionWindow:
        """Attach a top-``size`` position window (before first insert)."""
        if self._nodes:
            raise RuntimeError("windows must be attached to an empty queue")
        window = PositionWindow(self, size, on_exit, self._next_bit)
        self._next_bit <<= 1
        self._windows.append(window)
        return window

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, page: int) -> bool:
        return page in self._nodes

    def __iter__(self) -> Iterator[LRUNode]:
        """Iterate nodes from MRU to LRU."""
        node = self._head
        while node is not None:
            yield node
            node = node.next

    def pages(self) -> list[int]:
        """Page numbers from MRU to LRU (test/report helper)."""
        return [node.page for node in self]

    def node(self, page: int) -> LRUNode:
        return self._nodes[page]

    def get(self, page: int) -> LRUNode | None:
        return self._nodes.get(page)

    def peek_lru(self) -> LRUNode | None:
        return self._tail

    def peek_mru(self) -> LRUNode | None:
        return self._head

    def position_of(self, page: int) -> int:
        """O(n) position lookup (0 = MRU); for tests and diagnostics."""
        for position, node in enumerate(self):
            if node.page == page:
                return position
        raise KeyError(f"page {page} not in queue")

    # ------------------------------------------------------------------
    # Linked-list plumbing
    # ------------------------------------------------------------------
    def _link_front(self, node: LRUNode) -> None:
        node.prev = None
        node.next = self._head
        if self._head is not None:
            self._head.prev = node
        self._head = node
        if self._tail is None:
            self._tail = node

    def _unlink(self, node: LRUNode) -> None:
        if node.prev is not None:
            node.prev.next = node.next
        else:
            self._head = node.next
        if node.next is not None:
            node.next.prev = node.prev
        else:
            self._tail = node.prev
        node.prev = None
        node.next = None

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def push_front(self, page: int) -> LRUNode:
        """Insert a new page at the MRU position."""
        nodes = self._nodes
        if page in nodes:
            raise KeyError(f"page {page} already queued")
        nodes[page] = node = LRUNode(page)
        self._link_front(node)
        windows = self._windows
        if windows:
            length = len(nodes)
            for window in windows:
                window._after_push_front(node, length)
        return node

    def touch(self, page: int) -> LRUNode:
        """Move an existing page to the MRU position."""
        node = self._nodes[page]
        if node is self._head:
            return node
        length = len(self._nodes)
        for window in self._windows:
            window._before_unlink_for_touch(node, length)
        self._unlink(node)
        self._link_front(node)
        for window in self._windows:
            window._after_touch(length)
        return node

    def remove(self, page: int) -> LRUNode:
        """Remove a page from anywhere in the queue."""
        node = self._nodes.pop(page, None)
        if node is None:
            raise KeyError(f"page {page} not in queue")
        windows = self._windows
        if windows:
            length = len(self._nodes) + 1
            for window in windows:
                window._before_remove(node, length)
        self._unlink(node)
        if windows:
            new_length = len(self._nodes)
            for window in windows:
                window._after_remove(new_length)
        node._window_mask = 0
        return node

    def pop_lru(self) -> LRUNode:
        """Remove and return the LRU (tail) page."""
        if self._tail is None:
            raise IndexError("pop from empty LRU queue")
        return self.remove(self._tail.page)

    def replace_lru(self, page: int) -> int:
        """:meth:`pop_lru` then :meth:`push_front` of ``page`` in one
        step; returns the evicted page.  A window-less queue reuses the
        evicted page's node for ``page`` (its payload cleared)."""
        nodes = self._nodes
        if page in nodes:
            raise KeyError(f"page {page} already queued")
        if self._windows:
            victim = self.pop_lru().page
            self.push_front(page)
            return victim
        node = self._tail
        if node is None:
            raise IndexError("pop from empty LRU queue")
        victim = node.page
        del nodes[victim]
        self._unlink(node)
        node.page = page
        node.payload = None
        nodes[page] = node
        self._link_front(node)
        return victim

    def dispose(self) -> None:
        """Empty the queue and break every node link and the windows'
        back-references, so a finished run's queue is freed by
        reference counting rather than whenever the cyclic collector
        runs.  The queue takes no pages afterwards."""
        node = self._head
        while node is not None:
            nxt = node.next
            node.prev = node.next = None
            node = nxt
        self._nodes.clear()
        self._head = self._tail = None
        for window in self._windows:
            window._boundary = None
        self._windows.clear()

    def check(self) -> None:
        """O(n) structural self-check (tests): links, index, windows."""
        seen = 0
        node = self._head
        previous: LRUNode | None = None
        while node is not None:
            if node.prev is not previous:
                raise AssertionError("broken prev link")
            if self._nodes.get(node.page) is not node:
                raise AssertionError("index out of sync with list")
            previous = node
            node = node.next
            seen += 1
        if previous is not self._tail:
            raise AssertionError("tail pointer out of sync")
        if seen != len(self._nodes):
            raise AssertionError("length mismatch between list and index")
        for window in self._windows:
            window.check()
