"""Unit and property tests for the O(1) LRU queue with position windows."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lru import LRUQueue


# ----------------------------------------------------------------------
# Basic queue behaviour
# ----------------------------------------------------------------------
class TestLRUQueueBasics:
    def test_empty_queue(self):
        queue = LRUQueue()
        assert len(queue) == 0
        assert queue.peek_lru() is None
        assert queue.peek_mru() is None
        assert 5 not in queue

    def test_push_front_orders_mru_first(self):
        queue = LRUQueue()
        for page in (1, 2, 3):
            queue.push_front(page)
        assert queue.pages() == [3, 2, 1]
        assert queue.peek_mru().page == 3
        assert queue.peek_lru().page == 1

    def test_push_duplicate_raises(self):
        queue = LRUQueue()
        queue.push_front(1)
        with pytest.raises(KeyError):
            queue.push_front(1)

    def test_touch_moves_to_front(self):
        queue = LRUQueue()
        for page in (1, 2, 3):
            queue.push_front(page)
        queue.touch(1)
        assert queue.pages() == [1, 3, 2]

    def test_touch_head_is_noop(self):
        queue = LRUQueue()
        for page in (1, 2):
            queue.push_front(page)
        queue.touch(2)
        assert queue.pages() == [2, 1]

    def test_touch_missing_raises(self):
        queue = LRUQueue()
        with pytest.raises(KeyError):
            queue.touch(9)

    def test_pop_lru_removes_tail(self):
        queue = LRUQueue()
        for page in (1, 2, 3):
            queue.push_front(page)
        assert queue.pop_lru().page == 1
        assert queue.pages() == [3, 2]

    @pytest.mark.parametrize("window", [None, 2])
    @pytest.mark.parametrize("size", [1, 3])
    def test_replace_lru_is_pop_then_push(self, window, size):
        fused, stepwise = LRUQueue(), LRUQueue()
        for queue in (fused, stepwise):
            if window is not None:
                queue.add_window(window)
            for page in range(size):
                queue.push_front(page)
        for page in range(100, 104):
            victim = stepwise.pop_lru().page
            stepwise.push_front(page)
            assert fused.replace_lru(page) == victim
            assert fused.pages() == stepwise.pages()
            assert fused.node(page).payload is None
            fused.check()
        with pytest.raises(KeyError):
            fused.replace_lru(103)
        with pytest.raises(IndexError):
            LRUQueue().replace_lru(1)

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            LRUQueue().pop_lru()

    def test_remove_middle(self):
        queue = LRUQueue()
        for page in (1, 2, 3):
            queue.push_front(page)
        queue.remove(2)
        assert queue.pages() == [3, 1]
        assert 2 not in queue

    def test_remove_missing_raises(self):
        queue = LRUQueue()
        queue.push_front(1)
        with pytest.raises(KeyError):
            queue.remove(2)

    def test_position_of(self):
        queue = LRUQueue()
        for page in (1, 2, 3):
            queue.push_front(page)
        assert queue.position_of(3) == 0
        assert queue.position_of(1) == 2
        with pytest.raises(KeyError):
            queue.position_of(99)

    def test_single_element_lifecycle(self):
        queue = LRUQueue()
        queue.push_front(7)
        queue.touch(7)
        assert queue.pages() == [7]
        assert queue.pop_lru().page == 7
        assert len(queue) == 0
        queue.check()

    def test_counters_preserved_across_touch(self):
        queue = LRUQueue()
        node = queue.push_front(1)
        queue.push_front(2)
        node.read_counter = 5
        queue.touch(1)
        assert queue.node(1).read_counter == 5


# ----------------------------------------------------------------------
# Position windows
# ----------------------------------------------------------------------
class TestPositionWindow:
    def test_window_covers_small_queue(self):
        queue = LRUQueue()
        window = queue.add_window(3)
        for page in (1, 2):
            queue.push_front(page)
        assert window.contains(queue.node(1))
        assert window.contains(queue.node(2))
        queue.check()

    def test_window_excludes_deep_pages(self):
        queue = LRUQueue()
        window = queue.add_window(2)
        for page in (1, 2, 3, 4):
            queue.push_front(page)
        # MRU order: 4 3 2 1; window = {4, 3}
        assert window.contains(queue.node(4))
        assert window.contains(queue.node(3))
        assert not window.contains(queue.node(2))
        assert not window.contains(queue.node(1))
        assert window.boundary.page == 3
        queue.check()

    def test_exit_callback_fires_on_window_exit(self):
        exits = []
        queue = LRUQueue()
        queue.add_window(2, on_exit=lambda node: exits.append(node.page))
        for page in (1, 2, 3):
            queue.push_front(page)
        # pushing 3 pushes page 1 out of the top-2 window
        assert exits == [1]

    def test_exit_callback_not_fired_for_removed_pages(self):
        exits = []
        queue = LRUQueue()
        queue.add_window(2, on_exit=lambda node: exits.append(node.page))
        for page in (1, 2, 3):
            queue.push_front(page)
        exits.clear()
        queue.remove(3)  # in-window removal: no exit event for page 3
        assert 3 not in exits
        queue.check()

    def test_touch_outside_window_evicts_boundary(self):
        exits = []
        queue = LRUQueue()
        window = queue.add_window(2, on_exit=lambda n: exits.append(n.page))
        for page in (1, 2, 3):
            queue.push_front(page)
        exits.clear()
        queue.touch(1)  # order: 1 3 2 -> page 2 leaves the window
        assert exits == [2]
        assert window.contains(queue.node(1))
        assert window.contains(queue.node(3))
        assert not window.contains(queue.node(2))
        queue.check()

    def test_single_slot_window(self):
        queue = LRUQueue()
        window = queue.add_window(1)
        for page in (1, 2, 3):
            queue.push_front(page)
        assert window.contains(queue.node(3))
        assert not window.contains(queue.node(2))
        queue.touch(1)
        assert window.contains(queue.node(1))
        assert not window.contains(queue.node(3))
        queue.check()

    def test_zero_window_contains_nothing(self):
        queue = LRUQueue()
        window = queue.add_window(0)
        for page in (1, 2, 3):
            queue.push_front(page)
            queue.touch(page)
        assert not any(window.contains(node) for node in queue)
        queue.check()

    def test_two_windows_independent(self):
        queue = LRUQueue()
        small = queue.add_window(1)
        large = queue.add_window(3)
        for page in (1, 2, 3, 4):
            queue.push_front(page)
        assert small.contains(queue.node(4))
        assert not small.contains(queue.node(3))
        assert large.contains(queue.node(2))
        assert not large.contains(queue.node(1))
        queue.check()

    def test_window_must_attach_before_inserts(self):
        queue = LRUQueue()
        queue.push_front(1)
        with pytest.raises(RuntimeError):
            queue.add_window(2)

    def test_removal_pulls_next_page_into_window(self):
        queue = LRUQueue()
        window = queue.add_window(2)
        for page in (1, 2, 3, 4):
            queue.push_front(page)
        queue.remove(4)  # order now 3 2 1; window {3, 2}
        assert window.contains(queue.node(3))
        assert window.contains(queue.node(2))
        assert not window.contains(queue.node(1))
        queue.check()


# ----------------------------------------------------------------------
# Property tests against a naive list model
# ----------------------------------------------------------------------
_OPS = st.lists(
    st.tuples(st.sampled_from(["push", "touch", "remove", "pop"]),
              st.integers(min_value=0, max_value=11)),
    max_size=220,
)


class _NaiveModel:
    """Reference implementation: a plain python list, MRU first."""

    def __init__(self) -> None:
        self.order: list[int] = []

    def push(self, page: int) -> None:
        self.order.insert(0, page)

    def touch(self, page: int) -> None:
        self.order.remove(page)
        self.order.insert(0, page)

    def remove(self, page: int) -> None:
        self.order.remove(page)

    def pop(self) -> int:
        return self.order.pop()

    def window(self, size: int) -> set[int]:
        return set(self.order[:size])


@settings(max_examples=300, deadline=None)
@given(ops=_OPS, window_size=st.integers(min_value=0, max_value=6))
def test_queue_and_window_match_naive_model(ops, window_size):
    queue = LRUQueue()
    queue.add_window(window_size)
    window = queue._windows[0]
    model = _NaiveModel()
    for op, page in ops:
        if op == "push" and page not in model.order:
            queue.push_front(page)
            model.push(page)
        elif op == "touch" and page in model.order:
            queue.touch(page)
            model.touch(page)
        elif op == "remove" and page in model.order:
            queue.remove(page)
            model.remove(page)
        elif op == "pop" and model.order:
            assert queue.pop_lru().page == model.pop()
        # order must match exactly after every operation
        assert queue.pages() == model.order
        # window membership must match the model's top-K
        tracked = {node.page for node in queue if window.contains(node)}
        assert tracked == model.window(window_size)
        queue.check()


@settings(max_examples=120, deadline=None)
@given(ops=_OPS)
def test_counter_reset_semantics(ops):
    """Counters must be zero for every page outside the window.

    This is the induction the migration policy relies on: the exit
    callback resets counters the moment a page leaves the window, so an
    out-of-window page can never carry a stale counter.
    """
    queue = LRUQueue()
    window = queue.add_window(
        3, on_exit=lambda node: setattr(node, "read_counter", 0)
    )
    resident: set[int] = set()
    for op, page in ops:
        if op == "push" and page not in resident:
            queue.push_front(page)
            resident.add(page)
        elif op == "touch" and page in resident:
            queue.touch(page)
            node = queue.node(page)
            if window.contains(node):
                node.read_counter += 1
        elif op == "remove" and page in resident:
            queue.remove(page)
            resident.discard(page)
        elif op == "pop" and resident:
            resident.discard(queue.pop_lru().page)
        for node in queue:
            if not window.contains(node):
                assert node.read_counter == 0, (
                    f"page {node.page} left the window with a live counter"
                )
