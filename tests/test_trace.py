"""Tests for trace records, containers and interleaving."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.record import ACCESS_SIZE, PAGE_SIZE, AccessKind, CPUAccess, MemoryAccess
from repro.trace.trace import CPUTrace, PageIndex, Trace, interleave


class TestAccessKind:
    def test_parse_tokens(self):
        assert AccessKind.parse("R") is AccessKind.READ
        assert AccessKind.parse("w") is AccessKind.WRITE
        assert AccessKind.parse("READ") is AccessKind.READ
        assert AccessKind.parse("1") is AccessKind.WRITE

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            AccessKind.parse("x")

    def test_round_trip_token(self):
        for kind in AccessKind:
            assert AccessKind.parse(kind.token) is kind

    def test_from_is_write(self):
        assert AccessKind.from_is_write(True) is AccessKind.WRITE
        assert AccessKind.from_is_write(False) is AccessKind.READ


class TestRecords:
    def test_memory_access_fields(self):
        access = MemoryAccess(42, AccessKind.WRITE)
        assert access.page == 42
        assert access.is_write

    def test_cpu_access_page_and_line(self):
        access = CPUAccess(PAGE_SIZE * 3 + 100, AccessKind.READ, core=2)
        assert access.page() == 3
        assert access.line() == (PAGE_SIZE * 3 + 100) // ACCESS_SIZE
        assert access.core == 2
        assert not access.is_write


class TestTrace:
    def test_construction_and_lengths(self, tiny_trace):
        assert len(tiny_trace) == 8
        assert tiny_trace.read_count == 5
        assert tiny_trace.write_count == 3
        assert tiny_trace.unique_pages == 4
        assert tiny_trace.footprint_bytes == 4 * PAGE_SIZE

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Trace([1, 2], [True])

    def test_negative_pages_rejected(self):
        with pytest.raises(ValueError):
            Trace([-1], [False])

    def test_indexing_and_slicing(self, tiny_trace):
        assert tiny_trace[0] == MemoryAccess(0, AccessKind.READ)
        assert tiny_trace[1].is_write
        tail = tiny_trace[4:]
        assert isinstance(tail, Trace)
        assert len(tail) == 4
        assert tail[0].page == 3

    def test_iteration_matches_pairs(self, tiny_trace):
        via_iter = [(a.page, a.is_write) for a in tiny_trace]
        via_pairs = list(tiny_trace.iter_pairs())
        assert via_iter == via_pairs

    def test_iter_pairs_yields_native_types(self, tiny_trace):
        # The batched kernels compare and hash these values millions of
        # times; numpy scalars would be both slower and a type leak
        # into policy state (e.g. np.int64 keys in the page table).
        for page, is_write in tiny_trace.iter_pairs():
            assert type(page) is int
            assert type(is_write) is bool

    def test_iter_yields_native_types(self, tiny_trace):
        for access in tiny_trace:
            assert type(access.page) is int
            assert type(access.is_write) is bool

    def test_equality(self, tiny_trace):
        clone = Trace(tiny_trace.pages, tiny_trace.is_write)
        assert clone == tiny_trace
        assert tiny_trace != tiny_trace[1:]

    def test_concat(self, tiny_trace):
        joined = tiny_trace.concat(tiny_trace)
        assert len(joined) == 16
        assert joined[8] == tiny_trace[0]

    def test_concat_page_size_mismatch(self, tiny_trace):
        other = Trace([1], [False], page_size=8192)
        with pytest.raises(ValueError):
            tiny_trace.concat(other)

    def test_arrays_are_read_only(self, tiny_trace):
        with pytest.raises(ValueError):
            tiny_trace.pages[0] = 9

    def test_write_ratio(self, tiny_trace):
        assert tiny_trace.write_ratio == pytest.approx(3 / 8)
        assert Trace.empty().write_ratio == 0.0

    def test_renamed(self, tiny_trace):
        assert tiny_trace.renamed("other").name == "other"

    def test_from_accesses(self):
        trace = Trace.from_accesses(
            [MemoryAccess(1, AccessKind.WRITE), (2, AccessKind.READ)]
        )
        assert len(trace) == 2
        assert trace[0].is_write
        assert not trace[1].is_write


class TestCPUTrace:
    def test_round_trip_accesses(self):
        accesses = [
            CPUAccess(0x1000, AccessKind.READ, 0),
            CPUAccess(0x2040, AccessKind.WRITE, 3),
        ]
        trace = CPUTrace.from_accesses(accesses)
        assert list(trace) == accesses
        assert trace.core_count == 4

    def test_to_memory_trace_unfiltered(self):
        trace = CPUTrace([0, PAGE_SIZE, PAGE_SIZE + 8], [False, True, False])
        memory = trace.to_memory_trace()
        assert list(memory.pages) == [0, 1, 1]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CPUTrace([1, 2], [True], [0])


class TestInterleave:
    def test_round_robin_order(self):
        a = Trace([0, 1], [False, False], name="a")
        b = Trace([0], [True], name="b")
        merged = interleave([a, b])
        # round robin: a0, b0, a1 — b offset by a's page span (2)
        assert list(merged.pages) == [0, 2, 1]
        assert list(merged.is_write) == [False, True, False]

    def test_empty_input(self):
        assert len(interleave([])) == 0

    def test_no_page_collisions(self):
        rng = np.random.default_rng(0)
        traces = [
            Trace(rng.integers(0, 50, 100), rng.random(100) < 0.5)
            for _ in range(3)
        ]
        merged = interleave(traces)
        assert len(merged) == 300
        # each source's pages occupy a disjoint range
        assert merged.unique_pages >= max(t.unique_pages for t in traces)


@settings(max_examples=60, deadline=None)
@given(
    pages=st.lists(st.integers(min_value=0, max_value=1000), max_size=60),
    seed=st.integers(min_value=0, max_value=5),
)
def test_trace_roundtrip_properties(pages, seed):
    rng = np.random.default_rng(seed)
    writes = rng.random(len(pages)) < 0.5
    trace = Trace(pages, writes)
    assert len(trace) == len(pages)
    assert trace.read_count + trace.write_count == len(trace)
    assert trace.unique_pages == len(set(pages))
    # slicing then concatenating reconstructs the trace
    if len(trace) >= 2:
        mid = len(trace) // 2
        assert trace[:mid].concat(trace[mid:]) == trace


# ---------------------------------------------------------------------------
# The cached page index
# ---------------------------------------------------------------------------
@st.composite
def _page_arrays(draw):
    """Page arrays biased toward the index's edges: empty and
    1-request traces, one hot page, sparse ids up to 2**40."""
    size = draw(st.one_of(st.sampled_from([0, 1]), st.integers(0, 80)))
    ids = draw(st.one_of(
        st.lists(st.integers(0, 2**40), min_size=1, max_size=1),
        st.lists(st.integers(0, 12), min_size=1, max_size=8, unique=True),
        st.lists(st.integers(0, 2**40), min_size=1, max_size=8,
                 unique=True),
    ))
    pages = draw(st.lists(st.sampled_from(ids), min_size=size,
                          max_size=size))
    return np.asarray(pages, dtype=np.int64)


def _assert_index_of(index: PageIndex, pages: np.ndarray) -> None:
    unique, inverse, counts = np.unique(
        pages, return_inverse=True, return_counts=True)
    assert np.array_equal(index.order, np.argsort(pages, kind="stable"))
    assert np.array_equal(index.pages, unique)
    assert np.array_equal(index.inverse, inverse)
    assert np.array_equal(index.counts, counts)
    assert index.pages.dtype == unique.dtype
    assert index.inverse.dtype == inverse.dtype
    assert index.counts.dtype == counts.dtype
    assert index.size == pages.shape[0]
    ordered = pages[index.order]
    expected_starts = np.ones(pages.shape[0], dtype=bool)
    expected_starts[1:] = ordered[1:] != ordered[:-1]
    assert np.array_equal(index.starts, expected_starts)


class TestPageIndex:
    @settings(max_examples=200, deadline=None)
    @given(pages=_page_arrays(), cut=st.integers(0, 90))
    def test_matches_unique_and_stable_argsort(self, pages, cut):
        trace = Trace(pages, np.zeros(pages.shape[0], dtype=bool))
        index = trace.page_index()
        _assert_index_of(index, pages)
        assert trace.unique_pages == np.unique(pages).shape[0]
        # A prefix's index is derived from the whole trace's one.
        _assert_index_of(index.head(cut), pages[:cut])

    def test_built_once_and_read_only(self, tiny_trace):
        index = tiny_trace.page_index()
        assert tiny_trace.page_index() is index
        for array in (index.order, index.pages, index.inverse,
                      index.counts):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[:1] = 0

    def test_head_past_the_end_is_the_index(self, tiny_trace):
        index = tiny_trace.page_index()
        assert index.head(len(tiny_trace)) is index
        assert index.head(len(tiny_trace) + 5) is index

    def test_derived_traces_get_their_own_index(self, tiny_trace):
        tiny_trace.page_index()  # a cached parent index must not leak
        other = Trace([7, 0, 7], [True, False, False])
        joined = Trace.from_chunks(
            [tiny_trace[5:], tiny_trace[:3], tiny_trace[3:5]])
        for derived in (tiny_trace[2:6], tiny_trace[::2],
                        tiny_trace.concat(other),
                        Trace.from_chunks(tiny_trace.chunks(3)), joined,
                        tiny_trace.renamed("again")):
            _assert_index_of(derived.page_index(), np.asarray(derived.pages))

    def test_renamed_shares_the_built_index(self, tiny_trace):
        index = tiny_trace.page_index()
        assert tiny_trace.renamed("again").page_index() is index
