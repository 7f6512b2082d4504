"""The chunk-first trace-source API: protocol, identity, store, specs.

Covers the input layer of the streaming pipeline: source coercion and
chunk joins, the streaming file readers, the chunk-size-invariant
content digest, the content-addressed :class:`TraceStore`, the frozen
:class:`SourceSpec` riding on :class:`RunSpec` (identity, digests,
engines), and the concurrent-writer safety of :class:`ResultCache`.
"""

from __future__ import annotations

import dataclasses
import json
import threading

import numpy as np
import pytest

from repro.experiments.executor import ParallelExecutor, ResultCache
from repro.experiments.runspec import RunSpec
from repro.trace.io import save_trace, write_text_trace
from repro.trace.source import (
    DEFAULT_CHUNK_REQUESTS,
    IterableTraceSource,
    NpzTraceSource,
    SourceSpec,
    TextTraceSource,
    TraceSource,
    TraceStore,
    as_source,
    materialize,
    open_trace_source,
    scan_source,
)
from repro.trace.trace import Trace
from repro.workloads.synthetic import zipf_workload


@pytest.fixture
def trace() -> Trace:
    rng = np.random.default_rng(21)
    return Trace(rng.integers(0, 80, 1_000), rng.random(1_000) < 0.35,
                 name="source-fixture", page_size=4096)


def _join(chunks) -> Trace:
    return Trace.from_chunks(chunks)


# ----------------------------------------------------------------------
# Protocol and chunk joins
# ----------------------------------------------------------------------
class TestSourceProtocol:
    def test_trace_is_a_source(self, trace):
        assert isinstance(trace, TraceSource)
        assert trace.request_count == len(trace)
        (whole,) = list(trace.chunks(None))
        assert whole is trace

    def test_trace_chunks_rejoin_exactly(self, trace):
        for size in (1, 7, 64, 999, 5_000):
            joined = _join(trace.chunks(size))
            assert joined == trace

    def test_as_source_coercions(self, trace, tmp_path):
        assert as_source(trace) is trace
        path = tmp_path / "t.trc"
        write_text_trace(trace, path)
        assert isinstance(as_source(path), TextTraceSource)
        assert isinstance(as_source(iter([(1, True)])), IterableTraceSource)
        with pytest.raises(TypeError):
            as_source(42)

    def test_iterable_source_chunks_and_single_shot(self):
        pairs = [(i, i % 2 == 0) for i in range(10)]
        source = IterableTraceSource(iter(pairs), name="gen")
        chunks = list(source.chunks(4))
        assert [len(c) for c in chunks] == [4, 4, 2]
        assert list(_join(chunks).iter_pairs()) == pairs
        with pytest.raises(RuntimeError):
            list(source.chunks(4))  # plain iterables are one-shot

    def test_callable_source_is_replayable(self):
        pairs = [(i, False) for i in range(5)]
        source = IterableTraceSource(lambda: iter(pairs))
        assert list(_join(source.chunks(2)).pages) == [0, 1, 2, 3, 4]
        assert list(_join(source.chunks(3)).pages) == [0, 1, 2, 3, 4]

    def test_default_chunking_for_streams(self):
        source = IterableTraceSource(lambda: iter([(1, False)] * 10))
        (only,) = list(source.chunks(None))
        assert len(only) == 10
        assert DEFAULT_CHUNK_REQUESTS >= 1 << 12


class TestFileSources:
    def test_text_source_streams_file(self, trace, tmp_path):
        path = tmp_path / "t.trc"
        write_text_trace(trace, path)
        source = open_trace_source(path)
        assert isinstance(source, TextTraceSource)
        assert source.name == trace.name
        assert source.page_size == trace.page_size
        assert source.request_count is None  # unknown without a scan
        assert materialize(source) == trace

    def test_npz_source(self, trace, tmp_path):
        path = tmp_path / "t.npz"
        save_trace(trace, path)
        source = open_trace_source(path)
        assert isinstance(source, NpzTraceSource)
        assert source.request_count == len(trace)
        assert _join(source.chunks(100)) == trace


# ----------------------------------------------------------------------
# Content identity
# ----------------------------------------------------------------------
class TestScanDigest:
    def test_digest_is_chunk_size_invariant(self, trace):
        digests = {scan_source(trace, chunk_size=size).digest
                   for size in (1, 13, 999, None)}
        assert len(digests) == 1

    def test_digest_covers_content_not_container(self, trace, tmp_path):
        text = tmp_path / "t.trc"
        binary = tmp_path / "t.npz"
        write_text_trace(trace, text)
        save_trace(trace, binary)
        assert scan_source(open_trace_source(text)).digest \
            == scan_source(open_trace_source(binary)).digest \
            == scan_source(trace).digest

    def test_digest_separates_pages_from_writes(self):
        # Interleave-sensitive: same multiset of bytes, different
        # (page, write) assignment must digest differently.
        a = Trace([1, 2], [True, False], name="a")
        b = Trace([1, 2], [False, True], name="a")
        assert scan_source(a).digest != scan_source(b).digest

    def test_scan_statistics(self, trace):
        scan = scan_source(trace)
        assert scan.requests == len(trace)
        assert scan.unique_pages == trace.unique_pages
        assert scan.write_requests == int(np.count_nonzero(trace.is_write))


class TestTraceStore:
    def test_spill_and_reopen_round_trips(self, trace, tmp_path):
        store = TraceStore(tmp_path / "store")
        spec = store.add(trace, name="spilled")
        assert spec.name == "spilled"
        assert spec.requests == len(trace)
        reopened = spec.open()
        assert reopened.request_count == spec.requests  # scan rides along
        assert materialize(reopened).renamed(trace.name) == trace
        assert scan_source(spec.open()).digest == spec.digest

    def test_file_backed_sources_referenced_in_place(self, trace, tmp_path):
        path = tmp_path / "t.trc"
        write_text_trace(trace, path)
        store = TraceStore(tmp_path / "store")
        spec = store.add(path)
        assert spec.path == str(path)
        assert not (tmp_path / "store").exists()  # no copy was made

    def test_same_content_converges_on_one_file(self, trace, tmp_path):
        store = TraceStore(tmp_path / "store")
        a = store.add(trace)
        b = store.add(trace)
        assert a.digest == b.digest
        assert a.path == b.path

    def test_sourcespec_identity_excludes_path(self, trace, tmp_path):
        store = TraceStore(tmp_path / "store")
        spec = store.add(trace)
        moved = dataclasses.replace(spec, path="/somewhere/else.trc")
        assert moved.identity_dict() == spec.identity_dict()
        assert "path" not in spec.identity_dict()
        assert SourceSpec.from_dict(spec.to_dict()) == spec


# ----------------------------------------------------------------------
# RunSpec integration
# ----------------------------------------------------------------------
@pytest.fixture
def stored(tmp_path) -> SourceSpec:
    trace = zipf_workload(pages=120, requests=2_500, alpha=1.15,
                          write_ratio=0.3, seed=5)
    return TraceStore(tmp_path / "traces").add(trace, name="ext")


class TestRunSpecSource:
    def test_round_trip_and_digest_path_independence(self, stored):
        spec = RunSpec.for_source(stored, policy="proposed",
                                  warmup_fraction=0.2)
        assert spec.workload == "ext"
        again = RunSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.digest() == spec.digest()
        moved = dataclasses.replace(
            spec, source=dataclasses.replace(stored, path="/elsewhere.trc"))
        assert moved.digest() == spec.digest()

    def test_sourceless_digests_unchanged(self):
        # The source field postdates the cache format; profile-rendered
        # specs keep their pinned pre-source digests.
        assert RunSpec("dedup").digest() == "40b471fba25ce8a941b10cec"

    def test_streamed_equals_materialised_execution(self, stored):
        spec = RunSpec.for_source(stored, policy="proposed",
                                  warmup_fraction=0.2)
        streamed = spec.execute()  # instance=None: streams the file
        materialised = spec.execute(instance=spec.render())
        assert streamed.to_dict() == materialised.to_dict()

    @pytest.mark.parametrize("engine", ["analytic", "sampled"])
    def test_fast_engines_accept_sources(self, stored, engine):
        spec = RunSpec.for_source(stored, policy="proposed", engine=engine)
        result = spec.execute()
        assert result.performance.amat > 0

    def test_executor_caches_source_specs(self, stored, tmp_path):
        spec = RunSpec.for_source(stored, policy="proposed")
        executor = ParallelExecutor(jobs=1,
                                    cache=ResultCache(tmp_path / "cache"))
        first = executor.submit([spec])
        second = executor.submit([spec])
        assert first[0].to_dict() == second[0].to_dict()
        assert executor.stats.cache_hits == 1
        assert executor.stats.simulated == 1

    def test_pool_path_pickles_source_specs(self, stored):
        specs = [RunSpec.for_source(stored, policy=p)
                 for p in ("proposed", "clock-dwf")]
        results = ParallelExecutor(jobs=2).submit(specs)
        assert len(results) == 2
        assert results[0].to_dict() != results[1].to_dict()


# ----------------------------------------------------------------------
# ResultCache concurrent writers
# ----------------------------------------------------------------------
class TestResultCacheConcurrency:
    def test_concurrent_puts_never_corrupt(self, tmp_path):
        spec = RunSpec("dedup", request_scale=0.02)
        result = spec.execute()
        cache = ResultCache(tmp_path / "cache", version="v-test")
        errors: list[BaseException] = []

        def hammer() -> None:
            try:
                for _ in range(25):
                    cache.put(spec, result)
                    got = cache.get(spec)
                    # A reader may race the very first write, but must
                    # never see a torn file (get() treats corrupt JSON
                    # as a miss — so also check the raw bytes parse).
                    if got is not None:
                        json.loads(
                            cache.path_for(spec).read_text("utf-8"))
            except BaseException as exc:  # surfaced after the join
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        final = cache.get(spec)
        assert final is not None
        assert final.to_dict() == result.to_dict()
        leftovers = list((tmp_path / "cache").glob("*.tmp"))
        assert leftovers == []
