"""Tests for the synthetic workload framework and PARSEC profiles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.stats import characterize
from repro.workloads.base import (
    AlignedWrites,
    BernoulliWrites,
    BurstPattern,
    ComponentPhase,
    LoopPattern,
    MixturePattern,
    Phase,
    PhasedWorkload,
    ReadOnly,
    SequentialScan,
    UniformPattern,
    WorkingSetPattern,
    ZipfPattern,
    solve_cold_ratio,
)
from repro.workloads.parsec import (
    PROFILES,
    WORKLOAD_NAMES,
    parsec_workload,
    scaled_pages,
    scaled_requests,
)


_rng = lambda seed=0: np.random.default_rng(seed)  # noqa: E731


class TestPatterns:
    def test_uniform_stays_in_universe(self):
        pages = UniformPattern(50).generate(_rng(), 1000)
        assert pages.min() >= 0
        assert pages.max() < 50

    def test_zipf_skew_increases_with_alpha(self):
        flat = ZipfPattern(100, alpha=0.5).generate(_rng(1), 20_000)
        steep = ZipfPattern(100, alpha=2.0).generate(_rng(1), 20_000)
        def top_share(pages):
            _, counts = np.unique(pages, return_counts=True)
            counts = np.sort(counts)[::-1]
            return counts[:10].sum() / counts.sum()
        assert top_share(steep) > top_share(flat)

    def test_zipf_top_pages_and_traffic_share(self):
        zipf = ZipfPattern(100, alpha=1.0)
        top = zipf.top_pages(10)
        assert top.shape[0] == 10
        assert 0 < zipf.traffic_share(10) < 1
        assert zipf.traffic_share(100) == pytest.approx(1.0)
        assert zipf.traffic_share(0) == 0.0
        # the top pages really are the most accessed
        pages = zipf.generate(_rng(2), 50_000)
        unique, counts = np.unique(pages, return_counts=True)
        observed_top = set(unique[np.argsort(counts)[::-1][:5]])
        assert observed_top <= set(top.tolist()) | set(zipf.top_pages(15))

    def test_sequential_scan_wraps_and_persists(self):
        scan = SequentialScan(5)
        first = scan.generate(_rng(), 7)
        assert first.tolist() == [0, 1, 2, 3, 4, 0, 1]
        second = scan.generate(_rng(), 3)
        assert second.tolist() == [2, 3, 4]

    def test_scan_with_stride(self):
        scan = SequentialScan(10, stride=3)
        assert scan.generate(_rng(), 4).tolist() == [0, 3, 6, 9]

    def test_loop_pattern_sweeps_window(self):
        loop = LoopPattern(100, window=4)
        pages = loop.generate(_rng(), 8)
        assert pages.tolist() == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_loop_jitter_escapes_window(self):
        loop = LoopPattern(1000, window=4, jitter=0.5)
        pages = loop.generate(_rng(3), 2000)
        assert (pages >= 4).any()

    def test_burst_lengths_in_range(self):
        burst = BurstPattern(50, burst_low=3, burst_high=6)
        pages = burst.generate(_rng(4), 5000)
        runs = np.diff(np.flatnonzero(
            np.concatenate(([True], np.diff(pages) != 0, [True]))
        ))
        # bursts can be clipped at chunk boundaries or merged when the
        # same page repeats, so check the bulk
        assert np.median(runs) >= 3

    def test_working_set_drifts(self):
        pattern = WorkingSetPattern(1000, hot_pages=50,
                                    hot_probability=1.0,
                                    phase_length=100, drift=500)
        first = pattern.generate(_rng(5), 100)
        second = pattern.generate(_rng(5), 100)
        assert first.max() < 50
        assert second.min() >= 500 - 1  # window slid by ~500

    def test_mixture_draws_from_all_components(self):
        mixture = MixturePattern([
            (UniformPattern(10), 0.5),
            (SequentialScan(1000, start=500), 0.5),
        ])
        pages = mixture.generate(_rng(6), 2000)
        assert (pages < 10).any()
        assert (pages >= 500).any()

    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            UniformPattern(0)
        with pytest.raises(ValueError):
            ZipfPattern(10, alpha=-1)
        with pytest.raises(ValueError):
            SequentialScan(10, stride=0)
        with pytest.raises(ValueError):
            LoopPattern(10, jitter=2.0)
        with pytest.raises(ValueError):
            BurstPattern(10, burst_low=5, burst_high=2)
        with pytest.raises(ValueError):
            MixturePattern([])


class TestWriteModels:
    def test_bernoulli_ratio(self):
        pages = UniformPattern(100).generate(_rng(7), 50_000)
        flags = BernoulliWrites(0.3).flags(_rng(7), pages)
        assert flags.mean() == pytest.approx(0.3, abs=0.02)

    def test_read_only(self):
        pages = UniformPattern(10).generate(_rng(), 100)
        assert not ReadOnly().flags(_rng(), pages).any()

    def test_aligned_writes_target_members(self):
        member_pages = np.arange(5)
        model = AlignedWrites(member_pages, hot_write_ratio=1.0,
                              cold_write_ratio=0.0)
        pages = UniformPattern(100).generate(_rng(9), 10_000)
        flags = model.flags(_rng(9), pages)
        assert set(pages[flags].tolist()) <= set(range(5))
        assert flags[pages < 5].all()

    def test_solve_cold_ratio(self):
        cold = solve_cold_ratio(0.3, member_traffic_share=0.5,
                                hot_write_ratio=0.5)
        # 0.5*0.5 + 0.5*cold = 0.3 -> cold = 0.1
        assert cold == pytest.approx(0.1)
        assert solve_cold_ratio(0.1, 0.5, 0.9) == 0.0  # clamped
        assert solve_cold_ratio(0.9, 1.0, 0.5) == 0.0  # no remainder


class TestPhasedWorkload:
    def test_lengths_and_determinism(self):
        workload = PhasedWorkload("demo", [
            Phase(SequentialScan(20), ReadOnly(), 20),
            Phase(UniformPattern(20), BernoulliWrites(0.5), 100),
        ])
        a = workload.build(seed=1)
        b = workload.build(seed=1)
        c = workload.build(seed=2)
        assert len(a) == 120
        assert a == b
        assert a != c
        assert workload.total_requests == 120

    def test_component_phase_per_component_writes(self):
        class _HighPages(UniformPattern):
            """Uniform over [500, 500 + pages): disjoint from comp 1."""

            def generate(self, rng, count):
                return super().generate(rng, count) + 500

        phase = ComponentPhase([
            (UniformPattern(10), 1.0, ReadOnly()),
            (_HighPages(100), 1.0, BernoulliWrites(1.0)),
        ], 4000)
        workload = PhasedWorkload("split", [phase])
        trace = workload.build(seed=3)
        pages = np.asarray(trace.pages)
        writes = np.asarray(trace.is_write)
        # component 1 pages (< 10) are never written; component 2
        # pages (>= 500) are always written
        assert not writes[pages < 10].any()
        assert writes[pages >= 500].all()
        assert (pages >= 500).any() and (pages < 10).any()

    def test_empty_phase_list_rejected(self):
        with pytest.raises(ValueError):
            PhasedWorkload("empty", [])


class TestParsecProfiles:
    def test_all_twelve_present(self):
        assert len(WORKLOAD_NAMES) == 12
        assert set(PROFILES) == set(WORKLOAD_NAMES)

    def test_table_iii_constants(self):
        # spot-check rows against the paper's Table III
        blackscholes = PROFILES["blackscholes"]
        assert blackscholes.working_set_kb == 5_188
        assert blackscholes.read_requests == 26_242
        assert blackscholes.write_requests == 0
        streamcluster = PROFILES["streamcluster"]
        assert streamcluster.read_requests == 168_666_464
        assert streamcluster.write_ratio < 0.01
        dedup = PROFILES["dedup"]
        assert dedup.working_set_kb == 512_460

    def test_scaling_helpers(self):
        dedup = PROFILES["dedup"]
        assert scaled_pages(dedup, 1.0) == dedup.footprint_pages
        assert scaled_pages(dedup, 1 / 64) < dedup.footprint_pages
        assert scaled_requests(dedup, 1e-9) == 20_000  # clamped at min
        assert scaled_requests(PROFILES["streamcluster"], 1.0) == 250_000

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            parsec_workload("nonexistent")

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_rendered_workload_matches_profile(self, name):
        instance = parsec_workload(name, request_scale=1 / 2000,
                                   footprint_scale=1 / 128)
        profile = PROFILES[name]
        stats = characterize(instance.trace)
        # write ratio within 8 percentage points of Table III
        assert abs(stats.write_ratio - profile.write_ratio) < 0.08
        # footprint matches the scaled page budget
        assert stats.unique_pages == pytest.approx(
            scaled_pages(profile, 1 / 128), rel=0.05
        )
        # machine sizing follows the paper's rule
        spec = instance.spec
        assert spec.total_pages == pytest.approx(
            0.75 * stats.unique_pages, rel=0.1
        )
        assert spec.dram_pages == pytest.approx(
            0.1 * spec.total_pages, rel=0.15
        )
        assert 0 < instance.warmup_fraction < 1
        assert instance.inter_request_gap >= 0

    def test_determinism_per_seed(self):
        a = parsec_workload("ferret", seed=1)
        b = parsec_workload("ferret", seed=1)
        c = parsec_workload("ferret", seed=2)
        assert a.trace == b.trace
        assert a.trace != c.trace

    def test_static_compensation_restores_paper_capacity(self):
        instance = parsec_workload("dedup", footprint_scale=1 / 64)
        profile = PROFILES["dedup"]
        # modelled static power ~= paper-scale capacity * Table IV rates:
        # 10% of the memory is DRAM at 1 J/(GiB s), 90% NVM at 0.1
        paper_bytes = 0.75 * profile.footprint_pages * 4096
        expected = (0.1 * 1.0 + 0.9 * 0.1) * paper_bytes / (1 << 30)
        assert instance.spec.static_power == pytest.approx(expected,
                                                           rel=0.2)


@settings(max_examples=40, deadline=None)
@given(
    pages=st.integers(min_value=2, max_value=300),
    requests=st.integers(min_value=0, max_value=2000),
    alpha=st.floats(min_value=0.0, max_value=3.0),
    seed=st.integers(min_value=0, max_value=10),
)
def test_zipf_pattern_properties(pages, requests, alpha, seed):
    pattern = ZipfPattern(pages, alpha=alpha, permute_seed=seed)
    generated = pattern.generate(np.random.default_rng(seed), requests)
    assert generated.shape[0] == requests
    if requests:
        assert generated.min() >= 0
        assert generated.max() < pages
