"""Tests for the analytic engine: Markov solvers, workload profiling,
tier-membership propagation, the estimators and the RunSpec plumbing
(engine identity, digests, cache integration)."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.executor import ParallelExecutor, ResultCache
from repro.experiments.runspec import ENGINES, RunSpec
from repro.memory.specs import HybridMemorySpec
from repro.mmu.simulator import RunResult
from repro.model import (
    ANALYTIC_POLICIES,
    UnsupportedPolicyError,
    characteristic_time,
    estimate_run,
    estimate_spec,
    profile_trace,
    profile_workload,
    promotion_probability,
    supports_policy,
    survival_probability,
)
from repro.model.estimator import _fill_residency
from repro.model.markov import occupancy, promotion_steps
from repro.trace.mrc import recency_distances, stack_distances
from repro.trace.trace import PageIndex, Trace
from repro.workloads.parsec import WorkloadInstance, parsec_workload
from repro.workloads.synthetic import zipf_workload

SCALE = 0.0005  # fast grid scale shared with the validation suite


def _trace(pages, writes=None, name="t"):
    pages = list(pages)
    writes = [False] * len(pages) if writes is None else list(writes)
    return Trace(
        name=name,
        pages=np.asarray(pages, dtype=np.int64),
        is_write=np.asarray(writes, dtype=bool),
    )


# ---------------------------------------------------------------------------
# Markov-chain building blocks
# ---------------------------------------------------------------------------
class TestCharacteristicTime:
    def test_everything_fits_never_evicts(self):
        rates = np.array([0.1, 0.2, 0.3])
        assert characteristic_time(rates, 3) == np.inf
        assert characteristic_time(rates, 10) == np.inf

    def test_empty_or_zero_capacity(self):
        assert characteristic_time(np.array([]), 4) == 0.0
        assert characteristic_time(np.array([0.5]), 0) == 0.0

    def test_fixed_point_satisfies_che_equation(self):
        rng = np.random.default_rng(7)
        rates = rng.uniform(0.001, 0.2, size=64)
        for capacity in (4, 16, 48):
            t = characteristic_time(rates, capacity)
            assert occupancy(rates, t) == pytest.approx(capacity, rel=1e-6)

    def test_monotone_in_capacity(self):
        rates = np.linspace(0.01, 0.2, 32)
        times = [characteristic_time(rates, c) for c in (4, 8, 16)]
        assert times[0] < times[1] < times[2]


class TestSurvival:
    def test_edges(self):
        rates = np.array([0.0, 0.5])
        assert survival_probability(rates, 0.0).tolist() == [0.0, 0.0]
        assert survival_probability(rates, np.inf).tolist() == [0.0, 1.0]

    def test_matches_closed_form(self):
        rates = np.array([0.25])
        assert survival_probability(rates, 2.0)[0] == pytest.approx(
            1.0 - np.exp(-0.5)
        )


class TestPromotionChain:
    def test_threshold_zero_is_geometric_race(self):
        # Any same-direction access promotes; racing death at 1 - A.
        in_window = np.array([0.3])
        in_queue = np.array([0.6])
        fraction = np.array([1.0])
        win = 0.6 * 1.0  # tick + restart = A * f when f covers both
        expected = win / (win + (1.0 - 0.6))
        got = promotion_probability(in_window, in_queue, fraction, 0)
        assert got[0] == pytest.approx(expected)

    def test_immortal_resident_always_promotes(self):
        # in_queue == 1: the page never ages out, so promotion (at any
        # finite threshold) is certain as long as it ticks at all.
        p = promotion_probability(
            np.array([0.9]), np.array([1.0]), np.array([0.5]), 4
        )
        assert p[0] == pytest.approx(1.0, abs=1e-9)

    def test_monotone_in_threshold(self):
        in_window = np.array([0.5])
        in_queue = np.array([0.8])
        fraction = np.array([0.7])
        probs = [
            promotion_probability(in_window, in_queue, fraction, t)[0]
            for t in (0, 1, 4, 16)
        ]
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_steps_lower_bound_and_monotone(self):
        in_window = np.array([0.5])
        in_queue = np.array([0.9])
        fraction = np.array([0.5])
        steps = [
            promotion_steps(in_window, in_queue, fraction, t)[0]
            for t in (0, 1, 4, 16)
        ]
        assert steps[0] >= 1.0
        assert all(a <= b for a, b in zip(steps, steps[1:]))

    def test_steps_threshold_zero_is_inverse_rate(self):
        s = promotion_steps(
            np.array([0.25]), np.array([0.5]), np.array([1.0]), 0
        )
        assert s[0] == pytest.approx(1.0 / 0.5)


# ---------------------------------------------------------------------------
# Workload profiling
# ---------------------------------------------------------------------------
def _reference_distances(pages, writes):
    """Both distance arrays straight from their definitions, O(n^2):
    distinct pages (written pages) strictly between an access and its
    page's previous access (previous write); -1 if there is none."""
    distances, write_distances = [], []
    for i, page in enumerate(pages):
        touched = [j for j in range(i) if pages[j] == page]
        distances.append(
            len({pages[j] for j in range(touched[-1] + 1, i)})
            if touched else -1)
        written = [j for j in touched if writes[j]]
        write_distances.append(
            len({pages[j] for j in range(written[-1] + 1, i) if writes[j]})
            if written else -1)
    return distances, write_distances


@st.composite
def _profiled_traces(draw):
    """A trace plus a sample cap, biased toward the kernel's edges:
    empty and 1-request traces, one hot page, all-write and no-write
    traces, sparse page ids up to 2**40 and caps below the length."""
    size = draw(st.one_of(st.sampled_from([0, 1]), st.integers(0, 60)))
    ids = draw(st.one_of(
        st.lists(st.integers(0, 2**40), min_size=1, max_size=1),
        st.lists(st.integers(0, 12), min_size=1, max_size=8, unique=True),
        st.lists(st.integers(0, 2**40), min_size=1, max_size=8,
                 unique=True),
    ))
    pages = draw(st.lists(st.sampled_from(ids), min_size=size,
                          max_size=size))
    writes = draw(st.one_of(
        st.just([False] * size),
        st.just([True] * size),
        st.lists(st.booleans(), min_size=size, max_size=size),
    ))
    cap = draw(st.one_of(st.none(), st.integers(0, size)))
    return pages, writes, cap


#: sha256 of the distance arrays of the three ``sweep-engines``
#: workloads at the ``repro sweep`` defaults, recorded from the
#: per-access Fenwick-tree implementation the vectorised kernel
#: replaced.
_SWEEP_DISTANCE_DIGESTS = {
    "dedup": (
        "8b4c854636c37c510c1f02633aa745b88492be92bac346ac1e0551c1227d1e7a",
        "bb005a3e02935880d3febe18d03a1d23c0072a81789e30e5add4ef867b0161bb",
    ),
    "canneal": (
        "a7f12766cfdf2b455fc358f6b864dd7eb35c69a1906dfc0ccca9f8d14711b030",
        "e66d0d420aa6a5c06bcfd8f131a9096db0b4a598a38af6a6e42b7c9d416bc1c4",
    ),
    "raytrace": (
        "902967ac89a7b617c0ae7e4a300f062ef529e60356453c459fb56d2f5c302b2d",
        "dbaae6bd899b4c946a73e00b12e988eb7b24203913c79106228d733996d5c142",
    ),
}

#: sha256 of the canonical ``RunResult.to_dict()`` JSON of analytic
#: sweep cells (workload, read threshold, write threshold), recorded
#: alongside the distance digests.
_SWEEP_RESULT_DIGESTS = {
    ("dedup", 1, 1):
        "893f76e27fb0d315fee307d24a17f24e90ecb2efaa40a643001050ea61691f6e",
    ("dedup", 64, 16):
        "2c87d81fc2edd44da8125145f6f51b0be61d13ee4c23918bf211fba0c9baa58e",
    ("canneal", 8, 4):
        "cf7b14e07f78bc9cbb55ce2549f6ee528ea339288d22cd900eac9cfc14b36f61",
    ("raytrace", 1, 1):
        "a457346a2de91ad1876e69255af33101a140b725693461464c61d47ee419763b",
    ("raytrace", 64, 16):
        "657a5a5797f57aa71b4ee922fd0755d5feed657be17d1c37c9b8a4269a0a5002",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestProfile:
    @settings(max_examples=300, deadline=None)
    @given(case=_profiled_traces())
    def test_distances_match_definitions(self, case):
        pages, writes, cap = case
        trace = _trace(pages, writes)
        limit = len(pages) if cap is None else cap
        expected, expected_writes = _reference_distances(
            pages[:limit], writes[:limit])
        profile = profile_trace(trace, sample_cap=cap)
        assert profile.distances.tolist() == expected
        assert profile.write_distances.tolist() == expected_writes
        assert stack_distances(trace, sample_cap=cap).tolist() == expected

    def test_sweep_distances_pinned(self):
        for workload, digests in _SWEEP_DISTANCE_DIGESTS.items():
            instance = RunSpec(workload, policy="proposed",
                               seed=2016).render()
            profile = profile_workload(instance)
            assert (_sha256(profile.distances.tobytes()),
                    _sha256(profile.write_distances.tobytes())) == digests

    def test_sweep_analytic_results_pinned(self):
        instances = {}
        for (workload, read, write), digest in _SWEEP_RESULT_DIGESTS.items():
            spec = RunSpec(workload, policy="proposed", seed=2016,
                           engine="analytic",
                           policy_overrides={"read_threshold": read,
                                             "write_threshold": write})
            if workload not in instances:
                instances[workload] = spec.render()
            result = spec.execute(instance=instances[workload])
            canonical = json.dumps(json.loads(json.dumps(result.to_dict())),
                                   sort_keys=True, separators=(",", ":"))
            assert _sha256(canonical.encode()) == digest

    @settings(max_examples=200, deadline=None)
    @given(case=_profiled_traces(),
           warmup=st.sampled_from([0.0, 0.25, 0.5, 0.9]))
    def test_index_derived_fields_match_unique(self, case, warmup):
        pages, writes, cap = case
        trace = _trace(pages, writes)
        profile = profile_trace(trace, warmup_fraction=warmup,
                                sample_cap=cap)
        pages = np.asarray(pages, dtype=np.int64)
        limit = profile.boundary + profile.sampled
        assert profile.warmup_distinct == \
            np.unique(pages[:profile.boundary]).shape[0]
        assert profile.footprint == np.unique(pages).shape[0]
        page_ids, inverse = np.unique(pages[:limit], return_inverse=True)
        assert np.array_equal(profile.page_ids, page_ids)
        assert np.array_equal(profile.page_index, inverse)
        assert "write_distances" not in vars(profile)  # not built yet
        first = profile.write_distances
        assert profile.write_distances is first  # built once, cached
        assert np.array_equal(
            first, recency_distances(pages[:limit], writes[:limit]))

    def test_only_clock_dwf_reads_write_distances(self, zipf_trace):
        machine = HybridMemorySpec.for_footprint(zipf_trace.unique_pages)
        profile = profile_trace(zipf_trace, warmup_fraction=0.2)
        for policy in ("proposed", "dram-only", "nvm-only"):
            estimate_run(profile, machine, policy=policy)
        assert "write_distances" not in vars(profile)
        estimate_run(profile, machine, policy="clock-dwf")
        assert "write_distances" in vars(profile)

    def test_profile_sorts_the_trace_once(self, zipf_trace, monkeypatch):
        sorts = []
        argsort = np.argsort

        def counting(*args, **kwargs):
            sorts.append(args[0].shape)
            return argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting)
        profile_trace(zipf_trace, warmup_fraction=0.3, sample_cap=2000)
        assert sorts == [(len(zipf_trace),)]
        profile_trace(zipf_trace, warmup_fraction=0.5)
        assert sorts == [(len(zipf_trace),)]  # the cached index is reused

    def test_write_distance_tracks_written_ordering(self):
        # Pages 0,1,2 written in order, then page 0 read: two distinct
        # pages (1, 2) written since 0's last write.
        trace = _trace([0, 1, 2, 0], writes=[True, True, True, False])
        profile = profile_trace(trace)
        assert profile.write_distances.tolist() == [-1, -1, -1, 2]

    def test_boundary_and_measured_slice(self):
        trace = _trace(range(10))
        profile = profile_trace(trace, warmup_fraction=0.3)
        assert profile.boundary == 3
        assert profile.requests == 7
        assert profile.measured == slice(3, 10)
        assert profile.warmup_distinct == 3

    def test_sample_cap_scales_weight(self):
        trace = _trace(list(range(5)) * 40)
        profile = profile_trace(trace, sample_cap=100)
        assert profile.sampled == 100
        assert profile.weight == pytest.approx(2.0)
        assert profile.requests == 200  # totals stay exact

    def test_profile_workload_uses_instance_warmup(self):
        instance = parsec_workload("dedup", request_scale=SCALE)
        profile = profile_workload(instance)
        total = len(instance.trace.pages)
        assert profile.boundary == int(total * instance.warmup_fraction)
        assert profile.requests == total - profile.boundary


# ---------------------------------------------------------------------------
# Tier-membership propagation
# ---------------------------------------------------------------------------
class TestFillResidency:
    def _inputs(self, pages, frames):
        trace = _trace(pages)
        profile = profile_trace(trace)
        fault = (profile.distances < 0) | (profile.distances >= 1 << 30)
        return profile.index, fault, profile.distances, frames

    def test_rehit_page_stays_resident(self):
        # Page 0 re-accessed every other slot: one distinct intervener
        # per gap, below frames=2, so it is never demoted.
        pages = [0, 1, 0, 2, 0, 3, 0, 4, 0]
        index, fault, distinct, frames = self._inputs(pages, 2)
        resident = _fill_residency(index, fault, distinct, frames)
        own = resident[np.asarray(pages) == 0]
        assert own.tolist() == [False] + [True] * 4  # fault then hits

    def test_wide_gap_demotes(self):
        # Page 0's second access comes after 4 distinct fills with
        # frames=2: sunk past the list end, so not resident (and no
        # later fault to re-admit it).
        pages = [0, 1, 2, 3, 4, 0]
        index, fault, distinct, frames = self._inputs(pages, 2)
        resident = _fill_residency(index, fault, distinct, frames)
        assert not resident[5]

    def test_refault_readmits(self):
        # Same wide gap, but capacity 4 < 5 distinct pages makes the
        # return access a fault at total capacity in the caller; here
        # model the fault mask directly: a faulting access re-enters.
        pages = [0, 1, 2, 3, 4, 0, 0]
        trace = _trace(pages)
        profile = profile_trace(trace)
        fault = (profile.distances < 0) | (profile.distances >= 4)
        resident = _fill_residency(
            profile.index, fault, profile.distances, 2
        )
        assert fault[5]  # the return access itself faults back in
        assert resident[6]  # and the follow-up hit is DRAM-resident

    def test_dram_hit_pressure_counts(self):
        # Without hit pressure page 1 survives its gap (only one fill);
        # page 0's two DRAM re-hits of a *single* distinct page add one
        # more distinct intervener and push page 1 out of 2 frames.
        pages = [0, 1, 0, 0, 5, 1]
        index, fault, distinct, frames = self._inputs(pages, 2)
        no_hits = _fill_residency(index, fault, distinct, frames)
        assert no_hits[5]
        with_hits = _fill_residency(index, fault, distinct, frames,
                                    dram_hits=no_hits)
        assert not with_hits[5]

    def test_empty_and_zero_frames(self):
        index, fault, distinct, _ = self._inputs([0, 1, 0], 2)
        assert _fill_residency(index, fault, distinct, 0).tolist() == [
            False, False, False,
        ]
        empty = np.array([], dtype=np.int64)
        assert _fill_residency(
            PageIndex.of(empty), empty.astype(bool), empty, 4
        ).shape == (0,)


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------
class TestEstimators:
    @pytest.fixture(scope="class")
    def instance(self):
        return parsec_workload("dedup", request_scale=SCALE)

    @pytest.fixture(scope="class")
    def profile(self, instance):
        return profile_workload(instance)

    def test_single_tier_hit_ratio_is_exact(self, instance, profile):
        for policy in ("dram-only", "nvm-only"):
            spec = RunSpec.core("dedup", policy, request_scale=SCALE)
            sim = spec.execute(instance=instance)
            est = estimate_run(
                profile, spec.machine_spec(instance), policy=policy,
                inter_request_gap=instance.inter_request_gap,
            )
            assert est.accounting.hit_ratio == pytest.approx(
                sim.accounting.hit_ratio, abs=1e-9
            )
            assert est.accounting.total_requests == \
                sim.accounting.total_requests

    def test_estimates_validate_and_score(self, instance, profile):
        for policy in ("proposed", "clock-dwf"):
            spec = RunSpec.core("dedup", policy, request_scale=SCALE)
            result = estimate_run(
                profile, spec.machine_spec(instance), policy=policy,
                inter_request_gap=instance.inter_request_gap,
            )
            assert isinstance(result, RunResult)
            assert result.performance.amat > 0
            assert result.power.appr > 0
            result.accounting.validate()  # internally consistent

    def test_unsupported_policy_raises(self, instance, profile):
        with pytest.raises(UnsupportedPolicyError, match="pdram"):
            estimate_run(profile, instance.spec, policy="pdram")
        assert not supports_policy("pdram")
        assert supports_policy("proposed")
        assert supports_policy("dram-only-clock")
        assert "proposed" in ANALYTIC_POLICIES

    def test_overrides_only_for_proposed(self, instance, profile):
        with pytest.raises(UnsupportedPolicyError, match="overrides"):
            estimate_run(profile, instance.spec, policy="clock-dwf",
                         overrides={"read_threshold": 4})
        with pytest.raises(UnsupportedPolicyError, match="MigrationConfig"):
            estimate_run(profile, instance.spec, policy="proposed",
                         overrides={"bogus_knob": 1})

    def test_threshold_sensitivity_direction(self, instance, profile):
        promos = []
        for threshold in (1, 64):
            result = estimate_run(
                profile, instance.spec, policy="proposed",
                overrides={"read_threshold": threshold,
                           "write_threshold": threshold},
            )
            promos.append(result.accounting.migrations_to_dram)
        assert promos[0] > promos[1]  # lower threshold, more promotions


# ---------------------------------------------------------------------------
# RunSpec engine identity and digests
# ---------------------------------------------------------------------------
class TestEngineSpec:
    def test_engines_vocabulary(self):
        assert ENGINES == ("simulate", "analytic", "sampled")
        with pytest.raises(ValueError, match="unknown engine"):
            RunSpec(workload="dedup", engine="quantum")

    def test_pre_engine_digests_unchanged(self):
        # Golden digests computed at the seed commit, before the engine
        # field existed: default-engine specs must keep them so warm
        # on-disk caches stay valid.
        golden = {
            RunSpec(workload="dedup"): "40b471fba25ce8a941b10cec",
            RunSpec.core("canneal", "dram-only", seed=7):
                "5f501987ffc8a0a96076d4bd",
            RunSpec(workload="x264", policy="proposed",
                    policy_overrides={"read_threshold": 8},
                    warmup_fraction=0.25):
                "e52033067415d6ec4c7fcff7",
        }
        for spec, digest in golden.items():
            assert spec.digest() == digest

    def test_analytic_digest_distinct_and_stable(self):
        simulate = RunSpec(workload="dedup")
        analytic = RunSpec(workload="dedup", engine="analytic")
        assert analytic.digest() != simulate.digest()
        assert analytic.digest() == "e021d6c06c8d079fe146f5b4"
        assert analytic != simulate
        assert analytic.key() != simulate.key()

    def test_round_trip_preserves_engine(self):
        spec = RunSpec(workload="vips", engine="analytic",
                       policy_overrides={"read_threshold": 4})
        back = RunSpec.from_dict(spec.to_dict())
        assert back == spec
        assert back.digest() == spec.digest()
        # Legacy payloads (no engine key) deserialise as simulations.
        legacy = spec.to_dict()
        del legacy["engine"]
        assert RunSpec.from_dict(legacy).engine == "simulate"

    def test_label_names_non_default_engine(self):
        assert "analytic" in RunSpec(workload="dedup",
                                     engine="analytic").label()
        assert "simulate" not in RunSpec(workload="dedup").label()

    def test_core_transform_independent_of_engine(self):
        # The single-module normalisation is derived from the policy
        # name alone: analytic baselines get the same transform.
        for policy, transform in (("dram-only", ("dram-only",)),
                                  ("nvm-only", ("nvm-only",)),
                                  ("nvm-only-clock", ("nvm-only",))):
            sim = RunSpec.core("dedup", policy)
            ana = RunSpec.core("dedup", policy, engine="analytic")
            assert sim.spec_transform == transform
            assert ana.spec_transform == transform

    def test_analytic_rejects_events_and_factory(self):
        from repro.obs.config import EventConfig

        with pytest.raises(ValueError, match="event stream"):
            RunSpec(workload="dedup", engine="analytic",
                    events=EventConfig(trace=True))
        # Only the simulate engine takes a custom policy factory.
        for engine in ("analytic", "sampled"):
            spec = RunSpec(workload="dedup", engine=engine,
                           request_scale=SCALE)
            with pytest.raises(ValueError, match="factory"):
                spec.execute(factory=lambda mm: None)


# ---------------------------------------------------------------------------
# Execution plumbing: estimate_spec, executor, cache
# ---------------------------------------------------------------------------
class TestEnginePlumbing:
    def test_execute_dispatches_to_estimator(self):
        spec = RunSpec.core("dedup", "proposed", request_scale=SCALE,
                            engine="analytic")
        direct = estimate_spec(spec)
        via_execute = spec.execute()
        assert via_execute.accounting.to_dict() == \
            direct.accounting.to_dict()
        assert via_execute.events is None

    def test_profile_cache_reuse(self):
        from repro.model import estimator

        estimator._PROFILES.clear()
        first = RunSpec.core("dedup", "proposed", request_scale=SCALE,
                             engine="analytic")
        second = RunSpec.core("dedup", "clock-dwf", request_scale=SCALE,
                              engine="analytic")
        estimate_spec(first)
        assert len(estimator._PROFILES) == 1
        profile = next(iter(estimator._PROFILES.values()))
        estimate_spec(second)
        assert len(estimator._PROFILES) == 1
        assert next(iter(estimator._PROFILES.values())) is profile

    def test_profile_memo_keys_by_the_given_instance(self):
        # A spec executed on an instance other than its own rendering
        # profiles that instance, not the spec's own workload.
        from repro.model import estimator

        other = parsec_workload("canneal", request_scale=SCALE)
        spec = RunSpec("dedup", engine="analytic", request_scale=SCALE,
                       warmup_fraction=0.1)
        own = spec.execute().accounting.to_dict()
        on_other = spec.execute(instance=other).accounting.to_dict()
        estimator._PROFILES.clear()
        assert on_other == spec.execute(instance=other).accounting.to_dict()
        assert own == spec.execute().accounting.to_dict()
        requests = len(other.trace)
        assert on_other["read_requests"] + on_other["write_requests"] \
            == requests - round(0.1 * requests)

    def test_analytic_engine_accepts_an_instance_without_profile(self):
        # The hand-built zipf instance of test_sampling carries no
        # PARSEC profile; the simulate and sampled engines replay it,
        # and the analytic engine must profile it too.
        from repro.model import estimator

        trace = zipf_workload(pages=400, requests=25_000, alpha=1.2,
                              write_ratio=0.3, seed=7)
        zipf = WorkloadInstance(
            profile=None,
            trace=trace,
            spec=HybridMemorySpec.for_footprint(trace.unique_pages),
            warmup_fraction=0.1,
            inter_request_gap=10e-9,
        )
        estimator._PROFILES.clear()
        result = RunSpec("dedup", engine="analytic").execute(instance=zipf)
        counted = result.accounting.to_dict()
        assert counted["read_requests"] + counted["write_requests"] \
            == len(trace) - round(0.1 * len(trace))
        assert result.workload == "dedup"
        assert profile_workload(zipf).name == trace.name
        # A pinned analytic cell does not move.
        pinned = RunSpec("dedup", policy="proposed", seed=2016,
                         engine="analytic",
                         policy_overrides={"read_threshold": 1,
                                           "write_threshold": 1}).execute()
        canonical = json.dumps(json.loads(json.dumps(pinned.to_dict())),
                               sort_keys=True, separators=(",", ":"))
        assert _sha256(canonical.encode()) == \
            _SWEEP_RESULT_DIGESTS["dedup", 1, 1]

    def test_executor_and_cache_treat_analytic_as_ordinary(self, tmp_path):
        specs = [
            RunSpec.core("dedup", policy, request_scale=SCALE,
                         engine="analytic")
            for policy in ("proposed", "dram-only")
        ]
        cold = ParallelExecutor(jobs=1, cache=ResultCache(tmp_path))
        first = cold.submit(specs)
        assert cold.stats.cache_misses == 2
        warm = ParallelExecutor(jobs=1, cache=ResultCache(tmp_path))
        second = warm.submit(specs)
        assert warm.stats.cache_hits == 2
        assert warm.stats.simulated == 0
        for a, b in zip(first, second):
            assert a.accounting.to_dict() == b.accounting.to_dict()
            assert a.policy == b.policy

    def test_analytic_and_simulate_cache_separately(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = ParallelExecutor(jobs=1, cache=cache)
        sim = RunSpec.core("dedup", "dram-only", request_scale=SCALE)
        ana = RunSpec.core("dedup", "dram-only", request_scale=SCALE,
                           engine="analytic")
        executor.submit([sim, ana])
        assert executor.stats.cache_misses == 2  # distinct entries
