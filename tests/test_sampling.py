"""Sampled-engine contract tests (``RunSpec(engine="sampled")``).

The engine's load-bearing promises, pinned:

* **Rate-1 identity** — a 1-in-1 sample replays the full trace on the
  full machine, so the sampled engine must reproduce the exact
  simulator *bit for bit* for every registered policy, while still
  occupying its own digest/cache namespace.
* **Identity & caching** — sampled specs digest distinctly from their
  simulate/analytic twins, pre-sampling digests stay byte-identical
  (warm caches survive), and sampled results round-trip losslessly
  through the on-disk result cache and the worker pool.
* **Validation** — the one-engine-one-meaning rules: ``events=`` only
  on the simulator, ``sampling=`` only on the sampled engine.
* **Membership** — :func:`page_membership` keeps exactly the pages a
  plain-Python stratified reference keeps, and :func:`page_groups`
  splits them into disjoint replicate groups that cover them all.
* **Rate adaptation** — the ``min_faults`` floor moves sparse-fault
  samples toward exact replay instead of reporting noise, and the rate
  is chosen from predicted LRU faults before the one replay a spec
  runs.
* **Box reuse** — a stored replay serves exactly the threshold pairs
  inside its box, only for the stock proposed policy in an unsanitized
  process, from a bounded memo, and never shares mutable counters.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.sanitizer import SANITIZE_ENV
from repro.experiments.executor import ParallelExecutor, ResultCache
from repro.experiments.runspec import RunSpec
from repro.memory.specs import HybridMemorySpec
from repro.model.estimator import lru_capacity
from repro.policies.registry import available_policies
from repro.sampling import MetricInterval, SamplingConfig, SamplingSummary
from repro.sampling import engine as engine_module
from repro.sampling.engine import _Membership
from repro.trace.sampling import hash_u64, page_groups, page_membership
from repro.trace.trace import Trace
from repro.workloads.mix import mix_workloads
from repro.workloads.parsec import WorkloadInstance
from repro.workloads.synthetic import zipf_workload

# ----------------------------------------------------------------------
# Fixtures: one rendered instance per module, reused by every policy
# ----------------------------------------------------------------------
_ZIPF_PAGES = 400


@pytest.fixture(scope="module")
def zipf_instance() -> WorkloadInstance:
    trace = zipf_workload(pages=_ZIPF_PAGES, requests=25_000, alpha=1.2,
                          write_ratio=0.3, seed=7)
    return WorkloadInstance(
        profile=None,
        trace=trace,
        spec=HybridMemorySpec.for_footprint(trace.unique_pages),
        warmup_fraction=0.1,
        inter_request_gap=10e-9,
    )


@pytest.fixture(scope="module")
def mix_instance():
    return mix_workloads(("bodytrack", "streamcluster"),
                         request_scale=1 / 2000, footprint_scale=1 / 128)


def _identity_pair(instance, policy: str) -> tuple[dict, dict]:
    """(full simulate, rate-1 sample) result dicts for one policy."""
    sampled = RunSpec.core("zipf-or-mix", policy, engine="sampled",
                           sampling=SamplingConfig(rate=1))
    exact = replace(sampled, engine="simulate", sampling=None)
    full = exact.execute(instance=instance).to_dict()
    samp = sampled.execute(instance=instance).to_dict()
    return full, samp


def _strip_sampling(payload: dict) -> dict:
    trimmed = dict(payload)
    trimmed.pop("sampling", None)
    return trimmed


# ----------------------------------------------------------------------
# Rate-1 identity: the sampled engine degenerates to the exact simulator
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", available_policies())
def test_rate_one_is_bit_identical_on_zipf(zipf_instance, policy):
    full, samp = _identity_pair(zipf_instance, policy)
    assert samp["sampling"] is not None
    assert samp["sampling"]["effective_rate"] == 1
    assert _strip_sampling(samp) == _strip_sampling(full)


@pytest.mark.parametrize("policy", available_policies())
def test_rate_one_is_bit_identical_on_parsec_mix(mix_instance, policy):
    full, samp = _identity_pair(mix_instance, policy)
    assert _strip_sampling(samp) == _strip_sampling(full)


@pytest.mark.parametrize("scheme", ["stratified"])
def test_rate_one_identity_holds_for_every_scheme(zipf_instance, scheme):
    sampled = RunSpec("dedup", engine="sampled",
                      sampling=SamplingConfig.from_dict(
                          {"rate": 1, "scheme": scheme}))
    exact = replace(sampled, engine="simulate", sampling=None)
    full = exact.execute(instance=zipf_instance).to_dict()
    samp = sampled.execute(instance=zipf_instance).to_dict()
    assert _strip_sampling(samp) == _strip_sampling(full)


# ----------------------------------------------------------------------
# Identity: digests and cache behaviour
# ----------------------------------------------------------------------
class TestSpecIdentity:
    def test_sampled_specs_digest_distinctly(self):
        base = RunSpec("dedup")
        sampled = RunSpec("dedup", engine="sampled")
        assert sampled.digest() != base.digest()
        assert sampled.digest() != RunSpec("dedup",
                                           engine="analytic").digest()
        assert RunSpec(
            "dedup", engine="sampled", sampling=SamplingConfig(rate=1)
        ).digest() != sampled.digest()

    def test_golden_digests_are_pinned(self):
        # Byte-for-byte digest stability: pre-sampling specs keep their
        # historical addresses (warm caches survive the new engine) and
        # sampled specs keep theirs from this point on.
        assert RunSpec("dedup").digest() == "40b471fba25ce8a941b10cec"
        assert RunSpec("dedup", engine="sampled").digest() \
            == "6dd3cf635518d7a36eace9fc"
        assert RunSpec(
            "dedup", engine="sampled", sampling=SamplingConfig(rate=1)
        ).digest() == "9a95d4f053c20b39c1b82af1"

    def test_sampled_spec_round_trips_through_json(self):
        spec = RunSpec("dedup", engine="sampled",
                       sampling=SamplingConfig(rate=4, salt=3, groups=4))
        back = RunSpec.from_dict(spec.to_dict())
        assert back == spec
        assert back.digest() == spec.digest()

    def test_label_names_the_rate(self):
        spec = RunSpec("dedup", engine="sampled",
                       sampling=SamplingConfig(rate=8))
        assert "sampled@1/8" in spec.label()

    def test_sampled_result_round_trips_through_the_cache(self, tmp_path):
        spec = RunSpec("dedup", request_scale=0.005, footprint_scale=1 / 64,
                       engine="sampled",
                       sampling=SamplingConfig(rate=4, groups=4,
                                               min_faults=0))
        result = spec.execute()
        assert isinstance(result.sampling, SamplingSummary)
        cache = ResultCache(tmp_path)
        cache.put(spec, result)
        loaded = cache.get(spec)
        assert loaded is not None
        assert loaded.to_dict() == result.to_dict()
        assert isinstance(loaded.sampling, SamplingSummary)
        for interval in loaded.sampling.intervals.values():
            assert isinstance(interval, MetricInterval)

    def test_parallel_merge_matches_serial_exactly(self):
        specs = [
            RunSpec.core(workload, policy, request_scale=0.005,
                         footprint_scale=1 / 64, engine="sampled",
                         sampling=SamplingConfig(rate=4, min_faults=0))
            for workload in ("dedup", "vips")
            for policy in ("proposed", "clock-dwf")
        ]
        serial = ParallelExecutor(jobs=1).submit(specs)
        parallel = ParallelExecutor(jobs=2).submit(specs)
        assert [r.to_dict() for r in serial] \
            == [r.to_dict() for r in parallel]


# ----------------------------------------------------------------------
# Validation: one engine, one meaning
# ----------------------------------------------------------------------
class TestValidation:
    def test_sampled_engine_rejects_event_collection(self):
        from repro.obs.config import EventConfig

        with pytest.raises(ValueError, match="no event stream"):
            RunSpec("dedup", engine="sampled", events=EventConfig(trace=True))

    def test_sampling_config_requires_the_sampled_engine(self):
        with pytest.raises(ValueError, match="engine"):
            RunSpec("dedup", sampling=SamplingConfig(rate=4))
        with pytest.raises(ValueError, match="engine"):
            RunSpec("dedup", engine="analytic",
                    sampling=SamplingConfig(rate=4))

    def test_sampled_specs_always_carry_a_config(self):
        assert RunSpec("dedup", engine="sampled").sampling \
            == SamplingConfig()


# ----------------------------------------------------------------------
# Membership: the vectorized rule == a plain-Python reference
# ----------------------------------------------------------------------
def _reference_membership(pages, rate: int, salt: int) -> set[int]:
    """Stratified membership from its definition: rank pages by request
    count (hottest first, ties by page number) and keep every
    ``rate``-th rank starting at the salted offset."""
    counts: dict[int, int] = {}
    for page in pages:
        counts[page] = counts.get(page, 0) + 1
    ranked = sorted(counts, key=lambda page: (-counts[page], page))
    seed = int(hash_u64(np.asarray([salt], dtype=np.uint64))[0])
    return set(ranked[seed % rate::rate])


@pytest.mark.parametrize("salt", [0, 3])
@pytest.mark.parametrize("rate", [1, 2, 8, 16])
def test_page_membership_matches_reference(zipf_instance, rate, salt):
    trace = zipf_instance.trace
    pages, counts = np.unique(trace.pages, return_counts=True)
    member = page_membership(pages, counts, rate, "stratified", salt)
    expected = _reference_membership(trace.pages.tolist(), rate, salt)
    assert set(pages[member].tolist()) == expected

    groups = 4
    ids = page_groups(counts, groups, rate)
    parts = [set(pages[member & (ids == group)].tolist())
             for group in range(groups)]
    sizes = [len(part) for part in parts]
    assert sum(sizes) == len(expected)
    assert set().union(*parts) == expected
    # Kept ranks deal round-robin into the groups: sizes differ by <= 1.
    assert max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("scheme", ["spatial", "modulo", "temporal"])
def test_removed_schemes_are_rejected(zipf_instance, scheme):
    pages, counts = np.unique(zipf_instance.trace.pages, return_counts=True)
    with pytest.raises(ValueError, match="scheme"):
        page_membership(pages, counts, 4, scheme)
    with pytest.raises(ValueError, match="spatial.*modulo.*temporal"):
        SamplingConfig.from_dict({"scheme": scheme})


def test_sampling_config_round_trip_keeps_the_scheme_key():
    payload = SamplingConfig(rate=8, salt=3).to_dict()
    assert payload["scheme"] == "stratified"
    assert SamplingConfig.from_dict(payload) == SamplingConfig(rate=8, salt=3)
    with pytest.raises(ValueError, match="rte"):
        SamplingConfig.from_dict({"rte": 8})
    with pytest.raises(TypeError, match="mapping"):
        SamplingConfig.from_dict(5)


def test_membership_reads_the_trace_index(zipf_instance, monkeypatch):
    trace = zipf_instance.trace
    trace.page_index()
    sorted_sizes = []

    def recording(function):
        def wrapped(array, *args, **kwargs):
            sorted_sizes.append(np.shape(array))
            return function(array, *args, **kwargs)
        return wrapped

    with monkeypatch.context() as patch:
        patch.setattr(np, "argsort", recording(np.argsort))
        patch.setattr(np, "unique", recording(np.unique))
        membership = _Membership(trace, salt=3)
        draws = [membership.draw(rate) for rate in (1, 4)]
        draws += membership.replicate_draws(4, 3)
    assert (len(trace),) not in sorted_sizes
    assert membership.total_pages == np.unique(trace.pages).size
    for mask, distinct in draws:
        assert distinct == np.unique(trace.pages[mask]).size


# ----------------------------------------------------------------------
# Rate adaptation and uncertainty reporting
# ----------------------------------------------------------------------
class TestAdaptation:
    def test_min_faults_escalates_to_exact_replay(self, zipf_instance):
        spec = RunSpec("dedup", engine="sampled",
                       sampling=SamplingConfig(rate=4, min_faults=10 ** 6))
        result = spec.execute(instance=zipf_instance)
        assert result.sampling.effective_rate == 1
        exact = replace(spec, engine="simulate", sampling=None)
        assert _strip_sampling(result.to_dict()) \
            == _strip_sampling(exact.execute(instance=zipf_instance)
                               .to_dict())

    def test_min_faults_zero_disables_escalation(self, zipf_instance):
        spec = RunSpec("dedup", engine="sampled",
                       sampling=SamplingConfig(rate=4, min_faults=0))
        result = spec.execute(instance=zipf_instance)
        assert result.sampling.effective_rate == 4
        assert 0 < result.sampling.sampled_pages \
            < result.sampling.total_pages

    def test_intervals_bracket_the_estimates(self, zipf_instance):
        spec = RunSpec("dedup", engine="sampled",
                       sampling=SamplingConfig(rate=4, groups=4,
                                               min_faults=0))
        summary = spec.execute(instance=zipf_instance).sampling
        assert set(summary.intervals) == {"amat", "appr", "nvm_writes"}
        for interval in summary.intervals.values():
            assert interval.lo <= interval.estimate <= interval.hi
            assert interval.se >= 0.0

    def test_single_group_disables_intervals(self, zipf_instance):
        spec = RunSpec("dedup", engine="sampled",
                       sampling=SamplingConfig(rate=4, groups=1,
                                               min_faults=0))
        summary = spec.execute(instance=zipf_instance).sampling
        assert summary.intervals == {}


# ----------------------------------------------------------------------
# Rate choice: hopeless draws skipped unreplayed, replays checked
# ----------------------------------------------------------------------
def _counting_simulate(monkeypatch) -> list[tuple[int, int]]:
    """Patch the engine's ``simulate`` to record each replay's length
    and the (unscaled) faults it saw."""
    replays: list[tuple[int, int]] = []
    real = engine_module.simulate
    monkeypatch.setattr(engine_module, "_REPLAYS", {})

    def counting(trace, *args, **kwargs):
        result = real(trace, *args, **kwargs)
        replays.append((len(trace), result.accounting.page_faults))
        return result

    monkeypatch.setattr(engine_module, "simulate", counting)
    return replays


def _predicted_faults(spec: RunSpec, instance, rate: int) -> int:
    """LRU faults the rate choice predicts for the 1-in-``rate`` draw."""
    _, machine, warmup = spec.resolve(instance)
    trace = instance.trace
    boundary = int(len(trace) * warmup)
    membership = _Membership(trace, spec.sampling.salt)
    subset, pages, warm = engine_module._sparse_draw(
        trace, membership, rate, boundary)
    scaled = machine.sampled(membership.total_pages / pages)
    return engine_module._predicted_faults(
        subset, warm, lru_capacity(spec.policy, scaled))


class TestRateChoice:
    @pytest.mark.parametrize("groups", [1, 4])
    def test_a_sampled_spec_replays_once(self, zipf_instance, monkeypatch,
                                         groups):
        calls = _counting_simulate(monkeypatch)
        spec = RunSpec("zipf", engine="sampled", sampling=SamplingConfig(
            rate=16, min_faults=64, min_pages=8, groups=groups))
        summary = spec.execute(instance=zipf_instance).sampling
        # The 1-in-16 draw is predicted 31 faults, under 64 - 2*8, and
        # is skipped; the 1-in-4 draw is predicted 157 and replayed.
        assert summary.effective_rate == 4
        # One main replay, then at most one replay per replicate group,
        # each smaller than the main one.
        assert len(calls) <= 1 + (groups if groups > 1 else 0)
        assert len(calls) == 1 + summary.groups
        assert all(length < calls[0][0] for length, _ in calls[1:])

    def test_an_exact_spec_replays_once_without_groups(
            self, zipf_instance, monkeypatch):
        calls = _counting_simulate(monkeypatch)
        spec = RunSpec("zipf", engine="sampled",
                       sampling=SamplingConfig(rate=16, min_faults=10 ** 6))
        summary = spec.execute(instance=zipf_instance).sampling
        assert summary.effective_rate == 1
        assert summary.groups == 0
        assert [length for length, _ in calls] == [len(zipf_instance.trace)]

    @pytest.mark.parametrize("policy, transform, faults", [
        ("nvm-only", (), {1: 1038, 4: 238, 16: 50}),
        ("dram-only", (), {1: 8246, 4: 1960, 16: 435}),
        ("nvm-only", ("nvm-only",), {1: 751, 4: 167, 16: 31}),
        ("dram-only", ("dram-only",), {1: 751, 4: 167, 16: 31}),
    ])
    def test_prediction_is_the_lru_replay(
            self, zipf_instance, monkeypatch, policy, transform, faults):
        # For an LRU baseline the prediction is the count its replay
        # sees, at every rate: the same subset at the same frames.
        calls = _counting_simulate(monkeypatch)
        for rate, expected in faults.items():
            spec = RunSpec("zipf", policy=policy, spec_transform=transform,
                           engine="sampled", sampling=SamplingConfig(
                               rate=rate, min_pages=0, min_faults=0,
                               groups=1))
            assert _predicted_faults(spec, zipf_instance, rate) == expected
            calls.clear()
            spec.execute(instance=zipf_instance)
            assert calls[0][1] == expected

    @pytest.mark.parametrize("policy, rates", [
        ("proposed", (4, 2)),
        ("clock-dwf", (4, 2)),
        ("nvm-only", (4, 2)),
        # Only the DRAM frames fill without the dram-only transform:
        # the small capacity faults often enough at the sparse rates.
        ("dram-only", (16, 8)),
    ])
    def test_chosen_rates_are_pinned(self, zipf_instance, policy, rates):
        chosen = tuple(
            RunSpec("zipf", policy=policy, engine="sampled",
                    sampling=SamplingConfig(rate=rate, min_faults=floor,
                                            min_pages=8, groups=1))
            .execute(instance=zipf_instance).sampling.effective_rate
            for rate, floor in ((16, 64), (8, 200))
        )
        assert chosen == rates

    @pytest.mark.parametrize("policy", available_policies())
    def test_a_sampled_replay_sees_min_faults(self, zipf_instance,
                                              monkeypatch, policy):
        # Whatever the prediction said, the replay a sampled result
        # comes from saw at least ``min_faults`` faults.
        calls = _counting_simulate(monkeypatch)
        summary = RunSpec("zipf", policy=policy, engine="sampled",
                          sampling=SamplingConfig(rate=16, min_faults=64,
                                                  min_pages=8, groups=1)
                          ).execute(instance=zipf_instance).sampling
        assert summary.effective_rate > 1
        assert calls[-1][1] >= 64

    def test_a_near_miss_is_replayed_and_checked(self, zipf_instance,
                                                 monkeypatch):
        # nvm-only's 1-in-16 draw is predicted 50 faults: within two
        # standard errors of 64, so it is replayed; it sees 50, and the
        # engine moves on to the 1-in-4 draw.
        calls = _counting_simulate(monkeypatch)
        spec = RunSpec("zipf", policy="nvm-only", engine="sampled",
                       sampling=SamplingConfig(rate=16, min_faults=64,
                                               min_pages=8, groups=1))
        assert _predicted_faults(spec, zipf_instance, 16) == 50
        summary = spec.execute(instance=zipf_instance).sampling
        assert summary.effective_rate == 4
        assert [faults for _, faults in calls] == [50, 238]

    def test_a_hybrid_near_miss_can_sample(self):
        # LRU predicts 51 faults for the proposed policy's 1-in-4 draw
        # of the canneal Fig. 4 cell; migrations reorder its queues and
        # the replay sees 65, so the cell samples at 1/4.
        spec = RunSpec.core("canneal", "proposed", engine="sampled",
                            sampling=SamplingConfig(rate=16, groups=1))
        instance = spec.render()
        assert _predicted_faults(spec, instance, 16) == 11
        assert _predicted_faults(spec, instance, 4) == 51
        assert spec.execute(instance=instance).sampling.effective_rate == 4

    def test_an_empty_measured_draw_is_never_replayed(self, monkeypatch):
        # Every page is touched in the warm-up half; the measured half
        # touches one page, outside the 1-in-16 draw but inside the
        # 1-in-4 one (the salt picks the draws), so the sparse draw
        # has nothing to measure.
        pages = np.concatenate([np.tile(np.arange(256), 8),
                                np.full(2048, 7)])
        trace = Trace(pages, np.arange(pages.size) % 3 == 0, name="warm")
        position = int(np.searchsorted(trace.page_index().pages, 7))
        salt = next(
            salt for salt in range(64)
            if not _Membership(trace, salt).member(16)[position]
            and _Membership(trace, salt).member(4)[position])
        instance = WorkloadInstance(
            profile=None, trace=trace,
            spec=HybridMemorySpec.for_footprint(trace.unique_pages),
            warmup_fraction=0.5, inter_request_gap=10e-9)
        calls = _counting_simulate(monkeypatch)
        spec = RunSpec("warm", engine="sampled", sampling=SamplingConfig(
            rate=16, salt=salt, min_pages=0, min_faults=0, groups=1))
        summary = spec.execute(instance=instance).sampling
        assert summary.effective_rate == 4
        assert summary.sampled_requests == 2048
        assert len(calls) == 1


# ----------------------------------------------------------------------
# Box reuse: one replay serves every threshold pair that decides alike
# ----------------------------------------------------------------------
@pytest.fixture
def unsanitized(monkeypatch):
    """An unsanitized process (sanitized runs never reuse) with an
    empty replay memo."""
    monkeypatch.setenv(SANITIZE_ENV, "0")
    monkeypatch.setattr(engine_module, "_REPLAYS", {})


def _threshold_spec(read, write, policy="proposed", rate=1) -> RunSpec:
    """One replay at ``rate``: no floor moves a sparse draw."""
    return RunSpec("zipf", policy=policy, engine="sampled",
                   sampling=SamplingConfig(rate=rate, min_pages=0,
                                           min_faults=0, groups=1),
                   policy_overrides={"read_threshold": read,
                                     "write_threshold": write})


def _stored() -> list:
    """The memo's (box, raw result) pairs."""
    return [entry for _, held in engine_module._REPLAYS.values()
            for entry in held]


def _stored_boxes() -> list:
    return [box for box, _ in _stored()]


def _fresh_replay(spec: RunSpec, instance) -> dict:
    """``spec``'s result from an empty memo (the memo is put back)."""
    saved = engine_module._REPLAYS
    engine_module._REPLAYS = {}
    try:
        return spec.execute(instance=instance).to_dict()
    finally:
        engine_module._REPLAYS = saved


@pytest.mark.usefixtures("unsanitized")
class TestBoxReuse:
    @pytest.mark.parametrize("rate, peak", [(1, 13), (16, 8)])
    def test_a_pair_inside_the_box_reuses_the_replay(
            self, zipf_instance, monkeypatch, rate, peak):
        calls = _counting_simulate(monkeypatch)
        _threshold_spec(64, 2, rate=rate).execute(instance=zipf_instance)
        [((read_lo, read_hi), _)] = _stored_boxes()
        # No read hit promotes at 64: the box's read range is open.
        assert (read_lo, read_hi) == (peak, float("inf"))
        reused = {}
        for read in (read_lo, 10 ** 6):
            inside = _threshold_spec(read, 2, rate=rate)
            reused[inside] = inside.execute(instance=zipf_instance).to_dict()
        assert len(calls) == 1
        for spec, result in reused.items():
            assert result == _fresh_replay(spec, zipf_instance)

    @pytest.mark.parametrize("read, write", [(64, 2), (2, 64), (16, 8)])
    def test_a_pair_one_step_outside_the_box_replays(
            self, zipf_instance, monkeypatch, read, write):
        calls = _counting_simulate(monkeypatch)
        _threshold_spec(read, write).execute(instance=zipf_instance)
        [box] = _stored_boxes()
        original = dict(engine_module._REPLAYS)
        outside = []
        for axis, (lo, hi) in enumerate(box):
            for step in ([lo - 1] if lo else []) + (
                    [hi + 1] if hi != float("inf") else []):
                pair = [read, write]
                pair[axis] = step
                outside.append(pair)
        assert len(outside) >= 2
        replayed = {}
        for pair in outside:
            # Only the first box is stored, whatever the earlier
            # steps added.
            monkeypatch.setattr(engine_module, "_REPLAYS", dict(original))
            spec = _threshold_spec(*pair)
            replayed[spec] = spec.execute(instance=zipf_instance).to_dict()
        assert len(calls) == 1 + len(outside)
        for spec, result in replayed.items():
            assert result == _fresh_replay(spec, zipf_instance)

    def test_replicate_replays_reuse_the_memo(
            self, zipf_instance, monkeypatch):
        calls = _counting_simulate(monkeypatch)
        spec = RunSpec("zipf", engine="sampled", sampling=SamplingConfig(
            rate=16, min_pages=0, min_faults=0, groups=4))
        first = spec.execute(instance=zipf_instance).to_dict()
        assert first["sampling"]["groups"] == 4
        assert len(calls) == 1 + 4
        # The same draw's replicate subsets come back from the draw
        # memo, so the box memo serves all five replays.
        again = RunSpec.from_dict(spec.to_dict())
        assert again.execute(instance=zipf_instance).to_dict() == first
        assert len(calls) == 1 + 4
        assert _fresh_replay(again, zipf_instance) == first

    def test_the_adaptive_policy_never_reuses(
            self, zipf_instance, monkeypatch):
        # Its hooks move the thresholds during the run.
        calls = _counting_simulate(monkeypatch)
        spec = _threshold_spec(16, 8, policy="adaptive")
        first = spec.execute(instance=zipf_instance).to_dict()
        assert spec.execute(instance=zipf_instance).to_dict() == first
        assert len(calls) == 2
        assert not engine_module._REPLAYS

    def test_a_sanitized_run_always_replays(
            self, zipf_instance, monkeypatch):
        monkeypatch.setenv(SANITIZE_ENV, "1")
        calls = _counting_simulate(monkeypatch)
        spec = _threshold_spec(64, 64)
        spec.execute(instance=zipf_instance)
        spec.execute(instance=zipf_instance)
        assert len(calls) == 2
        assert not engine_module._REPLAYS

    def test_the_memo_stays_bounded(self, zipf_instance, monkeypatch):
        monkeypatch.setattr(engine_module, "REPLAY_LIMIT", 3)
        calls = _counting_simulate(monkeypatch)
        # Each read threshold promotes, so each box is its own.
        for read in range(1, 8):
            _threshold_spec(read, 64).execute(instance=zipf_instance)
            assert 1 <= len(_stored_boxes()) <= 3
        assert len(calls) == 7

    def test_the_memo_stays_within_its_page_budget(
            self, zipf_instance, monkeypatch):
        _threshold_spec(1, 64).execute(instance=zipf_instance)
        [(_, first)] = _stored()
        budget = len(first.wear.page_writes) * 5 // 2
        monkeypatch.setattr(engine_module, "REPLAY_PAGE_LIMIT", budget)
        for read in range(2, 8):
            _threshold_spec(read, 64).execute(instance=zipf_instance)
            held = sum(len(result.wear.page_writes) for _, result in _stored())
            assert 0 < held <= budget
        # A replay over the whole budget is not kept at all.
        monkeypatch.setattr(engine_module, "REPLAY_PAGE_LIMIT", 0)
        _threshold_spec(8, 64).execute(instance=zipf_instance)
        assert not _stored()

    def test_equivalent_specs_share_no_mutable_counters(
            self, zipf_instance):
        spec = _threshold_spec(64, 64)
        first = spec.execute(instance=zipf_instance)
        second = spec.execute(instance=zipf_instance)
        [(_, stored)] = _stored()
        objects = [(result.accounting, result.wear, result.wear.page_writes)
                   for result in (first, second, stored)]
        for family in zip(*objects):
            assert len({id(item) for item in family}) == 3
        expected = first.to_dict()
        first.accounting.read_requests += 1
        first.wear.page_writes[-1] = 1
        assert second.to_dict() == expected
        assert spec.execute(instance=zipf_instance).to_dict() == expected
