"""Tests for the trace-driven simulator: determinism, warm-up handling,
cross-layer invariants and result assembly."""

from __future__ import annotations

import gc

import pytest

from repro.analysis.sanitizer import SanitizedPolicy
from repro.core.lru import LRUNode
from repro.experiments.runspec import RunSpec
from repro.memory.specs import HybridMemorySpec
from repro.mmu.simulator import HybridMemorySimulator, RunResult, simulate
from repro.policies.clock_dwf import _DWFNode
from repro.policies.registry import policy_factory
from repro.policies.replacement import _ClockNode
from repro.sampling import SamplingConfig
from repro.workloads.synthetic import zipf_workload


@pytest.fixture
def trace():
    return zipf_workload(pages=200, requests=15_000, seed=11)


@pytest.fixture
def spec(trace):
    return HybridMemorySpec.for_footprint(trace.unique_pages)


class TestSimulatorBasics:
    def test_every_request_is_accounted(self, trace, spec):
        result = simulate(trace, spec, policy_factory("proposed"))
        assert result.accounting.total_requests == len(trace)
        assert result.accounting.read_requests == trace.read_count
        assert result.accounting.write_requests == trace.write_count
        result.accounting.validate()

    def test_determinism(self, trace, spec):
        first = simulate(trace, spec, policy_factory("proposed"))
        second = simulate(trace, spec, policy_factory("proposed"))
        assert first.accounting == second.accounting
        assert first.amat == second.amat
        assert first.appr == second.appr

    def test_deep_checks_catch_nothing_on_healthy_run(self, trace, spec):
        factory = policy_factory("clock-dwf")
        result = simulate(
            trace, spec,
            lambda mm: SanitizedPolicy(factory(mm), deep_every=500),
            sanitize=False)
        assert result.accounting.total_requests == len(trace)

    def test_result_fields(self, trace, spec):
        result = simulate(trace, spec, policy_factory("proposed"))
        assert result.workload == trace.name
        assert result.policy == "proposed"
        assert result.amat > 0
        assert result.appr > 0
        assert 0 <= result.hit_ratio <= 1
        summary = result.summary()
        assert summary["requests"] == len(trace)
        assert summary["amat_ns"] == pytest.approx(result.amat * 1e9)

    def test_mid_run_result(self, trace, spec):
        simulator = HybridMemorySimulator(spec, policy_factory("proposed"))
        simulator.run(trace[:100])
        partial = simulator.result()
        assert partial.accounting.total_requests == 100


class TestWarmup:
    def test_warmup_excludes_cold_faults(self, trace, spec):
        cold = simulate(trace, spec, policy_factory("proposed"))
        warm = simulate(trace, spec, policy_factory("proposed"),
                        warmup_fraction=0.3)
        assert warm.accounting.total_requests < \
            cold.accounting.total_requests
        assert warm.accounting.p_miss < cold.accounting.p_miss

    def test_warmup_fraction_validation(self, trace, spec):
        with pytest.raises(ValueError):
            simulate(trace, spec, policy_factory("proposed"),
                     warmup_fraction=1.0)
        with pytest.raises(ValueError):
            simulate(trace, spec, policy_factory("proposed"),
                     warmup_fraction=-0.1)

    def test_warm_state_survives_reset(self, trace, spec):
        """After warm-up the policy keeps its queues: the measured
        segment should see far fewer faults than a cold run over the
        same segment."""
        boundary = int(len(trace) * 0.5)
        warm = simulate(trace, spec, policy_factory("proposed"),
                        warmup_fraction=0.5)
        cold_segment = simulate(trace[boundary:], spec,
                                policy_factory("proposed"))
        assert warm.accounting.page_faults < \
            cold_segment.accounting.page_faults


class TestGap:
    def test_gap_raises_static_share(self, trace, spec):
        without = simulate(trace, spec, policy_factory("proposed"))
        with_gap = simulate(trace, spec, policy_factory("proposed"),
                            inter_request_gap=1e-6)
        assert with_gap.power.static > without.power.static
        assert with_gap.power.dynamic_hit == pytest.approx(
            without.power.dynamic_hit
        )
        # AMAT is unaffected by compute gaps
        assert with_gap.amat == pytest.approx(without.amat)


class TestCrossPolicyInvariants:
    @pytest.mark.parametrize("policy_name", [
        "proposed", "adaptive", "clock-dwf", "eager-migration",
        "never-migrate", "static-partition",
    ])
    def test_full_validation_run(self, trace, spec, policy_name):
        factory = policy_factory(policy_name)
        result = simulate(
            trace, spec,
            lambda mm: SanitizedPolicy(factory(mm), deep_every=777),
            sanitize=False)
        acct = result.accounting
        acct.validate()
        # residency never exceeds capacity (checked indirectly: fills
        # minus evictions equals resident pages <= total frames)
        assert acct.page_faults - acct.evictions_to_disk <= \
            spec.total_pages

    def test_hybrid_static_power_is_fraction_of_dram_only(self, spec):
        # NVM static is 10x cheaper: a 90%-NVM hybrid must burn much
        # less background power per unit time (the ~80% static saving
        # the paper reports for every hybrid configuration)
        assert spec.static_power < spec.as_dram_only().static_power * 0.3
        assert spec.as_nvm_only().static_power == pytest.approx(
            spec.as_dram_only().static_power * 0.1
        )


class TestOneRecipe:
    """Every engine's result is ``RunResult.scored`` over its own
    counters: a per-engine scoring copy that drifts fails here."""

    @pytest.mark.parametrize("engine, sampling", [
        ("simulate", None),
        ("analytic", None),
        ("sampled", SamplingConfig(rate=16)),
    ])
    def test_result_is_its_counters_scored(self, engine, sampling):
        spec = RunSpec.core("canneal", "proposed", engine=engine,
                            sampling=sampling)
        instance = spec.render()
        result = spec.execute(instance=instance)
        if engine == "sampled":
            assert result.sampling.effective_rate > 1  # really sampled
        rescored = RunResult.scored(
            result.workload, result.policy, result.spec,
            result.accounting, result.wear, instance.inter_request_gap,
        )
        expected = result.to_dict()
        actual = rescored.to_dict()
        for key in ("events", "sampling"):
            del expected[key], actual[key]
        assert actual == expected


def _live_nodes() -> int:
    """Queue and clock nodes alive, reachable or not."""
    return sum(isinstance(obj, (LRUNode, _ClockNode, _DWFNode))
               for obj in gc.get_objects())


@pytest.mark.parametrize("policy", [
    "proposed", "nvm-only", "dram-only-clock", "clock-dwf", "pdram",
    "dram-cache", "static-partition",
])
@pytest.mark.parametrize("sanitize", [False, True])
def test_simulate_leaves_no_node_for_the_collector(trace, spec, policy,
                                                    sanitize):
    """A finished ``simulate()`` frees its queues by reference counting:
    with the cyclic collector off, no node outlives the call."""
    gc.collect()
    gc.disable()
    try:
        before = _live_nodes()
        simulate(trace, spec, policy_factory(policy), sanitize=sanitize)
        after = _live_nodes()
    finally:
        gc.enable()
    assert after == before


def test_an_inspected_run_keeps_its_queues(trace, spec):
    """``HybridMemorySimulator.run`` leaves the policy for its caller."""
    simulator = HybridMemorySimulator(spec, policy_factory("proposed"))
    simulator.run(trace)
    assert len(simulator.policy.dram_lru) == spec.dram_pages
    simulator.policy.validate()


def test_simulate_disposes_even_a_captured_policy(trace, spec):
    """``simulate()`` disposes of every policy it builds; a caller that
    reads the policy back passes its factory to ``RunSpec.execute``
    (or drives ``HybridMemorySimulator.run``), which keeps it."""
    kept = []

    def capture(mm):
        kept.append(policy_factory("proposed")(mm))
        return kept[-1]

    simulate(trace, spec, capture, sanitize=False)
    assert len(kept[0].dram_lru) == 0
    RunSpec("dedup", request_scale=1 / 2000,
            footprint_scale=1 / 128).execute(factory=capture)
    assert len(kept[1].dram_lru) == kept[1].mm.spec.dram_pages
    kept[1].validate()
