"""Cross-policy integration and metamorphic properties.

These tests treat every registered policy as a black box and check the
invariants any correct hybrid-memory policy must satisfy:

* conservation — every request is accounted exactly once;
* capacity — residency never exceeds the configured frames;
* determinism — same trace, same spec, same result;
* renaming invariance — policies may not depend on page-id values,
  only on identity, so a random bijection of page numbers must leave
  every metric unchanged (static-partition is exempt: it hashes ids by
  design);
* model sanity — AMAT and APPR respond to device parameters the way
  Eq. 1/2 dictate.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import SanitizedPolicy
from repro.memory.devices import dram_spec, hdd_spec, pcm_spec
from repro.memory.specs import HybridMemorySpec
from repro.mmu.simulator import simulate
from repro.policies.registry import available_policies, policy_factory
from repro.trace.trace import Trace
from repro.trace.transform import remap_random
from repro.workloads.synthetic import (
    pingpong_workload,
    scan_loop_workload,
    zipf_workload,
)

HYBRID_POLICIES = (
    "proposed", "adaptive", "clock-dwf", "pdram", "eager-migration",
    "never-migrate", "static-partition",
)


def _spec_for(trace: Trace) -> HybridMemorySpec:
    return HybridMemorySpec.for_footprint(max(trace.unique_pages, 4))


@pytest.fixture(scope="module")
def traces() -> dict[str, Trace]:
    return {
        "zipf": zipf_workload(pages=256, requests=12_000, seed=1),
        "loop": scan_loop_workload(pages=256, window=150,
                                   requests=12_000, seed=2),
        "pingpong": pingpong_workload(pages=256, requests=12_000, seed=3),
    }


class TestConservationAndCapacity:
    @pytest.mark.parametrize("policy_name", HYBRID_POLICIES)
    @pytest.mark.parametrize("trace_name", ["zipf", "loop", "pingpong"])
    def test_invariants(self, traces, policy_name, trace_name):
        trace = traces[trace_name]
        spec = _spec_for(trace)
        factory = policy_factory(policy_name)
        result = simulate(
            trace, spec,
            lambda mm: SanitizedPolicy(factory(mm), deep_every=1234),
            sanitize=False)
        acct = result.accounting
        acct.validate()
        assert acct.total_requests == len(trace)
        assert acct.read_requests == trace.read_count
        assert acct.page_faults - acct.evictions_to_disk <= \
            spec.total_pages
        # wear bookkeeping agrees with the write-breakdown model
        assert result.wear.total_writes == result.nvm_writes.total


class TestDeterminism:
    @pytest.mark.parametrize("policy_name", HYBRID_POLICIES)
    def test_bitwise_repeatability(self, traces, policy_name):
        trace = traces["zipf"]
        spec = _spec_for(trace)
        first = simulate(trace, spec, policy_factory(policy_name))
        second = simulate(trace, spec, policy_factory(policy_name))
        assert first.accounting == second.accounting
        assert first.wear.page_writes == second.wear.page_writes


class TestRenamingInvariance:
    @pytest.mark.parametrize("policy_name", [
        "proposed", "adaptive", "clock-dwf", "pdram",
        "eager-migration", "never-migrate",
    ])
    def test_metrics_survive_page_renaming(self, traces, policy_name):
        trace = traces["zipf"]
        renamed = remap_random(trace, seed=9)
        spec = _spec_for(trace)
        original = simulate(trace, spec, policy_factory(policy_name))
        remapped = simulate(renamed, spec, policy_factory(policy_name))
        assert original.accounting == remapped.accounting
        assert original.amat == pytest.approx(remapped.amat)
        assert original.appr == pytest.approx(remapped.appr)


class TestModelSanity:
    def test_slower_nvm_raises_amat_not_hits(self, traces):
        trace = traces["zipf"]
        base_spec = _spec_for(trace)
        slow_nvm = HybridMemorySpec(
            dram=dram_spec(), nvm=pcm_spec().scaled(latency=3.0),
            disk=hdd_spec(),
            dram_pages=base_spec.dram_pages,
            nvm_pages=base_spec.nvm_pages,
        )
        fast = simulate(trace, base_spec, policy_factory("proposed"))
        slow = simulate(trace, slow_nvm, policy_factory("proposed"))
        # identical placement decisions (latency is not an input to the
        # policy), so accounting matches but the model output moves
        assert fast.accounting == slow.accounting
        assert slow.performance.memory_time > fast.performance.memory_time

    def test_cheaper_nvm_energy_lowers_appr(self, traces):
        trace = traces["pingpong"]
        base_spec = _spec_for(trace)
        cheap_nvm = HybridMemorySpec(
            dram=dram_spec(), nvm=pcm_spec().scaled(energy=0.25),
            disk=hdd_spec(),
            dram_pages=base_spec.dram_pages,
            nvm_pages=base_spec.nvm_pages,
        )
        expensive = simulate(trace, base_spec, policy_factory("proposed"))
        cheap = simulate(trace, cheap_nvm, policy_factory("proposed"))
        assert cheap.power.appr < expensive.power.appr

    def test_bigger_memory_fewer_faults(self, traces):
        trace = traces["zipf"]
        small = HybridMemorySpec.for_footprint(trace.unique_pages,
                                               memory_fraction=0.4)
        large = HybridMemorySpec.for_footprint(trace.unique_pages,
                                               memory_fraction=0.95)
        small_run = simulate(trace, small, policy_factory("proposed"))
        large_run = simulate(trace, large, policy_factory("proposed"))
        assert large_run.accounting.page_faults < \
            small_run.accounting.page_faults


class TestPolicyOrderings:
    """The qualitative orderings the paper's argument depends on."""

    def test_proposed_beats_dwf_on_pingpong(self, traces):
        trace = traces["pingpong"]
        spec = _spec_for(trace)
        proposed = simulate(trace, spec, policy_factory("proposed"))
        dwf = simulate(trace, spec, policy_factory("clock-dwf"))
        assert proposed.accounting.migrations < dwf.accounting.migrations
        assert proposed.performance.memory_time < \
            dwf.performance.memory_time
        assert proposed.nvm_writes.total < dwf.nvm_writes.total

    def test_eager_is_worst_migrator(self, traces):
        trace = traces["zipf"]
        spec = _spec_for(trace)
        runs = {
            name: simulate(trace, spec, policy_factory(name))
            for name in ("proposed", "clock-dwf", "eager-migration")
        }
        eager = runs["eager-migration"].accounting.migrations
        assert eager >= runs["proposed"].accounting.migrations
        assert eager >= runs["clock-dwf"].accounting.migrations

    def test_never_migrate_has_cheapest_migration_term(self, traces):
        trace = traces["zipf"]
        spec = _spec_for(trace)
        never = simulate(trace, spec, policy_factory("never-migrate"))
        proposed = simulate(trace, spec, policy_factory("proposed"))
        assert never.accounting.migrations_to_dram == 0
        # but the proposed scheme buys lower service time with its
        # (few) promotions on a zipf-skewed trace
        assert proposed.performance.request_time <= \
            never.performance.request_time * 1.05


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=50),
    write_ratio=st.floats(min_value=0.0, max_value=1.0),
)
def test_every_policy_survives_arbitrary_small_traces(seed, write_ratio):
    """Fuzz: tiny random traces with any write mix must not break any
    registered policy or any invariant."""
    trace = zipf_workload(pages=24, requests=600,
                          write_ratio=write_ratio, seed=seed)
    for policy_name in available_policies():
        spec = _spec_for(trace)
        if policy_name.startswith("dram-only"):
            spec = spec.as_dram_only()
        elif policy_name.startswith("nvm-only"):
            spec = spec.as_nvm_only()
        factory = policy_factory(policy_name)
        result = simulate(
            trace, spec,
            lambda mm: SanitizedPolicy(factory(mm), deep_every=150),
            sanitize=False)
        result.accounting.validate()
