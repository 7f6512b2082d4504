"""Tests for homogeneous baselines, ablation variants and the registry."""

from __future__ import annotations

import pytest

from repro.memory.devices import dram_spec, hdd_spec, pcm_spec
from repro.memory.specs import HybridMemorySpec
from repro.mmu.manager import MemoryManager
from repro.mmu.page import PageLocation
from repro.mmu.simulator import simulate
from repro.policies.registry import (
    available_policies,
    policy_factory,
    register_policy,
)
from repro.policies.single_tier import DramOnlyPolicy, NvmOnlyPolicy
from repro.policies.variants import (
    EagerMigrationPolicy,
    NeverMigratePolicy,
    StaticPartitionPolicy,
)


def _hybrid_spec(dram=4, nvm=12) -> HybridMemorySpec:
    return HybridMemorySpec(
        dram=dram_spec(), nvm=pcm_spec(), disk=hdd_spec(),
        dram_pages=dram, nvm_pages=nvm,
    )


class TestSingleTier:
    def test_dram_only_uses_dram_frames(self, zipf_trace):
        spec = _hybrid_spec().as_dram_only()
        result = simulate(zipf_trace, spec, DramOnlyPolicy)
        assert result.accounting.nvm_hits == 0
        assert result.accounting.faults_filled_nvm == 0
        assert result.accounting.migrations == 0

    def test_nvm_only_uses_nvm_frames(self, zipf_trace):
        spec = _hybrid_spec().as_nvm_only()
        result = simulate(zipf_trace, spec, NvmOnlyPolicy)
        assert result.accounting.dram_hits == 0
        assert result.accounting.faults_filled_dram == 0
        # every served write request is an NVM line write
        assert result.nvm_writes.request_writes == \
            result.accounting.nvm_write_hits

    def test_rejects_zero_capacity(self):
        spec = _hybrid_spec(dram=0, nvm=8)
        with pytest.raises(ValueError):
            DramOnlyPolicy(MemoryManager(spec))

    def test_nvm_only_amat_slower_than_dram_only(self, zipf_trace):
        spec = _hybrid_spec()
        dram = simulate(zipf_trace, spec.as_dram_only(), DramOnlyPolicy)
        nvm = simulate(zipf_trace, spec.as_nvm_only(), NvmOnlyPolicy)
        # identical replacement -> identical hit ratio, slower device
        assert nvm.accounting.hits == dram.accounting.hits
        assert nvm.performance.memory_time > dram.performance.memory_time

    def test_nvm_only_static_power_lower(self, zipf_trace):
        spec = _hybrid_spec()
        dram = simulate(zipf_trace, spec.as_dram_only(), DramOnlyPolicy)
        nvm = simulate(zipf_trace, spec.as_nvm_only(), NvmOnlyPolicy)
        assert nvm.power.static < dram.power.static


class TestVariants:
    def test_eager_migrates_on_every_nvm_hit(self, zipf_trace):
        spec = _hybrid_spec()
        eager = simulate(zipf_trace, spec, EagerMigrationPolicy)
        proposed = simulate(zipf_trace, spec,
                            policy_factory("proposed"))
        assert eager.accounting.migrations_to_dram > \
            proposed.accounting.migrations_to_dram
        # eager serves no request from NVM twice in a row: every NVM
        # hit promotes, so NVM hits equal promotions
        assert eager.accounting.nvm_hits == \
            eager.accounting.migrations_to_dram

    def test_never_migrate_has_zero_promotions(self, zipf_trace):
        result = simulate(zipf_trace, _hybrid_spec(), NeverMigratePolicy)
        assert result.accounting.migrations_to_dram == 0
        # demotions still happen (fault path), promotions never
        assert result.accounting.migrations_to_nvm > 0

    def test_static_partition_never_migrates(self, zipf_trace):
        result = simulate(zipf_trace, _hybrid_spec(), StaticPartitionPolicy)
        assert result.accounting.migrations == 0

    def test_static_partition_is_deterministic_split(self):
        spec = _hybrid_spec()
        policy = StaticPartitionPolicy(MemoryManager(spec))
        homes = {page: policy._home(page) for page in range(200)}
        # same mapping every time
        policy2 = StaticPartitionPolicy(MemoryManager(spec))
        assert homes == {page: policy2._home(page) for page in range(200)}
        dram_share = sum(
            1 for home in homes.values() if home is PageLocation.DRAM
        ) / len(homes)
        assert dram_share == pytest.approx(spec.dram_pages /
                                           spec.total_pages, abs=0.1)


BUILTIN_POLICIES = [
    "adaptive",
    "clock-dwf",
    "dram-cache",
    "dram-only",
    "dram-only-clock",
    "eager-migration",
    "never-migrate",
    "nvm-only",
    "nvm-only-clock",
    "pdram",
    "proposed",
    "static-partition",
]


class TestRegistry:
    def test_known_policies_instantiate(self, zipf_trace):
        assert available_policies() == BUILTIN_POLICIES
        spec = _hybrid_spec(dram=8, nvm=24)
        for name in available_policies():
            if name.startswith("dram-only"):
                run_spec = spec.as_dram_only()
            elif name.startswith("nvm-only"):
                run_spec = spec.as_nvm_only()
            else:
                run_spec = spec
            policy = policy_factory(name)(MemoryManager(run_spec))
            assert policy.name
            # drive a few accesses to prove it works end to end
            for page in range(6):
                policy.access(page, page % 3 == 0)
            policy.validate()

    def test_unknown_policy_rejected(self):
        with pytest.raises(KeyError):
            policy_factory("no-such-policy")

    def test_register_custom_policy(self):
        factory = policy_factory("proposed", {"read_threshold": 3,
                                              "write_threshold": 1})
        register_policy("custom-test-policy", factory)
        policy = policy_factory("custom-test-policy")(
            MemoryManager(_hybrid_spec()))
        assert policy.read_threshold == 3

    def test_a_registration_is_made(self):
        register_policy("registry-leak-probe", EagerMigrationPolicy)
        assert "registry-leak-probe" in available_policies()

    def test_a_registration_ends_with_its_test(self):
        # Runs right after the test above: the registration it made is
        # gone (the conftest fixture restores the table).
        assert "registry-leak-probe" not in available_policies()

    def test_double_registration_rejected(self):
        with pytest.raises(ValueError):
            register_policy("proposed", lambda mm: None)
