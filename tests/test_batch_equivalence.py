"""Golden equivalence of the batched kernels against the reference paths.

The batch API's contract is *bit-identical results*: driving a policy
through ``access_batch`` (the optimised kernels) must produce exactly
the ``RunResult`` the per-request ``access`` loop produces.  These
tests pin that contract for every registered policy, so any future
kernel optimisation that changes behaviour — however slightly — fails
loudly.
"""

from __future__ import annotations

import pytest

from repro.memory.specs import HybridMemorySpec
from repro.mmu.simulator import HybridMemorySimulator
from repro.policies.registry import available_policies, policy_factory
from repro.workloads.mix import mix_workloads
from repro.workloads.synthetic import zipf_workload

# ----------------------------------------------------------------------
# Policy kernels: batch vs per-request, bit-identical RunResults
# ----------------------------------------------------------------------
_ZIPF_PAGES = 400


def _zipf_trace():
    return zipf_workload(pages=_ZIPF_PAGES, requests=25_000, alpha=1.2,
                         write_ratio=0.3, seed=7)


def _mix_instance():
    return mix_workloads(("bodytrack", "streamcluster"),
                         request_scale=1 / 2000, footprint_scale=1 / 128)


def _spec_for(policy: str, footprint_pages: int) -> HybridMemorySpec:
    spec = HybridMemorySpec.for_footprint(footprint_pages)
    if policy.startswith("dram-only"):
        return spec.as_dram_only()
    if policy.startswith("nvm-only"):
        return spec.as_nvm_only()
    return spec


def _run(trace, spec, policy: str, batch: bool) -> dict:
    simulator = HybridMemorySimulator(
        spec, policy_factory(policy), sanitize=False, batch=batch,
    )
    return simulator.run(trace).to_dict()


@pytest.mark.parametrize("policy", available_policies())
def test_zipf_batch_matches_per_request(policy):
    trace = _zipf_trace()
    spec = _spec_for(policy, _ZIPF_PAGES)
    assert _run(trace, spec, policy, batch=True) \
        == _run(trace, spec, policy, batch=False)


@pytest.mark.parametrize("policy", available_policies())
def test_parsec_mix_batch_matches_per_request(policy):
    mix = _mix_instance()
    spec = mix.spec
    if policy.startswith("dram-only"):
        spec = spec.as_dram_only()
    elif policy.startswith("nvm-only"):
        spec = spec.as_nvm_only()
    assert _run(mix.trace, spec, policy, batch=True) \
        == _run(mix.trace, spec, policy, batch=False)


def test_batch_matches_with_warmup_split():
    # The simulator replays warm-up and ROI as two separate batches;
    # the split must not change anything either.
    trace = _zipf_trace()
    spec = _spec_for("proposed", _ZIPF_PAGES)
    results = []
    for batch in (True, False):
        simulator = HybridMemorySimulator(
            spec, policy_factory("proposed"), sanitize=False, batch=batch,
        )
        results.append(simulator.run(trace, warmup_fraction=0.3).to_dict())
    assert results[0] == results[1]
