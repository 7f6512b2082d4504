"""Golden equivalence of the batched kernels against the reference paths.

The batch API's contract is *bit-identical results*: driving a policy
through ``access_batch`` (the optimised kernels) must produce exactly
the ``RunResult`` the per-request ``access`` loop produces.  These
tests pin that contract for every registered policy, so any future
kernel optimisation that changes behaviour — however slightly — fails
loudly.
"""

from __future__ import annotations

from enum import Enum

import pytest

from repro.core.migration import MigrationLRUPolicy
from repro.memory.specs import HybridMemorySpec
from repro.mmu.manager import MemoryManager
from repro.mmu.page import PageLocation
from repro.mmu.simulator import HybridMemorySimulator
from repro.obs import EventConfig
from repro.policies.base import HybridMemoryPolicy
from repro.policies.registry import available_policies, policy_factory
from repro.policies.single_tier import NvmOnlyPolicy
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


# ----------------------------------------------------------------------
# The proposed kernel's steady-state and fallback paths: promotion-heavy
# thresholds, one-page windows, windows covering the queue, zero-size
# windows and the adaptive policy's hooks, with and without events
# ----------------------------------------------------------------------
_ONE_PAGE = 1e-9  # any positive fraction rounds up to a one-page window

_KERNEL_CASES = {
    "threshold-0": ("proposed", {"read_threshold": 0, "write_threshold": 0}),
    "threshold-1": ("proposed", {"read_threshold": 1, "write_threshold": 1}),
    "window-1": ("proposed", {"read_window_fraction": _ONE_PAGE,
                              "write_window_fraction": _ONE_PAGE,
                              "read_threshold": 1, "write_threshold": 1}),
    "read-window-1": ("proposed", {"read_window_fraction": _ONE_PAGE,
                                   "read_threshold": 0}),
    "window-covers-queue": ("proposed", {"read_window_fraction": 1.0,
                                         "write_window_fraction": 1.0,
                                         "read_threshold": 1,
                                         "write_threshold": 1}),
    "zero-windows": ("proposed", {"read_window_fraction": 0.0,
                                  "write_window_fraction": 0.0,
                                  "read_threshold": 0, "write_threshold": 1}),
    "never-migrate": ("never-migrate", {}),
    "adaptive": ("adaptive", {"read_threshold": 1, "write_threshold": 1}),
}


def _kernel_instance(name):
    if name == "zipf":
        trace = _zipf_trace()
        return trace, _spec_for("proposed", _ZIPF_PAGES)
    mix = _mix_instance()
    return mix.trace, mix.spec


def _kernel_run(trace, spec, case, batch, **run):
    policy, overrides = _KERNEL_CASES[case]
    simulator = HybridMemorySimulator(
        spec, policy_factory(policy, overrides or None), sanitize=False,
        batch=batch, events=run.pop("events", None),
    )
    return simulator.run(trace, **run)


@pytest.mark.parametrize("instance", ["zipf", "mix"])
@pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
def test_kernel_paths_match_per_request(instance, case):
    trace, spec = _kernel_instance(instance)
    batched = _kernel_run(trace, spec, case, batch=True)
    looped = _kernel_run(trace, spec, case, batch=False)
    assert batched.to_dict() == looped.to_dict()
    if case != "never-migrate":
        assert batched.accounting.migrations_to_dram > 0


@pytest.mark.parametrize("instance", ["zipf", "mix"])
@pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
def test_kernel_paths_match_with_events_and_warmup(instance, case):
    trace, spec = _kernel_instance(instance)
    runs = [
        _kernel_run(trace, spec, case, batch=batch, warmup_fraction=0.3,
                    events=EventConfig(buckets=8, trace=True))
        for batch in (True, False)
    ]
    assert runs[0].events.trace_lines == runs[1].events.trace_lines
    assert runs[0].to_dict() == runs[1].to_dict()


class _FillNvmPolicy(MigrationLRUPolicy):
    """Faults fill NVM instead of DRAM (evicting NVM's LRU when full)."""

    def _page_fault(self, page: int, is_write: bool) -> None:
        if not self.mm.has_free(PageLocation.NVM):
            self.mm.evict_to_disk(self.nvm_lru.pop_lru().page)
        self.mm.fault_fill(page, PageLocation.NVM, is_write)
        self.nvm_lru.push_front(page)


def test_subclass_overriding_a_kernel_method_replays_per_request():
    # The kernel inlines the stock fault cascade; a subclass with its
    # own _page_fault must not be bypassed.
    trace = _zipf_trace()
    spec = _spec_for("proposed", _ZIPF_PAGES)
    results = [
        HybridMemorySimulator(spec, _FillNvmPolicy, sanitize=False,
                              batch=batch).run(trace).to_dict()
        for batch in (True, False)
    ]
    assert results[0] == results[1]
    assert results[1]["accounting"]["faults_filled_nvm"] > 0


class _CountingNvmOnly(NvmOnlyPolicy):
    """Counts the faults its own ``_page_fault`` handles."""

    handled = 0

    def _page_fault(self, page: int, is_write: bool) -> None:
        self.handled += 1
        super()._page_fault(page, is_write)


def test_single_tier_subclass_overriding_page_fault_replays_per_request():
    trace = _zipf_trace()
    spec = _spec_for("nvm-only", _ZIPF_PAGES)
    simulator = HybridMemorySimulator(spec, _CountingNvmOnly,
                                      sanitize=False)
    result = simulator.run(trace)
    assert simulator.policy.handled == result.accounting.page_faults > 0


# ----------------------------------------------------------------------
# The kernel contract: a subclass may override any method of a policy
# that runs a kernel, or of an object the policy holds, and the batch
# replay still calls the override as often as the per-request replay
# ----------------------------------------------------------------------
#: Construction and attribute-protocol methods a counting subclass
#: leaves alone, and the contract machinery itself.
_UNCOUNTED = frozenset({
    "__init__", "__new__", "__init_subclass__", "__subclasshook__",
    "__getattr__", "__getattribute__", "__setattr__", "__delattr__",
    "__del__", "access_batch", "runs_kernel",
})


def _counting_subclass(cls, names, calls):
    """A subclass of ``cls`` whose ``names`` count each call in
    ``calls[0]`` and pass it on.  It adds no slots, so an existing
    object of ``cls`` can take it as its ``__class__``."""

    def override(name):
        def counted(self, *args, **kwargs):
            calls[0] += 1
            return getattr(super(subclass, self), name)(*args, **kwargs)
        return counted

    namespace = {name: override(name) for name in names}
    namespace["__slots__"] = ()
    subclass = type(cls)(f"Counting{cls.__name__}", (cls,), namespace)
    return subclass


def _methods(cls):
    """Every plain method ``cls`` has below ``object``."""
    return sorted({
        name for klass in cls.__mro__[:-1]
        for name, value in vars(klass).items()
        if callable(value) and name not in _UNCOUNTED
        and not isinstance(value, (type, staticmethod, classmethod))
    })


def _held(policy):
    """The policy's attributes that hold an object of a project class
    (the manager, queues, clocks, windows, algorithms, configs)."""
    return sorted(
        name for name, value in vars(policy).items()
        if type(value).__module__.startswith("repro.")
        and not isinstance(value, Enum)
    )


def _kernel_policies():
    """(registry name, policy) of each registered policy whose class
    runs a kernel."""
    for name in available_policies():
        policy = policy_factory(name)(MemoryManager(_spec_for(name, 8)))
        if type(policy).access_batch is not HybridMemoryPolicy.access_batch:
            yield name, policy


def _contract_cases():
    """Every method of each kernel policy and every project object it
    holds, found without reading the declarations: a name missing from
    one still has its case."""
    cases = []
    for name, policy in _kernel_policies():
        cases += [pytest.param(name, method, None, id=f"{name}-{method}")
                  for method in _methods(type(policy))]
        cases += [pytest.param(name, None, attribute,
                               id=f"{name}-{attribute}")
                  for attribute in _held(policy)]
    return cases


def _contract_run(name, method, attribute, batch, events):
    """One short zipf replay of the registered policy ``name`` with
    ``method`` overridden, or ``attribute`` turned into a subclass whose
    every method is overridden; returns the result and the calls."""
    calls = [0]
    base = policy_factory(name)

    def factory(mm):
        policy = base(mm)
        if method is not None:
            policy.__class__ = _counting_subclass(
                type(policy), (method,), calls)
        else:
            value = getattr(policy, attribute)
            # object.__setattr__ reaches into frozen dataclasses too.
            object.__setattr__(value, "__class__", _counting_subclass(
                type(value), _methods(type(value)), calls))
        return policy

    simulator = HybridMemorySimulator(
        _spec_for(name, _ZIPF_PAGES), factory, sanitize=False, batch=batch,
        events=EventConfig(buckets=8, trace=True) if events else None,
    )
    trace = zipf_workload(pages=_ZIPF_PAGES, requests=2_000, alpha=1.2,
                          write_ratio=0.3, seed=7)
    return simulator.run(trace).to_dict(), calls[0]


@pytest.mark.parametrize("name, method, attribute", _contract_cases())
def test_kernel_never_bypasses_an_override(name, method, attribute):
    for events in (False, True):
        batched = _contract_run(name, method, attribute, True, events)
        looped = _contract_run(name, method, attribute, False, events)
        assert batched == looped


@pytest.mark.parametrize("name, policy", list(_kernel_policies()),
                         ids=[name for name, _ in _kernel_policies()])
def test_each_kernel_declares_its_contract(name, policy):
    kernel = next(klass for klass in type(policy).__mro__
                  if "access_batch" in vars(klass))
    assert "kernel_contract" in vars(kernel), kernel
