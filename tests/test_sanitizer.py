"""Tests for the runtime simulation sanitizer (repro.analysis.sanitizer)."""

from __future__ import annotations

import pytest

from repro.analysis.sanitizer import (
    SANITIZE_ENV,
    SanitizedPolicy,
    SanitizerError,
    SimulationSanitizer,
    sanitize_default,
)
from repro.memory.specs import HybridMemorySpec
from repro.mmu.manager import MemoryManager
from repro.mmu.page import PageLocation
from repro.mmu.simulator import HybridMemorySimulator, simulate
from repro.policies.base import HybridMemoryPolicy
from repro.policies.registry import policy_factory
from repro.trace.trace import Trace


def _serve(mm: MemoryManager, page: int, is_write: bool) -> None:
    """Minimal but correct NVM-only servicing used by the test policies."""
    if mm.is_resident(page):
        mm.serve_hit(page, is_write)
        return
    if not mm.has_free(PageLocation.NVM):
        victim = next(
            entry.page for entry in mm.page_table.entries()
            if entry.location is PageLocation.NVM
        )
        mm.evict_to_disk(victim)
    mm.fault_fill(page, PageLocation.NVM, is_write)


class CleanPolicy(HybridMemoryPolicy):
    name = "test-clean"

    def access(self, page: int, is_write: bool) -> None:
        self.mm.record_request(is_write)
        _serve(self.mm, page, is_write)


class DoubleRecordPolicy(HybridMemoryPolicy):
    name = "test-double-record"

    def access(self, page: int, is_write: bool) -> None:
        self.mm.record_request(is_write)
        self.mm.record_request(is_write)
        _serve(self.mm, page, is_write)


class NoRecordPolicy(HybridMemoryPolicy):
    name = "test-no-record"

    def access(self, page: int, is_write: bool) -> None:
        _serve(self.mm, page, is_write)


class MisdirectedPolicy(HybridMemoryPolicy):
    name = "test-misdirected"

    def access(self, page: int, is_write: bool) -> None:
        self.mm.record_request(not is_write)
        _serve(self.mm, page, is_write)


class LeakyFramePolicy(HybridMemoryPolicy):
    """Allocates a DRAM frame no page-table entry ever references."""

    name = "test-leaky-frame"

    def access(self, page: int, is_write: bool) -> None:
        self.mm.record_request(is_write)
        if not self.mm.is_resident(page) and self.mm.has_free(
                PageLocation.DRAM):
            self.mm.dram.allocate()
        _serve(self.mm, page, is_write)


class BrokenValidatePolicy(CleanPolicy):
    name = "test-broken-validate"

    def validate(self) -> None:
        raise AssertionError("policy structures out of sync")


@pytest.fixture
def walk_trace() -> Trace:
    """36 requests over 18 distinct pages: forces evictions on 12 NVM frames."""
    pairs = [(page, page % 3 == 0) for page in range(18)]
    pairs += [(page, page % 2 == 0) for page in range(18)]
    return Trace.from_pairs(pairs, name="walk")


# ----------------------------------------------------------------------
# Catching buggy policies through the simulator
# ----------------------------------------------------------------------
class TestBuggyPolicies:
    def test_clean_policy_passes(self, small_spec, walk_trace):
        result = simulate(walk_trace, small_spec, CleanPolicy, sanitize=True)
        assert result.accounting.total_requests == len(walk_trace)

    def test_double_record_caught(self, small_spec, walk_trace):
        with pytest.raises(SanitizerError, match="record_request 2 times"):
            simulate(walk_trace, small_spec, DoubleRecordPolicy,
                     sanitize=True)

    def test_no_record_caught(self, small_spec, walk_trace):
        with pytest.raises(SanitizerError, match="record_request 0 times"):
            simulate(walk_trace, small_spec, NoRecordPolicy, sanitize=True)

    def test_misdirected_request_caught(self, small_spec, walk_trace):
        with pytest.raises(SanitizerError, match="direction miscounted"):
            simulate(walk_trace, small_spec, MisdirectedPolicy,
                     sanitize=True)

    def test_leaked_frame_caught_at_end_of_run(self, small_spec, walk_trace):
        # The leak is structural, not per-request: the end-of-run
        # validation (policy.validate -> mm.validate) sees it.  The
        # policy's own validate fires first, so the error surfaces as a
        # plain AssertionError rather than the sanitizer's subclass.
        with pytest.raises(AssertionError, match="frames in use"):
            simulate(walk_trace, small_spec, LeakyFramePolicy,
                     sanitize=True)

    def test_leaked_frame_caught_per_request_when_deep_every_1(
            self, small_spec):
        policy = LeakyFramePolicy(MemoryManager(small_spec))
        wrapped = SanitizedPolicy(policy, deep_every=1)
        with pytest.raises(SanitizerError):
            wrapped.access(0, False)

    def test_broken_validate_enforced_without_sanitizer(
            self, small_spec, walk_trace):
        # End-of-run policy validation is simulator behaviour, not a
        # sanitizer feature: it fires even with sanitize=False.
        with pytest.raises(AssertionError, match="out of sync"):
            simulate(walk_trace, small_spec, BrokenValidatePolicy,
                     sanitize=False)


# ----------------------------------------------------------------------
# Tampered-state detection (driving the wrapper by hand)
# ----------------------------------------------------------------------
class TestTamperedState:
    def _wrapped(self, spec: HybridMemorySpec) -> SanitizedPolicy:
        return SanitizedPolicy(CleanPolicy(MemoryManager(spec)))

    def test_counter_rollback_detected(self, small_spec):
        wrapped = self._wrapped(small_spec)
        wrapped.access(0, False)
        wrapped.access(1, False)
        # Roll back by more than the next request re-adds, so the
        # counter is seen going backwards (a rollback of exactly one
        # request surfaces as the missing-record_request failure).
        wrapped.mm.accounting.read_requests -= 2
        with pytest.raises(SanitizerError, match="decreased"):
            wrapped.access(2, False)

    def test_wear_rollback_detected(self, small_spec):
        wrapped = self._wrapped(small_spec)
        wrapped.access(0, True)
        wrapped.access(0, True)  # NVM write hit -> request_writes > 0
        assert wrapped.mm.wear.request_writes > 0
        wrapped.mm.wear.request_writes = 0
        with pytest.raises(SanitizerError, match="wear"):
            wrapped.access(1, False)

    def test_phantom_migration_detected(self, small_spec):
        # An accounting-only migration with no matching DMA transfer.
        wrapped = self._wrapped(small_spec)
        wrapped.access(0, False)
        wrapped.mm.accounting.migrations_to_dram += 1
        with pytest.raises(SanitizerError, match="DMA transfer log"):
            wrapped.access(1, False)

    def test_resident_page_in_disk_location(self, small_spec):
        wrapped = self._wrapped(small_spec)
        wrapped.access(0, False)
        wrapped.mm.page_table.lookup(0).location = PageLocation.DISK
        with pytest.raises(SanitizerError):
            wrapped.sanitizer.check_deep(include_policy=False)

    def test_unallocated_frame_reference(self, small_spec):
        wrapped = self._wrapped(small_spec)
        wrapped.access(0, False)
        entry = wrapped.mm.page_table.lookup(0)
        wrapped.mm.nvm.release(entry.frame)
        with pytest.raises(SanitizerError):
            wrapped.sanitizer.check_deep(include_policy=False)

    def test_copy_on_dram_resident_page(self, small_spec):
        mm = MemoryManager(small_spec)
        sanitizer = SimulationSanitizer(mm)
        mm.record_request(False)
        mm.fault_fill(0, PageLocation.DRAM, False)
        entry = mm.page_table.lookup(0)
        entry.copy_frame = mm.dram.allocate()
        with pytest.raises(SanitizerError, match="two tiers"):
            sanitizer.check_deep()

    def test_per_page_wear_rollback(self, small_spec):
        mm = MemoryManager(small_spec)
        sanitizer = SimulationSanitizer(mm)
        mm.record_request(True)
        mm.fault_fill(0, PageLocation.NVM, True)
        mm.record_request(True)
        mm.serve_hit(0, True)
        sanitizer.check_deep()
        mm.wear.page_writes[0] -= 1
        with pytest.raises(SanitizerError, match="per-page wear"):
            sanitizer.check_deep()


# ----------------------------------------------------------------------
# Warm-up epochs
# ----------------------------------------------------------------------
class TestWarmupEpochs:
    def test_warmup_reset_does_not_false_positive(
            self, small_spec, walk_trace):
        # reset_accounting() swaps the counters mid-run while the DMA
        # log keeps counting; the sanitizer must re-align its baselines.
        result = simulate(walk_trace, small_spec, CleanPolicy,
                          warmup_fraction=0.5, sanitize=True)
        assert result.accounting.total_requests == len(walk_trace) - 18

    def test_registry_policy_with_warmup(self, small_spec, zipf_trace):
        result = simulate(zipf_trace, small_spec,
                          policy_factory("proposed"),
                          warmup_fraction=0.3, sanitize=True)
        assert result.accounting.total_requests > 0

    def test_double_record_caught_after_warmup_reset(
            self, small_spec, walk_trace):
        with pytest.raises(SanitizerError):
            simulate(walk_trace, small_spec, DoubleRecordPolicy,
                     warmup_fraction=0.5, sanitize=True)


# ----------------------------------------------------------------------
# Wiring: env default, simulator flag, wrapper transparency
# ----------------------------------------------------------------------
class TestWiring:
    @pytest.mark.parametrize("value, expected", [
        ("1", True), ("true", True), ("YES", True), ("on", True),
        ("0", False), ("", False), ("off", False), ("no", False),
    ])
    def test_sanitize_default_env(self, monkeypatch, value, expected):
        monkeypatch.setenv(SANITIZE_ENV, value)
        assert sanitize_default() is expected

    def test_simulator_env_default_wraps(self, small_spec, monkeypatch):
        monkeypatch.setenv(SANITIZE_ENV, "1")
        simulator = HybridMemorySimulator(small_spec, CleanPolicy)
        assert isinstance(simulator.policy, SanitizedPolicy)

    def test_simulator_env_default_off(self, small_spec, monkeypatch):
        monkeypatch.setenv(SANITIZE_ENV, "0")
        simulator = HybridMemorySimulator(small_spec, CleanPolicy)
        assert isinstance(simulator.policy, CleanPolicy)

    def test_explicit_false_overrides_env(self, small_spec, monkeypatch):
        monkeypatch.setenv(SANITIZE_ENV, "1")
        simulator = HybridMemorySimulator(small_spec, CleanPolicy,
                                          sanitize=False)
        assert isinstance(simulator.policy, CleanPolicy)

    def test_wrapper_delegates_attributes(self, small_spec):
        policy = CleanPolicy(MemoryManager(small_spec))
        policy.custom_marker = 41
        wrapped = SanitizedPolicy(policy)
        assert wrapped.custom_marker == 41
        assert wrapped.name == "test-clean"
        assert wrapped.mm is policy.mm
        assert "sanitized" in repr(wrapped)

    def test_result_identical_with_and_without_sanitizer(
            self, small_spec, walk_trace):
        plain = simulate(walk_trace, small_spec, CleanPolicy,
                         sanitize=False)
        checked = simulate(walk_trace, small_spec, CleanPolicy,
                           sanitize=True)
        assert plain.summary() == checked.summary()

    def test_deep_every_must_be_positive(self, small_spec):
        with pytest.raises(ValueError):
            SimulationSanitizer(MemoryManager(small_spec), deep_every=0)
