"""The page life-cycle protocol (formerly lint rules R008/R009), at run time.

A page is absent (on disk) or resident; eviction makes it absent, a
fault fill makes it resident, and hits, migrations, swaps and DRAM
copies need it resident.  The static typestate rules that judged call
sequences are gone: :class:`~repro.mmu.manager.MemoryManager` refuses
every out-of-protocol transition when it happens.  Each case below
seeds one of the sequences R008 used to report into a running policy
and checks the manager stops it; the legal sequences run clean under
the sanitizer.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.mmu.page import PageLocation
from repro.mmu.simulator import simulate
from repro.policies.base import HybridMemoryPolicy
from repro.trace.trace import Trace


def _walk_trace() -> Trace:
    """36 requests over 18 pages on 12 NVM frames: a forward pass of
    faults and evictions, then a backward pass of 12 hits, 6 faults."""
    pairs = [(page, page % 3 == 0) for page in range(18)]
    pairs += [(page, page % 2 == 0) for page in reversed(range(18))]
    return Trace.from_pairs(pairs, name="walk")


class _NvmPolicy(HybridMemoryPolicy):
    """Correct NVM-only servicing; subclasses seed one protocol slip."""

    name = "test-nvm"

    def access(self, page: int, is_write: bool) -> None:
        mm = self.mm
        mm.record_request(is_write)
        if mm.is_resident(page):
            self._hit(page, is_write)
            return
        if not mm.has_free(PageLocation.NVM):
            self._make_room(self._victim(), page)
        mm.fault_fill(page, PageLocation.NVM, is_write)

    def _victim(self) -> int:
        return next(entry.page for entry in self.mm.page_table.entries()
                    if entry.location is PageLocation.NVM)

    def _hit(self, page: int, is_write: bool) -> None:
        self.mm.serve_hit(page, is_write)

    def _make_room(self, victim: int, page: int) -> None:
        self.mm.evict_to_disk(victim)


def _run(spec, policy_class):
    return simulate(_walk_trace(), spec, policy_class, sanitize=True)


class TestR008:
    def test_double_eviction_flagged(self, small_spec):
        class P(_NvmPolicy):
            def _make_room(self, victim: int, page: int) -> None:
                self.mm.evict_to_disk(victim)
                self.mm.evict_to_disk(victim)

        with pytest.raises(KeyError):
            _run(small_spec, P)

    def test_migrate_after_evict_flagged(self, small_spec):
        class P(_NvmPolicy):
            def _make_room(self, victim: int, page: int) -> None:
                self.mm.evict_to_disk(victim)
                self.mm.migrate(victim, PageLocation.DRAM)

        with pytest.raises(KeyError, match="is not resident"):
            _run(small_spec, P)

    def test_serve_hit_after_evict_flagged(self, small_spec):
        class P(_NvmPolicy):
            def _make_room(self, victim: int, page: int) -> None:
                self.mm.evict_to_disk(victim)
                self.mm.serve_hit(victim, False)

        with pytest.raises(KeyError, match="is not resident"):
            _run(small_spec, P)

    def test_fault_fill_while_resident_flagged(self, small_spec):
        class P(_NvmPolicy):
            def _hit(self, page: int, is_write: bool) -> None:
                self.mm.serve_hit(page, is_write)
                self.mm.fault_fill(page, PageLocation.NVM, is_write)

        with pytest.raises(KeyError, match="is already resident"):
            _run(small_spec, P)

    def test_swap_after_evicting_operand_flagged(self, small_spec):
        class P(_NvmPolicy):
            def _hit(self, page: int, is_write: bool) -> None:
                self.mm.serve_hit(page, is_write)
                if self.mm.has_free(PageLocation.DRAM):
                    self.mm.migrate(page, PageLocation.DRAM)
                    return
                victim = next(
                    entry.page for entry in self.mm.page_table.entries()
                    if entry.location is PageLocation.DRAM)
                self.mm.evict_to_disk(victim)
                self.mm.swap(page, victim)

        with pytest.raises(KeyError, match="is not resident"):
            _run(small_spec, P)

    def test_evict_then_fault_fill_is_legal(self, small_spec):
        # The canonical make-room-then-fill sequence runs clean.
        result = _run(small_spec, _NvmPolicy)
        assert result.accounting.page_faults == 24
        assert result.accounting.evictions_to_disk == 12

    def test_attribute_chains_are_tracked(self, small_spec):
        # The manager tracks the page, however the policy reaches it.
        class P(_NvmPolicy):
            def _make_room(self, victim: int, page: int) -> None:
                node = SimpleNamespace(page=victim)
                self.mm.evict_to_disk(node.page)
                self.mm.create_copy(node.page)

        with pytest.raises(KeyError, match="is not resident"):
            _run(small_spec, P)


class TestR009:
    def test_recording_first_clean(self, small_spec):
        result = _run(small_spec, _NvmPolicy)
        assert result.accounting.total_requests == len(_walk_trace())
