"""Stateful fuzzing of the MemoryManager with hypothesis.

A rule-based state machine drives the manager through arbitrary legal
operation sequences (fills, hits, migrations, swaps, copies, evictions,
accounting resets) while an independent model tracks expected placement.
Invariants are re-checked after every step: this is the strongest
correctness net over the layer every policy depends on.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.memory.devices import dram_spec, hdd_spec, pcm_spec
from repro.memory.specs import HybridMemorySpec
from repro.mmu.manager import MemoryManager
from repro.mmu.page import PageLocation

DRAM_FRAMES = 3
NVM_FRAMES = 5
PAGES = st.integers(min_value=0, max_value=14)


class ManagerMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        spec = HybridMemorySpec(
            dram=dram_spec(), nvm=pcm_spec(), disk=hdd_spec(),
            dram_pages=DRAM_FRAMES, nvm_pages=NVM_FRAMES,
        )
        self.mm = MemoryManager(spec)
        # model: page -> "dram" | "nvm"; set of pages with DRAM copies
        self.placed: dict[int, str] = {}
        self.copies: set[int] = set()

    # ------------------------------------------------------------------
    def _dram_used(self) -> int:
        return sum(1 for loc in self.placed.values() if loc == "dram") \
            + len(self.copies)

    def _nvm_used(self) -> int:
        return sum(1 for loc in self.placed.values() if loc == "nvm")

    # ------------------------------------------------------------------
    @precondition(lambda self: self._dram_used() < DRAM_FRAMES)
    @rule(page=PAGES, is_write=st.booleans())
    def fill_dram(self, page, is_write):
        if page in self.placed:
            return
        self.mm.record_request(is_write)
        self.mm.fault_fill(page, PageLocation.DRAM, is_write)
        self.placed[page] = "dram"

    @precondition(lambda self: self._nvm_used() < NVM_FRAMES)
    @rule(page=PAGES, is_write=st.booleans())
    def fill_nvm(self, page, is_write):
        if page in self.placed:
            return
        self.mm.record_request(is_write)
        self.mm.fault_fill(page, PageLocation.NVM, is_write)
        self.placed[page] = "nvm"

    @rule(page=PAGES, is_write=st.booleans())
    def hit(self, page, is_write):
        if page not in self.placed:
            return
        self.mm.record_request(is_write)
        self.mm.serve_hit(page, is_write)

    @precondition(lambda self: self._dram_used() < DRAM_FRAMES)
    @rule(page=PAGES)
    def promote(self, page):
        if self.placed.get(page) != "nvm" or page in self.copies:
            return
        self.mm.migrate(page, PageLocation.DRAM)
        self.placed[page] = "dram"

    @precondition(lambda self: self._nvm_used() < NVM_FRAMES)
    @rule(page=PAGES)
    def demote(self, page):
        if self.placed.get(page) != "dram":
            return
        self.mm.migrate(page, PageLocation.NVM)
        self.placed[page] = "nvm"

    @rule(page_a=PAGES, page_b=PAGES)
    def swap(self, page_a, page_b):
        if self.placed.get(page_a) != "nvm" or \
                self.placed.get(page_b) != "dram":
            return
        if page_a in self.copies:
            # A page with a live DRAM copy cannot move: the swap raises
            # in either order and the manager stays as the model has it.
            for pair in ((page_a, page_b), (page_b, page_a)):
                with pytest.raises(ValueError, match="DRAM copy"):
                    self.mm.swap(*pair)
            return
        self.mm.swap(page_a, page_b)
        self.placed[page_a] = "dram"
        self.placed[page_b] = "nvm"

    @precondition(lambda self: self._dram_used() < DRAM_FRAMES)
    @rule(page=PAGES)
    def cache(self, page):
        if self.placed.get(page) != "nvm" or page in self.copies:
            return
        self.mm.create_copy(page)
        self.copies.add(page)

    @rule(page=PAGES)
    def drop(self, page):
        if page not in self.copies:
            return
        self.mm.drop_copy(page)
        self.copies.discard(page)

    @rule(page=PAGES)
    def evict(self, page):
        if page not in self.placed or page in self.copies:
            return
        self.mm.evict_to_disk(page)
        del self.placed[page]

    @rule()
    def reset_accounting(self):
        self.mm.reset_accounting()

    # ------------------------------------------------------------------
    @invariant()
    def manager_validates(self):
        self.mm.validate()

    @invariant()
    def placement_matches_model(self):
        for page, where in self.placed.items():
            expected = (PageLocation.DRAM if where == "dram"
                        else PageLocation.NVM)
            assert self.mm.location_of(page) is expected
        assert self.mm.dram.used == self._dram_used()
        assert self.mm.nvm.used == self._nvm_used()

    @invariant()
    def copies_match_model(self):
        cached = {
            entry.page for entry in self.mm.page_table.entries()
            if entry.has_copy
        }
        assert cached == self.copies


TestManagerStateMachine = ManagerMachine.TestCase
TestManagerStateMachine.settings = settings(
    max_examples=60, stateful_step_count=60, deadline=None
)
