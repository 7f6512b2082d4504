"""Homogeneous-memory policies: the DRAM-only and NVM-only baselines.

The paper normalises every figure against one of these: power against a
DRAM-only memory of the same total capacity (Fig. 1/2a/4a), NVM writes
against an NVM-only memory (Fig. 2c/4b).  Both run a conventional
replacement algorithm (LRU by default, CLOCK pluggable) over a single
module.  Under LRU the two are one run (same frames, no
tier-dependent decision): :func:`dram_only_from_nvm_only` derives one
from the other without a second replay.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from repro.memory.accounting import WearAccounting
from repro.mmu.manager import MemoryManager
from repro.mmu.page import PageLocation
from repro.mmu.simulator import RunResult
from repro.policies.base import HybridMemoryPolicy, KernelContract
from repro.policies.replacement import LRUReplacement, ReplacementAlgorithm

AlgorithmFactory = Callable[[int], ReplacementAlgorithm]


class SingleTierPolicy(HybridMemoryPolicy):
    """All pages live in one module, managed by one replacement algorithm."""

    def __init__(
        self,
        mm: MemoryManager,
        location: PageLocation,
        algorithm_factory: AlgorithmFactory = LRUReplacement,
    ) -> None:
        super().__init__(mm)
        if location is PageLocation.DRAM:
            capacity = mm.spec.dram_pages
        elif location is PageLocation.NVM:
            capacity = mm.spec.nvm_pages
        else:
            raise ValueError("single tier must be DRAM or NVM")
        if capacity < 1:
            raise ValueError(
                f"spec allocates no {location} frames; use "
                "spec.as_dram_only()/as_nvm_only() to build the baseline"
            )
        self.location = location
        self.algorithm = algorithm_factory(capacity)

    def access(self, page: int, is_write: bool) -> None:
        self.mm.record_request(is_write)
        if page in self.algorithm:
            self.algorithm.hit(page, is_write)
            self.mm.serve_hit(page, is_write)
            return
        self._page_fault(page, is_write)

    def _page_fault(self, page: int, is_write: bool) -> None:
        """Fill ``page``; when the tier is full, into the frame of the
        algorithm's victim, which :meth:`MemoryManager.refill` evicts."""
        algorithm = self.algorithm
        if algorithm.full:
            self.mm.refill(algorithm.evict(), page, is_write)
        else:
            self.mm.fault_fill(page, self.location, is_write)
        algorithm.insert(page, is_write)

    kernel_contract = KernelContract(
        inlines=("access", "_page_fault"), reads={"mm": MemoryManager},
    )

    def access_batch(self, pages: list[int], writes: list[bool]) -> None:
        """Batched kernel: hits inlined, misses one lean cascade.

        Bit-identical to looping over :meth:`access` (asserted by the
        golden-equivalence tests).  The manager's ``record_request`` +
        ``serve_hit`` accounting is inlined for resident hits, with
        commutative event counters accumulated in locals and flushed
        once per batch in a ``finally`` block.  Every page lives in the
        policy's one tier and none ever has a DRAM copy, so the tier's
        hit counters (and, for NVM, the wear of write hits) are chosen
        once per batch, not per hit.

        With the default :class:`LRUReplacement` algorithm (its queue
        carries no position windows) the move-to-front of a hit is
        inlined, and a miss is :meth:`_page_fault` on the queue's own
        methods (``replace_lru`` reuses the victim's node for the new
        page); other algorithms keep their ``hit`` call and call
        :meth:`_page_fault`.  The kernel counts each
        miss's request itself and, with an event bus, folds the
        deferred requests (this one included) into ``bus.clock`` before
        the manager emits, so the event stream matches the per-request
        path's.
        """
        if not self.runs_kernel():
            super().access_batch(pages, writes)
            return

        mm = self.mm
        accounting = mm.accounting
        wear = mm.wear
        in_dram = self.location is PageLocation.DRAM
        # Per-page wear of NVM write hits; DRAM takes none.
        page_writes = None if in_dram else wear.page_writes
        entries = mm.page_table._entries
        refill = mm.refill
        fault_fill = mm.fault_fill
        page_fault = self._page_fault
        algorithm = self.algorithm
        alg_hit = algorithm.hit
        capacity = algorithm.capacity
        location = self.location
        # The stock LRU algorithm's hit is a plain move-to-front on a
        # window-less queue; inline it.  Anything else (CLOCK, custom)
        # keeps its hit() call.
        queue = (
            algorithm._queue
            if type(algorithm) is LRUReplacement
            and not algorithm._queue._windows
            else None
        )

        bus = mm.events
        # Requests already folded into the bus clock; the deferred
        # request counters minus this are the kernel's clock debt.
        synced = 0

        # Deferred (commutative) counters, flushed after the loop; a
        # miss defers only its request count.
        read_hits = 0
        write_hits = 0
        read_misses = 0
        write_misses = 0

        try:
            if queue is not None:
                nodes = queue._nodes
                nodes_get = nodes.get
                replace_lru = queue.replace_lru
                push_front = queue.push_front
                for page, is_write in zip(pages, writes):
                    node = nodes_get(page)
                    if node is None:
                        if is_write:
                            write_misses += 1
                        else:
                            read_misses += 1
                        if bus is not None:
                            total = (read_hits + write_hits + read_misses
                                     + write_misses)
                            bus.clock += total - synced
                            synced = total
                        # --- _page_fault, with the queue's own methods ---
                        if len(nodes) >= capacity:
                            refill(replace_lru(page), page, is_write)
                        else:
                            push_front(page).payload = fault_fill(
                                page, location, is_write)
                        continue
                    # --- LRU touch, inlined (no windows); a non-head
                    # node has a prev and the queue a head ---
                    head = queue._head
                    if node is not head:
                        prev = node.prev
                        nxt = node.next
                        prev.next = nxt
                        if nxt is not None:
                            nxt.prev = prev
                        else:
                            queue._tail = prev
                        node.prev = None
                        node.next = head
                        head.prev = node
                        queue._head = node
                    # --- record_request + serve_hit, inlined ---
                    entry = node.payload
                    if entry is None:
                        node.payload = entry = entries[page]
                    if is_write:
                        write_hits += 1
                        if page_writes is not None:
                            page_writes[page] = page_writes.get(page, 0) + 1
                        entry.write_count += 1
                        entry.dirty = True
                    else:
                        read_hits += 1
                    entry.access_count += 1
            else:
                alg_contains = algorithm.__contains__
                for page, is_write in zip(pages, writes):
                    if not alg_contains(page):
                        if is_write:
                            write_misses += 1
                        else:
                            read_misses += 1
                        if bus is not None:
                            total = (read_hits + write_hits + read_misses
                                     + write_misses)
                            bus.clock += total - synced
                            synced = total
                        page_fault(page, is_write)
                        continue
                    alg_hit(page, is_write)
                    # --- record_request + serve_hit, inlined ---
                    entry = entries[page]
                    if is_write:
                        write_hits += 1
                        if page_writes is not None:
                            page_writes[page] = page_writes.get(page, 0) + 1
                        entry.write_count += 1
                        entry.dirty = True
                    else:
                        read_hits += 1
                    entry.access_count += 1
        finally:
            if bus is not None:
                bus.clock += (read_hits + write_hits + read_misses
                              + write_misses - synced)
            accounting.read_requests += read_hits + read_misses
            accounting.write_requests += write_hits + write_misses
            if in_dram:
                accounting.dram_read_hits += read_hits
                accounting.dram_write_hits += write_hits
            else:
                accounting.nvm_read_hits += read_hits
                accounting.nvm_write_hits += write_hits
                wear.request_writes += write_hits

    def validate(self) -> None:  # repro: cold
        super().validate()
        self.algorithm.validate()
        resident = set(self.mm.page_table.pages_in(self.location))
        tracked = {page for page in resident if page in self.algorithm}
        if tracked != resident or len(self.algorithm) != len(resident):
            raise AssertionError("replacement state out of sync with page table")


class DramOnlyPolicy(SingleTierPolicy):
    """Conventional DRAM main memory (the paper's power baseline)."""

    name = "dram-only"

    def __init__(
        self,
        mm: MemoryManager,
        algorithm_factory: AlgorithmFactory = LRUReplacement,
    ) -> None:
        super().__init__(mm, PageLocation.DRAM, algorithm_factory)


class NvmOnlyPolicy(SingleTierPolicy):
    """All-NVM main memory (the paper's endurance baseline)."""

    name = "nvm-only"

    def __init__(
        self,
        mm: MemoryManager,
        algorithm_factory: AlgorithmFactory = LRUReplacement,
    ) -> None:
        super().__init__(mm, PageLocation.NVM, algorithm_factory)


def dram_only_from_nvm_only(
    nvm_only: RunResult, inter_request_gap: float = 0.0,
) -> RunResult:
    """The LRU DRAM-only result of the replay behind ``nvm_only``: NVM
    hits and fills become DRAM ones and DRAM takes no wear.  The gap
    must be the replay's own.  Exact for plain LRU runs only (the
    rule is :meth:`~repro.experiments.runspec.RunSpec.baseline_twin`).
    """
    nvm = nvm_only.accounting
    accounting = replace(
        nvm, dram_read_hits=nvm.nvm_read_hits, nvm_read_hits=0,
        dram_write_hits=nvm.nvm_write_hits, nvm_write_hits=0,
        faults_filled_dram=nvm.faults_filled_nvm, faults_filled_nvm=0)
    return RunResult.scored(
        nvm_only.workload, DramOnlyPolicy.name, nvm_only.spec.as_dram_only(),
        accounting, WearAccounting(page_factor=nvm_only.wear.page_factor),
        inter_request_gap,
    )
