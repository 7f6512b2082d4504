"""The proposed data-migration scheme (paper Section IV, Algorithm 1).

Two *unmodified* LRU queues manage the two memory modules; the scheme
only decides when pages cross between them:

* **Page faults fill DRAM** — the newly touched page is the likeliest
  to be re-accessed, and landing it in NVM would cost an NVM page write
  anyway once DRAM's eviction cascades (Section IV).
* **DRAM evictions demote to NVM** (the demoted page enters the NVM
  queue at its head, exactly as a plain LRU insert would).
* **NVM evictions go to disk.**
* **NVM hits are served in place**, and the page additionally earns a
  read or write counter tick if it sits within the top
  ``readperc``/``writeperc`` positions of the NVM queue.  Passing
  ``read_threshold``/``write_threshold`` promotes the page to DRAM.
  Counters reset when the page slips below its window, which filters
  out both slowly-cycling cold pages and one-shot bursts (the two
  failure modes Section IV calls out).

The thresholds are read only by the ``counter > threshold``
comparisons, so a run also records the box of threshold pairs that
would have decided every comparison alike (:meth:`threshold_box`); the
sampled engine reuses one replay for every pair inside it.
"""

from __future__ import annotations

import math
import sys

from repro.core.config import DEFAULT_CONFIG, MigrationConfig
from repro.core.lru import LRUNode, LRUQueue, PositionWindow
from repro.mmu.dma import channel as _dma_channel
from repro.mmu.manager import MemoryManager
from repro.mmu.page import PageLocation, PageTableEntry
from repro.obs.events import EvictionEvent, MigrationEvent, PageFaultEvent
from repro.policies.base import HybridMemoryPolicy, KernelContract

#: ``(read_lo, read_hi), (write_lo, write_hi)``: inclusive threshold
#: ranges, ``math.inf`` for an open upper end.
ThresholdBox = tuple[tuple[float, float], tuple[float, float]]


class MigrationLRUPolicy(HybridMemoryPolicy):
    """The paper's proposed scheme: two LRUs plus windowed hot counters."""

    name = "proposed"

    def __init__(
        self,
        mm: MemoryManager,
        config: MigrationConfig = DEFAULT_CONFIG,
    ) -> None:
        super().__init__(mm)
        self.config = config
        # Thresholds live on the instance so adaptive subclasses can
        # tune them during the run (paper Section V: "adaptive threshold
        # prediction ... is part of our ongoing research").
        self.read_threshold = config.read_threshold
        self.write_threshold = config.write_threshold
        self.dram_lru = LRUQueue()
        self.nvm_lru = LRUQueue()
        nvm_pages = mm.spec.nvm_pages
        self.read_window = self.nvm_lru.add_window(
            config.read_window_pages(nvm_pages), on_exit=self._reset_read
        )
        self.write_window = self.nvm_lru.add_window(
            config.write_window_pages(nvm_pages), on_exit=self._reset_write
        )
        # The run's threshold-box record (:meth:`threshold_box`): the
        # largest counter each direction compared without promoting,
        # and whether a hit of that direction ever promoted.
        self.read_peak = 0
        self.write_peak = 0
        self.read_promoted = False
        self.write_promoted = False

    # ------------------------------------------------------------------
    # Threshold boxes
    # ------------------------------------------------------------------
    @classmethod
    def decides_by_threshold_box(cls) -> bool:
        """Whether the class runs the stock Algorithm 1 machinery and
        hooks (it overrides nothing in :attr:`kernel_contract`): its
        thresholds then stay put and are read only by the counter
        comparisons, so its runs' :meth:`threshold_box` holds.  The
        adaptive policy's hooks retune the thresholds, so it does not
        qualify."""
        return not cls.kernel_overrides()

    def threshold_box(self) -> ThresholdBox:
        """The read x write threshold pairs that decide as this run did.

        A threshold is read only by ``counter > threshold``.  Every
        read threshold from :attr:`read_peak` (the largest read
        counter compared without promoting) up to the run's own — or
        without limit if no read hit promoted — decides each read
        comparison the same way, and likewise for writes.  So for a
        class that :meth:`decides_by_threshold_box`, with no event bus
        attached (the bus annotates promotions with the thresholds),
        a replay at any pair inside the box is bit-identical to this
        run and records the same box.
        """
        return (
            (self.read_peak,
             self.read_threshold if self.read_promoted else math.inf),
            (self.write_peak,
             self.write_threshold if self.write_promoted else math.inf),
        )

    # ------------------------------------------------------------------
    # Counter housekeeping (the paper's "additional information")
    # ------------------------------------------------------------------
    @staticmethod
    def _reset_read(node: LRUNode) -> None:
        node.read_counter = 0

    @staticmethod
    def _reset_write(node: LRUNode) -> None:
        node.write_counter = 0

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def access(self, page: int, is_write: bool) -> None:
        self.mm.record_request(is_write)
        if page in self.dram_lru:
            # Plain LRU housekeeping; DRAM needs no extra information.
            self.dram_lru.touch(page)
            self.mm.serve_hit(page, is_write)
        elif page in self.nvm_lru:
            self._nvm_hit(page, is_write)
        else:
            self._page_fault(page, is_write)

    kernel_contract = KernelContract(
        inlines=("access", "_nvm_hit", "_promote", "_page_fault",
                 "_demote_dram_victim"),
        reads={"mm": MemoryManager, "dram_lru": LRUQueue,
               "nvm_lru": LRUQueue,
               "read_window": PositionWindow,
               "write_window": PositionWindow},
        hooks=("_on_promoted", "_on_demoted"),
    )

    def access_batch(self, pages: list[int], writes: list[bool]) -> None:
        """Batched kernel: Algorithm 1 with the hot paths fully inlined.

        Semantically identical to looping over :meth:`access` — the
        golden-equivalence tests assert bit-identical ``RunResult``s —
        but the frequent paths run without per-request Python calls:

        * **DRAM hit**: LRU move-to-front is inlined (the DRAM queue
          carries no position windows), and the manager's
          ``record_request`` + ``serve_hit`` accounting is applied
          directly (the sanitizer checks at runtime that each path
          still records the request exactly once).  A DRAM-queue page
          is DRAM-resident and an NVM-queue page NVM-resident, and no
          page of this policy family ever has a DRAM copy, so the hit
          paths carry no location or copy checks.
        * **NVM hit**: in the steady state — the queue longer than
          both windows — the touch *including* both position windows'
          boundary bookkeeping (:class:`PositionWindow`) is one inline
          block: the page's window mask is written once, and no link
          of a non-head page can be ``None``.  The windowed counter
          ticks of Algorithm 1 lines 10-22 follow.  A queue that a
          window still covers goes through ``LRUQueue.touch``.
        * **Threshold box**: a comparison that does not promote raises
          its direction's peak, kept in a local; a promotion marks its
          direction (:meth:`threshold_box`).
        * **Promotion**: in the steady state with DRAM full, no event
          bus and the default hooks, :meth:`_promote` is one inline
          block.  The victim (DRAM's LRU) takes the promoted page's
          place at the NVM head, so every other NVM page keeps its
          position; the frames swap and both migrations and the
          victim's wear are counted.  Every other case calls
          :meth:`_promote`.
        * **Page fault**: the steady-state cascade — evict NVM's LRU
          to disk, demote DRAM's LRU into NVM, fill the faulting page
          into DRAM (Algorithm 1 lines 27-28) — is inlined end to end,
          including frame allocation and the window bookkeeping of the
          NVM insert.  Cold-state corners (queues still filling,
          victims inside a window) fall back to the manager methods.

        Event counters that commute (request/hit/fault/eviction
        accounting, wear totals, DMA transfer counts) and the threshold
        box record accumulate in locals and flush once per batch in a
        ``finally`` block, so they are exact even if a request raises
        mid-batch.  Per-page state (page-table entries, LRU nodes, the
        wear histogram) is updated in place, exactly as the per-request
        path would.

        When an event bus is attached the kernel keeps its clock in
        step: before any call-out that can tick the clock or emit
        (manager fallbacks, :meth:`_promote`) the deferred request
        counts are folded into ``bus.clock`` (tracked by ``synced``),
        the inlined fault cascade appends its eviction/demotion/fault
        events directly with explicitly computed indexes, and the
        ``finally`` block folds the remainder — so the event stream is
        byte-identical to the per-request path's.

        The subclass hooks ``_on_promoted``/``_on_demoted`` are always
        honoured (:attr:`kernel_contract` lists them as hooks).  Hooks
        may retune ``read_threshold``/``write_threshold`` (the adaptive
        policy does): the kernel reloads both after every call that can
        reach a hook.  Hooks must not mutate the queues, windows or
        manager structures themselves; no shipped subclass does.
        """
        dram = self.dram_lru
        if not self.runs_kernel() or dram._windows:
            super().access_batch(pages, writes)
            return
        hooks = self.kernel_overrides()

        mm = self.mm
        record_request = mm.record_request
        accounting = mm.accounting
        wear = mm.wear
        page_factor = wear.page_factor
        page_writes = wear.page_writes
        entries = mm.page_table._entries
        dram_nodes = dram._nodes
        dram_nodes_get = dram_nodes.get
        nvm = self.nvm_lru
        nvm_nodes = nvm._nodes
        nvm_nodes_get = nvm_nodes.get
        nvm_touch = nvm.touch
        rwin = self.read_window
        wwin = self.write_window
        dram_alloc = mm.dram
        nvm_alloc = mm.nvm
        dram_allocated = dram_alloc._allocated
        dram_freelist = dram_alloc._free
        dram_capacity = dram_alloc.capacity
        nvm_allocated = nvm_alloc._allocated
        nvm_freelist = nvm_alloc._free
        nvm_capacity = nvm_alloc.capacity
        transfers = mm.dma.transfers
        nvm_disk_channel = _dma_channel(PageLocation.NVM, PageLocation.DISK)
        dram_nvm_channel = _dma_channel(PageLocation.DRAM, PageLocation.NVM)
        disk_dram_channel = _dma_channel(PageLocation.DISK, PageLocation.DRAM)
        nvm_dram_channel = _dma_channel(PageLocation.NVM, PageLocation.DRAM)
        # Window bookkeeping may only be inlined when the queue carries
        # exactly the scheme's two windows with the stock counter-reset
        # callbacks; anything else routes through LRUQueue.touch.  The
        # fault cascade additionally needs both modules non-degenerate
        # (a zero-capacity module makes the original path raise from
        # pop_lru/allocate; the fallback reproduces that exactly).
        fast_windows = (
            nvm._windows == [rwin, wwin]
            and rwin.on_exit == MigrationLRUPolicy._reset_read
            and wwin.on_exit == MigrationLRUPolicy._reset_write
        )
        fast_faults = fast_windows and dram_capacity > 0 and nvm_capacity > 0
        rbit = rwin._bit
        wbit = wwin._bit
        rsize = rwin.size
        wsize = wwin.size
        # An NVM queue longer than ``span`` is in the steady state: each
        # window's boundary has a page below it.  A freshly touched
        # page sits in every window of nonzero size (``live_bits``).
        span = max(rsize, wsize) if fast_windows else sys.maxsize
        live_bits = (rbit if rsize else 0) | (wbit if wsize else 0)
        promote = self._promote
        page_fault = self._page_fault
        on_demoted = self._on_demoted if "_on_demoted" in hooks else None
        bus = mm.events
        inline_promotions = fast_faults and bus is None and not hooks
        read_threshold = self.read_threshold
        write_threshold = self.write_threshold
        dram_location = PageLocation.DRAM
        nvm_location = PageLocation.NVM
        make_node = LRUNode
        make_entry = PageTableEntry
        # Requests already folded into the bus clock; the deferred
        # request counters minus this are the kernel's clock debt.
        synced = 0
        read_peak = self.read_peak
        write_peak = self.write_peak
        read_promoted = self.read_promoted
        write_promoted = self.write_promoted

        # Deferred (commutative) event counters, flushed after the loop.
        read_requests = 0
        write_requests = 0
        dram_read_hits = 0
        dram_write_hits = 0
        nvm_read_hits = 0
        nvm_write_hits = 0
        read_faults = 0
        write_faults = 0
        faults_filled_dram = 0
        clean_evictions = 0
        dirty_evictions = 0
        migrations_to_dram = 0
        migrations_to_nvm = 0
        request_writes = 0
        migration_writes = 0
        moved_nvm_disk = 0
        moved_dram_nvm = 0
        moved_disk_dram = 0
        moved_nvm_dram = 0

        try:
            for page, is_write in zip(pages, writes):
                node = dram_nodes_get(page)
                if node is not None:
                    # --- DRAM hit: inline LRUQueue.touch (no windows);
                    # a non-head node has a prev and the queue a head ---
                    head = dram._head
                    if node is not head:
                        prev = node.prev
                        nxt = node.next
                        prev.next = nxt
                        if nxt is not None:
                            nxt.prev = prev
                        else:
                            dram._tail = prev
                        node.prev = None
                        node.next = head
                        head.prev = node
                        dram._head = node
                    # --- inline record_request + serve_hit, DRAM branch ---
                    entry = node.payload
                    if entry is None:
                        node.payload = entry = entries[page]
                    if is_write:
                        write_requests += 1
                        dram_write_hits += 1
                        entry.write_count += 1
                        entry.dirty = True
                    else:
                        read_requests += 1
                        dram_read_hits += 1
                    entry.access_count += 1
                    continue
                node = nvm_nodes_get(page)
                if node is None:
                    # --- page fault: the Algorithm 1 lines 27-28 cascade ---
                    if not fast_faults:
                        if bus is not None:
                            bus.clock += read_requests + write_requests - synced
                            synced = read_requests + write_requests
                        record_request(is_write)
                        page_fault(page, is_write)
                        read_threshold = self.read_threshold
                        write_threshold = self.write_threshold
                        continue
                    if len(dram_allocated) >= dram_capacity:
                        # _demote_dram_victim: push DRAM's LRU into NVM.
                        if len(nvm_allocated) >= nvm_capacity:
                            # NVM full too: evict its LRU page to disk.
                            tail = nvm._tail
                            tail_page = tail.page
                            if tail._window_mask:
                                # Tail inside a window (queue shorter
                                # than a window size): generic removal.
                                nvm.remove(tail_page)
                            else:
                                # Outside both windows: removal cannot
                                # move a boundary (the new tail *is*
                                # the old boundary when they collide).
                                del nvm_nodes[tail_page]
                                prev = tail.prev
                                if prev is not None:
                                    prev.next = None
                                else:
                                    nvm._head = None
                                nvm._tail = prev
                                tail.prev = None
                            # mm.evict_to_disk(tail_page), inlined.
                            eentry = entries[tail_page]
                            if eentry.copy_frame is not None:
                                raise ValueError(
                                    f"page {tail_page} still has a DRAM "
                                    "copy; drop it first"
                                )
                            del entries[tail_page]
                            nvm_allocated.remove(eentry.frame)
                            nvm_freelist.append(eentry.frame)
                            moved_nvm_disk += 1
                            if eentry.dirty:
                                dirty_evictions += 1
                            else:
                                clean_evictions += 1
                            if bus is not None:
                                # The faulting request is not in the
                                # deferred counters yet; +1 puts the
                                # event on the per-request clock.
                                bus._pending.append(EvictionEvent(
                                    index=(bus.clock + read_requests
                                           + write_requests - synced + 1),
                                    page=tail_page,
                                    from_dram=False,
                                    dirty=eentry.dirty,
                                    access_count=eentry.access_count,
                                    write_count=eentry.write_count,
                                ))
                        # dram_lru.pop_lru(), inlined (no windows).
                        dtail = dram._tail
                        victim_page = dtail.page
                        del dram_nodes[victim_page]
                        prev = dtail.prev
                        if prev is not None:
                            prev.next = None
                        else:
                            dram._head = None
                        dram._tail = prev
                        dtail.prev = None
                        # mm.migrate(victim_page, NVM), inlined.  The
                        # victim came off the DRAM queue, so its entry
                        # is DRAM-resident; a frame is free because we
                        # either evicted above or NVM had room.
                        mentry = entries[victim_page]
                        if nvm_freelist:
                            frame = nvm_freelist.pop()
                        else:
                            frame = nvm_alloc._next_fresh
                            nvm_alloc._next_fresh = frame + 1
                        nvm_allocated.add(frame)
                        dram_allocated.remove(mentry.frame)
                        dram_freelist.append(mentry.frame)
                        mentry.location = nvm_location
                        mentry.frame = frame
                        moved_dram_nvm += 1
                        migrations_to_nvm += 1
                        # wear.record_migration_in(victim_page), inlined.
                        migration_writes += page_factor
                        page_writes[victim_page] = (
                            page_writes.get(victim_page, 0) + page_factor
                        )
                        if bus is not None:
                            bus._pending.append(MigrationEvent(
                                index=(bus.clock + read_requests
                                       + write_requests - synced + 1),
                                page=victim_page,
                                to_dram=False,
                                access_count=mentry.access_count,
                                write_count=mentry.write_count,
                            ))
                        # nvm_lru.push_front(victim_page), inlined with
                        # both windows' _after_push_front.  The DRAM node
                        # moves over: DRAM nodes carry no counters.
                        vnode = dtail
                        vnode.payload = mentry
                        nvm_nodes[victim_page] = vnode
                        head = nvm._head
                        vnode.next = head
                        if head is not None:
                            head.prev = vnode
                        nvm._head = vnode
                        if nvm._tail is None:
                            nvm._tail = vnode
                        new_length = len(nvm_nodes)
                        if rsize:
                            vnode._window_mask |= rbit
                            if new_length <= rsize:
                                rwin._boundary = nvm._tail
                            else:
                                old = rwin._boundary
                                rwin._boundary = old.prev
                                old._window_mask &= ~rbit
                                old.read_counter = 0
                        if wsize:
                            vnode._window_mask |= wbit
                            if new_length <= wsize:
                                wwin._boundary = nvm._tail
                            else:
                                old = wwin._boundary
                                wwin._boundary = old.prev
                                old._window_mask &= ~wbit
                                old.write_counter = 0
                        if on_demoted is not None:
                            on_demoted(victim_page)
                            read_threshold = self.read_threshold
                            write_threshold = self.write_threshold
                    # mm.fault_fill(page, DRAM, is_write), inlined.
                    if page in entries:
                        raise KeyError(f"page {page} is already resident")
                    if dram_freelist:
                        frame = dram_freelist.pop()
                    else:
                        frame = dram_alloc._next_fresh
                        dram_alloc._next_fresh = frame + 1
                    dram_allocated.add(frame)
                    entries[page] = entry = make_entry(
                        page=page,
                        location=dram_location,
                        frame=frame,
                        dirty=is_write,
                        access_count=1,
                        write_count=1 if is_write else 0,
                    )
                    moved_disk_dram += 1
                    if is_write:
                        write_requests += 1
                        write_faults += 1
                    else:
                        read_requests += 1
                        read_faults += 1
                    faults_filled_dram += 1
                    if bus is not None:
                        # The faulting request just entered the deferred
                        # counters, so the in-flight index needs no +1.
                        bus._pending.append(PageFaultEvent(
                            index=(bus.clock + read_requests
                                   + write_requests - synced),
                            page=page,
                            to_dram=True,
                            is_write=is_write,
                        ))
                    # dram_lru.push_front(page), inlined (no windows).
                    fnode = make_node(page)
                    fnode.payload = entry
                    dram_nodes[page] = fnode
                    head = dram._head
                    fnode.next = head
                    if head is not None:
                        head.prev = fnode
                    dram._head = fnode
                    if dram._tail is None:
                        dram._tail = fnode
                    continue
                # --- NVM hit: _nvm_hit with touch + windows inlined ---
                mask = node._window_mask
                was_inside = mask & (wbit if is_write else rbit)
                steady = len(nvm_nodes) > span
                if not steady:
                    # A window covers the queue (or is not the stock
                    # pair): the generic touch keeps its boundary.
                    nvm_touch(page)
                elif node is not nvm._head:
                    # PositionWindow._before_unlink_for_touch per live
                    # window: the boundary page of a window the node
                    # enters is pushed out (and its counter reset).
                    if rsize:
                        if not mask & rbit:
                            old = rwin._boundary
                            rwin._boundary = old.prev if rsize > 1 else node
                            old._window_mask &= ~rbit
                            old.read_counter = 0
                        elif node is rwin._boundary:
                            rwin._boundary = node.prev
                    if wsize:
                        if not mask & wbit:
                            old = wwin._boundary
                            wwin._boundary = old.prev if wsize > 1 else node
                            old._window_mask &= ~wbit
                            old.write_counter = 0
                        elif node is wwin._boundary:
                            wwin._boundary = node.prev
                    node._window_mask = live_bits
                    # LRUQueue._unlink + _link_front; a non-head node
                    # has a prev and the queue a head.
                    prev = node.prev
                    nxt = node.next
                    prev.next = nxt
                    if nxt is not None:
                        nxt.prev = prev
                    else:
                        nvm._tail = prev
                    head = nvm._head
                    node.prev = None
                    node.next = head
                    head.prev = node
                    nvm._head = node
                # --- inline record_request + serve_hit, NVM branch, then
                # Algorithm 1 lines 10-22: the windowed counter tick ---
                entry = node.payload
                if entry is None:
                    node.payload = entry = entries[page]
                entry.access_count += 1
                if is_write:
                    write_requests += 1
                    nvm_write_hits += 1
                    request_writes += 1
                    page_writes[page] = page_writes.get(page, 0) + 1
                    entry.write_count += 1
                    entry.dirty = True
                    counter = node.write_counter = (
                        node.write_counter + 1 if was_inside else 1
                    )
                    if counter <= write_threshold:
                        if counter > write_peak:
                            write_peak = counter
                        continue
                    write_promoted = True
                else:
                    read_requests += 1
                    nvm_read_hits += 1
                    counter = node.read_counter = (
                        node.read_counter + 1 if was_inside else 1
                    )
                    if counter <= read_threshold:
                        if counter > read_peak:
                            read_peak = counter
                        continue
                    read_promoted = True
                # --- Algorithm 1 lines 23-25: promote the page ---
                if not (
                    inline_promotions
                    and steady
                    and len(dram_allocated) >= dram_capacity
                ):
                    if bus is not None:
                        bus.clock += read_requests + write_requests - synced
                        synced = read_requests + write_requests
                    promote(page, trigger_is_write=is_write)
                    read_threshold = self.read_threshold
                    write_threshold = self.write_threshold
                    continue
                # Steady state, DRAM full: _promote inlined.  DRAM's LRU
                # victim takes the promoted page's place at the NVM head
                # (its remove + push_front), so every other NVM page
                # keeps its position and window membership.  The page
                # below each boundary rises in on the removal and drops
                # out on the push; its counter, zero like that of every
                # page outside a window, stays zero.  Only a one-page
                # window's boundary (the head) changes.
                victim = dram._tail
                if rsize == 1:
                    rwin._boundary = victim
                if wsize == 1:
                    wwin._boundary = victim
                # dram_lru.pop_lru(), inlined (no windows).
                victim_page = victim.page
                del dram_nodes[victim_page]
                prev = victim.prev
                if prev is not None:
                    prev.next = None
                else:
                    dram._head = None
                dram._tail = prev
                # The victim's node replaces the promoted page's at the
                # NVM head (DRAM nodes carry no counters).
                ventry = victim.payload
                if ventry is None:
                    victim.payload = ventry = entries[victim_page]
                del nvm_nodes[page]
                nvm_nodes[victim_page] = victim
                nxt = node.next
                victim.prev = None
                victim.next = nxt
                if nxt is not None:
                    nxt.prev = victim
                else:
                    nvm._tail = victim
                nvm._head = victim
                victim._window_mask = live_bits
                # mm.swap(page, victim_page), inlined.
                entry.location = dram_location
                ventry.location = nvm_location
                entry.frame, ventry.frame = ventry.frame, entry.frame
                moved_nvm_dram += 1
                moved_dram_nvm += 1
                migrations_to_dram += 1
                migrations_to_nvm += 1
                migration_writes += page_factor
                page_writes[victim_page] = (
                    page_writes.get(victim_page, 0) + page_factor
                )
                # dram_lru.push_front(page): the promoted node moves
                # over with its counters and window mask cleared.
                node.read_counter = node.write_counter = 0
                node._window_mask = 0
                head = dram._head
                node.next = head
                if head is not None:
                    head.prev = node
                else:
                    dram._tail = node
                dram._head = node
                dram_nodes[page] = node
        finally:
            if bus is not None:
                bus.clock += read_requests + write_requests - synced
            self.read_peak = read_peak
            self.write_peak = write_peak
            self.read_promoted = read_promoted
            self.write_promoted = write_promoted
            accounting.read_requests += read_requests
            accounting.write_requests += write_requests
            accounting.dram_read_hits += dram_read_hits
            accounting.dram_write_hits += dram_write_hits
            accounting.nvm_read_hits += nvm_read_hits
            accounting.nvm_write_hits += nvm_write_hits
            accounting.read_faults += read_faults
            accounting.write_faults += write_faults
            accounting.faults_filled_dram += faults_filled_dram
            accounting.clean_evictions += clean_evictions
            accounting.dirty_evictions += dirty_evictions
            accounting.migrations_to_dram += migrations_to_dram
            accounting.migrations_to_nvm += migrations_to_nvm
            wear.request_writes += request_writes
            wear.migration_writes += migration_writes
            # A channel key only exists once a transfer used it, so a
            # zero count must not create one (the transfer log would
            # differ from the per-request path's).
            for channel, moved in (
                (nvm_disk_channel, moved_nvm_disk),
                (dram_nvm_channel, moved_dram_nvm),
                (disk_dram_channel, moved_disk_dram),
                (nvm_dram_channel, moved_nvm_dram),
            ):
                if moved:
                    transfers[channel] = transfers.get(channel, 0) + moved

    def _nvm_hit(self, page: int, is_write: bool) -> None:
        node = self.nvm_lru.node(page)
        window = self.write_window if is_write else self.read_window
        was_inside = window.contains(node)
        # Plain LRU housekeeping.  Moving the page to the front pushes
        # the pages at the window boundaries one position deeper, which
        # fires the counter resets of Algorithm 1 lines 8-9.
        self.nvm_lru.touch(page)
        self.mm.serve_hit(page, is_write)
        # Algorithm 1 lines 10-22: tick the counter for the request's
        # direction, restarting it if the page was outside the window.
        if is_write:
            node.write_counter = node.write_counter + 1 if was_inside else 1
            counter = node.write_counter
            threshold = self.write_threshold
        else:
            node.read_counter = node.read_counter + 1 if was_inside else 1
            counter = node.read_counter
            threshold = self.read_threshold
        # Algorithm 1 lines 23-25: promote once the page proves hot.
        if counter > threshold:
            if is_write:
                self.write_promoted = True
            else:
                self.read_promoted = True
            self._promote(page, trigger_is_write=is_write)
        elif is_write:
            self.write_peak = max(self.write_peak, counter)
        else:
            self.read_peak = max(self.read_peak, counter)

    def _promote(self, page: int, trigger_is_write: bool) -> None:
        """Migrate a hot NVM page to DRAM, demoting DRAM's LRU victim."""
        events = self.mm.events
        if events is not None:
            # Stage the trigger context (which counter crossed which
            # threshold) before the node leaves the queue; the
            # migration emitted below picks it up.
            node = self.nvm_lru.node(page)
            if trigger_is_write:
                events.annotate(
                    "write", node.write_counter, self.write_threshold
                )
            else:
                events.annotate(
                    "read", node.read_counter, self.read_threshold
                )
        self.nvm_lru.remove(page)
        if self.mm.has_free(PageLocation.DRAM):
            self.mm.migrate(page, PageLocation.DRAM)
        else:
            victim = self.dram_lru.pop_lru()
            self.mm.swap(page, victim.page)
            self.nvm_lru.push_front(victim.page)
            self._on_demoted(victim.page)
        self.dram_lru.push_front(page)
        self._on_promoted(page, trigger_is_write)

    def _page_fault(self, page: int, is_write: bool) -> None:
        """Algorithm 1 lines 27-28: fill from disk into DRAM."""
        if not self.mm.has_free(PageLocation.DRAM):
            self._demote_dram_victim()
        self.mm.fault_fill(page, PageLocation.DRAM, is_write)
        self.dram_lru.push_front(page)

    def _demote_dram_victim(self) -> None:
        """Demote DRAM's LRU page to NVM, evicting NVM's LRU if needed."""
        if not self.mm.has_free(PageLocation.NVM):
            nvm_victim = self.nvm_lru.pop_lru()
            self.mm.evict_to_disk(nvm_victim.page)
        victim = self.dram_lru.pop_lru()
        self.mm.migrate(victim.page, PageLocation.NVM)
        self.nvm_lru.push_front(victim.page)
        self._on_demoted(victim.page)

    # ------------------------------------------------------------------
    # Hooks for adaptive subclasses
    # ------------------------------------------------------------------
    def _on_promoted(self, page: int, trigger_is_write: bool) -> None:
        """Called after a page migrates NVM -> DRAM."""

    def _on_demoted(self, page: int) -> None:
        """Called after a page migrates DRAM -> NVM."""

    # ------------------------------------------------------------------
    def validate(self) -> None:  # repro: cold
        super().validate()
        self.dram_lru.check()
        self.nvm_lru.check()
        dram_pages = set(self.mm.page_table.pages_in(PageLocation.DRAM))
        nvm_pages = set(self.mm.page_table.pages_in(PageLocation.NVM))
        if dram_pages != set(self.dram_lru.pages()):
            raise AssertionError("DRAM queue out of sync with page table")
        if nvm_pages != set(self.nvm_lru.pages()):
            raise AssertionError("NVM queue out of sync with page table")
