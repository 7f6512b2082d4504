"""Runtime simulation sanitizer: invariants checked while a policy runs.

The sanitizer is where the accounting contract is checked: no static
rule re-derives it from the source.  :class:`SanitizedPolicy` wraps
any placement policy and, after every serviced request, asserts the
cross-layer invariants the paper's models depend on:

* ``record_request`` ran exactly once for the request (the Eq. 1-3
  denominators count real requests);
* every accounting and wear counter is monotone;
* ``hits + faults == requests`` and the per-direction identities hold;
* DRAM/NVM occupancy never exceeds capacity;
* migration/fault/eviction counters agree with the DMA engine's
  transfer log (model events == mechanical page moves);
* NVM wear totals agree with the event counters
  (``request_writes == nvm_write_hits`` etc.).

Every ``deep_every`` requests (and at end-of-run ``validate``) it
additionally runs the manager's own ``validate()`` — page table,
frame pools and accounting, each resident page in exactly one tier
holding exactly one allocated frame there, no two pages sharing a
frame — re-validates per-page wear monotonicity, and invokes the
wrapped policy's own ``validate()``.

Enable it per-simulator (``HybridMemorySimulator(..., sanitize=True)``),
per-invocation (``python -m repro simulate --sanitize``), or process-wide
with ``REPRO_SANITIZE=1`` (the tier-1 test suite does this via an
autouse fixture).
"""

from __future__ import annotations

from dataclasses import fields
from typing import TYPE_CHECKING

from repro.mmu.dma import Channel
from repro.mmu.page import PageLocation
from repro.mmu.simulator import SANITIZE_ENV as SANITIZE_ENV
from repro.mmu.simulator import sanitize_default as sanitize_default

if TYPE_CHECKING:
    from repro.mmu.manager import MemoryManager
    from repro.policies.base import HybridMemoryPolicy

#: Default cadence of the expensive page-table/frame cross-check.
#: The deep pass is O(resident pages); 4096 keeps its cost well under
#: the per-request checks on realistic traces while still bounding how
#: long structural corruption can go unnoticed.
DEFAULT_DEEP_EVERY = 4096

# Directed DMA channels grouped by the model-level event they realise.
_FAULT_CHANNELS = (
    Channel(PageLocation.DISK, PageLocation.DRAM),
    Channel(PageLocation.DISK, PageLocation.NVM),
)
_EVICTION_CHANNELS = (
    Channel(PageLocation.DRAM, PageLocation.DISK),
    Channel(PageLocation.NVM, PageLocation.DISK),
)
_PROMOTION_CHANNEL = Channel(PageLocation.NVM, PageLocation.DRAM)
_DEMOTION_CHANNEL = Channel(PageLocation.DRAM, PageLocation.NVM)


class SanitizerError(AssertionError):
    """A simulation invariant was violated."""


_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def _counter_snapshot(accounting: object) -> dict[str, int]:
    names = _FIELD_NAMES.get(type(accounting))
    if names is None:
        names = tuple(f.name for f in fields(accounting))
        _FIELD_NAMES[type(accounting)] = names
    return {name: getattr(accounting, name) for name in names}


class SimulationSanitizer:
    """Invariant checker attached to one :class:`MemoryManager`."""

    def __init__(self, mm: "MemoryManager",
                 deep_every: int = DEFAULT_DEEP_EVERY,
                 policy: "HybridMemoryPolicy | None" = None) -> None:
        if deep_every < 1:
            raise ValueError("deep_every must be positive")
        self.mm = mm
        self.deep_every = deep_every
        self.policy = policy
        self.checked_requests = 0
        self._rebaseline()

    # ------------------------------------------------------------------
    def _rebaseline(self) -> None:
        """Capture counter baselines (fresh run or after a warm-up reset)."""
        mm = self.mm
        self._accounting_obj = mm.accounting
        self._wear_obj = mm.wear
        self._counters = _counter_snapshot(mm.accounting)
        self._wear_totals = (
            mm.wear.fault_fill_writes,
            mm.wear.migration_writes,
            mm.wear.request_writes,
        )
        self._page_writes: dict[int, int] = dict(mm.wear.page_writes)
        # The DMA log is never reset while the accounting is (warm-up
        # boundary), so transfer identities are checked on deltas from
        # these baselines.  Rebaselining may happen one request *after*
        # the reset, so back out the events the new epoch has already
        # accounted: baseline = transfers now - events counted now.
        accounting = mm.accounting
        faults, evictions, to_dram, to_nvm = self._dma_counts()
        self._dma_base = (
            faults - accounting.page_faults,
            evictions - accounting.evictions_to_disk,
            to_dram - accounting.migrations_to_dram,
            to_nvm - accounting.migrations_to_nvm,
        )

    def _dma_counts(self) -> tuple[int, int, int, int]:
        """(faults, evictions, promotions, demotions) from the DMA log."""
        transfers = self.mm.dma.transfers
        return (
            sum(transfers.get(channel, 0) for channel in _FAULT_CHANNELS),
            sum(transfers.get(channel, 0) for channel in _EVICTION_CHANNELS),
            transfers.get(_PROMOTION_CHANNEL, 0),
            transfers.get(_DEMOTION_CHANNEL, 0),
        )

    def _fail(self, message: str) -> None:
        raise SanitizerError(f"sanitizer: {message}")

    # ------------------------------------------------------------------
    # Per-request checks (cheap, O(#counters))
    # ------------------------------------------------------------------
    def after_access(self, page: int, is_write: bool) -> None:
        """Validate the state transition caused by one ``access`` call."""
        mm = self.mm
        if (mm.accounting is not self._accounting_obj
                or mm.wear is not self._wear_obj):
            # reset_accounting() swapped the counter objects (warm-up
            # boundary); this request was charged to the new epoch.
            self._rebaseline()
            self._fail_if_unrecorded(page, expected_total=1)
            self.checked_requests += 1
            return

        current = _counter_snapshot(mm.accounting)
        previous = self._counters
        for name, value in current.items():
            if value < previous[name]:
                self._fail(
                    f"counter {name} decreased "
                    f"({previous[name]} -> {value}) after page {page}"
                )
        recorded = (
            current["read_requests"] + current["write_requests"]
            - previous["read_requests"] - previous["write_requests"]
        )
        if recorded != 1:
            self._fail(
                f"access(page={page}, is_write={is_write}) called "
                f"record_request {recorded} times; the contract is "
                "exactly once per request"
            )
        direction = "write_requests" if is_write else "read_requests"
        if current[direction] != previous[direction] + 1:
            self._fail(
                f"request direction miscounted for page {page}: "
                f"is_write={is_write} but {direction} did not advance"
            )
        self._counters = current

        try:
            mm.accounting.validate()
        except ValueError as exc:
            self._fail(f"accounting inconsistent after page {page}: {exc}")

        self._check_occupancy()
        self._check_dma_identities(current)
        self._check_wear_totals(current)

        self.checked_requests += 1
        if self.checked_requests % self.deep_every == 0:
            self.check_deep()

    def _fail_if_unrecorded(self, page: int, expected_total: int) -> None:
        total = self.mm.accounting.total_requests
        if total != expected_total:
            self._fail(
                f"record_request ran {total} times for the first "
                f"request after an accounting reset (page {page})"
            )
        self._counters = _counter_snapshot(self.mm.accounting)

    def _check_occupancy(self) -> None:
        mm = self.mm
        if mm.dram.used > mm.dram.capacity:
            self._fail(
                f"DRAM over capacity: {mm.dram.used}/{mm.dram.capacity}"
            )
        if mm.nvm.used > mm.nvm.capacity:
            self._fail(
                f"NVM over capacity: {mm.nvm.used}/{mm.nvm.capacity}"
            )

    def _check_dma_identities(self, counters: dict[str, int]) -> None:
        """Model-level event counts must equal mechanical page moves."""
        faults, evictions, to_dram, to_nvm = self._dma_counts()
        base = self._dma_base
        pairs = (
            ("page fault fills",
             counters["read_faults"] + counters["write_faults"],
             faults - base[0]),
            ("evictions to disk",
             counters["clean_evictions"] + counters["dirty_evictions"],
             evictions - base[1]),
            ("migrations to DRAM", counters["migrations_to_dram"],
             to_dram - base[2]),
            ("migrations to NVM", counters["migrations_to_nvm"],
             to_nvm - base[3]),
        )
        for label, counted, moved in pairs:
            if counted != moved:
                self._fail(
                    f"{label} accounting ({counted}) disagrees with the "
                    f"DMA transfer log ({moved})"
                )

    def _check_wear_totals(self, counters: dict[str, int]) -> None:
        wear = self.mm.wear
        totals = (
            wear.fault_fill_writes, wear.migration_writes,
            wear.request_writes,
        )
        for label, now, before in zip(
            ("fault_fill_writes", "migration_writes", "request_writes"),
            totals, self._wear_totals,
        ):
            if now < before:
                self._fail(f"wear counter {label} decreased ({before} -> {now})")
        self._wear_totals = totals
        factor = wear.page_factor
        identities = (
            ("request_writes", wear.request_writes,
             counters["nvm_write_hits"]),
            ("fault_fill_writes", wear.fault_fill_writes,
             counters["faults_filled_nvm"] * factor),
            ("migration_writes", wear.migration_writes,
             counters["migrations_to_nvm"] * factor),
        )
        for label, wear_value, expected in identities:
            if wear_value != expected:
                self._fail(
                    f"wear {label} ({wear_value}) out of step with event "
                    f"accounting (expected {expected})"
                )

    # ------------------------------------------------------------------
    # Deep checks (O(resident pages); every ``deep_every`` requests)
    # ------------------------------------------------------------------
    def check_deep(self, include_policy: bool = True) -> None:
        """Deep structural check: ``mm.validate()`` plus per-page wear.

        When a policy is attached, its own ``validate()`` runs too, so
        policy-internal structures (LRU queues, clock rings) are checked
        against the page table on the same cadence.
        """
        try:
            self.mm.validate()
        except (AssertionError, ValueError) as exc:
            self._fail(f"memory manager invariants violated: {exc}")
        self._check_page_wear()
        if include_policy and self.policy is not None:
            self.policy.validate()

    def _check_page_wear(self) -> None:
        wear = self.mm.wear
        if wear is not self._wear_obj:
            self._page_writes = dict(wear.page_writes)
            return
        for page, writes in wear.page_writes.items():
            if writes < self._page_writes.get(page, 0):
                self._fail(
                    f"per-page wear decreased for page {page} "
                    f"({self._page_writes[page]} -> {writes})"
                )
        self._page_writes = dict(wear.page_writes)


class SanitizedPolicy:
    """Transparent sanitizing wrapper around a placement policy.

    Duck-types the :class:`~repro.policies.base.HybridMemoryPolicy`
    surface the simulator uses (``access``/``access_batch``/
    ``validate``/``name``) and forwards everything else to the wrapped
    policy, so tests poking policy internals keep working.
    """

    def __init__(self, policy: "HybridMemoryPolicy",
                 deep_every: int = DEFAULT_DEEP_EVERY) -> None:
        self._inner = policy
        self.sanitizer = SimulationSanitizer(
            policy.mm, deep_every=deep_every, policy=policy,
        )

    @property
    def name(self) -> str:
        return self._inner.name

    @property
    def mm(self) -> "MemoryManager":
        return self._inner.mm

    def access(self, page: int, is_write: bool) -> None:
        self._inner.access(page, is_write)
        self.sanitizer.after_access(page, is_write)

    def access_batch(self, pages: list[int], writes: list[bool]) -> None:
        """Instrumented batch kernel: check invariants after every request.

        Feeds the wrapped policy's *real* ``access_batch`` one request
        at a time, so sanitized runs (the whole test suite) exercise
        the policy's optimised batch kernel — including its inlined
        fast paths — while the per-request contract (record_request
        exactly once, counter monotonicity, DMA/wear identities) is
        still asserted between requests.  The simulator selects this
        kernel once at setup; the plain path has no sanitizer branch.
        """
        inner_batch = self._inner.access_batch
        after_access = self.sanitizer.after_access
        for page, is_write in zip(pages, writes):
            inner_batch((page,), (is_write,))
            after_access(page, is_write)

    def validate(self) -> None:  # repro: cold
        """Policy's own structural checks plus the deep sanitizer pass."""
        self._inner.validate()
        self.sanitizer.check_deep(include_policy=False)

    def __getattr__(self, attribute: str) -> object:
        return getattr(self._inner, attribute)

    def __repr__(self) -> str:
        return f"<sanitized {self._inner!r}>"
