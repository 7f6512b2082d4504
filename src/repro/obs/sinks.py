"""Pluggable sinks: trace writing, interval aggregation, classification.

A sink receives every event in chronological order (epoch-batched) and
a single ``finish`` call; see :class:`repro.obs.bus.Sink` for the
contract.  The three standard sinks here power ``repro events``, the
timeline figures and the observability tests:

* :class:`BufferSink` — deterministic JSONL encoding of the raw
  stream (one event per line, sorted keys), kept in memory as the
  summary's ``trace_lines``.
* :class:`IntervalAggregator` — differences consecutive epoch marks
  into exact per-interval counter deltas and evaluates the paper's
  AMAT/APPR/NVM-write models on each; summing the deltas reconstructs
  the end-of-run counters bit-for-bit.
* :class:`BeneficialMigrationClassifier` — pairs each promotion with
  the demotion/eviction (or end-of-run state) of the same page and
  tags it by whether the DRAM latency saved in between covered the
  migration cost — the paper's Fig. 2/3 beneficial-migration split.
"""

from __future__ import annotations

from repro.memory.accounting import AccessAccounting
from repro.memory.endurance import compute_nvm_writes
from repro.memory.metrics import compute_performance
from repro.memory.power import compute_power
from repro.memory.specs import HybridMemorySpec
from repro.obs.bus import FinalState, Sink
from repro.obs.events import (
    EpochEvent,
    Event,
    EvictionEvent,
    MigrationEvent,
    encode_event,
)
from repro.obs.summary import IntervalLedger, IntervalMetrics, MigrationLedger


class BufferSink(Sink):
    """Keeps the encoded JSONL lines of every event in memory."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def handle(self, event: Event) -> None:
        self.lines.append(encode_event(event))


class IntervalAggregator(Sink):
    """Buckets the run into fixed-interval time series of paper metrics.

    Consumes only the epoch marks (every per-request fact needed for
    the models is in the cumulative counters they carry) and publishes
    ``series`` — one :class:`IntervalMetrics` per interval — at
    ``finish``.
    """

    def __init__(
        self, spec: HybridMemorySpec, inter_request_gap: float = 0.0
    ) -> None:
        self.spec = spec
        self.inter_request_gap = inter_request_gap
        self._epochs: list[EpochEvent] = []
        self.series: tuple[IntervalMetrics, ...] = ()

    def handle(self, event: Event) -> None:
        if type(event) is EpochEvent:
            self._epochs.append(event)

    def finish(self, final: FinalState) -> None:
        self.series = build_series(
            self._epochs, self.spec, self.inter_request_gap
        )


def build_series(
    epochs: list[EpochEvent],
    spec: HybridMemorySpec,
    inter_request_gap: float = 0.0,
) -> tuple[IntervalMetrics, ...]:
    """Difference cumulative epoch marks into per-interval metrics."""
    series: list[IntervalMetrics] = []
    prev_index = 0
    prev_accounting: dict[str, int] = {}
    prev_wear: dict[str, int] = {}
    for ordinal, epoch in enumerate(epochs):
        delta = {
            name: value - prev_accounting.get(name, 0)
            for name, value in epoch.accounting.items()
        }
        accounting = AccessAccounting(**delta)
        performance = compute_performance(accounting, spec)
        power = compute_power(
            accounting, spec, performance,
            inter_request_gap=inter_request_gap,
        )
        nvm_writes = compute_nvm_writes(accounting, spec)
        wear = {
            name: epoch.wear[name] - prev_wear.get(name, 0)
            for name in (
                "fault_fill_writes", "migration_writes", "request_writes",
            )
        }
        # Watermarks are cumulative, not interval-decomposable.
        wear["touched_pages"] = epoch.wear["touched_pages"]
        wear["max_page_writes"] = epoch.wear["max_page_writes"]
        series.append(IntervalMetrics(
            index=ordinal,
            start=prev_index + 1,
            end=epoch.index,
            requests=accounting.total_requests,
            amat=performance.amat,
            appr=power.appr,
            nvm_writes=nvm_writes.total,
            migrations_to_dram=accounting.migrations_to_dram,
            migrations_to_nvm=accounting.migrations_to_nvm,
            page_faults=accounting.page_faults,
            evictions=accounting.evictions_to_disk,
            accounting=delta,
            wear=wear,
        ))
        prev_index = epoch.index
        prev_accounting = epoch.accounting
        prev_wear = epoch.wear
    return tuple(series)


class BeneficialMigrationClassifier(Sink):
    """Tags every promotion by whether its DRAM hits paid for it.

    A promotion *opens* a record carrying the page's access/write
    counters at migration time; the page's later demotion, eviction or
    end-of-run state *closes* it.  The counter deltas in between are
    exactly the hits the page served while it lived in DRAM (or held a
    DRAM copy), each saving the NVM-minus-DRAM latency difference; the
    promotion is beneficial when the total saving covers
    ``spec.migration_latency_to_dram()``.  Publishes ``ledger`` at
    ``finish``.
    """

    def __init__(self, spec: HybridMemorySpec) -> None:
        self.spec = spec
        #: page -> (promotion index, access_count, write_count) at open.
        self._open: dict[int, tuple[int, int, int]] = {}
        #: (promotion index, dram reads served, dram writes served).
        self._closed: list[tuple[int, int, int]] = []
        self.ledger: MigrationLedger | None = None

    def handle(self, event: Event) -> None:
        kind = type(event)
        if kind is MigrationEvent:
            if event.to_dram:
                self._open[event.page] = (
                    event.index, event.access_count, event.write_count,
                )
            else:
                opened = self._open.pop(event.page, None)
                if opened is not None:
                    self._close(
                        opened, event.access_count, event.write_count
                    )
        elif kind is EvictionEvent and event.from_dram:
            opened = self._open.pop(event.page, None)
            if opened is not None:
                self._close(opened, event.access_count, event.write_count)

    def _close(
        self,
        opened: tuple[int, int, int],
        access_count: int,
        write_count: int,
    ) -> None:
        index, access_base, write_base = opened
        writes = write_count - write_base
        reads = (access_count - access_base) - writes
        self._closed.append((index, reads, writes))

    def finish(self, final: FinalState) -> None:
        for page in sorted(self._open):
            state = final.pages.get(page)
            if state is None:
                continue
            _, access_count, write_count = state
            self._close(self._open[page], access_count, write_count)
        self._open.clear()
        self.ledger = build_ledger(self._closed, self.spec, final.interval)


def build_ledger(
    closed: list[tuple[int, int, int]],
    spec: HybridMemorySpec,
    interval: int,
) -> MigrationLedger:
    """Score closed promotion records against the migration cost."""
    read_saving = spec.nvm.read_latency - spec.dram.read_latency
    write_saving = spec.nvm.write_latency - spec.dram.write_latency
    cost = spec.migration_latency_to_dram()
    promotions = beneficial = 0
    dram_reads = dram_writes = 0
    saved_total = 0.0
    wasted_total = 0.0
    rows: dict[int, list[float]] = {}
    for index, reads, writes in closed:
        saved = reads * read_saving + writes * write_saving
        is_beneficial = saved >= cost
        promotions += 1
        beneficial += is_beneficial
        dram_reads += reads
        dram_writes += writes
        saved_total += saved
        wasted = 0.0 if is_beneficial else cost - saved
        wasted_total += wasted
        bucket = (index - 1) // interval if interval > 0 else 0
        row = rows.setdefault(bucket, [0, 0, 0, 0.0])
        row[0] += 1
        row[1] += is_beneficial
        row[2] += not is_beneficial
        row[3] += wasted
    return MigrationLedger(
        promotions=promotions,
        beneficial=beneficial,
        non_beneficial=promotions - beneficial,
        dram_reads_served=dram_reads,
        dram_writes_served=dram_writes,
        saved_seconds=saved_total,
        migration_cost_seconds=cost,
        wasted_seconds=wasted_total,
        by_interval=tuple(
            IntervalLedger(
                index=bucket,
                promotions=int(rows[bucket][0]),
                beneficial=int(rows[bucket][1]),
                non_beneficial=int(rows[bucket][2]),
                wasted_seconds=rows[bucket][3],
            )
            for bucket in sorted(rows)
        ),
    )
