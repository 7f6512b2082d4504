"""Tests for the observability layer (:mod:`repro.obs`).

The load-bearing guarantees:

* the event stream is byte-identical between the batched and
  per-request replay paths, for every registered policy;
* attaching the bus never changes the simulation (metrics equal with
  events on and off);
* summaries are deterministic across worker counts (serial vs pooled
  executor);
* the per-interval aggregates reconstruct the end-of-run counters
  exactly, warm-up included;
* everything round-trips losslessly through JSON (bus events, configs,
  summaries, results).
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.experiments.executor import ParallelExecutor
from repro.experiments.runspec import RunSpec
from repro.memory.devices import dram_spec, hdd_spec, pcm_spec
from repro.memory.specs import HybridMemorySpec
from repro.mmu.manager import MemoryManager
from repro.mmu.simulator import HybridMemorySimulator, RunResult
from repro.obs import (
    BeneficialMigrationClassifier,
    BufferSink,
    EpochEvent,
    EventBus,
    EventConfig,
    EventSummary,
    EvictionEvent,
    FinalState,
    MigrationEvent,
    PageFaultEvent,
    decode_event,
    encode_event,
    event_from_dict,
    event_to_dict,
)
from repro.policies.registry import available_policies
from repro.workloads.parsec import parsec_workload

WORKLOAD = "dedup"
SCALE = 0.00025  # a few thousand requests: fast, but exercises everything


@pytest.fixture(scope="module")
def instance():
    return parsec_workload(WORKLOAD, request_scale=SCALE)


def _machine(instance, policy: str) -> HybridMemorySpec:
    if policy.startswith("dram-only"):
        return instance.spec.as_dram_only()
    if policy.startswith("nvm-only"):
        return instance.spec.as_nvm_only()
    return instance.spec


def _run(instance, policy: str, *, batch: bool,
         events) -> RunResult:
    spec = RunSpec(WORKLOAD, policy, request_scale=SCALE)
    simulator = HybridMemorySimulator(
        _machine(instance, policy),
        spec.build_policy_factory(),
        inter_request_gap=instance.inter_request_gap,
        batch=batch,
        events=events,
    )
    return simulator.run(instance.trace,
                         warmup_fraction=instance.warmup_fraction)


# ----------------------------------------------------------------------
# Golden equivalence: every policy, batch vs per-request, on vs off
# ----------------------------------------------------------------------
class TestKernelEquivalence:
    @pytest.mark.parametrize("policy", available_policies())
    def test_stream_and_metrics_identical(self, instance, policy):
        config = EventConfig(buckets=8, trace=True)
        batched = _run(instance, policy, batch=True, events=config)
        looped = _run(instance, policy, batch=False, events=config)
        plain = _run(instance, policy, batch=True, events=None)

        # byte-identical streams between the fused and reference kernels
        assert batched.events is not None
        assert looped.events is not None
        assert batched.events.trace_lines == looped.events.trace_lines
        assert batched.events.to_dict() == looped.events.to_dict()

        # observability is passive: the simulation itself is unchanged
        assert batched.accounting.snapshot() == plain.accounting.snapshot()
        assert batched.summary() == plain.summary()
        assert batched.wear.page_writes == plain.wear.page_writes


# ----------------------------------------------------------------------
# Determinism across the executor pool
# ----------------------------------------------------------------------
class TestExecutorDeterminism:
    def test_serial_vs_parallel_byte_identical(self):
        specs = [
            RunSpec.core(WORKLOAD, policy, request_scale=SCALE,
                         events=EventConfig(buckets=4, trace=True))
            for policy in ("clock-dwf", "proposed", "dram-only")
        ]
        serial = ParallelExecutor(jobs=1)
        pooled = ParallelExecutor(jobs=2)
        serial_results = serial.submit(list(specs))
        pooled_results = pooled.submit(list(specs))
        for left, right in zip(serial_results, pooled_results):
            assert left.events is not None
            assert left.events.to_dict() == right.events.to_dict()


# ----------------------------------------------------------------------
# Interval reconstruction
# ----------------------------------------------------------------------
class TestReconstruction:
    @pytest.fixture(scope="class")
    def observed(self, instance):
        return _run(instance, "proposed", batch=True,
                    events=EventConfig(buckets=8, trace=True))

    def test_clock_counts_measured_requests(self, observed):
        summary = observed.events
        assert summary.requests == observed.accounting.total_requests

    def test_deltas_sum_to_final_counters(self, observed):
        summary = observed.events
        totals: dict[str, int] = {}
        for row in summary.series:
            for name, value in row.accounting.items():
                totals[name] = totals.get(name, 0) + value
        assert totals == observed.accounting.snapshot()

    def test_wear_deltas_sum_to_final_counters(self, observed):
        summary = observed.events
        for name in ("fault_fill_writes", "migration_writes",
                     "request_writes"):
            assert sum(row.wear[name] for row in summary.series) \
                == getattr(observed.wear, name)

    def test_intervals_cover_run_exactly_once(self, observed):
        summary = observed.events
        assert summary.series  # at most `buckets`, at least one
        assert len(summary.series) <= 8
        assert summary.series[0].start == 1
        for left, right in zip(summary.series, summary.series[1:]):
            assert right.start == left.end + 1
        assert summary.series[-1].end == summary.requests

    def test_beneficial_split_present(self, instance):
        for policy in ("clock-dwf", "proposed"):
            result = _run(instance, policy, batch=True,
                          events=EventConfig(buckets=8))
            ledger = result.events.migrations
            assert ledger is not None
            assert ledger.promotions \
                == ledger.beneficial + ledger.non_beneficial
            assert ledger.promotions >= sum(
                row.promotions for row in ledger.by_interval) >= 0


# ----------------------------------------------------------------------
# Serialisation round-trips
# ----------------------------------------------------------------------
class TestRoundTrips:
    def test_event_config(self):
        config = EventConfig(interval=128, buckets=32, trace=True,
                             classify=False)
        assert EventConfig.from_dict(config.to_dict()) == config
        with pytest.raises(ValueError):
            EventConfig(buckets=0)

    def test_events(self):
        events = [
            MigrationEvent(index=7, page=3, to_dram=True, access_count=9,
                           write_count=4, trigger="write", counter=4,
                           threshold=4),
            MigrationEvent(index=9, page=3, to_dram=False, access_count=12,
                           write_count=6),
            PageFaultEvent(index=1, page=5, to_dram=False, is_write=True),
            EvictionEvent(index=11, page=5, from_dram=False, dirty=True,
                          access_count=2, write_count=1),
            EpochEvent(index=16, accounting={"read_requests": 12},
                       wear={"request_writes": 3}),
        ]
        for event in events:
            assert event_from_dict(event_to_dict(event)) == event
            assert decode_event(encode_event(event)) == event
            # canonical encoding: stable key order, no whitespace
            line = encode_event(event)
            assert line == json.dumps(json.loads(line), sort_keys=True,
                                      separators=(",", ":"))

    def test_run_result_with_summary(self, instance):
        result = _run(instance, "proposed", batch=True,
                      events=EventConfig(buckets=4, trace=True))
        rebuilt = RunResult.from_dict(result.to_dict())
        assert rebuilt.events is not None
        assert rebuilt.events.to_dict() == result.events.to_dict()
        assert rebuilt.summary() == result.summary()

    def test_runspec_identity_includes_events(self):
        plain = RunSpec(WORKLOAD, "proposed", request_scale=SCALE)
        observed = replace(plain, events=EventConfig(buckets=4))
        assert plain != observed
        assert plain.key() != observed.key()
        assert plain.digest() != observed.digest()
        assert RunSpec.from_dict(observed.to_dict()) == observed
        # mappings normalise to EventConfig
        mapped = RunSpec(WORKLOAD, "proposed", request_scale=SCALE,
                         events={"buckets": 4})
        assert mapped == observed


# ----------------------------------------------------------------------
# Bus and sink unit behaviour
# ----------------------------------------------------------------------
def _mm() -> MemoryManager:
    return MemoryManager(HybridMemorySpec(
        dram=dram_spec(), nvm=pcm_spec(), disk=hdd_spec(),
        dram_pages=4, nvm_pages=12,
    ))


class TestBus:
    def test_epoch_idempotent_per_clock(self):
        sink = BufferSink()
        bus = EventBus([sink], interval=4)
        mm = _mm()
        bus.clock = 4
        bus.page_fault(3, to_dram=True, is_write=False)
        bus.epoch(mm)
        bus.epoch(mm)  # same clock: must not mark a second epoch
        epochs = [line for line in sink.lines if '"kind":"epoch"' in line]
        assert len(epochs) == 1
        assert bus.events_seen == 2

    def test_trigger_annotation_consumed_once(self):
        sink = BufferSink()
        bus = EventBus([sink], interval=8)
        bus.clock = 2
        bus.annotate("write", 5, 4)
        bus.migration(7, to_dram=True, access_count=9, write_count=5)
        bus.migration(8, to_dram=True, access_count=3, write_count=0)
        bus.flush()
        first, second = (decode_event(line) for line in sink.lines)
        assert (first.trigger, first.counter, first.threshold) \
            == ("write", 5, 4)
        assert (second.trigger, second.counter, second.threshold) \
            == (None, None, None)

    def test_explicit_trigger_wins_over_annotation(self):
        sink = BufferSink()
        bus = EventBus([sink], interval=8)
        bus.annotate("read", 9, 8)
        bus.migration(7, to_dram=True, access_count=1, write_count=0,
                      trigger="copy")
        bus.flush()
        event = decode_event(sink.lines[0])
        assert event.trigger == "copy"
        assert event.counter is None


class TestClassifier:
    def test_micro_case_scored_by_hand(self):
        spec = _mm().spec
        classifier = BeneficialMigrationClassifier(spec)
        # page 1: promoted, then demoted after 10 reads and 10 writes
        classifier.handle(MigrationEvent(
            index=10, page=1, to_dram=True, access_count=5, write_count=2))
        classifier.handle(MigrationEvent(
            index=20, page=1, to_dram=False, access_count=25,
            write_count=12))
        # page 2: promoted and still resident at the end, untouched
        classifier.handle(MigrationEvent(
            index=30, page=2, to_dram=True, access_count=4, write_count=1))
        classifier.finish(FinalState(
            clock=40, interval=20, pages={2: (True, 4, 1)}))
        ledger = classifier.ledger
        saved = (10 * (spec.nvm.read_latency - spec.dram.read_latency)
                 + 10 * (spec.nvm.write_latency - spec.dram.write_latency))
        cost = spec.migration_latency_to_dram()
        assert ledger.promotions == 2
        assert ledger.dram_reads_served == 10
        assert ledger.dram_writes_served == 10
        assert ledger.beneficial == (1 if saved >= cost else 0)
        assert ledger.non_beneficial == ledger.promotions - ledger.beneficial
        # page 1 landed in bucket 0 (index 10), page 2 in bucket 1
        assert [row.index for row in ledger.by_interval] == [0, 1]
        assert ledger.wasted_seconds == pytest.approx(
            sum(row.wasted_seconds for row in ledger.by_interval))

    def test_eviction_from_dram_closes_record(self):
        spec = _mm().spec
        classifier = BeneficialMigrationClassifier(spec)
        classifier.handle(MigrationEvent(
            index=5, page=9, to_dram=True, access_count=1, write_count=0))
        classifier.handle(EvictionEvent(
            index=8, page=9, from_dram=True, dirty=False, access_count=3,
            write_count=0))
        classifier.finish(FinalState(clock=10, interval=10, pages={}))
        assert classifier.ledger.promotions == 1
        assert classifier.ledger.dram_reads_served == 2
