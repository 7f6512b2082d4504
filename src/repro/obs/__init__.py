"""repro.obs — typed event-stream observability for the simulator.

The paper's argument is temporal (which migrations fire *when*, and
which ones pay off); this package gives the simulator a typed,
zero-overhead-when-disabled event bus plus the standard sinks that
turn the stream into per-interval metric series, JSONL traces and the
beneficial-migration split of Fig. 2/3.  See DESIGN.md §11.
"""

from repro.obs.bus import EventBus, FinalState, Sink
from repro.obs.config import DEFAULT_BUCKETS, EventConfig
from repro.obs.events import (
    EVENT_TYPES,
    EpochEvent,
    Event,
    EvictionEvent,
    MigrationEvent,
    PageFaultEvent,
    decode_event,
    encode_event,
    event_from_dict,
    event_to_dict,
)
from repro.obs.sinks import (
    BeneficialMigrationClassifier,
    BufferSink,
    IntervalAggregator,
    build_ledger,
    build_series,
)
from repro.obs.summary import (
    EventSummary,
    IntervalLedger,
    IntervalMetrics,
    MigrationLedger,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "EVENT_TYPES",
    "BeneficialMigrationClassifier",
    "BufferSink",
    "EpochEvent",
    "Event",
    "EventBus",
    "EventConfig",
    "EventSummary",
    "EvictionEvent",
    "FinalState",
    "IntervalAggregator",
    "IntervalLedger",
    "IntervalMetrics",
    "MigrationEvent",
    "MigrationLedger",
    "PageFaultEvent",
    "Sink",
    "build_ledger",
    "build_series",
    "decode_event",
    "encode_event",
    "event_from_dict",
    "event_to_dict",
]
