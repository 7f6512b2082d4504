"""The trace-driven hybrid-memory simulator and its result object.

This is the framework the paper describes as "developed similar to the
Linux memory management layer": it feeds a memory trace to a placement
policy running over the shared :class:`~repro.mmu.manager.MemoryManager`
mechanics, then evaluates the paper's performance, power and endurance
models on the resulting event counts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.memory.accounting import AccessAccounting, WearAccounting
from repro.memory.endurance import (
    EnduranceReport,
    NVMWriteBreakdown,
    compute_nvm_writes,
    endurance_report,
)
from repro.memory.metrics import PerformanceBreakdown, compute_performance
from repro.memory.power import PowerBreakdown, compute_power
from repro.memory.specs import HybridMemorySpec
from repro.mmu.manager import MemoryManager
from repro.obs.bus import EventBus
from repro.obs.config import EventConfig
from repro.obs.sinks import (
    BeneficialMigrationClassifier,
    BufferSink,
    IntervalAggregator,
)
from repro.obs.summary import EventSummary
from repro.sampling.summary import SamplingSummary
from repro.trace.trace import Trace

if TYPE_CHECKING:  # avoid a package-level cycle with repro.policies
    from repro.policies.base import HybridMemoryPolicy
    from repro.trace.source import TraceSource

#: Builds a policy over a fresh memory manager (same shape as
#: :data:`repro.policies.base.PolicyFactory`; duplicated here so the
#: mmu layer does not import the policies package at module load).
PolicyFactory = Callable[[MemoryManager], "HybridMemoryPolicy"]

#: Environment variable that flips the simulator's sanitize default.
#: It lives here, not in :mod:`repro.analysis.sanitizer`, so that a run
#: that does not sanitize never imports the analysis package.
SANITIZE_ENV = "REPRO_SANITIZE"


def sanitize_default() -> bool:
    """Whether simulators sanitize when not told explicitly."""
    return os.environ.get(SANITIZE_ENV, "").strip().lower() in (
        "1", "true", "yes", "on",
    )


@dataclass(frozen=True)
class RunResult:
    """Everything measured about one (policy, workload, machine) run."""

    workload: str
    policy: str
    spec: HybridMemorySpec
    accounting: AccessAccounting
    wear: WearAccounting
    performance: PerformanceBreakdown
    power: PowerBreakdown
    nvm_writes: NVMWriteBreakdown
    endurance: EnduranceReport
    #: Distilled event stream; only present when the run was driven
    #: with ``events=EventConfig(...)``.
    events: EventSummary | None = None
    #: Sample provenance and confidence intervals; only present when
    #: the run came from ``engine="sampled"`` (:mod:`repro.sampling`).
    sampling: SamplingSummary | None = None

    @property
    def amat(self) -> float:
        return self.performance.amat

    @property
    def appr(self) -> float:
        return self.power.appr

    @property
    def hit_ratio(self) -> float:
        return self.accounting.hit_ratio

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible form: everything needed to rebuild the result.

        This is the serialisation the disk cache persists; it must
        round-trip losslessly through :meth:`from_dict` (floats survive
        JSON via repr round-tripping, so equality is exact).
        """
        return {
            "workload": self.workload,
            "policy": self.policy,
            "spec": self.spec.to_dict(),
            "accounting": self.accounting.to_dict(),
            "wear": self.wear.to_dict(),
            "performance": self.performance.to_dict(),
            "power": self.power.to_dict(),
            "nvm_writes": self.nvm_writes.to_dict(),
            "endurance": self.endurance.to_dict(),
            "events": (
                self.events.to_dict() if self.events is not None else None
            ),
            "sampling": (
                self.sampling.to_dict() if self.sampling is not None
                else None
            ),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunResult":
        events = data.get("events")
        sampling = data.get("sampling")
        return cls(
            workload=data["workload"],
            policy=data["policy"],
            spec=HybridMemorySpec.from_dict(data["spec"]),
            accounting=AccessAccounting.from_dict(data["accounting"]),
            wear=WearAccounting.from_dict(data["wear"]),
            performance=PerformanceBreakdown.from_dict(data["performance"]),
            power=PowerBreakdown.from_dict(data["power"]),
            nvm_writes=NVMWriteBreakdown.from_dict(data["nvm_writes"]),
            endurance=EnduranceReport.from_dict(data["endurance"]),
            events=(
                EventSummary.from_dict(events) if events is not None
                else None
            ),
            sampling=(
                SamplingSummary.from_dict(sampling) if sampling is not None
                else None
            ),
        )

    @classmethod
    def scored(
        cls,
        workload: str,
        policy: str,
        spec: HybridMemorySpec,
        accounting: AccessAccounting,
        wear: WearAccounting,
        inter_request_gap: float = 0.0,
        events: EventSummary | None = None,
        sampling: SamplingSummary | None = None,
    ) -> "RunResult":
        """Score counters with the paper's models: the one recipe.

        Eq. 1 (AMAT), Eq. 2-3 (APPR, with ``inter_request_gap``
        prorating static power), the NVM write volume and the endurance
        report over the run's elapsed time.  Every engine — exact
        replay, the analytic estimator, the sampled engine's point
        estimate and replicates — and the ``repro events``
        reconstruction score through here, so their numbers cannot
        drift apart.
        """
        performance = compute_performance(accounting, spec)
        power = compute_power(
            accounting, spec, performance,
            inter_request_gap=inter_request_gap,
        )
        nvm_writes = compute_nvm_writes(accounting, spec)
        elapsed = (
            (performance.memory_time + inter_request_gap)
            * accounting.total_requests
        )
        endurance = endurance_report(
            wear, spec, elapsed_seconds=elapsed or None
        )
        return cls(
            workload=workload,
            policy=policy,
            spec=spec,
            accounting=accounting,
            wear=wear,
            performance=performance,
            power=power,
            nvm_writes=nvm_writes,
            endurance=endurance,
            events=events,
            sampling=sampling,
        )

    def summary(self) -> dict[str, float]:
        """Flat metric dict used by reports and regression tests."""
        accounting = self.accounting
        return {
            "requests": float(accounting.total_requests),
            "hit_ratio": accounting.hit_ratio,
            "dram_hit_ratio": accounting.p_hit_dram,
            "nvm_hit_ratio": accounting.p_hit_nvm,
            "miss_ratio": accounting.p_miss,
            "migrations_to_dram": float(accounting.migrations_to_dram),
            "migrations_to_nvm": float(accounting.migrations_to_nvm),
            "amat_ns": self.performance.amat * 1e9,
            "appr_nj": self.power.appr * 1e9,
            "nvm_writes": float(self.nvm_writes.total),
        }


class HybridMemorySimulator:
    """Drives one policy over one trace and scores it with the models."""

    def __init__(
        self,
        spec: HybridMemorySpec,
        policy_factory: PolicyFactory,
        inter_request_gap: float = 0.0,
        sanitize: bool | None = None,
        batch: bool = True,
        events: EventConfig | None = None,
    ) -> None:
        """
        Parameters
        ----------
        spec:
            Machine configuration.
        policy_factory:
            Builds the policy over a fresh memory manager.
        inter_request_gap:
            Mean compute/LLC time between consecutive main-memory
            requests (seconds); feeds the static-power proration.
        sanitize:
            Wrap the policy in the runtime sanitizer
            (:class:`repro.analysis.sanitizer.SanitizedPolicy`), which
            asserts the bookkeeping invariants after every request.
            ``None`` defers to the ``REPRO_SANITIZE`` environment
            variable (the test suite turns it on globally).
        batch:
            Replay through the policy's ``access_batch`` kernel
            (default).  ``False`` forces the per-request ``access``
            loop — the reference path the golden-equivalence tests
            compare against.  Results are bit-identical either way.
        events:
            ``None`` (default) disables observability entirely — the
            hot paths stay a single predictable branch away from the
            uninstrumented code.  An :class:`EventConfig` attaches the
            standard sinks for the measured region and publishes an
            :class:`EventSummary` on the result.
        """
        self.spec = spec
        self.mm = MemoryManager(spec)
        self.policy = policy_factory(self.mm)
        if sanitize is None:
            sanitize = sanitize_default()
        self.sanitize = bool(sanitize)
        if self.sanitize:
            from repro.analysis.sanitizer import SanitizedPolicy
            self.policy = SanitizedPolicy(self.policy)
        self.inter_request_gap = inter_request_gap
        self.batch = batch
        self.events = events
        self._event_summary: EventSummary | None = None

    def run(self, trace: "Trace | TraceSource", warmup_fraction: float = 0.0,
            warmup_requests: int | None = None) -> RunResult:
        """Simulate the trace and evaluate the models.

        ``trace`` may be a materialised :class:`Trace` (replayed as one
        whole-trace chunk, exactly as before) or any
        :class:`~repro.trace.source.TraceSource` — both feed the same
        chunked drive loop, whose results are bit-identical across
        chunkings (pinned by the chunk-boundary equivalence suite).

        ``warmup_fraction`` of the trace is replayed first to populate
        memory and train the policy, then the accounting is reset and
        only the remainder is measured (the paper's warm-start ROI
        measurement).  The event bus, when configured, observes only
        the measured region: it is attached after the warm-up reset,
        so event indexes are 1-based measured-request ordinals.

        ``warmup_requests`` overrides the boundary with an explicit
        request count.  The sampled engine uses this to keep warm-up
        fidelity: its boundary is computed on the *full* trace and
        mapped into the sample, which a fraction of the (shorter)
        sampled trace could not express exactly.
        """
        return self.run_source(trace, chunk_size=None,
                               warmup_fraction=warmup_fraction,
                               warmup_requests=warmup_requests)

    def run_source(
        self,
        source: "Trace | TraceSource",
        chunk_size: int | None = None,
        warmup_fraction: float = 0.0,
        warmup_requests: int | None = None,
    ) -> RunResult:
        """Simulate a (possibly streaming) source chunk by chunk.

        Peak memory is one chunk plus the resident page tables — a
        trace-file or generator source of any length replays at
        constant memory.  ``chunk_size=None`` lets the source pick its
        natural chunking (whole trace for a materialised
        :class:`Trace`, :data:`~repro.trace.source.DEFAULT_CHUNK_REQUESTS`
        for streams).

        Sources of unknown length (``request_count is None``) need an
        explicit ``warmup_requests`` (a *fraction* of an unknown total
        is meaningless) and — when events are collected — an explicit
        ``EventConfig.interval``.
        """
        from repro.trace.source import as_source

        source = as_source(source)
        total = source.request_count
        if warmup_requests is not None:
            if warmup_requests < 0 or (
                    total is not None and warmup_requests > total):
                raise ValueError(
                    "warmup_requests must be within the trace length")
            boundary = warmup_requests
        else:
            if not 0.0 <= warmup_fraction < 1.0:
                raise ValueError("warmup_fraction must be in [0, 1)")
            if warmup_fraction > 0.0 and total is None:
                raise ValueError(
                    "warmup_fraction needs a source of known length; "
                    "pass warmup_requests for streaming sources")
            boundary = (
                int(total * warmup_fraction)
                if total is not None and warmup_fraction > 0.0 else 0
            )
        self._event_summary = None
        bus: EventBus | None = None
        if self.events is not None:
            measured_total = total - boundary if total is not None else None
            bus, summarize = self._build_bus(self.events, measured_total)
        if bus is not None and boundary == 0:
            self.mm.events = bus
        try:
            replayed = self._drive(source, chunk_size, boundary, bus)
        finally:
            self.mm.events = None
        if replayed < boundary:
            raise ValueError(
                f"source ended after {replayed} requests, inside the "
                f"{boundary}-request warm-up region")
        if bus is not None:
            bus.finish(self.mm)
            self._event_summary = summarize()
        # End-of-run enforcement: every run must leave the policy's
        # structures consistent with the manager's, or the scores are
        # bookkeeping artifacts.
        self.policy.validate()
        return self.result(workload=source.name)

    def _build_bus(
        self, config: EventConfig, measured_requests: int | None,
    ) -> tuple[EventBus, Callable[[], EventSummary]]:
        """The bus with the standard sinks, and the function that
        distils them into an :class:`EventSummary` once it finished."""
        if config.interval > 0:
            interval = config.interval
        elif measured_requests is None:
            raise ValueError(
                "bucket-derived event intervals need a source of known "
                "length; set an explicit EventConfig(interval=N) for "
                "streaming sources")
        else:
            interval = config.resolve_interval(measured_requests)
        aggregator = IntervalAggregator(self.spec, self.inter_request_gap)
        classifier = (BeneficialMigrationClassifier(self.spec)
                      if config.classify else None)
        buffer = BufferSink() if config.trace else None
        bus = EventBus(
            [sink for sink in (aggregator, classifier, buffer)
             if sink is not None],
            interval=interval,
        )

        def summarize() -> EventSummary:
            return EventSummary(
                interval=bus.interval,
                requests=bus.clock,
                events=bus.events_seen,
                inter_request_gap=self.inter_request_gap,
                series=aggregator.series,
                migrations=(
                    classifier.ledger if classifier is not None else None
                ),
                trace_lines=(
                    tuple(buffer.lines) if buffer is not None else ()
                ),
            )

        return bus, summarize

    def _drive(
        self,
        source: "TraceSource",
        chunk_size: int | None,
        boundary: int,
        bus: EventBus | None,
    ) -> int:
        """The chunked drive loop; returns total requests consumed.

        Every chunk — whatever its size — drives the same kernels as a
        whole-trace replay (the batch kernels flush their deferred
        accounting per call in their ``finally`` blocks, so totals are
        bit-identical across chunkings), and the warm-up reset and the
        event epochs land on the same request ordinals regardless of where
        the incoming chunk boundaries fall: chunks are carved at the
        warm-up boundary and at every ``bus.interval`` multiple.
        """
        mm = self.mm
        interval = bus.interval if bus is not None else 0
        done = 0        # requests consumed from the source
        measured = 0    # requests replayed past the warm-up boundary
        in_measured = boundary == 0
        for chunk in source.chunks(chunk_size):
            n = len(chunk)
            start = 0
            if not in_measured:
                take = min(boundary - done, n)
                if take:
                    self._replay(chunk if take == n else chunk[:take])
                    done += take
                    start = take
                if done == boundary:
                    in_measured = True
                    mm.reset_accounting()
                    if bus is not None:
                        mm.events = bus
                if start >= n:
                    continue
            if interval <= 0:
                self._replay(chunk if start == 0 else chunk[start:])
                measured += n - start
                done += n - start
                continue
            while start < n:
                stop = min(n, start + interval - measured % interval)
                part = chunk if (start == 0 and stop == n) \
                    else chunk[start:stop]
                self._replay(part)
                measured += stop - start
                done += stop - start
                start = stop
                if measured % interval == 0:
                    bus.epoch(mm)  # type: ignore[union-attr]
        return done

    def _replay(self, trace: Trace) -> None:
        # The kernel is selected once per replay — per-request code
        # never branches on sanitize/batch (the sanitizer, when on,
        # substituted an instrumented policy at construction time, so
        # even the instrumented path is a straight loop).
        if self.batch:
            # One .tolist() each: the whole span becomes native
            # ints/bools up front, and the policy's batch kernel runs
            # without per-request dispatch from the simulator.
            self.policy.access_batch(
                trace.pages.tolist(), trace.is_write.tolist()
            )
        else:
            access = self.policy.access
            for page, is_write in trace.iter_pairs():
                access(page, is_write)

    def result(self, workload: str = "trace") -> RunResult:
        """Score the accumulated events (callable mid-run as well)."""
        return RunResult.scored(
            workload, self.policy.name, self.spec, self.mm.accounting,
            self.mm.wear, self.inter_request_gap,
            events=self._event_summary,
        )


def simulate(
    trace: "Trace | TraceSource",
    spec: HybridMemorySpec,
    policy_factory: PolicyFactory,
    inter_request_gap: float = 0.0,
    warmup_fraction: float = 0.0,
    warmup_requests: int | None = None,
    sanitize: bool | None = None,
    batch: bool = True,
    events: EventConfig | None = None,
) -> RunResult:
    """One-shot convenience wrapper around :class:`HybridMemorySimulator`.

    The simulator is thrown away with its policy: whatever policy
    ``policy_factory`` builds is disposed of once the result is taken
    (its queues and clock rings are emptied), even if the factory kept
    a reference.  To read a policy back after the run, pass its factory
    to :meth:`RunSpec.execute` or drive :meth:`HybridMemorySimulator.run`.
    """
    simulator = HybridMemorySimulator(
        spec,
        policy_factory,
        inter_request_gap=inter_request_gap,
        sanitize=sanitize,
        batch=batch,
        events=events,
    )
    try:
        return simulator.run(trace, warmup_fraction=warmup_fraction,
                             warmup_requests=warmup_requests)
    finally:
        simulator.policy.dispose()
