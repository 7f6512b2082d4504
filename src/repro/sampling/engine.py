"""The sampled execution engine: ``RunSpec(engine="sampled")``.

SHARDS-style spatial sampling for the hybrid-memory simulator: pick a
deterministic 1-in-K subset of *pages* (:mod:`repro.trace.sampling` —
frequency-stratified systematic selection), replay only their requests
against a proportionally scaled frame budget
(:meth:`HybridMemorySpec.sampled`), then scale the measured counters
back up and score them against the *full* machine through
:meth:`~repro.mmu.simulator.RunResult.scored`, the Eq. 1-3 recipe the
exact simulator and the analytic engine use.

Why this is faithful: spatial membership keeps every access of a
sampled page, so per-page reuse behaviour — the counter dynamics the
migration policies key on — is preserved exactly; only the page
population shrinks, and the frame budget shrinks with it, so queue
*pressure* (frames per hot page) matches the full configuration.  Every
policy whose decisions derive from per-page state (all registered ones)
therefore sees a statistically equivalent workload.

Scale-up (:func:`scale_accounting`) keys each counter family to how it
is best known: fault/migration/eviction flows scale by the measured
page ratio, per-direction request totals are taken *exactly* from the
full trace (they are a vectorized count, not something to estimate),
and hits are the exact residual split by the sampled DRAM/NVM
proportions.  At rate 1 every input matches and the engine is
bit-identical to ``engine="simulate"`` (pinned by
``tests/test_sampling.py``).

The rate adapts to the rare events: a replay that sees fewer than
``min_faults`` faults gives way to a 4x denser draw, down to exact
replay.  Before a sparse draw replays, the LRU stack distances of its
subset (its page index's cached Mattson pass, ``O(requests / K)``)
predict its faults at the scaled frames the policy can fill — the
replay's own count for an LRU baseline, a model for the other
policies — and a draw with no measured request, or predicted more
than two Poisson standard errors under ``min_faults``, is skipped
unreplayed.  At rate 1 the engine runs one exact replay with no
replicates.

Algorithm 1 reads its thresholds only in ``counter > threshold``, so a
replay of the stock proposed policy certifies a box of read x write
threshold pairs that decide every comparison alike
(:meth:`~repro.core.migration.MigrationLRUPolicy.threshold_box`).  A
bounded process-wide memo (:data:`_REPLAYS`) keeps such replays per
subset, scaled machine, warm-up, gap and threshold-free policy
config, and a later spec whose thresholds fall inside a stored box
takes that replay instead of running its own: a threshold sweep
replays each distinct decision path once.  Sanitized processes, the
adaptive policy and every other policy always replay.

Uncertainty comes from stratified page-group replicates: consecutive
sampled ranks rotate through ``groups`` disjoint sub-samples,
each simulated at rate ``K * groups``; the spread of their scaled
metrics gives a standard error and a normal confidence interval per
metric.  The replicates together replay roughly as many requests as
the main sample, so intervals cost about one extra 1/K pass.

The warm-up boundary is computed on the *full* trace and mapped into
the sample (``warmup_requests``), so sampled runs warm up over exactly
the requests the full run would.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import replace
from typing import TYPE_CHECKING

import numpy as np

from repro.core.migration import MigrationLRUPolicy, ThresholdBox
from repro.memory.accounting import AccessAccounting, WearAccounting
from repro.memory.specs import HybridMemorySpec
from repro.mmu.manager import MemoryManager
from repro.mmu.simulator import (
    PolicyFactory,
    RunResult,
    sanitize_default,
    simulate,
)
from repro.model.estimator import lru_capacity
from repro.sampling.config import SamplingConfig
from repro.sampling.summary import MetricInterval, SamplingSummary
from repro.trace.sampling import page_groups, page_membership, subset_trace
from repro.trace.trace import Trace
from repro.workloads.parsec import MEMO_LIMIT, WorkloadInstance

if TYPE_CHECKING:
    from repro.experiments.runspec import RunSpec

__all__ = ["SamplingError", "sample_spec", "scale_accounting"]


class SamplingError(ValueError):
    """The spec cannot be evaluated under its sampling configuration."""


# ---------------------------------------------------------------------------
# Scale-up
# ---------------------------------------------------------------------------
def scale_accounting(
    accounting: AccessAccounting,
    wear: WearAccounting,
    page_multiplier: float,
    measured_reads: int,
    measured_writes: int,
    dram_share: float = 0.5,
) -> tuple[AccessAccounting, WearAccounting]:
    """Scale sampled counters up, preserving the bookkeeping identities
    :meth:`AccessAccounting.validate` enforces.

    The estimator combines three sources by how each is best known:

    * **Faults, migrations and evictions** are page-population events:
      a cold fault happens once per page, capacity misses live in the
      flat tail whose request mass tracks the page count, and the
      migration/eviction flows are driven by the fault flow.  They
      scale by the measured distinct-page ratio (``page_multiplier``).
    * **Request totals** per direction are *known exactly* — the full
      trace is in memory, counting its writes is a vectorized O(n) —
      so ``measured_reads``/``measured_writes`` are used verbatim, and
      hits are the residual ``measured - scaled faults``.  (Scaling
      hits by a sampled-request ratio instead couples the request
      total to the sample's request mass, which on zipf-like traces
      has enormous variance: one missed hot page can halve it.)
    * **Hit composition** (DRAM vs NVM per direction) is the one thing
      only the replay knows; the sampled proportions split the exact
      residuals.  Composition multiplies nanosecond-scale hit
      latencies, so its sampling noise is second-order in AMAT/APPR.

    When ``page_multiplier`` is ``1.0`` and the measured totals match
    the accounting's (the K=1 identity path), the inputs are returned
    unchanged.

    The wear histogram is deliberately *not* scaled: a sampled page's
    write count is its true write count, so per-page wear statistics
    (``max_page_writes``, the lifetime bound) stay in real units while
    the per-source write-volume totals scale with the sample —
    fill/migration wear by the page ratio, request wear with the NVM
    write-hit estimate it is proportional to.
    """
    if (
        page_multiplier == 1.0
        and measured_reads == accounting.read_requests
        and measured_writes == accounting.write_requests
    ):
        return accounting, wear
    if page_multiplier <= 0.0:
        raise ValueError("scale-up multiplier must be positive")
    if measured_reads < 0 or measured_writes < 0:
        raise ValueError("measured request totals must be non-negative")

    def by_pages(count: int) -> int:
        return max(0, round(count * page_multiplier))

    def split(total: int, dram_part: int, nvm_part: int) -> tuple[int, int]:
        """Split an exact hit total by the sampled tier proportion."""
        denom = dram_part + nvm_part
        all_hits = accounting.dram_hits + accounting.nvm_hits
        if denom:
            proportion = dram_part / denom
        elif all_hits:
            proportion = accounting.dram_hits / all_hits
        else:
            proportion = dram_share
        dram = min(total, round(total * proportion))
        return dram, total - dram

    read_faults = min(by_pages(accounting.read_faults), measured_reads)
    write_faults = min(by_pages(accounting.write_faults), measured_writes)
    faults = read_faults + write_faults
    faults_filled_dram = min(by_pages(accounting.faults_filled_dram), faults)
    dram_read_hits, nvm_read_hits = split(
        measured_reads - read_faults,
        accounting.dram_read_hits, accounting.nvm_read_hits,
    )
    dram_write_hits, nvm_write_hits = split(
        measured_writes - write_faults,
        accounting.dram_write_hits, accounting.nvm_write_hits,
    )
    scaled_accounting = AccessAccounting(
        read_requests=measured_reads,
        write_requests=measured_writes,
        dram_read_hits=dram_read_hits,
        dram_write_hits=dram_write_hits,
        nvm_read_hits=nvm_read_hits,
        nvm_write_hits=nvm_write_hits,
        read_faults=read_faults,
        write_faults=write_faults,
        faults_filled_dram=faults_filled_dram,
        faults_filled_nvm=faults - faults_filled_dram,
        migrations_to_dram=by_pages(accounting.migrations_to_dram),
        migrations_to_nvm=by_pages(accounting.migrations_to_nvm),
        clean_evictions=by_pages(accounting.clean_evictions),
        dirty_evictions=by_pages(accounting.dirty_evictions),
    )
    scaled_accounting.validate()
    request_wear_factor = (
        nvm_write_hits / accounting.nvm_write_hits
        if accounting.nvm_write_hits
        else page_multiplier
    )
    scaled_wear = WearAccounting(
        page_factor=wear.page_factor,
        fault_fill_writes=by_pages(wear.fault_fill_writes),
        migration_writes=by_pages(wear.migration_writes),
        request_writes=max(0, round(wear.request_writes * request_wear_factor)),
        page_writes=dict(wear.page_writes),
    )
    return scaled_accounting, scaled_wear


# ---------------------------------------------------------------------------
# One sampled replay
# ---------------------------------------------------------------------------
class _Membership:
    """Per-unique-page sampling machinery, computed once per spec.

    The trace's cached :class:`~repro.trace.trace.PageIndex` gives the
    sorted page population, per-page request counts and the page index
    of every request, so a sweep over one rendered trace sorts it at
    most once; membership and replicate-group decisions then run over
    the (small) unique-page array and broadcast back through the
    inverse, so each candidate rate's draw costs O(pages) plus one
    gather, not another O(requests log requests) sort.
    """

    def __init__(self, trace: Trace, salt: int) -> None:
        self.salt = salt
        index = trace.page_index()
        self.pages, self.inverse, self.counts = (
            index.pages, index.inverse, index.counts)

    @property
    def total_pages(self) -> int:
        return int(self.pages.size)

    def member(self, rate: int) -> np.ndarray:
        """Page mask (over ``pages``) of the 1-in-``rate`` draw."""
        return page_membership(
            self.pages, self.counts, rate, "stratified", self.salt)

    def draw(self, rate: int) -> tuple[np.ndarray, int]:
        """Request mask and distinct-page count of a 1-in-``rate`` draw."""
        member = self.member(rate)
        return member[self.inverse], int(np.count_nonzero(member))

    def replicate_draws(
        self, rate: int, groups: int
    ) -> list[tuple[np.ndarray, int]]:
        """The ``groups`` disjoint sub-draws of the 1-in-``rate`` draw."""
        member = self.member(rate)
        ids = page_groups(self.counts, groups, rate)
        count = np.count_nonzero
        inverse = self.inverse
        draws = []
        for group in range(groups):
            sub = member & (ids == group)
            draws.append((sub[inverse], int(count(sub))))
        return draws


#: Sparse draws (rate > 1), cached per (trace index identity, salt,
#: rate, warm-up boundary), and the replicate sub-draws of a draw per
#: (trace index identity, salt, rate, warm-up boundary, groups): each
#: subset trace with its distinct pages and warm-up requests.  A
#: subset's own page index caches the LRU stack distances the rate
#: choice predicts from, so a sweep over one trace draws, sorts and
#: runs that Mattson pass once per rate; reusing the subset objects
#: also lets :data:`_REPLAYS` serve replicate replays.  Entries hold
#: the index, so ``id()`` keys stay valid.  Cleared whole at
#: :data:`MEMO_LIMIT`.
_DRAWS: dict[tuple, tuple] = {}

_Draw = tuple[Trace, int, int]


def _memo_draws(
    trace: Trace, membership: _Membership, rate: int, boundary: int,
    groups: int,
) -> list[_Draw]:
    """The 1-in-``rate`` draw (``groups == 0``) or its ``groups``
    replicate sub-draws, memoised in :data:`_DRAWS`."""
    index = trace.page_index()
    key = (id(index), membership.salt, rate, boundary, groups)
    cached = _DRAWS.get(key)
    if cached is not None:
        return cached[1]
    masks = (membership.replicate_draws(rate, groups) if groups
             else [membership.draw(rate)])
    draws = [(subset_trace(trace, mask), pages, _warm(mask, boundary))
             for mask, pages in masks]
    if len(_DRAWS) >= MEMO_LIMIT:
        _DRAWS.clear()
    _DRAWS[key] = (index, draws)
    return draws


def _sparse_draw(
    trace: Trace, membership: _Membership, rate: int, boundary: int
) -> _Draw:
    """Subset trace, distinct pages and warm-up requests of the
    1-in-``rate`` draw (memoised in :data:`_DRAWS`)."""
    return _memo_draws(trace, membership, rate, boundary, 0)[0]


def _warm(mask: np.ndarray, boundary: int) -> int:
    """Requests of the masked subset that fall before ``boundary``."""
    return int(np.count_nonzero(mask[:boundary])) if boundary else 0


#: Replays of threshold-box policies (:meth:`MigrationLRUPolicy.
#: threshold_box`), keyed by (subset index identity, subset name,
#: scaled machine, warm-up requests, gap, policy class, config without
#: thresholds): the subset's index (held so the ``id()`` stays valid)
#: and each stored raw result with the box it certifies.  Cleared
#: whole before it would outgrow :data:`REPLAY_LIMIT` results or
#: :data:`REPLAY_PAGE_LIMIT` per-page wear entries.
_REPLAYS: dict[tuple, tuple[object, list[tuple[ThresholdBox, RunResult]]]] = {}

#: Raw results :data:`_REPLAYS` holds at most: every distinct outcome
#: of the 7 x 3 threshold sweep over three workloads (54) fits.
REPLAY_LIMIT = 4 * MEMO_LIMIT

#: Per-page wear-histogram entries (~100 bytes each, the bulk of a
#: stored result) :data:`_REPLAYS` holds at most.
REPLAY_PAGE_LIMIT = 1 << 18

#: What a box-reusable spec replays under: (policy class, config
#: without thresholds) and its (read, write) thresholds.
_BoxPolicy = tuple[tuple, tuple[float, float]]


def _box_policy(
    factory: PolicyFactory, machine: HybridMemorySpec
) -> _BoxPolicy | None:
    """The reuse identity of the policy ``factory`` builds, or ``None``
    when its replays must all run: a class that does not
    :meth:`~MigrationLRUPolicy.decides_by_threshold_box`, or a
    sanitized process (the sanitizer checks every replay, as the
    executor's ``baseline_twin`` derivation does).  The engine never
    attaches an event bus."""
    if sanitize_default():
        return None
    policy = factory(MemoryManager(machine))
    if not (isinstance(policy, MigrationLRUPolicy)
            and policy.decides_by_threshold_box()):
        return None
    config = replace(policy.config, read_threshold=0, write_threshold=0)
    return ((type(policy), config),
            (policy.read_threshold, policy.write_threshold))


def _own_counters(result: RunResult) -> RunResult:
    """``result`` with its own copies of the mutable counters, so a
    stored replay never shares them with a handed-out one (at rate 1
    :func:`scale_accounting` passes them through unchanged)."""
    wear = result.wear
    return replace(
        result,
        accounting=replace(result.accounting),
        wear=replace(wear, page_writes=dict(wear.page_writes)),
    )


def _replay(
    subset: Trace,
    warm: int,
    machine: HybridMemorySpec,
    factory: PolicyFactory,
    gap: float,
    box_policy: _BoxPolicy | None,
) -> RunResult:
    """``simulate`` the subset, or reuse a stored replay whose threshold
    box holds ``box_policy``'s thresholds: every comparison decides
    alike there, so the replay would be bit-identical."""
    if box_policy is None:
        return simulate(subset, machine, factory, inter_request_gap=gap,
                        warmup_requests=warm)
    policy_key, thresholds = box_policy
    index = subset.page_index()
    key = (id(index), subset.name, machine, warm, gap, policy_key)
    entry = _REPLAYS.get(key)
    if entry is not None:
        for box, stored in entry[1]:
            if all(lo <= threshold <= hi
                   for (lo, hi), threshold in zip(box, thresholds)):
                return _own_counters(stored)
    policies: list[MigrationLRUPolicy] = []

    def build(mm: MemoryManager) -> MigrationLRUPolicy:
        policy = factory(mm)
        policies.append(policy)
        return policy

    raw = simulate(subset, machine, build, inter_request_gap=gap,
                   warmup_requests=warm)
    held = [result for _, stored in _REPLAYS.values() for _, result in stored]
    pages = len(raw.wear.page_writes)
    if len(held) >= REPLAY_LIMIT or pages + sum(
            len(result.wear.page_writes) for result in held
    ) > REPLAY_PAGE_LIMIT:
        _REPLAYS.clear()
    if pages <= REPLAY_PAGE_LIMIT:
        _REPLAYS.setdefault(key, (index, []))[1].append(
            (policies[0].threshold_box(), _own_counters(raw)))
    return raw


def _predicted_faults(subset: Trace, warm: int, frames: int) -> int:
    """Faults a ``frames``-frame LRU memory takes on ``subset`` after
    its first ``warm`` requests: those whose stack distance (the
    subset index's cached Mattson pass) is -1 or at least ``frames``.
    """
    distances = subset.page_index().distances[warm:]
    return int(np.count_nonzero((distances < 0) | (distances >= frames)))


def _replay_subset(
    subset: Trace,
    warm: int,
    subset_pages: int,
    machine: HybridMemorySpec,
    total_pages: int,
    measured_reads: int,
    measured_writes: int,
    factory: PolicyFactory,
    gap: float,
    box_policy: _BoxPolicy | None = None,
) -> tuple[RunResult, RunResult, int, float] | None:
    """Simulate ``subset`` (its first ``warm`` requests warming up) at
    a proportionally scaled frame budget, scale its counters up and
    score them against the full ``machine``; ``None`` when the subset
    has no measured span (degenerate replicate).  Returns the subset's
    own result, the scaled result, the measured sampled request count
    and the request multiplier.  ``box_policy`` lets the replay come
    from :data:`_REPLAYS` (:func:`_replay`).

    The frame budget scales by the *measured* page ratio (the
    SHARDS-adj correction): a draw that lands more pages than
    ``1/rate`` of the footprint gets proportionally more frames, so the
    frames-per-page capacity ratio — which the fault rate is extremely
    sensitive to — matches the full configuration exactly.
    """
    measured_sampled = len(subset) - warm
    if not subset_pages or measured_sampled <= 0:
        return None
    raw = _replay(subset, warm, machine.sampled(total_pages / subset_pages),
                  factory, gap, box_policy)
    multiplier = (measured_reads + measured_writes) / measured_sampled
    accounting, wear = scale_accounting(
        raw.accounting, raw.wear,
        total_pages / subset_pages,
        measured_reads, measured_writes,
        dram_share=machine.dram_pages / machine.total_pages,
    )
    scaled = RunResult.scored(
        subset.name, raw.policy, machine, accounting, wear, gap)
    return raw, scaled, measured_sampled, multiplier


def _interval_values(result: RunResult) -> dict[str, float]:
    """The metrics the confidence intervals cover, by name (in the
    order the summary lists them)."""
    return {
        "amat": result.performance.amat,
        "appr": result.power.appr,
        "nvm_writes": float(result.nvm_writes.total),
    }


# ---------------------------------------------------------------------------
# Confidence intervals
# ---------------------------------------------------------------------------
def _replicate_intervals(
    trace: Trace,
    membership: _Membership,
    boundary: int,
    machine: HybridMemorySpec,
    total_pages: int,
    measured_reads: int,
    measured_writes: int,
    config: SamplingConfig,
    rate: int,
    factory: PolicyFactory,
    gap: float,
    box_policy: _BoxPolicy | None,
    estimates: dict[str, float],
) -> tuple[dict[str, MetricInterval], int]:
    """Stratified page-group confidence intervals around ``estimates``.

    Each of the ``groups`` disjoint sub-samples is a spatial sample at
    a ``groups``-times smaller rate; the replicate spread estimates
    the sampling variance of the group *mean*, which is the estimator
    the point estimate approximates.
    """
    replicates: list[dict[str, float]] = []
    for subset, sub_pages, warm in _memo_draws(
        trace, membership, rate, boundary, config.groups
    ):
        replay = _replay_subset(
            subset, warm, sub_pages, machine, total_pages, measured_reads,
            measured_writes, factory, gap, box_policy,
        )
        if replay is None:
            continue
        replicates.append(_interval_values(replay[1]))
    if len(replicates) < 2:
        return {}, 0
    z = statistics.NormalDist().inv_cdf((1.0 + config.confidence) / 2.0)
    intervals: dict[str, MetricInterval] = {}
    for metric, estimate in estimates.items():
        values = [replicate[metric] for replicate in replicates]
        se = statistics.stdev(values) / len(values) ** 0.5
        intervals[metric] = MetricInterval(
            estimate=estimate, se=se,
            lo=estimate - z * se, hi=estimate + z * se,
        )
    return intervals, len(replicates)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def sample_spec(
    spec: "RunSpec",
    instance: WorkloadInstance | None = None,
) -> RunResult:
    """Sampled counterpart of ``RunSpec.execute()``.

    Renders (or reuses) the workload, draws the stratified page
    sample, replays it at the scaled frame budget, scales the counters
    back up, scores them against the full machine, and attaches a
    :class:`SamplingSummary` (with replicate confidence intervals) to
    the result.
    """
    config = spec.sampling if spec.sampling is not None else SamplingConfig()
    instance, machine, warmup = spec.resolve(instance)
    trace = instance.trace
    gap = instance.inter_request_gap
    boundary = int(len(trace) * warmup) if warmup > 0.0 else 0

    membership = _Membership(trace, config.salt)
    total_pages = membership.total_pages
    measured_writes = int(np.count_nonzero(trace.is_write[boundary:]))
    measured_reads = len(trace) - boundary - measured_writes
    policy_factory = spec.build_policy_factory()
    box_policy = _box_policy(policy_factory, machine)

    # SHARDS-style rate adaptation on the rare events.  Faults are the
    # count whose ~1/sqrt(n) noise dominates AMAT error, so a replay
    # that sees fewer than ``min_faults`` gives way to a 4x denser
    # draw, bottoming out at exact replay.  A sparse draw is first
    # judged unreplayed: the LRU faults of its subset at the scaled
    # frames the policy can fill predict what its replay will see —
    # exactly for an LRU baseline, as a model for the others — and a
    # draw without a measured request, or predicted more than two
    # Poisson standard errors under the floor, is skipped.
    rate = config.effective_rate(total_pages)
    skip_below = config.min_faults - 2.0 * math.sqrt(config.min_faults)
    while True:
        if rate == 1:
            subset, sampled_pages, warm = trace, total_pages, boundary
        else:
            subset, sampled_pages, warm = _sparse_draw(
                trace, membership, rate, boundary)
            if len(subset) == warm or _predicted_faults(
                subset, warm, lru_capacity(spec.policy, machine.sampled(
                    total_pages / sampled_pages)),
            ) < skip_below:
                rate = max(1, rate // 4)
                continue
        replay = _replay_subset(
            subset, warm, sampled_pages, machine, total_pages,
            measured_reads, measured_writes, policy_factory, gap,
            box_policy,
        )
        if replay is None:  # only at rate 1: sparse draws were checked
            raise SamplingError(
                f"the warm-up boundary leaves no measured requests for "
                f"{spec.workload!r}; lower warmup_fraction"
            )
        if rate == 1 or replay[0].accounting.page_faults >= config.min_faults:
            break
        rate = max(1, rate // 4)
    _, result, measured_sampled, multiplier = replay

    intervals: dict[str, MetricInterval] = {}
    replicate_count = 0
    if rate > 1 and config.groups > 1:
        intervals, replicate_count = _replicate_intervals(
            trace, membership, boundary, machine, total_pages,
            measured_reads, measured_writes, config, rate,
            policy_factory, gap, box_policy,
            estimates=_interval_values(result),
        )

    return replace(result, sampling=SamplingSummary(
        rate=config.rate,
        effective_rate=rate,
        salt=config.salt,
        sampled_pages=sampled_pages,
        total_pages=total_pages,
        sampled_requests=measured_sampled,
        total_requests=len(trace) - boundary,
        multiplier=multiplier,
        groups=replicate_count,
        confidence=config.confidence,
        intervals=intervals,
    ))
