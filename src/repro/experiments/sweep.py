"""Parameter sweeps: the ablation studies DESIGN.md calls out.

Each sweep runs the proposed scheme across one knob — promotion
thresholds (A-1), counter-window size (A-2), DRAM share (A-3) — and the
adaptive-threshold extension study (A-4), returning per-point metric
rows suitable for table rendering and shape assertions.

Every sweep point is a declarative
:class:`~repro.experiments.runspec.RunSpec` (policy overrides for the
threshold/window knobs, a ``dram-fraction`` spec transform for the
capacity split) submitted through an executor, so sweeps parallelise
and hit the persistent result cache exactly like the figure grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.adaptive import AdaptiveMigrationPolicy
from repro.core.config import MigrationConfig
from repro.experiments.executor import ParallelExecutor
from repro.experiments.runner import ExperimentRunner
from repro.experiments.runspec import RunSpec
from repro.mmu.simulator import RunResult
from repro.obs.config import EventConfig
from repro.sampling import SamplingConfig


@dataclass(frozen=True)
class SweepPoint:
    """One sweep sample: the knob value and the metrics it produced."""

    parameter: str
    value: float
    amat_ns: float
    memory_time_ns: float
    appr_nj: float
    nvm_writes: int
    migrations_to_dram: int
    migrations_to_nvm: int

    @classmethod
    def from_run(cls, parameter: str, value: float,
                 run: RunResult) -> "SweepPoint":
        return cls(
            parameter=parameter,
            value=value,
            amat_ns=run.performance.amat * 1e9,
            memory_time_ns=run.performance.memory_time * 1e9,
            appr_nj=run.power.appr * 1e9,
            nvm_writes=run.nvm_writes.total,
            migrations_to_dram=run.accounting.migrations_to_dram,
            migrations_to_nvm=run.accounting.migrations_to_nvm,
        )


#: What a sweep submits through: an executor, or a runner whose memo
#: keeps the (spec, result) pairs for the caller.
Submitter = ParallelExecutor | ExperimentRunner


def _submit(specs: Sequence[RunSpec],
            executor: Submitter | None) -> list[RunResult]:
    return (executor or ParallelExecutor(jobs=1)).submit(list(specs))


def threshold_sweep(
    workload: str = "raytrace",
    thresholds: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
    base_config: MigrationConfig | None = None,
    seed: int = 2016,
    executor: Submitter | None = None,
    events: EventConfig | None = None,
    engine: str = "simulate",
    sampling: SamplingConfig | None = None,
) -> list[SweepPoint]:
    """Sweep both promotion thresholds together (A-1).

    The write threshold tracks at half the read threshold, preserving
    the scheme's write-priority rule.  ``events`` attaches the
    observability bus to every point (submit through an
    :class:`ExperimentRunner` to read the per-spec summaries back off
    its memo).  ``engine="analytic"`` evaluates
    the closed-form estimator instead of simulating each point;
    ``engine="sampled"`` replays a spatial page sample per point
    (``sampling`` tunes it).
    """
    base = base_config or MigrationConfig()
    specs = [
        RunSpec(
            workload,
            policy="proposed",
            seed=seed,
            events=events,
            engine=engine,
            sampling=sampling,
            policy_overrides={
                "read_window_fraction": base.read_window_fraction,
                "write_window_fraction": base.write_window_fraction,
                "read_threshold": threshold,
                "write_threshold": max(1, threshold // 2),
            },
        )
        for threshold in thresholds
    ]
    return [
        SweepPoint.from_run("read_threshold", threshold, run)
        for threshold, run in zip(thresholds, _submit(specs, executor))
    ]


def window_sweep(
    workload: str = "dedup",
    fractions: Sequence[float] = (0.02, 0.05, 0.1, 0.2, 0.5, 1.0),
    seed: int = 2016,
    executor: Submitter | None = None,
    events: EventConfig | None = None,
    engine: str = "simulate",
    sampling: SamplingConfig | None = None,
) -> list[SweepPoint]:
    """Sweep the counter-window size (A-2); the write window tracks at
    1.5x the read window, capped at the whole queue."""
    base = MigrationConfig()
    specs = [
        RunSpec(
            workload,
            policy="proposed",
            seed=seed,
            events=events,
            engine=engine,
            sampling=sampling,
            policy_overrides={
                "read_window_fraction": fraction,
                "write_window_fraction": min(1.0, fraction * 1.5),
                "read_threshold": base.read_threshold,
                "write_threshold": base.write_threshold,
            },
        )
        for fraction in fractions
    ]
    return [
        SweepPoint.from_run("read_window_fraction", fraction, run)
        for fraction, run in zip(fractions, _submit(specs, executor))
    ]


def dram_ratio_sweep(
    workload: str = "dedup",
    ratios: Sequence[float] = (0.05, 0.1, 0.2, 0.3, 0.5),
    seed: int = 2016,
    executor: Submitter | None = None,
    events: EventConfig | None = None,
    engine: str = "simulate",
    sampling: SamplingConfig | None = None,
) -> list[SweepPoint]:
    """Sweep DRAM's share of the hybrid memory (A-3)."""
    specs = [
        RunSpec(
            workload,
            policy="proposed",
            seed=seed,
            events=events,
            engine=engine,
            sampling=sampling,
            spec_transform=("dram-fraction", ratio),
        )
        for ratio in ratios
    ]
    return [
        SweepPoint.from_run("dram_fraction", ratio, run)
        for ratio, run in zip(ratios, _submit(specs, executor))
    ]


@dataclass(frozen=True)
class AdaptiveComparison:
    """Fixed-threshold vs adaptive-threshold outcome on one workload."""

    workload: str
    fixed: SweepPoint
    adaptive: SweepPoint
    final_read_threshold: int
    final_write_threshold: int
    promotion_efficiency: float

    @property
    def amat_improvement(self) -> float:
        """Relative memory-time gain of adaptive over fixed (+ = better)."""
        if self.fixed.memory_time_ns == 0:
            return 0.0
        return 1.0 - self.adaptive.memory_time_ns / self.fixed.memory_time_ns


def adaptive_comparison(workload: str = "raytrace",
                        seed: int = 2016) -> AdaptiveComparison:
    """Run the A-4 extension study: does adaptation help the workloads
    whose optimal thresholds differ (Section V-B's raytrace remark)?"""
    fixed_spec = RunSpec(workload, policy="proposed", seed=seed)
    fixed_run = fixed_spec.execute()

    # The study reads the *policy object* back (learned thresholds,
    # promotion telemetry), so the adaptive run substitutes a capturing
    # factory — RunSpec.execute supports that directly, bypassing the
    # result cache because the factory is outside the spec's identity.
    adaptive_policy_box: list[AdaptiveMigrationPolicy] = []

    def adaptive_factory(mm):
        policy = AdaptiveMigrationPolicy(mm)
        adaptive_policy_box.append(policy)
        return policy

    adaptive_spec = RunSpec(workload, policy="adaptive", seed=seed)
    adaptive_run = adaptive_spec.execute(factory=adaptive_factory)
    policy = adaptive_policy_box[0]
    return AdaptiveComparison(
        workload=workload,
        fixed=SweepPoint.from_run("thresholds", 0, fixed_run),
        adaptive=SweepPoint.from_run("thresholds", 1, adaptive_run),
        final_read_threshold=policy.read_threshold,
        final_write_threshold=policy.write_threshold,
        promotion_efficiency=policy.promotion_efficiency,
    )
