"""Generic synthetic workloads for tests, examples and ablations.

These are not tied to any PARSEC profile; they exercise specific policy
behaviours in isolation (pure locality, scan loops, adversarial
ping-pong, threshold-length bursts).
"""

from __future__ import annotations

from repro.trace.trace import Trace
from repro.workloads.base import (
    BernoulliWrites,
    BurstPattern,
    LoopPattern,
    MixturePattern,
    Phase,
    PhasedWorkload,
    SequentialScan,
    UniformPattern,
    ZipfPattern,
)


def zipf_workload(
    pages: int = 512,
    requests: int = 50_000,
    alpha: float = 1.2,
    write_ratio: float = 0.3,
    seed: int = 0,
    name: str = "zipf",
) -> Trace:
    """Skewed-popularity workload: the bread-and-butter locality case."""
    workload = PhasedWorkload(name, [
        Phase(SequentialScan(pages), BernoulliWrites(write_ratio), pages),
        Phase(ZipfPattern(pages, alpha=alpha, permute_seed=seed),
              BernoulliWrites(write_ratio), requests),
    ])
    return workload.build(seed=seed)


def scan_loop_workload(
    pages: int = 512,
    window: int | None = None,
    requests: int = 50_000,
    write_ratio: float = 0.05,
    seed: int = 0,
    name: str = "scan-loop",
) -> Trace:
    """Repeated sweeps over a window (streamcluster-like)."""
    workload = PhasedWorkload(name, [
        Phase(LoopPattern(pages, window=window), BernoulliWrites(write_ratio),
              requests),
    ])
    return workload.build(seed=seed)


def burst_workload(
    pages: int = 512,
    requests: int = 50_000,
    burst_low: int = 8,
    burst_high: int = 16,
    write_ratio: float = 0.2,
    seed: int = 0,
    name: str = "bursty",
) -> Trace:
    """Threshold-length bursts (raytrace-like promotion bait)."""
    workload = PhasedWorkload(name, [
        Phase(SequentialScan(pages), BernoulliWrites(write_ratio), pages),
        Phase(BurstPattern(pages, burst_low, burst_high),
              BernoulliWrites(write_ratio), requests),
    ])
    return workload.build(seed=seed)


def pingpong_workload(
    pages: int = 512,
    requests: int = 50_000,
    write_ratio: float = 0.3,
    seed: int = 0,
    name: str = "pingpong",
) -> Trace:
    """Scattered writes over a low-locality read stream.

    Under CLOCK-DWF every write to an NVM page forces a round trip;
    under the proposed scheme the write is served in place.  This is
    the distilled canneal/fluidanimate failure mode.
    """
    pattern = MixturePattern([
        (UniformPattern(pages), 0.4),
        (ZipfPattern(pages, alpha=0.9, permute_seed=seed), 0.6),
    ])
    workload = PhasedWorkload(name, [
        Phase(SequentialScan(pages), BernoulliWrites(write_ratio), pages),
        Phase(pattern, BernoulliWrites(write_ratio), requests),
    ])
    return workload.build(seed=seed)
