"""What a sampled run measured about its own sampling.

:class:`SamplingSummary` rides on :class:`~repro.mmu.simulator.RunResult`
(like :class:`~repro.obs.summary.EventSummary` does for event streams):
it records the sample actually drawn — configured vs effective rate,
page and request coverage, the scale-up multiplier — plus the
per-metric confidence intervals estimated from the replicate groups.
It must round-trip losslessly through ``to_dict``/``from_dict`` so
sampled results survive the worker pool and the on-disk result cache.

This module stays stdlib-only: the simulator imports it at module load
(the engine, which imports the simulator back, is loaded lazily by
``RunSpec.execute``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping


@dataclass(frozen=True)
class MetricInterval:
    """One scaled metric with its stratified-replicate uncertainty.

    ``estimate`` is the scaled-up point estimate the result reports;
    ``se`` is the standard error of the replicate-group mean; ``lo`` /
    ``hi`` bracket the estimate at the configured confidence level.
    """

    estimate: float
    se: float
    lo: float
    hi: float

    @property
    def half_width(self) -> float:
        return (self.hi - self.lo) / 2.0

    @property
    def relative_half_width(self) -> float:
        """Half-width as a fraction of the estimate (0 when degenerate)."""
        return self.half_width / abs(self.estimate) if self.estimate else 0.0

    def to_dict(self) -> dict[str, float]:
        return {"estimate": self.estimate, "se": self.se,
                "lo": self.lo, "hi": self.hi}

    @classmethod
    def from_dict(cls, data: Mapping[str, float]) -> "MetricInterval":
        return cls(estimate=data["estimate"], se=data["se"],
                   lo=data["lo"], hi=data["hi"])


@dataclass(frozen=True)
class SamplingSummary:
    """Provenance and uncertainty of one sampled run."""

    #: Configured 1-in-K rate and the rate actually used after the
    #: ``min_pages`` clamp (equal unless the workload was too small).
    rate: int
    effective_rate: int
    salt: int
    #: Page coverage: distinct pages in the sample vs the full trace.
    sampled_pages: int
    total_pages: int
    #: Measured-region request coverage: replayed vs full.
    sampled_requests: int
    total_requests: int
    #: Scale-up factor applied to the sampled counters (the ratio
    #: estimator ``total_requests / sampled_requests``).
    multiplier: float
    #: Replicate groups that contributed to the intervals (0 when
    #: interval estimation was disabled or degenerate).
    groups: int
    confidence: float
    #: Per-metric confidence intervals, keyed ``amat`` / ``appr`` /
    #: ``nvm_writes`` (empty when ``groups`` is 0).
    intervals: Mapping[str, MetricInterval] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "rate": self.rate,
            "effective_rate": self.effective_rate,
            "salt": self.salt,
            "sampled_pages": self.sampled_pages,
            "total_pages": self.total_pages,
            "sampled_requests": self.sampled_requests,
            "total_requests": self.total_requests,
            "multiplier": self.multiplier,
            "groups": self.groups,
            "confidence": self.confidence,
            "intervals": {
                name: interval.to_dict()
                for name, interval in sorted(self.intervals.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SamplingSummary":
        return cls(
            rate=data["rate"],
            effective_rate=data["effective_rate"],
            salt=data["salt"],
            sampled_pages=data["sampled_pages"],
            total_pages=data["total_pages"],
            sampled_requests=data["sampled_requests"],
            total_requests=data["total_requests"],
            multiplier=data["multiplier"],
            groups=data["groups"],
            confidence=data["confidence"],
            intervals={
                name: MetricInterval.from_dict(payload)
                for name, payload in data.get("intervals", {}).items()
            },
        )
